"""Tiny polynomial expression language for base-dependent coefficients.

Expressions are polynomials with complex coefficients in a fixed set of
variables: `u`, `v` (real and imaginary components of the base point),
`lam` (shorthand for u + i*v) and, for homogeneous lifts, `x0` ... `x9`.
Supported syntax: `+ - * ^` (or `**`), parentheses, and numeric literals
with an optional trailing `i`/`j` imaginary suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?[ij]?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*^()]))"
)


class Poly:
    """Multivariate polynomial: {exponent tuple -> complex coefficient}."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: tuple[str, ...], terms: dict[tuple[int, ...], complex] | None = None):
        self.vars = variables
        self.terms = dict(terms or {})

    @classmethod
    def const(cls, variables: tuple[str, ...], c: complex) -> "Poly":
        if c == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): complex(c)})

    @classmethod
    def var(cls, variables: tuple[str, ...], name: str) -> "Poly":
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): 1.0 + 0j})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0j) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0j) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.vars, out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ConfigError("negative exponents are not polynomial")
        out = Poly.const(self.vars, 1.0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c: complex) -> "Poly":
        return Poly(self.vars, {e: c * v for e, v in self.terms.items()})

    def is_constant(self) -> bool:
        zero = (0,) * len(self.vars)
        return all(e == zero for e in self.terms)

    def eval(self, values: dict[str, np.ndarray | complex | float]):
        """Evaluate with scalars or broadcastable arrays per variable."""
        acc = None
        for e, c in self.terms.items():
            term = np.multiply(c, 1.0)
            for name, p in zip(self.vars, e):
                if p:
                    term = term * np.asarray(values[name]) ** p
            acc = term if acc is None else acc + term
        if acc is None:
            shapes = [np.shape(val) for val in values.values()]
            wide = max(shapes, key=len, default=())
            return np.zeros(wide, dtype=complex) if wide else 0j
        return acc

    def __repr__(self) -> str:  # short debugging form
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{n}^{p}" for n, p in zip(self.vars, e) if p)
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits) or "0"


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ConfigError(f"cannot parse expression near {text[pos:pos + 12]!r}")
        out.append(m.group("num") or m.group("name") or m.group("op"))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], variables: tuple[str, ...]):
        self.toks = tokens
        self.pos = 0
        self.vars = variables

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ConfigError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ConfigError(f"trailing tokens in expression: {self.toks[self.pos:]}")
        return p

    def expr(self) -> Poly:
        p = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                p = p + self.term()
            else:
                p = p - self.term()
        return p

    def term(self) -> Poly:
        p = self.power()
        while self.peek() == "*":
            self.take()
            p = p * self.power()
        return p

    def power(self) -> Poly:
        p = self.atom()
        if self.peek() in ("^", "**"):
            self.take()
            tok = self.take()
            if not tok.isdigit():
                raise ConfigError("exponent must be a nonnegative integer")
            p = p ** int(tok)
        return p

    def atom(self) -> Poly:
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ConfigError("unbalanced parentheses")
            return p
        if tok == "-":
            return -self.atom()
        if tok == "+":
            return self.atom()
        if tok[0].isdigit() or tok[0] == ".":
            if tok[-1] in "ij":
                return Poly.const(self.vars, complex(0.0, float(tok[:-1])))
            return Poly.const(self.vars, float(tok))
        if tok in ("i", "j"):
            return Poly.const(self.vars, 1j)
        if tok == "lam":
            if "u" not in self.vars or "v" not in self.vars:
                raise ConfigError("'lam' needs base-point variables u, v")
            return Poly.var(self.vars, "u") + Poly.var(self.vars, "v").scale(1j)
        if tok in self.vars:
            return Poly.var(self.vars, tok)
        raise ConfigError(f"unknown variable {tok!r} (allowed: {self.vars} and 'lam')")


def parse_poly(text: str, variables: tuple[str, ...]) -> Poly:
    return _Parser(_tokenize(text), variables).parse()


BASE_VARS = ("u", "v")


@dataclass(frozen=True)
class CoeffMap:
    """Base-point dependent complex coefficient c(lambda).

    Continuity in lambda holds by construction (polynomial in the real
    components of lambda).
    """

    poly: Poly

    @classmethod
    def parse(cls, text: str) -> "CoeffMap":
        return cls(parse_poly(text, BASE_VARS))

    @classmethod
    def constant(cls, c: complex) -> "CoeffMap":
        return cls(Poly.const(BASE_VARS, c))

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        out = self.poly.eval({"u": lam.real, "v": lam.imag})
        out = np.asarray(out, dtype=complex)
        return complex(out[()]) if out.ndim == 0 else out

    def is_constant(self) -> bool:
        return self.poly.is_constant()

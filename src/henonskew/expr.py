"""Tiny polynomial expression language for base-dependent coefficients.

Expressions are polynomials with complex coefficients in a fixed set of
variables: `u`, `v` (real and imaginary components of the base point),
`lam` (shorthand for u + i*v) and, for homogeneous lifts, `x0` ... `x9`.
An expression is built from numbers (`0.3`, `05`, `1e-3`, and imaginary
ones with a trailing `i`/`j` such as `2i`), the imaginary unit `i`/`j`,
the variables, `+ - *`, unary `+ -`, `^` (or `**`) with a nonnegative
integer literal exponent, and parentheses. Python's grammar parses it,
with Python's precedence: `^` binds tightest, then unary signs, then `*`,
then `+ -`, all left to right except `^`. So `-u^2` is -(u^2) and
`2*-u^2` is -2u^2. Anything else (`/`, `u^v`, `2^3^2`, calls) is a
ConfigError.
"""

from __future__ import annotations

import ast
import operator
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


_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}


def _build(node: ast.expr, variables: tuple[str, ...]) -> Poly:
    match node:
        case ast.BinOp(left, ast.Pow(), ast.Constant(str(e))) if e.isdigit():
            return _build(left, variables) ** int(e)
        case ast.BinOp(_, ast.Pow(), _):
            raise ConfigError("exponent must be a nonnegative integer")
        case ast.BinOp(left, op, right) if type(op) in _ARITH:
            return _ARITH[type(op)](_build(left, variables), _build(right, variables))
        case ast.UnaryOp(ast.USub(), operand):
            return -_build(operand, variables)
        case ast.UnaryOp(ast.UAdd(), operand):
            return _build(operand, variables)
        case ast.Constant(str(tok)):  # a number token, quoted by parse_poly
            if tok[-1] in "ij":
                return Poly.const(variables, complex(0.0, float(tok[:-1])))
            return Poly.const(variables, float(tok))
        case ast.Name("i" | "j"):
            return Poly.const(variables, 1j)
        case ast.Name("lam"):
            if "u" not in variables or "v" not in variables:
                raise ConfigError("'lam' needs base-point variables u, v")
            return Poly.var(variables, "u") + Poly.var(variables, "v").scale(1j)
        case ast.Name(name) if name in variables:
            return Poly.var(variables, name)
        case ast.Name(name):
            raise ConfigError(f"unknown variable {name!r} (allowed: {variables} and 'lam')")
    # numbers are the only string literals, so unquoting gives back the text
    raise ConfigError(f"unsupported expression {ast.unparse(node).replace(chr(39), '')!r}")


def parse_poly(text: str, variables: tuple[str, ...]) -> Poly:
    """The polynomial in `variables` that `text` spells (grammar in the module docstring)."""
    # `^` is Python's `**`. A number token becomes a string literal, which
    # _build converts, so `05` and `2i` stay legal; it is parenthesised so
    # that two adjacent numbers make a call, rejected, and not one string.
    source = " ".join("**" if t == "^" else f"({t!r})" if t[0].isdigit() else t for t in _tokenize(text))
    try:
        return _build(ast.parse(source, mode="eval").body, variables)
    except (SyntaxError, RecursionError, ValueError):  # ValueError: an int() past 4300 digits
        raise ConfigError(f"cannot parse expression {text[:40]!r}") from None


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

import re

import numpy as np
import pytest

from henonskew.errors import ConfigError
from henonskew.expr import CoeffMap, parse_poly


def test_constant_and_imaginary():
    assert CoeffMap.parse("0.3")(0.7) == 0.3
    assert CoeffMap.parse("2i")(0.0) == 2j
    assert CoeffMap.parse("1 + 1j")(5.0) == 1 + 1j


def test_base_components():
    c = CoeffMap.parse("u - 2*v")
    assert c(0.5 + 0.25j) == pytest.approx(0.5 - 0.5)
    c2 = CoeffMap.parse("lam^2")
    lam = 0.3 + 0.4j
    assert c2(lam) == pytest.approx(lam ** 2)


def test_vectorized_eval():
    c = CoeffMap.parse("u*u + 1")
    lam = np.array([0.0, 1.0, 2.0], dtype=complex)
    np.testing.assert_allclose(c(lam), [1.0, 2.0, 5.0])


def test_precedence_and_parens():
    c = CoeffMap.parse("2*(u + 1)^2 - u")
    assert c(3.0) == pytest.approx(2 * 16 - 3)


def test_rejects_garbage():
    with pytest.raises(ConfigError):
        CoeffMap.parse("u + ")
    with pytest.raises(ConfigError):
        CoeffMap.parse("q * 2")
    with pytest.raises(ConfigError):
        CoeffMap.parse("u^v")


def test_lift_variables():
    p = parse_poly("x0^2 + u*x1*x2", ("u", "v", "x0", "x1", "x2"))
    val = p.eval({"u": 2.0, "v": 0.0, "x0": 3.0, "x1": 1.0, "x2": 5.0})
    assert complex(val) == pytest.approx(9 + 10)


@pytest.mark.parametrize("text, want", [
    ("-u^2", -9.0), ("-(u)^2", -9.0), ("2*-u^2", -18.0), ("-2^2", -4.0),
    ("-u**2", -9.0), ("(-u)^2", 9.0), ("1 - u^2", -8.0), ("u^(2)", 9.0),
])
def test_unary_sign_binds_looser_than_power(text, want):
    assert CoeffMap.parse(text)(3.0) == want


DEEP = 3000


@pytest.mark.parametrize("text", [
    "u^v", "u^2.0", "2^3^2", "u^-1", "u/2", "(u)(v)", "u and v", "None", "True", "not u",
    "u if v else lam", "2 3", "2i 3", "u 2", "2 (u)", "u ^ ^ 2", "",
    "-" * DEEP + "u", "(" * DEEP + "u" + ")" * DEEP, "u^" + "9" * 5000,
], ids=lambda t: t if len(t) < 20 else f"{t[:3]}...({len(t)} chars)")
def test_rejects_everything_outside_the_grammar(text):
    with pytest.raises(ConfigError):
        CoeffMap.parse(text)


def _signed(rng, depth):
    """A primary behind zero or more unary signs; never the operand of `^`."""
    if rng.random() < 0.25:
        return str(rng.choice(["-", "+", " -", "- "])) + _signed(rng, depth)
    return _primary(rng, depth)


def _primary(rng, depth):
    r = rng.random()
    if r < 0.4:  # number: leading zeros, fractions, exponents, imaginary suffixes
        digits = str(rng.integers(0, 20)).zfill(int(rng.integers(1, 3)))
        return digits + "".join(str(rng.choice(c)) for c in (["", ".", ".5", ".25"], ["", "", "e-3", "E1", "e+0"],
                                                               ["", "", "i", "j"]))
    if r < 0.8 or depth == 0:
        return str(rng.choice(["u", "v", "lam", "i"]))
    return "(" + _expr(rng, depth - 1) + ")"


def _factor(rng, depth):
    if rng.random() < 0.3:
        return _primary(rng, depth) + str(rng.choice(["^", "**", " ^ "])) + str(rng.integers(0, 4)).zfill(int(rng.integers(1, 3)))
    return _signed(rng, depth)


def _term(rng, depth):
    return "*".join(_factor(rng, depth) for _ in range(rng.integers(1, 4)))


def _expr(rng, depth):
    out = _term(rng, depth)
    for _ in range(rng.integers(0, 3)):
        out += str(rng.choice(["+", "-", " + ", " - "])) + _term(rng, depth)
    return out


def _python_value(text, lam):
    """Python's value of `text`: `^` is `**`, `i` is `1j`, and each number is its float (`05` is no Python literal)."""
    text = re.sub(r"(\d+\.?\d*(?:[eE][+-]?\d+)?)([ij]?)", lambda m: f"({float(m[1])!r}{'j' if m[2] else ''})", text)
    text = re.sub(r"\bi\b", "1j", text).replace("^", "**")
    return complex(eval(text, {"__builtins__": {}}, {"u": lam.real, "v": lam.imag, "lam": lam}))


def test_parse_matches_python_on_random_expressions():
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(2000):
        text = _expr(rng, 2)
        lam = complex(*rng.uniform(-1.5, 1.5, 2))
        got, want = CoeffMap.parse(text)(lam), _python_value(text, lam)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), text

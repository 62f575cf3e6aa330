import numpy as np
import pytest

from henonskew.base import (
    BaseDynamics,
    BaseSpace,
    FrozenSequence,
    ParamSequence,
    advance,
    word_sequences,
)
from henonskew.errors import NotInvertible, UnsupportedBase, ValidationError


def test_advance_identity():
    dyn = BaseDynamics("identity")
    assert advance(dyn, 0.37 + 0.2j, 10) == 0.37 + 0.2j


def test_advance_contraction():
    dyn = BaseDynamics("contraction", c=0.5)
    assert advance(dyn, 0.8, 3) == pytest.approx(0.1)
    with pytest.raises(NotInvertible):
        advance(dyn, 0.8, -1)


def test_advance_rotation_mod1():
    dyn = BaseDynamics("rotation", alpha=0.25)
    assert advance(dyn, 0.9, 2) == pytest.approx(0.4)
    # backward orbit inverts exactly
    lam = 0.3125
    assert advance(dyn, advance(dyn, lam, -7), 7) == pytest.approx(lam, abs=1e-12)


def test_advance_composition_property():
    rng = np.random.Generator(np.random.PCG64(3))
    for dyn in (
        BaseDynamics("identity"),
        BaseDynamics("contraction", c=0.8j),
        BaseDynamics("rotation", alpha=0.137),
    ):
        for _ in range(20):
            lam = complex(rng.uniform(), 0)
            a, b = map(int, rng.integers(0, 8, 2))
            two_step = advance(dyn, advance(dyn, lam, a), b)
            assert advance(dyn, lam, a + b) == pytest.approx(two_step, abs=1e-12)


def test_shift_advance_unsupported():
    dyn = BaseDynamics("shift")
    with pytest.raises(NotInvertible):
        advance(dyn, 0.0, -2)
    with pytest.raises(UnsupportedBase):
        advance(dyn, 0.0, 3)


def test_sequence_reproducible():
    space = BaseSpace("finite", points=(-0.1 + 0j, 0.1 + 0j))
    a = ParamSequence(space, 42).prefix(5)
    b = ParamSequence(space, 42).prefix(5)
    np.testing.assert_array_equal(a, b)
    c = ParamSequence(space, 43).prefix(5)
    assert not np.array_equal(a, c)


def test_sequence_prefix_stability():
    space = BaseSpace("box", bounds=((-1.0, 1.0), (0.0, 2.0)))
    seq = ParamSequence(space, 9)
    first = seq.prefix(4).copy()
    longer = seq.prefix(300)
    np.testing.assert_array_equal(longer[:4], first)


def test_sequence_empty_prefix():
    space = BaseSpace("circle")
    assert ParamSequence(space, 1).prefix(0).size == 0
    with pytest.raises(ValidationError):
        ParamSequence(space, 1).prefix(-1)


@pytest.mark.parametrize("n", [-1, -20])
def test_negative_prefix_length_is_rejected(n):
    # without the check a ParamSequence whose cache holds 16 entries returns cache[:n],
    # 16 + n entries, and a three-entry FrozenSequence tiles its head -(-n // 3) times
    seq = ParamSequence(BaseSpace("circle"), 1)
    seq.prefix(3)
    for s in (seq, FrozenSequence(np.array([1, 2, 3], dtype=complex))):
        with pytest.raises(ValidationError, match="at least 0"):
            s.prefix(n)


def test_box_mean_within_3_sigma():
    space = BaseSpace("box", bounds=((-0.1, 0.1),))
    vals = ParamSequence(space, 11).prefix(10_000).real
    sigma = 0.2 / np.sqrt(12.0) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 3 * sigma


def test_spawned_streams_differ():
    space = BaseSpace("circle")
    root = ParamSequence(space, 5)
    a = root.spawn(0).prefix(8)
    b = root.spawn(1).prefix(8)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, ParamSequence(space, 5).spawn(0).prefix(8))


def test_empty_cycling_head_is_rejected():
    # without the check prefix(3) divided by the head's length, 0
    with pytest.raises(ValidationError, match="non-empty head"):
        FrozenSequence(np.array([], dtype=complex)).prefix(3)
    cycled = FrozenSequence(np.array([1 + 0j, 2 + 0j]))
    np.testing.assert_array_equal(cycled.prefix(5), [1, 2, 1, 2, 1])
    np.testing.assert_array_equal(cycled.prefix(1), [1])
    assert len(cycled.prefix(0)) == 0


def test_word_enumeration():
    space = BaseSpace("finite", points=(-1 + 0j, 1 + 0j))
    words = word_sequences(space, 3)
    assert words.shape == (8, 3)
    assert len({tuple(w) for w in words}) == 8


def test_space_validation():
    with pytest.raises(ValidationError):
        BaseSpace("box", bounds=())
    with pytest.raises(ValidationError):
        BaseSpace("finite")
    with pytest.raises(ValidationError):
        BaseSpace("torus")
    with pytest.raises(ValidationError):
        BaseDynamics("contraction", c=2.0)


@pytest.mark.parametrize("kind, bounds, points", [
    ("box", ((-np.inf, np.inf),), ()),
    ("box", ((0.0, np.inf),), ()),
    ("box", ((0.0, 1.0), (np.nan, 1.0)), ()),
    ("finite", (), (0j, complex(np.inf, 0))),
    ("finite", (), (complex(0, np.nan),)),
], ids=["box-inf", "box-half-inf", "box-2d-nan", "finite-inf", "finite-nan"])
def test_space_rejects_non_finite_bounds_and_points(kind, bounds, points):
    # sups over the base would be inf or nan, and with them the filtration radius
    with pytest.raises(ValidationError, match="finite"):
        BaseSpace(kind, bounds=bounds, points=points)

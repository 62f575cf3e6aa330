"""Compact base spaces, base dynamics and random parameter sequences.

Base points are complex scalars: for a 1-d box the imaginary part is 0,
for a 2-d box the two box coordinates are the real/imaginary parts, for a
circle the real part is the angle in [0, 1), and finite sets list their
points explicitly. The PRNG is pinned to numpy's PCG64 for bit-stable,
platform-independent sampling. A sequence is a ParamSequence (i.i.d.
draws) or a FrozenSequence (a finite word repeated forever), read through
prefix(n); a negative length n is a ValidationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotInvertible, UnsupportedBase, ValidationError

BOX = "box"
CIRCLE = "circle"
FINITE = "finite"

IDENTITY = "identity"
CONTRACTION = "contraction"
ROTATION = "rotation"
SHIFT = "shift"


@dataclass(frozen=True)
class BaseSpace:
    """Compact parameter space M (interval box, circle or finite set)."""

    kind: str
    bounds: tuple[tuple[float, float], ...] = ()
    points: tuple[complex, ...] = ()

    def __post_init__(self):
        if self.kind == BOX:
            if not 1 <= len(self.bounds) <= 2:
                raise ValidationError("box base needs 1 or 2 coordinate ranges")
            for lo, hi in self.bounds:
                if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                    raise ValidationError(f"box range ({lo}, {hi}) must be finite and non-empty")
        elif self.kind == CIRCLE:
            if self.bounds or self.points:
                raise ValidationError("circle base takes no bounds/points")
        elif self.kind == FINITE:
            if not self.points:
                raise ValidationError("finite base needs at least one point")
            if not np.isfinite(np.asarray(self.points, dtype=complex)).all():
                raise ValidationError("finite base points must be finite")
        else:
            raise ValidationError(f"unknown base kind {self.kind!r}")

    def contains(self, lam: complex) -> bool:
        """Whether the base point lam lies in M (see the module docstring)."""
        if self.kind == FINITE:
            return lam in self.points
        if self.kind == CIRCLE:
            return lam.imag == 0 and 0 <= lam.real < 1
        coords = zip((lam.real, lam.imag), self.bounds)
        return (len(self.bounds) == 2 or lam.imag == 0) and all(lo <= t <= hi for t, (lo, hi) in coords)

    def grid(self, per_dim: int = 64) -> np.ndarray:
        """Deterministic sampling grid used for sups over M."""
        if self.kind == FINITE:
            return np.asarray(self.points, dtype=complex)
        if self.kind == CIRCLE:
            return np.linspace(0.0, 1.0, per_dim, endpoint=False).astype(complex)
        axes = [np.linspace(lo, hi, per_dim) for lo, hi in self.bounds]
        if len(axes) == 1:
            return axes[0].astype(complex)
        u, v = np.meshgrid(axes[0], axes[1], indexing="ij")
        return (u + 1j * v).ravel()

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Uniform draws under the normalized Lebesgue/counting measure.

        Draws are interleaved per point so that a longer sample extends a
        shorter one from the same generator state.
        """
        if self.kind == FINITE:
            idx = rng.integers(0, len(self.points), size=size)
            return np.asarray(self.points, dtype=complex)[idx]
        if self.kind == CIRCLE:
            return rng.uniform(0.0, 1.0, size=size).astype(complex)
        if len(self.bounds) == 1:
            (lo, hi), = self.bounds
            return rng.uniform(lo, hi, size=size).astype(complex)
        uv = rng.random(size=(size, 2))
        (lo1, hi1), (lo2, hi2) = self.bounds
        return (lo1 + uv[:, 0] * (hi1 - lo1)) + 1j * (lo2 + uv[:, 1] * (hi2 - lo2))


def point_base(lam: complex = 0.0) -> "BaseSystem":
    """Singleton base with identity dynamics (single-map regime)."""
    return BaseSystem(BaseSpace(FINITE, points=(complex(lam),)), BaseDynamics(IDENTITY))


@dataclass(frozen=True)
class BaseDynamics:
    """Base self-map sigma: identity, contraction, circle rotation or shift."""

    kind: str
    c: complex = 0.5
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in (IDENTITY, CONTRACTION, ROTATION, SHIFT):
            raise ValidationError(f"unknown dynamics kind {self.kind!r}")
        if self.kind == CONTRACTION and abs(self.c) > 1:
            raise ValidationError("contraction needs |c| <= 1")

    @property
    def surjective(self) -> bool:
        return self.kind != CONTRACTION or abs(self.c) == 1

    @property
    def invertible(self) -> bool:
        return self.kind in (IDENTITY, ROTATION)


@dataclass(frozen=True)
class BaseSystem:
    """Compact base M together with its dynamics sigma."""

    space: BaseSpace
    sigma: BaseDynamics


def advance(sigma: BaseDynamics, lam, n: int):
    """sigma^n(lambda); negative n only for invertible kinds.

    Vectorized over lambda (closed forms, no step loop).
    """
    lam = np.asarray(lam, dtype=complex)
    out: np.ndarray
    if sigma.kind == IDENTITY:
        out = lam.copy()
    elif sigma.kind == CONTRACTION:
        if n < 0:
            raise NotInvertible("contraction base cannot be advanced backward")
        out = lam * sigma.c ** n
    elif sigma.kind == ROTATION:
        t = np.mod(lam.real + n * sigma.alpha, 1.0)
        # snap mod-1 roundoff at the wrap point
        t = np.where(np.abs(t - 1.0) < 1e-12, 0.0, t)
        out = t.astype(complex)
    elif sigma.kind == SHIFT:
        if n < 0:
            raise NotInvertible("shift base cannot be advanced backward")
        raise UnsupportedBase(
            "shift dynamics acts on sequences; use ParamSequence / green_random"
        )
    else:  # pragma: no cover
        raise ValidationError(sigma.kind)
    return complex(out[()]) if out.ndim == 0 else out


@dataclass
class ParamSequence:
    """Reproducible i.i.d. sequence Lambda = (lam_1, lam_2, ...) over M.

    `key` selects an independent derived stream for the same seed
    (SeedSequence spawn keys), used to parallelize Monte-Carlo draws.
    """

    space: BaseSpace
    seed: int
    key: tuple[int, ...] = ()
    _cache: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=complex), repr=False, compare=False)

    def _extend(self, n: int) -> None:
        if n <= len(self._cache):
            return
        # regenerate from scratch; prefixes are stable under extension
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.key)))
        grow = max(n, 2 * len(self._cache), 16)
        self._cache = self.space.sample(rng, grow)

    def prefix(self, n: int) -> np.ndarray:
        """(lam_1, ..., lam_n); a negative n is a ValidationError."""
        if n < 0:
            raise ValidationError(f"prefix length must be at least 0, got {n}")
        self._extend(n)
        return self._cache[:n]

    def spawn(self, i: int) -> "ParamSequence":
        """Derived independent stream i (single-consumer per stream)."""
        return ParamSequence(self.space, self.seed, self.key + (i,))


@dataclass
class FrozenSequence:
    """The word `head` = (lam_1, ..., lam_m) repeated forever.

    An empty head is a ValidationError.
    """

    head: np.ndarray

    def __post_init__(self):
        if len(self.head) == 0:
            raise ValidationError("a cycling sequence needs a non-empty head")

    def prefix(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValidationError(f"prefix length must be at least 0, got {n}")
        head = np.asarray(self.head, dtype=complex)
        return np.tile(head, -(-n // len(head)))[:n]


def word_sequences(space: BaseSpace, depth: int) -> np.ndarray:
    """All |M|^depth words over a finite base, shape (count, depth).

    Exhaustive-enumeration oracle for averages over the product measure;
    a negative depth is a ValidationError.
    """
    if space.kind != FINITE:
        raise UnsupportedBase("word enumeration needs a finite base")
    if depth < 0:
        raise ValidationError(f"word depth must be at least 0, got {depth}")
    pts = np.asarray(space.points, dtype=complex)
    m = len(pts)
    count = m ** depth
    idx = np.arange(count)
    letters = np.empty((count, depth), dtype=complex)
    for k in range(depth):
        letters[:, k] = pts[(idx // m ** k) % m]
    return letters

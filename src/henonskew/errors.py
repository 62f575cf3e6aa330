"""Exception hierarchy shared by all modules."""


class HenonSkewError(Exception):
    """Base class for all package errors."""


class ConfigError(HenonSkewError):
    """Malformed or incomplete experiment configuration."""


class ValidationError(HenonSkewError):
    """Family, base or lift definition violates a structural invariant."""


class DegenerateFamily(ValidationError):
    """Some Jacobian factor a_j vanishes (below 1e-12) on the base grid."""


class ZeroJacobian(HenonSkewError):
    """Inverse evaluation requested where |a_j| < 1e-12."""


class NotInvertible(HenonSkewError):
    """Backward base advance requested for a non-invertible base dynamics."""


class SurjectivityRequired(HenonSkewError):
    """Holder estimation needs a surjective base dynamics."""


class UnsupportedBase(HenonSkewError):
    """Operation is restricted to specific base dynamics kinds."""


class UndecidedCells(HenonSkewError):
    """A field still contains undecided pixels where certainty is required."""


class EmptyCandidateSet(HenonSkewError):
    """No admissible candidate points were found for entropy estimation."""


class ZeroVector(HenonSkewError):
    """The zero vector is outside the domain of the homogeneous Green function."""


class DegenerateLift(ValidationError):
    """Homogeneous lift nearly vanishes on the unit sphere."""

"""Numerical toolkit for fibered and random Henon-map dynamics."""

__version__ = "0.1.0"

from .base import (
    BaseDynamics,
    BaseSpace,
    BaseSystem,
    FrozenSequence,
    ParamSequence,
    advance,
    point_base,
    sample_sequence,
    word_sequences,
)
from .errors import (
    ConfigError,
    DegenerateFamily,
    DegenerateLift,
    EmptyCandidateSet,
    HenonSkewError,
    NotInvertible,
    SurjectivityRequired,
    UndecidedCells,
    UnsupportedBase,
    ValidationError,
    ZeroJacobian,
    ZeroVector,
)
from .expr import CoeffMap
from .family import (
    HenonFactor,
    HenonFamily,
    eval_factor,
    eval_inverse,
    eval_map,
    jacobian_det,
    quadratic_family,
    validate_family,
)
from .convergence import (
    ConvergenceReport,
    CutoffSpec,
    PotentialSpec,
    cutoff_limit_probe,
    pullback_convergence,
    rigidity_probe,
    theta_average_pullback,
)
from .currents import (
    JuliaRaster,
    SliceMeasure,
    avg_current_slice,
    julia_raster,
    off_band_fraction,
    slice_measure,
    transition_band,
)
from .entropy import SeparatedSetEstimate, dn_distance, draw_candidates, entropy_lower_bound
from .filtration import FiltrationRadius, InvarianceReport, check_invariance, compute_radius
from .green import (
    GreenEval,
    GreenField,
    avg_green,
    avg_green_field,
    classify,
    finite_depth_green,
    green_field,
    green_field_seq,
    green_minus,
    green_minus_cal,
    green_minus_tilde,
    green_plus,
    green_random,
    green_values,
    holder_estimate,
    pluri_green,
)
from .grids import SliceGrid, SliceSpec
from .projective import (
    HomogeneousLift,
    LiftConstants,
    ProbeSpec,
    basin_classify,
    diag_power_lift,
    estimate_constants,
    fatou_detect,
    green_proj,
)

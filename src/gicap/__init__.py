"""Two-user Gaussian interference channel toolbox.

Computes achievable rate regions (rate-splitting schemes with fixed
Gaussian power splits), capacity outer bounds, geometric gap certificates
(one bit, factor two), and generalized-degrees-of-freedom
characterizations, and mechanically verifies the gap guarantees over
randomized parameter sweeps.
"""

from .bounds import (
    SymmetricBoundSet,
    class_outer,
    kramer_bound,
    mixed_outer,
    new_sum_bound,
    one_sided_sum_capacity,
    pt2pt_outer,
    strong_capacity,
    symmetric_bounds,
    symmetric_capacity_strong,
    weak_outer,
)
from .channel import (
    ChannelParams,
    InterferenceClass,
    InterferenceTag,
    SymmetricRegime,
    alpha,
    classify,
    db_to_linear,
    symmetric_regime,
)
from .errors import (
    ClassMismatchError,
    ContainmentError,
    DomainError,
    GicapError,
    InvalidParameterError,
    InvalidSplitError,
    NotCoveredError,
    UnboundedRegionError,
)
from .gap import (
    Audit,
    GapReport,
    SweepRecord,
    SweepResult,
    asymptotic_tightness_check,
    audit,
    audit_regions,
    delta_audit,
    kramer_gap,
    one_bit_sweep,
    stream_sweep,
)
from .gdof import (
    BaselineScheme,
    FiniteSnrSandwich,
    GdofParams,
    baseline_gdof,
    d_sym,
    finite_snr_convergence,
    gdof_region,
    one_sided_gdof_region,
    symmetric_gdof_region,
)
from .hk import (
    DifferentialRatePair,
    PowerSplit,
    differential_rates,
    hk_region,
    recommended_split,
    regime1_gap,
    regime1_rate,
    regime2_rate,
    regime2_window,
    symmetric_hk_rate,
    treat_as_noise_region,
)
from .region import (
    RateConstraint,
    RateRegion,
    Vertex,
    certificates,
    contains,
    one_bit_certificate,
    region_to_jsonable,
    symmetric_rate,
    vertices,
    within_half_certificate,
)

__version__ = "0.1.0"

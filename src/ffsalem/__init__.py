"""Desk-scale Fourier analysis and shattering searches over prime-field planes."""

__version__ = "0.1.0"

from .analysis import (
    ConvolutionTable,
    CubeWitness,
    EdgeCountReport,
    IntersectionProfile,
    RhombusWitness,
    build_cube,
    convolve,
    edge_count,
    find_rhombus,
    intersection_profile,
    overlap_maxima,
    prune,
    triple_count,
    triple_overlap_max,
)
from .curves import (
    CanonicalForm,
    Classification,
    CurveHandle,
    Quadratic,
    classify_quadratic,
    conic,
    make_curve,
    paraboloid,
    poly_graph,
    reduce_quadratic,
    sphere,
    symmetrized_parabola,
)
from .errors import (
    BadDegree,
    ConstantPolynomial,
    DegenerateConic,
    DegenerateSize,
    DegreeDivisibleByP,
    DimensionMismatch,
    EmptySet,
    NotSymmetric,
    PointSetParseError,
    SingularMatrix,
    SizeOutOfRange,
    SweepTooLarge,
    ZeroParameter,
)
from .field import (
    FieldContext,
    character_row_sums,
    gauss_sum,
    is_prime,
    kloosterman,
    legendre,
    weil_poly_sum,
)
from .pointset import (
    PointSet,
    SalemParams,
    SalemReport,
    dump_points,
    load_points,
    salem_bound,
    salem_report,
    spectrum_max,
    spectrum_maxima,
)
from .randomsets import (
    GENERATOR_NAME,
    HayesReport,
    TrialSummary,
    hayes_check,
    monte_carlo,
    sample_subset,
    trial_seed,
)
from .shatter import (
    Exhaustive,
    RandomSearch,
    SearchOutcome,
    SearchStats,
    SearchStatus,
    ShatterProblem,
    ShatterWitness,
    TranslateCounts,
    VCBounds,
    construct_shatter3,
    shatter_search,
    vc_bounds,
    verify_witness,
    witness_for_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]

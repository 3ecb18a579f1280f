"""Numerical free probability for spectral measures of large random
matrices: addition and multiplication through functional inverses of the
Cauchy transform, an independent moment/cumulant series route, and
reproducible Monte Carlo matrix experiments."""

from .arithmetic import (
    RTransform,
    external_field_lambda_gaussian,
    free_add,
    free_multiply,
    pastur_add_gaussian,
)
from .eigen import hermitian_eigenvalues
from .errors import (
    BranchError,
    DomainError,
    FreeconvError,
    InversionError,
    NumericalError,
    PipelineError,
    SupportCoverageError,
    ValidationError,
)
from .measures import (
    LawSpec,
    MomentVector,
    Segment,
    SpectralMeasure,
    affine_map,
    cdf,
    density_l1_distance,
    dirac,
    make_law,
    moment,
    quantiles,
    read_density_csv,
    support_interval,
    wasserstein1,
    wasserstein1_empirical,
    write_density_csv,
)
from .report import CriterionRecord, ReportDocument
from .rmt import (
    EmpiricalSpectrum,
    EnsembleSpec,
    haar_unitary,
    mc_free_add_experiment,
    mc_free_mul_experiment,
    sample_ensemble,
)
from .series import (
    FreeCumulantVector,
    TruncatedSeries,
    free_add_series,
    free_cumulants_to_moments,
    free_multiply_series,
    free_multiply_series_h_route,
    moments_to_free_cumulants,
    s_transform_series,
    series_compose,
    series_multiply,
    series_revert,
)
from .stieltjes import (
    ContourSpec,
    MeasureResolvent,
    cauchy_transform,
    default_contour,
    invert_cauchy,
    principal_value_transform,
    stieltjes_invert,
)

__version__ = "0.1.0"

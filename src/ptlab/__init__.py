"""ptlab: exact combinatorics, freeness verdicts and Monte Carlo cross-checks
for block partial transposes of Wishart random matrices."""

from .errors import ResourceLimitError
from .perms import (
    Composition,
    EntryPermutation,
    Identity,
    InducedDiagonal,
    LcmData,
    MatrixShape,
    PartialTranspose,
    Side,
    TablePermutation,
    Transpose,
    all_partial_transposes,
    apply,
    compose,
    count_agreements,
    count_fixed_points,
    count_image_triples,
    count_joint,
    count_projection_agreement,
    extensionally_equal,
    gamma_lcm_data,
    index_decompose,
    invert,
    random_symmetric_table,
)
from .partitions import (
    Pairing,
    Partition,
    catalan,
    cyclic_segments,
    delta,
    enumerate_bipartite_pairings,
    enumerate_nc,
    free_cumulants_to_moments,
    hat,
    is_crossing,
    join,
    moments_to_free_cumulants,
    nu1,
    nu2,
    segments,
)
from .wick import (
    RationalMomentReport,
    WickWord,
    count_admissible,
    exact_mixed_cumulant,
    exact_mixed_moment,
    exact_trace_covariance,
    segment_sum,
    weight_support,
)
from .asymptotics import (
    INF,
    ShapeFamily,
    Verdict,
    empirical_density_probe,
    limit_cumulant_gamma,
    limit_moments_gamma,
    verdict_family,
    verdict_pair,
)
from .montecarlo import (
    EstimateReport,
    SamplerConfig,
    fit_variance_slope,
    mc_covariance,
    mc_mixed_cumulant,
    mc_mixed_moment,
    mc_mixed_moments,
    polar_normals,
    sample_ginibre,
    sample_wishart,
    variance_scaling_probe,
)

__version__ = "0.1.0"

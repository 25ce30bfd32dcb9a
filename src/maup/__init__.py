"""Point-prompt generation for promptable segmenters from support/query features."""

from .errors import (
    ClusterError,
    ConfigError,
    DataError,
    EmptyCandidateError,
    EmptyMaskError,
    EmptyPeripheryError,
    EmptyStackError,
    FormatError,
    MaupError,
    OverlapError,
    SeedError,
    ShapeError,
    SpecError,
)
from .phantom import FAMILIES, Phantom, PhantomSpec, generate_phantom
from .pipeline import (
    AblationReport,
    AblationRow,
    EpisodeResult,
    Support,
    ablation_run,
    execute_episode,
    prepare_support,
    query_maps,
)
from .prompting import (
    PromptConfig,
    PromptSet,
    adaptive_k,
    complexity,
    generate_prompts,
    kmeans,
    lloyd_cluster,
)
from .prototypes import periphery_prototype, regional_prototypes
from .regions import (
    StructuringElement,
    dilate,
    farthest_point_seeds,
    periphery_mask,
    voronoi_partition,
)
from .simmaps import (
    cosine_map,
    mean_map,
    percentile_threshold,
    similarity_stack,
    uncertainty_map,
    write_pgm,
)
from .surrogate import build_export, dice, surrogate_segment
from .tensors import (
    BitMask,
    FeatureMap,
    ScalarMap,
    load_tensor,
    save_tensor,
)

__version__ = "0.1.0"

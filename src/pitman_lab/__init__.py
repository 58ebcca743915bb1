"""pitman_lab: exact verification and simulation lab for max-transform
representations of lattice walks with arbitrary starting levels.

Highlights: exact rational finite-dimensional laws of the q-deformed chain,
the complete preimage structure of the level-shifted max transform, the walk
conditioned to stay above a random level, and desk-scale checks of the
Brownian (half-line KPZ stationary) limit.
"""

__version__ = "0.1.0"

from .exact import (
    Approx,
    RegimeError,
    UnsupportedExactModeError,
    parse_rat,
    q_bracket,
    rat_str,
    tail_sum_ratio,
)
from .paths import HorizonCapError, Path, enumerate_paths, path_count, stats
from .processes import (
    DistTable,
    FiniteSupport,
    Geometric,
    InitialLaw,
    NegativeBinomial,
    Params,
    PointMass,
    QNegativeBinomial,
    ShiftedPoisson,
    chain_increment_law,
    chain_transition,
    parse_initial_law,
    step_pmf,
    walk_law,
    walk_path_prob,
)
from .transform import (
    apply_T,
    preimage,
    preimage_member,
    preimage_stats,
    tropical_identities_batch,
    verify_tropical,
)
from .representation import (
    LevelLaw,
    damage_check,
    g_law_from_initial,
    poisson_split_check,
    rhs_law_enumeration,
    rhs_law_table_formula,
    verify_thm1,
    verify_two_sided,
    walk_match_report,
)
from .conditioning import (
    conditioned_walk_law,
    rejection_oracle,
    survival_prob,
    v_law_from_initial,
    verify_thm2,
)
from .scaling import (
    LimitLevelLaw,
    MuMeasure,
    continuity_check,
    donsker_check,
    heat_kernel,
    kernel_limit_check,
    kernel_limit_ladder,
    limit_process_sample,
)
from .sampling import (
    RngStream,
    ks_distance,
    ks_two_sample_critical,
    sample_chain,
    sample_walk,
)

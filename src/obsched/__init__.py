"""Online scheduling of telescope-array follow-up observations.

The package covers the full pipeline: visibility physics (`ephemeris`),
instance generation (`scenario`), the dependency-DAG schedule model
(`schedule`), local-rewriting search (`rewriter`), baseline schedulers
(`heuristics`), the learned rewriting policy with its own autodiff
(`policy`, `autograd`), and a command-line front end (`cli`).
"""

from .ephemeris import (
    GeoCoord,
    SkyCoord,
    TimeGrid,
    VisibilityConstraints,
    VisibilityWindow,
    visibility_windows,
)
from .scenario import (
    GenConfig,
    ObservationTask,
    ObsMode,
    Scenario,
    Site,
    Target,
    generate_scenario,
    load_scenario,
    save_scenario,
    target_to_tasks,
)
from .schedule import (
    Assignment,
    InfeasibleAssignmentError,
    ScheduleDag,
    SchedulingContext,
    average_slowdown,
    build_dag,
    total_slowdown,
    validate,
)
from .rewriter import (
    RandomPolicy,
    RewriteAction,
    SearchConfig,
    candidate_regions,
    rewrite_search,
    rewrite_step,
)
from .heuristics import (
    SiteRule,
    TaskRule,
    brute_force_optimal,
    rank_key,
    schedule_offline_stf,
    schedule_online_heuristic,
)
from .policy import (
    PolicyConfig,
    PolicyNet,
    TrainConfig,
    load_checkpoint,
    losses,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

"""Random walks in i.i.d. Dirichlet environments on finite graphs and lattices.

Exact annealed path probabilities, their reinforced-walk and Monte Carlo
counterparts, time-reversal identities, cylinder exit experiments, and
directional-transience estimation, all with reproducible seeded parallelism.
"""

from .annealed import (
    annealed_log_path_probability,
    annealed_log_paths_batch,
    annealed_path_probability_exact,
    annealed_path_probability_mc,
    format_path_literal,
    log_rising_factorial,
    parse_path_literal,
    reinforced_trace_frequency,
    reinforced_walk,
    urn_path_probability,
)
from .environment import (
    Environment,
    Trajectory,
    log_path_probability,
    path_probability,
    quenched_walk,
    read_environment,
    sample_environment,
    sample_environment_batch,
    sample_rows,
    write_environment,
)
from .errors import GraphFormatError, PreconditionError
from .experiments import (
    ExperimentResult,
    TrapCheck,
    cylinder_delta_exit,
    cylinder_exit_from_origin,
    expected_exit_probability,
    lattice_transience,
    quenched_ruin_probability,
    ruin_exit_probability,
    trap_condition,
    velocity_probe,
)
from .graph import (
    BandGraph,
    CylinderGraph,
    CylinderSpec,
    DirectedGraph,
    LatticeSpec,
    WeightAssignment,
    build_cylinder_band,
    build_cylinder_graph,
    build_torus,
    read_graph,
    write_graph,
)
from .parallel import CHUNK_REPLICAS, run_chunked
from .reversal import (
    CycleReversalReport,
    ReversalReport,
    check_cycle_reversal,
    enumerate_paths,
    reverse_environment,
    reversed_path_ratio,
    stationary_batch,
    stationary_distribution,
    verify_reversal_distribution,
)
from .rng import RngStream
from .stopping import StoppingReport, StoppingRule

__version__ = "0.1.0"

"""Resilient consensus of second-order multi-agent systems on switching
networks: graph-resilience metrics, closed-loop simulation under deception
and DoS attacks, observer-based distributed detection, and the full
detection-isolation-cooperation loop."""

from .dynamics import (
    AttackSignal,
    DeceptionAttack,
    DoSInterval,
    DoSRandomSpec,
    DoSSchedule,
    Gains,
    SimulationTrace,
    SystemState,
    closed_loop_matrix,
    consensus_metrics,
    simulate,
    stability_constants,
)
from .graphs import (
    Graph,
    SwitchingNetwork,
    algebraic_connectivity,
    check_bound_chain,
    complete_graph,
    generate_r_robust_preferential,
    khop_neighbors,
    laplacian,
    path_graph,
    pe_margin,
    projection_matrix,
    r_robustness,
    remove_nodes,
    star_graph,
    static_network,
    vertex_connectivity,
)
from .isolation import (
    DetectorSettings,
    DPMSRConfig,
    RescueProblem,
    dp_msr_run,
    isolation_complete,
    post_isolation_connectivity,
    run_rescue,
)
from .observers import (
    ObserverState,
    ThresholdRule,
    design_gain,
    pbh_observability,
    two_hop_view,
)
from .scenarios import (
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    generate_example1,
    generate_example2,
    materialize,
)
from .stealth import (
    coupling_bound,
    measurement_kernel,
    stealth_pencil_kernel,
    zero_dynamics_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Frequency-constrained unit commitment with data-driven nadir cuts."""

from .scenario import (
    SystemScenario,
    ThermalUnit,
    HydroUnit,
    RenewableUnit,
    Battery,
    SyncCondenser,
    FrequencyLimits,
    DynamicParams,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .dynamics import (
    OnlineMix,
    TechClass,
    TechState,
    FrequencyMetrics,
    assemble_state_space,
    simulate_response,
    response_metrics,
    compute_metrics,
    analytic_qss,
    check_compliance,
    make_mix,
)
from .boundary import (
    NadirCut,
    SweepAxis,
    SweepSpec,
    sweep_grid,
    bisect_min_capacity,
    find_edge_points,
    fit_hyperplane,
    make_conservative,
)
from .milp import MilpProblem
from .ucmodel import (
    BuildOptions,
    UcSolution,
    build_fcuc,
    add_nadir_cut,
    check_feasibility,
    decode_solution,
    online_mix,
)
from .solver import MilpResult, brute_force_milp, solve_milp
from .mps import export_mps, parse_mps
from .drivers import RunReport, compare_runs, run_industry, run_proposed
from .studies import NpvResult, equivalence_study, gfm_sensitivity, npv_analysis

__version__ = "0.1.0"

"""Solvers and experiment harness for capacity-constrained load curtailment
with complex apparent-power demands."""

from .model import (
    CAPACITY_REL_TOL,
    ComplexDemand,
    CurtailError,
    DemandExceedsCapacityError,
    FormatError,
    Instance,
    InstanceColumns,
    InstanceError,
    Solution,
    UnknownCustomerError,
    aggregate_demand,
    alignment_factor,
    curtailed_compensation,
    instance_from_dict,
    instance_to_dict,
    is_feasible,
    load_instance,
    dump_instance,
    magnitude_sum_ratio,
    magnitude_sum_ratio_bound,
    max_phase_spread,
    retained_valuation,
    solution_from_indices,
    storage_sum,
)
from .greedy import SortKey, gda, gda_forced, gma, gra, gva
from .gsa import GsaConfig, gsa, gsa_subset_count
from .oracle import (
    OracleBudget,
    OracleBudgetError,
    brute_force_cmin,
    brute_force_vmax,
    lp_upper_bound,
)
from .cmin import cmin_gda, cmin_gma, cmin_gra, cmin_gva
from .scenario import (
    LoadType,
    PowerKind,
    ScenarioSpec,
    ValueCorrelation,
    generate,
    parse_acronym,
    restrict_to_capacity,
    spec_from_acronym,
)
from .bench import (
    BenchRow,
    TracePoint,
    TrialPlan,
    emit_csv,
    instance_for_trial,
    plan_from_dict,
    run_benchmark,
    run_dynamic_capacity,
    trial_seed,
    write_trace_csv,
)

__version__ = "0.1.0"

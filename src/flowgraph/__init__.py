"""Asset-graph energy system modelling with size-aware LP lowering."""

from .errors import FlowgraphError
from .formulation import ALL_APPROACHES, Approach, build_model, lower_to_node_form
from .lp import (
    ConstraintRow,
    LpInstance,
    ModelSize,
    RowFamily,
    SolveResult,
    VariableRef,
    VarRole,
    mps_string,
    read_solution,
    size_report,
    write_mps,
    write_solution,
)
from .model import (
    Asset,
    AssetKind,
    DcFlowParams,
    Diagnostic,
    EnergySystem,
    FlowArc,
    HubAnnotation,
)
from .cases import CaseSpec, INSTANCE_HOURS, hybrid_fixture, scale_horizon, tri_area_case
from .csvio import export_case, load_case
from .solver import (
    ExternalSolverSpec,
    check_primal,
    solve_external,
    solve_reference,
    solver_for,
)
from .bench import (
    BenchConfig,
    BenchReport,
    TimingSample,
    TTestResult,
    median_speedup,
    run_benchmark,
    two_sample_t_test,
    write_report,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_APPROACHES",
    "Approach",
    "Asset",
    "AssetKind",
    "BenchConfig",
    "BenchReport",
    "CaseSpec",
    "ExternalSolverSpec",
    "TTestResult",
    "TimingSample",
    "check_primal",
    "export_case",
    "load_case",
    "median_speedup",
    "run_benchmark",
    "solve_external",
    "solve_reference",
    "solver_for",
    "two_sample_t_test",
    "write_report",
    "ConstraintRow",
    "DcFlowParams",
    "Diagnostic",
    "EnergySystem",
    "FlowArc",
    "FlowgraphError",
    "HubAnnotation",
    "INSTANCE_HOURS",
    "LpInstance",
    "ModelSize",
    "RowFamily",
    "SolveResult",
    "VariableRef",
    "VarRole",
    "build_model",
    "hybrid_fixture",
    "lower_to_node_form",
    "mps_string",
    "read_solution",
    "scale_horizon",
    "size_report",
    "tri_area_case",
    "write_mps",
    "write_solution",
]

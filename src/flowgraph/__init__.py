"""Asset-graph energy system modelling with size-aware LP lowering.

The public names below are loaded on first use (PEP 562): ``import
flowgraph`` imports no submodule, and ``flowgraph.build_model`` or ``from
flowgraph import build_model`` imports :mod:`flowgraph.formulation` then.
So a process that needs one submodule, such as the HiGHS adapter child
(``python -m flowgraph.highs_adapter``), loads only that one.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "errors": ("FlowgraphError",),
    "formulation": ("ALL_APPROACHES", "Approach", "build_model", "lower_to_node_form"),
    "lp": (
        "ConstraintRow",
        "LpInstance",
        "ModelSize",
        "RowFamily",
        "SolveResult",
        "VariableRef",
        "VarRole",
        "mps_string",
        "read_solution",
        "size_report",
        "write_mps",
        "write_solution",
    ),
    "model": (
        "Asset",
        "AssetKind",
        "DcFlowParams",
        "Diagnostic",
        "EnergySystem",
        "FlowArc",
        "HubAnnotation",
    ),
    "cases": ("CaseSpec", "INSTANCE_HOURS", "hybrid_fixture", "scale_horizon", "tri_area_case"),
    "csvio": ("export_case", "load_case"),
    "solver": (
        "ExternalSolverSpec",
        "check_primal",
        "solve_external",
        "solve_reference",
        "solver_for",
    ),
    "bench": (
        "BenchConfig",
        "BenchReport",
        "TimingSample",
        "TTestResult",
        "median_speedup",
        "run_benchmark",
        "two_sample_t_test",
        "write_report",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` (or is named ``name``)
    and cache the result here, so the next lookup is a plain global."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # binds itself as an attribute
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})

"""Command-line surface: build, solve, compare, bench, export-case, validate.

Exit codes: 0 on success, 1 on a domain error (infeasible model, objective
mismatch, invalid bundle), 2 on a usage error.  Human-readable tables go to
standard output; machine outputs (MPS, solution files, CSV reports) go to
files under ``--out``.

``--solver`` takes a solver label as :func:`flowgraph.solver.solver_for`
does: ``reference`` (the bundled simplex, the default) or
``external:<spec.json>`` (a subprocess described by a JSON spec).  When
``--solver`` is omitted, a spec path in the ``FLOWGRAPH_SOLVER``
environment variable stands for ``external:<that path>``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bench import BenchConfig, run_benchmark, write_report
from .cases import CaseSpec, hybrid_fixture, scale_horizon, tri_area_case
from .csvio import export_case, load_case
from .errors import FlowgraphError
from .formulation import ALL_APPROACHES, Approach, build_model
from .lp import size_report, write_mps, write_solution
from .model import EnergySystem
from .solver import SOLVER_LABELS, check_primal, solver_for


def _case_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", default="tri-area",
                        help="hybrid | tri-area | csv:<dir> (default: tri-area)")
    parser.add_argument("--instance", type=int, default=1, choices=range(1, 7),
                        metavar="1..6", help="tri-area instance (default: 1)")
    parser.add_argument("--T", type=int, default=None,
                        help="override the horizon (desk-scale runs)")
    parser.add_argument("--seed", type=int, default=13, help="case seed (default: 13)")


def _solver_flags(parser: argparse.ArgumentParser) -> None:
    spec = os.environ.get("FLOWGRAPH_SOLVER")
    parser.add_argument("--solver", default=f"external:{spec}" if spec else "reference",
                        help=f"{' | '.join(SOLVER_LABELS)} "
                             "(default: external:$FLOWGRAPH_SOLVER if set, else reference)")


def _resolve_case(args: argparse.Namespace) -> EnergySystem:
    if args.case == "hybrid":
        system = hybrid_fixture()
    elif args.case == "tri-area":
        system = tri_area_case(CaseSpec(seed=getattr(args, "seed", 13),
                                        instance=args.instance))
    elif args.case.startswith("csv:"):
        system = load_case(args.case[len("csv:"):])
    else:
        raise FlowgraphError(f"unknown case {args.case!r}; use hybrid, tri-area or csv:<dir>")
    if args.T is not None:
        system = scale_horizon(system, args.T)
    return system


def _parse_approaches(raw: str) -> tuple[Approach, ...]:
    if raw.lower() == "all":
        return ALL_APPROACHES
    return tuple(Approach.from_label(part) for part in raw.split(","))


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ---------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    system = _resolve_case(args)
    approach = Approach.from_label(args.approach)
    instance = build_model(system, approach, dc_opf=args.dc_opf,
                           unit_commitment=args.uc)
    size = size_report(instance)
    print(f"{system.name} [{approach.value}] T={system.horizon_t}: "
          f"{size.n_vars} variables, {size.n_constraints} constraints, "
          f"{size.n_nonzeros} nonzeros")
    if args.out:
        path = _out_dir(args) / f"{system.name}-{approach.value}.mps"
        write_mps(instance, str(path))
        print(f"wrote {path}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    system = _resolve_case(args)
    approach = Approach.from_label(args.approach)
    instance = build_model(system, approach, dc_opf=args.dc_opf,
                           unit_commitment=args.uc)
    result = solver_for(args.solver)(instance, args.seed)
    if not result.is_optimal:
        print(f"solve failed: {result.status}", file=sys.stderr)
        return 1
    violated = check_primal(instance, result.primal)
    verdict = "primal feasible" if not violated else \
        f"PRIMAL VIOLATIONS: {', '.join(violated[:5])}"
    print(f"{system.name} [{approach.value}] objective {result.objective!r} ({verdict})")
    if args.out:
        path = _out_dir(args) / f"{system.name}-{approach.value}.sol"
        write_solution(result, str(path), instance)
        print(f"wrote {path}")
    return 0 if not violated else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    system = _resolve_case(args)
    approaches = _parse_approaches(args.approaches)
    sizes = {}
    for approach in approaches:
        instance = build_model(system, approach, dc_opf=args.dc_opf,
                               unit_commitment=args.uc)
        sizes[approach] = (instance, size_report(instance))
    reference = Approach.TWO_BB_2F if Approach.TWO_BB_2F in sizes else approaches[0]
    ref = sizes[reference][1]
    print(f"{'approach':<8} {'vars':>8} {'constraints':>12} {'nonzeros':>10}   reduction vs {reference.value}")
    for approach in approaches:
        size = sizes[approach][1]
        if approach is reference:
            note = "(reference)"
        else:
            note = "  ".join(
                f"{'-' if r >= 0 else '+'}{abs(r):.1f}%"
                for r in (100.0 * (1.0 - b / a) for a, b in zip(ref.as_tuple(), size.as_tuple()))
            )
        print(f"{approach.value:<8} {size.n_vars:>8} {size.n_constraints:>12} "
              f"{size.n_nonzeros:>10}   {note}")
    if not args.solve:
        return 0
    solve = solver_for(args.solver)
    objectives = {}
    for approach in approaches:
        result = solve(sizes[approach][0], args.seed)
        if not result.is_optimal:
            print(f"{approach.value}: solve failed ({result.status})", file=sys.stderr)
            return 1
        objectives[approach] = result.objective
        print(f"{approach.value:<8} objective {result.objective!r}")
    baseline = objectives[approaches[0]]
    scale = max(1.0, abs(baseline))
    spread = max(abs(v - baseline) for v in objectives.values()) / scale
    equal = spread <= 1e-6
    print(f"objective equality: {'PASS' if equal else 'FAIL'} "
          f"(max relative spread {spread:.3e})")
    return 0 if equal else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.config:
        config = BenchConfig.from_json(args.config)
    else:
        config = BenchConfig(
            approaches=_parse_approaches(args.approaches),
            horizons=(args.T,) if args.T is not None else None,
            instances=(args.instance,),
            n_seeds=args.n_seeds,
        )
    report = run_benchmark(config)
    for approach, label, build, solve in report.speedups:
        print(f"{approach} vs {config.reference.value} on {label}: "
              f"build x{build:.3f}, solve x{solve:.3f}")
    for approach, label, tt in report.ttests:
        print(f"t-test {approach} on {label}: t={tt.t_statistic:.3f} "
              f"p={tt.p_value:.4f} reject={tt.reject_null}")
    paths = write_report(report, str(_out_dir(args)))
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_export_case(args: argparse.Namespace) -> int:
    system = _resolve_case(args)
    for path in export_case(system, _out_dir(args)):
        print(f"wrote {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    system = _resolve_case(args)
    diagnostics = system.validate()
    for diag in diagnostics:
        print(f"{diag.severity}: {diag.entity}: {diag.message}",
              file=sys.stderr if diag.severity == "error" else sys.stdout)
    errors = [d for d in diagnostics if d.severity == "error"]
    print(f"{system.name}: {len(system.assets)} assets, {len(system.arcs)} arcs, "
          f"{len(system.hubs)} hubs — "
          f"{'OK' if not errors else f'{len(errors)} error(s)'}")
    return 0 if not errors else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowgraph",
        description="Model multi-sector energy systems and compare LP lowering approaches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a case and report model size (optionally write MPS)")
    _case_flags(p)
    p.add_argument("--approach", default="1BB-1F")
    p.add_argument("--uc", action="store_true", help="enable unit-commitment rows")
    p.add_argument("--dc-opf", action="store_true", dest="dc_opf")
    p.add_argument("--out", default=None, help="directory for the MPS file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="build and solve a case")
    _case_flags(p)
    p.add_argument("--approach", default="1BB-1F")
    p.add_argument("--uc", action="store_true")
    p.add_argument("--dc-opf", action="store_true", dest="dc_opf")
    _solver_flags(p)
    p.add_argument("--out", default=None, help="directory for the solution file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compare", help="per-approach size table, optionally with an "
                                       "objective-equality check (--solve)")
    _case_flags(p)
    p.add_argument("--approaches", default="all",
                   help="comma-separated list, e.g. 1BB-1F,2BB-2F (default: all)")
    p.add_argument("--uc", action="store_true")
    p.add_argument("--dc-opf", action="store_true", dest="dc_opf")
    p.add_argument("--solve", action="store_true",
                   help="also solve every approach and check objective equality")
    _solver_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bench", help="timing harness: medians, speedups, t-tests")
    p.add_argument("--config", default=None, help="BenchConfig JSON file")
    p.add_argument("--approaches", default="1BB-1F,2BB-2F")
    p.add_argument("--instance", type=int, default=1, choices=range(1, 7), metavar="1..6")
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n-seeds", type=int, default=10)
    p.add_argument("--out", default="bench-out")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("export-case", help="write a case as a CSV bundle")
    _case_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_case)

    p = sub.add_parser("validate", help="check a case (typically csv:<dir>) for invariant errors")
    _case_flags(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FlowgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # bad approach label etc.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

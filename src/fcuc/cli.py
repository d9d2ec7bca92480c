"""Command-line surface.

Exit codes: 0 success (and frequency-compliant where applicable),
2 non-convergence, 3 infeasible, 4 MILP solver limit hit before an
optimum was proven, 1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from .boundary import DEFAULT_GRANULARITY_MW, BracketingError, SweepAxis, SweepSpec, find_edge_points, fit_hyperplane, make_conservative, require_edges, sweep_grid
from .drivers import DEFAULT_ESCALATION, DEFAULT_MAX_ITER, compare_runs, load_report, run_industry, run_proposed, save_report, write_dispatch_table
from .dynamics import TechClass, assemble_state_space, check_compliance, export_trace, response_metrics, simulate_response
from .mps import export_mps
from .scenario import ScenarioParseError, ScenarioValidationError, load_scenario
from .studies import equivalence_study, gfm_sensitivity, npv_analysis, study_context
from .ucmodel import COMMITTED_CLASSES, BuildOptions, build_fcuc, fleet_capacity_mw, fleet_mix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_CONVERGENCE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER_LIMIT = 4


def _cmd_simulate(args) -> int:
    s = load_scenario(args.scenario)
    mix = fleet_mix(s, args.hour).with_capacities(
        {c: fleet_capacity_mw(s, c) for c in COMMITTED_CLASSES}
    )
    for tech, mw in args.override or []:
        mix = mix.with_capacity(tech, mw)
    met = response_metrics(mix)
    rep = check_compliance(met, s.limits)
    print(f"nadir_hz\t{met.nadir_hz:.4f}")
    print(f"initial_rocof_hz_s\t{met.initial_rocof_hz_s:.4f}")
    print(f"qss_dev_hz\t{met.qss_dev_hz:.4f}")
    print(f"time_of_nadir_s\t{met.time_of_nadir_s:.3f}")
    print(f"compliant\t{rep.passed}")
    if args.trace_out:
        trace = simulate_response(
            assemble_state_space(mix), mix.dynamics.horizon_s, mix.dynamics.step_s
        )
        export_trace(trace, args.trace_out, decimate=args.decimate)
    return EXIT_OK


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError("axis format: tech:min:max[:step]")
    try:
        tech = TechClass(parts[0])
        lo, hi = float(parts[1]), float(parts[2])
        step = float(parts[3]) if len(parts) == 4 else DEFAULT_GRANULARITY_MW
        return SweepAxis(tech, lo, hi, step)
    except ValueError as exc:  # argparse would print only "invalid _parse_axis value"
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None


def _parse_finite(text: str) -> float:
    """The value of a float option: a number, neither NaN nor infinite."""
    try:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("must be finite")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None
    return value


def _parse_count(text: str) -> int:
    """The value of a count option: an integer, at least 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"{text}: must be an integer >= 1")
    return int(text)


def _parse_capacity(text: str) -> tuple[TechClass, float]:
    tech, sep, mw = text.partition("=")
    try:
        if not sep:
            raise ValueError("expected tech=MW")
        return TechClass(tech), _parse_finite(mw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None


def _cmd_boundary(args) -> int:
    s = load_scenario(args.scenario)
    context = fleet_mix(s, args.hour)
    spec = SweepSpec(tuple(args.axis), context, s.limits)
    grid = sweep_grid(spec)
    lines = ["\t".join(a.tech.value for a in spec.axes) + "\tpass\tnadir_hz"]
    for caps, ok, nadir in grid.points():
        lines.append(
            "\t".join(f"{c:.1f}" for c in caps) + f"\t{int(ok)}\t{nadir:.4f}"
        )
    grid_text = "\n".join(lines) + "\n"
    if args.grid_out:
        with open(args.grid_out, "w") as fh:
            fh.write(grid_text)
    else:
        sys.stdout.write(grid_text)

    techs = [a.tech for a in spec.axes]
    hi = max(a.max_mw for a in spec.axes)
    edges = require_edges(find_edge_points(techs, context, s.limits, hi_mw=hi), techs, hi)
    cut = make_conservative(fit_hyperplane(edges, context_id=f"hour={args.hour}"), grid)
    doc = {"hour": args.hour, **cut.to_dict()}
    if args.cut_out:
        with open(args.cut_out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        print(json.dumps(doc))
    return EXIT_OK


def _cmd_solve(args) -> int:
    s = load_scenario(args.scenario)
    if args.model == "proposed":
        report = run_proposed(s, max_iter=args.max_iter)
    else:
        report = run_industry(s, escalation_factor=args.escalation, max_iter=args.max_iter)
    print(f"model\t{report.model}")
    print(f"status\t{report.status}")
    print(f"iterations\t{report.iterations}")
    print(f"objective\t{report.objective:.4f}")
    for k, v in sorted(report.cost_breakdown.items()):
        print(f"cost_{k}\t{v:.4f}")
    if report.model == "industry":
        print(f"final_reserve_mw\t{report.final_reserve_mw:.2f}")
    else:
        print(f"cuts_added\t{len(report.cuts)}")
    if args.report_out:
        save_report(report, args.report_out)
    if args.dispatch_out and report.solution is not None:
        write_dispatch_table(s, report, args.dispatch_out)
    if report.status == "infeasible":
        return EXIT_INFEASIBLE
    if report.status == "limit":
        return EXIT_SOLVER_LIMIT
    if report.status != "converged":
        return EXIT_NON_CONVERGENCE
    return EXIT_OK


def _cmd_compare(args) -> int:
    a = load_report(args.report_a)
    b = load_report(args.report_b)
    cmp_ = compare_runs(a, b)
    sys.stdout.write(cmp_.to_text())
    return EXIT_OK


def _cmd_plan_npv(args) -> int:
    res = npv_analysis(args.savings, args.capex, args.rate, args.years)
    print(f"annuity_factor\t{res.annuity_factor:.6f}")
    print(f"npv\t{res.npv:.2f}")
    print(f"pays_back\t{res.pays_back}")
    return EXIT_OK


def _cmd_study(args) -> int:
    s = load_scenario(args.scenario)
    ctx = study_context(s)
    for tech, mw in args.backdrop or []:
        ctx = ctx.with_capacity(tech, mw)
    if args.kind == "equivalence":
        res = equivalence_study(s, TechClass(args.tech_a), TechClass(args.tech_b), context=ctx)
        print(f"edge_{res.tech_a.value}_mw\t{res.edge_a_mw:.1f}")
        print(f"edge_{res.tech_b.value}_mw\t{res.edge_b_mw:.1f}")
        print(f"mw_of_{res.tech_b.value}_per_mw_of_{res.tech_a.value}\t{res.ratio_b_per_a:.2f}")
    else:
        rows = gfm_sensitivity(s, tuple(args.time_constants), context=ctx)
        print("time_constant_s\tgfm_edge_mw\tsc_edge_mw\tratio")
        for tc, res in rows:
            print(f"{tc}\t{res.edge_a_mw:.1f}\t{res.edge_b_mw:.1f}\t{res.ratio_b_per_a:.2f}")
    return EXIT_OK


def _cmd_export_mps(args) -> int:
    s = load_scenario(args.scenario)
    opts = BuildOptions(uniform_reserve_mw=args.uniform_reserve)
    problem = build_fcuc(s, opts)
    export_mps(problem, args.out)
    print(f"wrote {problem.ncols} columns, {problem.nrows} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fcuc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="post-contingency frequency response at one hour")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--hour", type=int, default=1)
    sim.add_argument("--override", action="append", type=_parse_capacity, metavar="tech=MW")
    sim.add_argument("--trace-out")
    sim.add_argument("--decimate", type=_parse_count, default=10)
    sim.set_defaults(func=_cmd_simulate)

    bnd = sub.add_parser("boundary", help="sweep a compliance grid and fit a cut")
    bnd.add_argument("--scenario", required=True)
    bnd.add_argument("--hour", type=int, default=1)
    bnd.add_argument("--axis", action="append", required=True, type=_parse_axis,
                     metavar="tech:min:max[:step]")
    bnd.add_argument("--grid-out")
    bnd.add_argument("--cut-out")
    bnd.set_defaults(func=_cmd_boundary)

    slv = sub.add_parser("solve", help="run one operating model end to end")
    slv.add_argument("--model", choices=["proposed", "industry"], required=True)
    slv.add_argument("--scenario", required=True)
    slv.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    slv.add_argument("--escalation", type=_parse_finite, default=DEFAULT_ESCALATION)
    slv.add_argument("--report-out")
    slv.add_argument("--dispatch-out")
    slv.set_defaults(func=_cmd_solve)

    cmp_ = sub.add_parser("compare", help="compare two run reports")
    cmp_.add_argument("report_a")
    cmp_.add_argument("report_b")
    cmp_.set_defaults(func=_cmd_compare)

    plan = sub.add_parser("plan", help="planning analyses")
    plan_sub = plan.add_subparsers(dest="plan_kind", required=True)
    npv = plan_sub.add_parser("npv")
    npv.add_argument("--savings", type=_parse_finite, required=True)
    npv.add_argument("--capex", type=_parse_finite, required=True)
    npv.add_argument("--rate", type=_parse_finite, default=0.06)
    npv.add_argument("--years", type=int, default=20)
    npv.set_defaults(func=_cmd_plan_npv)

    study = sub.add_parser("study", help="technology equivalence studies")
    study_sub = study.add_subparsers(dest="kind", required=True)
    eq = study_sub.add_parser("equivalence")
    eq.add_argument("--scenario", required=True)
    eq.add_argument("--tech-a", required=True)
    eq.add_argument("--tech-b", required=True)
    eq.add_argument("--backdrop", action="append", type=_parse_capacity, metavar="tech=MW",
                    help="fixed online capacity added to the study context")
    eq.set_defaults(func=_cmd_study, kind="equivalence")
    gs = study_sub.add_parser("gfm-sensitivity")
    gs.add_argument("--scenario", required=True)
    gs.add_argument("--time-constants", type=_parse_finite, nargs="+", default=[0.02, 0.1, 1.0])
    gs.add_argument("--backdrop", action="append", type=_parse_capacity, metavar="tech=MW",
                    help="fixed online capacity added to the study context")
    gs.set_defaults(func=_cmd_study, kind="gfm-sensitivity")

    exp = sub.add_parser("export-mps", help="write the commitment MILP as free MPS")
    exp.add_argument("--scenario", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--uniform-reserve", type=_parse_finite)
    exp.set_defaults(func=_cmd_export_mps)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ScenarioParseError, ScenarioValidationError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BracketingError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

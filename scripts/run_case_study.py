#!/usr/bin/env python3
"""Run both operating models on a scenario and write a full result bundle.

Outputs (in --out-dir):
    proposed.json / industry.json   machine-readable run reports
    proposed_dispatch.tsv / industry_dispatch.tsv   hourly dispatch tables
    comparison.txt                  cost and commitment deltas
"""

import argparse
import pathlib
import sys

from fcuc.drivers import (
    audit_report,
    compare_runs,
    run_industry,
    run_proposed,
    save_report,
    write_dispatch_table,
)
from fcuc.scenario import load_scenario

HERE = pathlib.Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default=str(HERE / "example_scenario.json"))
    ap.add_argument("--out-dir", default="case_study_out")
    ap.add_argument("--max-iter", type=int, default=12)
    ap.add_argument("--escalation", type=float, default=1.1)
    args = ap.parse_args()

    s = load_scenario(args.scenario)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print(f"scenario {s.name}: {s.periods} h, contingency {s.contingency_mw:.0f} MW")

    reports = {}
    for name, run in (
        ("proposed", lambda: run_proposed(s, max_iter=args.max_iter)),
        ("industry", lambda: run_industry(
            s, escalation_factor=args.escalation, max_iter=4 * args.max_iter)),
    ):
        rep = run()
        reports[name] = rep
        print(f"{name}: {rep.status} after {rep.iterations} iteration(s), "
              f"objective {rep.objective:.0f}, {rep.wall_time_s:.1f} s")
        if rep.status != "converged":
            return {"infeasible": 3, "limit": 4}.get(rep.status, 2)
        violations = audit_report(s, rep)
        print(f"{name}: audit {'clean' if not violations else violations}")
        save_report(rep, str(out / f"{name}.json"))
        write_dispatch_table(s, rep, str(out / f"{name}_dispatch.tsv"))

    cmp_ = compare_runs(reports["proposed"], reports["industry"])
    (out / "comparison.txt").write_text(cmp_.to_text())
    saving = reports["industry"].objective - reports["proposed"].objective
    print(f"proposed saves {saving:.0f} ({cmp_.gap_percent:.2f}% of the costlier run)")
    print(f"results written to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

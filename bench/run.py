"""Benchmark of the fcuc cut loop.

Run from the repository root:

    python3 bench/run.py --workload proposed-day --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, in turn

Workloads (see bench/README.md for why each exists):
  proposed-day    run_proposed(max_iter=12) on the benchmark's days
  industry-day    run_industry(escalation_factor=1.1, max_iter=40) on the same days
  boundary-study  edge points -> hyperplane -> 3-axis lattice sweep -> conservative
                  repair on seeded fleet contexts, plus one equivalence study each

One process, one client, closed loop: each call starts after the previous one
returns. The run builds its inputs from --seed (the timed set-up, repeated
after every pass), makes an untimed warm-up, repeats whole passes over its
inputs for about --seconds, then checks every output outside the timed
section. With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 the passes alternate untraced and traced,
and it holds the per-layer metrics, measured by wrapping the public functions
of each layer from outside (bench/spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("proposed-day", "industry-day", "boundary-study")

# After each pass, at least this many set-ups, and more until they have taken
# this share of the pass's wall time: a set-up is short, so one sample sees a
# moment of the machine, and the median needs many.
SETUPS_PER_PASS = 3
SETUP_SHARE = 0.05


def _import_program():
    """Import fcuc from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fcuc
    except ImportError as exc:
        sys.exit(f"bench: cannot import fcuc from {src}: {exc}")
    if Path(fcuc.__file__).resolve().parent != src / "fcuc":
        sys.exit(f"bench: fcuc imported from {fcuc.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# machine notes


def machine_notes(cpu_per_wall: float) -> list[str]:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(
        f"{v}={os.environ.get(v, 'unset')}"
        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return [
        f"nproc {len(os.sched_getaffinity(0))}",
        f"cpu {cpu}",
        f"python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__}",
        f"blas {blas.get('name')} {blas.get('version')} threads: {threads}",
        f"cpu_per_wall {cpu_per_wall:.3f} over the timed passes "
        f"({'serial: HiGHS and BLAS use one core' if cpu_per_wall < 1.1 else 'parallel'})",
    ]


# ---------------------------------------------------------------------------
# one run


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import days
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import Op, make_workload

    wl = make_workload(workload_name)
    tracer = Tracer() if trace else None
    scenario_points = (
        (days, "load_scenario", "scenario.load_scenario", None, None),
        (days, "validate_scenario", "scenario.validate_scenario", None, None),
    )

    def recording(root: str, extra_points=()):
        return nullcontext() if tracer is None else tracer.recording(root, extra_points)

    setup_times: list[float] = []
    digests: set[str] = set()

    def timed_setup():
        t0 = time.perf_counter()
        with recording("setup", scenario_points):
            inputs = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        digests.add(wl.digest(inputs))
        return inputs

    inputs = timed_setup()

    t0 = time.perf_counter()
    wl.warm_up(inputs)
    warm_s = time.perf_counter() - t0

    passes: list[list[Op]] = []
    pass_walls: list[float] = []
    pass_traced: list[bool] = []
    cpu_s = 0.0
    # Stop at the pass end nearest to `seconds` of measured passes, after at
    # least one pass (one untraced and one traced with tracing on).
    while len(passes) < 1 + trace or sum(pass_walls) + pass_walls[-1] / 2 < seconds:
        traced = trace and len(passes) % 2 == 1
        c0, t0 = time.process_time(), time.perf_counter()
        if traced:
            with recording("pass"):
                ops = wl.run_pass(inputs, tracer)
        else:
            ops = wl.run_pass(inputs)
        pass_walls.append(time.perf_counter() - t0)
        cpu_s += time.process_time() - c0
        passes.append(ops)
        pass_traced.append(traced)
        # Set-up samples are spread over the run, so that they see the same
        # machine as the passes do.
        done = len(setup_times)
        while (len(setup_times) - done < SETUPS_PER_PASS
               or sum(setup_times[done:]) < SETUP_SHARE * pass_walls[-1]):
            timed_setup()
    cpu_per_wall = cpu_s / sum(pass_walls)

    with recording("gate"):
        problems = wl.check(inputs, passes, random.Random(f"check-{seed}"))
    if len(digests) != 1:
        problems.append(((-1, -1), f"set-ups of one seed built different inputs: {sorted(digests)}"))

    attempted = sum(len(ops) for ops in passes)
    failed = len({op_key for op_key, _ in problems})
    untraced = [i for i, traced in enumerate(pass_traced) if not traced]
    # The bounded times are fastest repeats. On a shared host other work only
    # ever adds time, and it comes and goes within seconds, so the fastest
    # repeat is the steadier estimate of the program's own cost; the medians
    # are printed beside them.
    wall_s = min(pass_walls[i] for i in untraced)
    wall_p50 = statistics.median(pass_walls[i] for i in untraced)
    # per operation, the fastest untraced repeat; then the geometric mean over
    # the operations, so that every operation's time counts, not only the
    # longest one's as in wall_s
    op_gmean = statistics.geometric_mean(
        min(passes[i][j].seconds for i in untraced) for j in range(len(passes[0])))
    # per pass, the median operation; then the median over the untraced passes
    op_p50 = statistics.median(
        statistics.median(op.seconds for op in passes[i]) for i in untraced)

    lines = [
        f"workload {workload_name} seed {seed} trace {int(trace)}",
        f"inputs {min(digests)}",
        *machine_notes(cpu_per_wall),
        f"warm_up_s {warm_s:.4f} (untimed)",
        "setups (s) " + " ".join(f"{x:.4f}" for x in setup_times),
        f"passes {len(passes)} ({len(passes) - len(untraced)} traced), operations {attempted}",
    ]
    lines += [
        f"pass {k}{' traced' if traced else ''} {wall:.4f} s, operations (s) "
        + " ".join(f"{op.seconds:.4f}" for op in ops)
        for k, (ops, wall, traced) in enumerate(zip(passes, pass_walls, pass_traced))]
    lines += [f"problem pass {k}: {msg}" for (k, _), msg in problems]
    if trace:
        traced_wall_s = min(w for w, t in zip(pass_walls, pass_traced) if t)
        overhead = traced_wall_s - wall_s
        values = layer_metrics(tracer.spans, overhead, audited_passes=len(passes))
        metrics = {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]} for k in PER_LAYER_UNITS}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.json"
        tracer.write(spans_path, workload=workload_name, seed=seed, inputs=min(digests))
        lines.append(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        lines.append(f"fastest traced pass {traced_wall_s:.4f} s, untraced {wall_s:.4f} s")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_s_gmean": {"value": op_gmean, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        lines.append(f"metric wall_s_p50 {wall_p50:.6f} s (median pass; no bound)")
        lines.append(f"metric {wl.op_label} {op_p50:.6f} s (median operation; no bound)")
        lines += [f"metric {k} {v:.6f} {u} (one pass)" for k, v, u in wl.summary(passes)]
    lines.append(f"metric failed_frac {failed / attempted:.6f} ({failed}/{attempted})")
    lines += [f"metric {k} {v['value']:.6f} {v['unit']}" for k, v in metrics.items()]
    for ln in lines:
        print(ln)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(out[-1])
        status = status or (0 if results[name]["correct"] else 1)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    _import_program()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

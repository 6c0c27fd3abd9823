"""The repository's benchmark: one command, four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve-open --seed 11 --seconds 20
    python3 perfbench/run.py --workload sim-busy --trace 1   # per-layer run
    python3 perfbench/run.py --workload all --seed 11        # every workload

Each workload runs in its own process.  The output is one line per
metric (name, value, unit), an environment fingerprint, and — as the
last line — one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics with no
wrapper installed; ``--trace 1`` runs the same work untraced, traced
and untraced again, and reports the per-layer metrics.  Times are in
reference seconds (``speed.py``).  Results and Chrome traces land in
``perfbench/out/`` (git-ignored).
"""

from __future__ import annotations

import os
import sys
import time

if os.environ.get("PYTHONHASHSEED") != "0":
    # One string-hash seed for every run: dict and set iteration order,
    # and with it the scheduling order, is the same in every process.
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

from speed import Probe  # noqa: E402

#: host-speed probes around the set-up (see speed.py); the first one
#: runs before any import so imports are timed on a measured host
BOOT = Probe()
BOOT.run(0.05)
STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-ups per run; setup_s is their median (plus the one-off imports)
SETUPS = 5
#: seconds of one host-speed probe
PROBE_S = 0.05
WORKLOAD_NAMES = ("sim-busy", "serve-open", "serve-burst", "restart")


def _hermetic_env() -> None:
    """Run the stack at its defaults whatever the caller's environment."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]


def _import_stack() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro.compiler  # noqa: F401
    import repro.harness.common  # noqa: F401
    import repro.hypervisor  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.serve  # noqa: F401


def git_commit() -> "str | None":
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(workload: str, seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<32} {value:>14.6g} {unit:<8} {note}".rstrip())


def run_workload(args) -> int:
    import metrics
    from stats import median
    from workloads import WORKLOADS, peak_rss_mb

    imported = time.perf_counter() - STARTED
    BOOT.run(PROBE_S)
    workload = WORKLOADS[args.workload]
    setup_times, compile_times = [], []
    for _ in range(SETUPS):
        start = time.perf_counter()
        state = workload.setup(args.seed, args.seconds)
        setup_times.append(time.perf_counter() - start
                           - state.get("probe_s", 0.0))
        if "compile_s" in state:
            compile_times.append(state["compile_s"])
        BOOT.run(PROBE_S)
    setup_speed = BOOT.factor()

    if args.trace:
        from tracer import Tracer

        # Untraced, traced, untraced again: the traced pass is compared
        # with both neighbours, so warm-up drift does not read as overhead.
        third = args.seconds / 3.0
        before = workload.measure(state, third)
        tracer = Tracer().install()
        try:
            traced = workload.measure(state, third, tracer)
        finally:
            tracer.uninstall()
        after = workload.measure(state, third)
        OUT.mkdir(exist_ok=True)
        if tracer.spans:
            tracer.write_chrome(
                str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
        rollup = traced.layer or tracer.summary()
        untraced_per_unit = (
            (before.busy_s * before.speed + after.busy_s * after.speed)
            / (before.units + after.units))
        result = before
        result.failures += traced.failures + after.failures
        result.mismatches += traced.mismatches + after.mismatches
        result.attempted += traced.attempted + after.attempted
    else:
        result = workload.measure(state, args.seconds)

    values = dict(result.values)
    if "setup_s" not in values:
        values["setup_s"] = (imported + median(setup_times)) * setup_speed
    values.setdefault("peak_rss_mb", peak_rss_mb())
    if compile_times:
        values["compile_s"] = median(compile_times)
    failed = len(result.failures)
    values["failed_ratio"] = failed / max(1, result.attempted)

    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ==")
    print("  env " + json.dumps(fingerprint(args.workload, args.seed)))
    units = {n: u for n, u, _b, _bound in metrics.END_TO_END}
    units.update(metrics.NAMED)
    for name in sorted(values):
        unit = units.get(name, units.get(name.split(".")[0], ""))
        _print_metric(name, values[name], unit, result.notes.get(name, ""))
    for failure in result.failures[:20]:
        print(f"  FAILED {failure}")

    if args.trace:
        rollup = dict(rollup, counters=traced.counters, busy_s=traced.busy_s,
                      event_loop=args.workload != "sim-busy",
                      overhead_ratio=(traced.busy_s * traced.speed
                                      / traced.units) / untraced_per_unit)
        reps = 1 if args.workload == "serve-open" else traced.units
        layer = metrics.layer_values(rollup, reps, traced.speed)
        print(f"  -- per layer (traced pass, per repetition of {reps}) --")
        for name, unit, _better, _v, _r in metrics.LAYERS:
            _print_metric(name, layer[name], unit)
        reported = {name: {"value": layer[name], "unit": unit}
                    for name, unit, _b, _v, _r in metrics.LAYERS}
        if args.workload == "sim-busy" and layer["runtime.idle_fastforwards"]:
            result.failures.append("sim-busy fast-forwarded idle ticks")
            failed += 1
    else:
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit, _b, _bound in metrics.END_TO_END}

    OUT.mkdir(exist_ok=True)
    record = {"env": fingerprint(args.workload, args.seed),
              "seconds": args.seconds, "trace": args.trace,
              "host_speed": result.speed, "setup_host_speed": setup_speed,
              "values": values, "reported": reported,
              "failures": result.failures[:100]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": result.mismatches == 0,
                      "attempted": result.attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("writer", "reader"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    _hermetic_env()
    _import_stack()
    if args.child:
        import workloads

        body = workloads.writer if args.child == "writer" else workloads.reader
        body(args.seed, Path(args.dir), bool(args.trace), STARTED)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

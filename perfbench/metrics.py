"""Metric definitions: gated end-to-end metrics, named results, layers.

* :data:`END_TO_END` — the metrics every workload reports with
  ``--trace 0`` (``BENCHMARK.json``'s ``end_to_end``).  Each has one
  definition per workload; see ``README.md``.
* :data:`NAMED` — the workload-specific end-to-end results, printed by
  name with their unit next to the gated ones.
* :data:`LAYERS` — the per-layer metrics every workload reports with
  ``--trace 1`` (``BENCHMARK.json``'s ``per_layer``), computed from the
  tracer's spans and the layers' own ``stats()`` counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from stats import median, tail

#: (name, unit, better, bound).  A bound holds for every workload, so it
#: is set by the noisiest: restart, whose fsync-heavy journal and
#: snapshot writes drift with the shared disk in ways the CPU probe of
#: ``speed.py`` cannot see (IQR/median up to 0.17 over ten seeds, against
#: at most 0.08 for the other workloads).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("compile_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
)

#: workload-specific results: name → unit
NAMED: Dict[str, str] = {
    "failed_ratio": "ratio",
    "sim_ticks_per_s": "ticks/s",
    "slo_met_ratio": "ratio",
    "tenants_per_s": "1/s",
    "high_latency_tail_s": "s",
    "durable_serve_s": "s",
    "recover_s": "s",
    "drain_s": "s",
}


def _self(span: str) -> Callable[[dict], float]:
    return lambda t: t["self_s"].get(span, 0.0)


def _calls(span: str) -> Callable[[dict], float]:
    return lambda t: t["calls"].get(span, 0)


def _sum(*parts: Callable[[dict], float]) -> Callable[[dict], float]:
    return lambda t: sum(part(t) for part in parts)


def _counter(name: str) -> Callable[[dict], float]:
    return lambda t: t["counters"].get(name, 0.0)


def _hit_ratio(t: dict) -> float:
    hits = t["counters"].get("compiler.store_hits", 0.0)
    total = hits + t["counters"].get("compiler.store_misses", 0.0)
    return hits / total if total else 0.0


def _us_per_tick(t: dict) -> float:
    ticks = t["ticks"] - t["idle_ticks"]
    busy = t["self_s"].get("runtime.tick", 0.0) + t["self_s"].get(
        "runtime.chunk", 0.0)
    return 1e6 * busy / ticks if ticks else 0.0


def _lanes_mean(t: dict) -> float:
    lanes = t["cohort_lanes"]
    return sum(lanes) / len(lanes) if lanes else 0.0


#: (name, unit, better, value from the traced pass's rollup, per-rep?)
#: Per-rep values are divided by the repetitions the traced pass ran.
LAYERS: Tuple[Tuple[str, str, str, Callable[[dict], float], bool], ...] = (
    ("verilog.parse_s", "s", "lower", _self("verilog.parse"), True),
    ("verilog.parses", "count", "lower", _calls("verilog.parse"), True),
    ("core.program_s", "s", "lower", _self("core.program"), True),
    ("core.programs", "count", "lower", _calls("core.program"), True),
    ("opt.optimize_s", "s", "lower", _self("opt.optimize"), True),
    ("opt.optimizes", "count", "lower", _calls("opt.optimize"), True),
    ("interp.codegen_s", "s", "lower", _self("interp.codegen"), True),
    ("interp.codegens", "count", "lower", _calls("interp.codegen"), True),
    ("interp.batch_codegen_s", "s", "lower", _self("interp.batch_codegen"),
     True),
    ("compiler.store_hits", "count", "higher",
     _counter("compiler.store_hits"), True),
    ("compiler.store_misses", "count", "lower",
     _counter("compiler.store_misses"), True),
    ("compiler.hit_ratio", "ratio", "higher", _hit_ratio, False),
    ("compiler.disk_load_s", "s", "lower", _self("compiler.disk_load"), True),
    ("compiler.disk_loads", "count", "lower", _calls("compiler.disk_load"),
     True),
    ("compiler.disk_load_bytes", "B", "lower",
     lambda t: t["disk_load_bytes"], True),
    ("compiler.disk_store_s", "s", "lower", _self("compiler.disk_store"),
     True),
    ("compiler.disk_stores", "count", "lower", _calls("compiler.disk_store"),
     True),
    ("runtime.tick_s", "s", "lower",
     _sum(_self("runtime.tick"), _self("runtime.chunk")), True),
    ("runtime.ticks", "count", "higher",
     lambda t: t["ticks"] - t["idle_ticks"], True),
    ("runtime.us_per_tick", "us", "lower", _us_per_tick, False),
    ("runtime.chunks", "count", "lower", _calls("runtime.chunk"), True),
    ("runtime.idle_fastforwards", "count", "lower", _calls("runtime.idle"),
     True),
    ("runtime.cohort_s", "s", "lower",
     _sum(_self("runtime.cohort"), _self("runtime.form_cohorts")), True),
    ("runtime.cohort_turns", "count", "lower", _calls("runtime.cohort"), True),
    ("runtime.cohort_lanes_mean", "lanes", "higher", _lanes_mean, False),
    ("runtime.cohorts_formed", "count", "higher",
     lambda t: t["cohorts_formed"], True),
    ("fabric.program_s", "s", "lower", _self("fabric.program"), True),
    ("fabric.programs", "count", "lower", _calls("fabric.program"), True),
    ("fabric.abi_s", "s", "lower", _self("fabric.abi"), True),
    ("fabric.abi_sends", "count", "lower", _calls("fabric.abi"), True),
    ("fabric.hardware_placements", "count", "higher",
     _counter("fabric.hardware_placements"), True),
    ("fabric.software_placements", "count", "lower",
     _counter("fabric.software_placements"), True),
    # modeled device seconds: never converted, never added to wall time
    ("fabric.modeled_s", "s_modeled", "lower", _counter("fabric.modeled_s"),
     True),
    ("hypervisor.admit_s", "s", "lower", _self("hypervisor.admit"), True),
    ("hypervisor.admits", "count", "lower", _calls("hypervisor.admit"), True),
    ("hypervisor.checkpoint_s", "s", "lower", _self("hypervisor.checkpoint"),
     True),
    ("hypervisor.checkpoints", "count", "lower",
     _calls("hypervisor.checkpoint"), True),
    ("hypervisor.journal_s", "s", "lower", _self("hypervisor.journal"), True),
    ("hypervisor.journal_records", "count", "lower",
     _calls("hypervisor.journal"), True),
    ("hypervisor.snapshot_s", "s", "lower", _self("hypervisor.snapshot"),
     True),
    ("hypervisor.snapshots", "count", "lower", _calls("hypervisor.snapshot"),
     True),
    ("hypervisor.replay_s", "s", "lower", _self("hypervisor.replay"), True),
    ("hypervisor.rehydrate_s", "s", "lower", _self("hypervisor.rehydrate"),
     True),
    ("hypervisor.rehydrates", "count", "lower",
     _calls("hypervisor.rehydrate"), True),
    ("hypervisor.readmit_s", "s", "lower", _self("hypervisor.readmit"), True),
    ("hypervisor.migrations", "count", "lower", _calls("hypervisor.migrate"),
     True),
    ("serve.submit_s", "s", "lower", _self("serve.submit"), True),
    ("serve.submits", "count", "lower", _calls("serve.submit"), True),
    ("serve.admission_wait_p50_s", "s", "lower",
     lambda t: median(t["admission_waits"]), False),
    ("serve.admission_wait_tail_s", "s", "lower",
     lambda t: tail(t["admission_waits"])[0], False),
    ("serve.turns", "count", "lower",
     _sum(_calls("serve.advance"), _calls("runtime.cohort")), True),
    ("serve.preemptions", "count", "lower", _counter("serve.preemptions"),
     True),
    ("serve.scheduler_self_s", "s", "lower",
     lambda t: (max(0.0, t["busy_s"] - t["covered_s"])
                if t["event_loop"] else 0.0), True),
    ("loadgen.lag_p50_s", "s", "lower", _counter("loadgen.lag_p50_s"), False),
    ("loadgen.lag_tail_s", "s", "lower", _counter("loadgen.lag_tail_s"),
     False),
    ("trace.overhead_ratio", "ratio", "lower",
     lambda t: t["overhead_ratio"], False),
    ("trace.coverage_ratio", "ratio", "higher",
     lambda t: t["covered_s"] / t["busy_s"] if t["busy_s"] else 0.0, False),
)


def layer_values(rollup: dict, reps: int, speed: float) -> Dict[str, float]:
    """Every per-layer metric from one traced pass's rollup.

    Times are converted to reference seconds with the pass's mean host
    speed (*speed*, see ``speed.py``), like the end-to-end metrics.
    """
    out = {}
    for name, unit, _better, value, per_rep in LAYERS:
        number = float(value(rollup))
        if per_rep:
            number /= reps
        if unit in ("s", "us"):
            number *= speed
        out[name] = number
    return out


def benchmark_sections() -> Dict[str, List[dict]]:
    """The ``end_to_end``/``per_layer`` sections of ``BENCHMARK.json``."""
    return {
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _v, _r in LAYERS],
    }

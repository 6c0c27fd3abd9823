"""Event-scheduler micro-benchmark: what does a quiescent tick cost?

Two measurements land in ``BENCH_event.json`` at the repo root:

* **quiescent micro** — one clock-gated register bank with every
  enable low, ticked in bulk by the compiled engine's own ``tick``
  (the idle fast path) and by the reference
  ``InterpSimulator.tick`` driving the same engine (every period
  executed: both clock edges applied, drained and settled).  Reported
  as nanoseconds per idle tick and per executed tick; the idle tick
  must be at least ``MIN_IDLE_SPEEDUP`` times cheaper.
* **fleet sweep** — a software-only supervisor carrying 1000 tenants
  of one shared digest, ten of them active and the rest enable-gated
  idle, driven through ``run_all``.  The interesting number is
  ``idle_fastforwards``: every idle tenant's span collapses into one
  probe + one accounting call instead of per-chunk stepping.
"""

import json
import time
from pathlib import Path

from repro.fabric.device import F1
from repro.hypervisor import Hypervisor
from repro.hypervisor.supervisor import Supervisor
from repro.interp import TaskHost, VirtualFS
from repro.interp.compile.simulator import CompiledSimulator
from repro.interp.simulator import InterpSimulator
from repro.verilog import flatten, parse

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_event.json"

#: required cost reduction of an idle tick over an executed tick
MIN_IDLE_SPEEDUP = 20.0

GATED = """
module gated(input wire clock, input wire en);
  reg [31:0] acc = 0;
  reg [31:0] shade = 0;
  wire [31:0] sum;
  wire [31:0] mix;
  assign sum = acc + shade;
  assign mix = sum ^ (acc << 1);
  always @(posedge clock) begin
    if (en) acc <= acc + 1;
    if (en) shade <= mix;
  end
endmodule
"""

QUIESCENT_TICKS = 20000
FLEET_TENANTS = 1000
FLEET_ACTIVE = 10
FLEET_TICKS = 64


def _quiescent_ns_per_tick(tick, ticks: int) -> float:
    """Wall nanoseconds per quiescent period, driven by *tick*."""
    flat = flatten(parse(GATED), "gated")
    sim = CompiledSimulator(flat, TaskHost(VirtualFS()))
    sim.set("en", 1)
    sim.tick(cycles=4)
    sim.set("en", 0)
    sim.tick(cycles=1)  # settle the enable drop outside the window
    start = time.perf_counter()
    tick(sim, "clock", ticks)
    elapsed = max(time.perf_counter() - start, 1e-9)
    assert sim.get("acc") == 4  # quiescent means quiescent
    assert sim.time == 5 + ticks
    return elapsed * 1e9 / ticks


def test_quiescent_tick_cost_reduction():
    results = {}
    idle_ns = _quiescent_ns_per_tick(CompiledSimulator.tick,
                                     QUIESCENT_TICKS)
    executed_ns = _quiescent_ns_per_tick(InterpSimulator.tick,
                                         QUIESCENT_TICKS)
    speedup = executed_ns / idle_ns
    results["quiescent_micro"] = {
        "ticks": QUIESCENT_TICKS,
        "idle_ns_per_tick": round(idle_ns, 3),
        "executed_ns_per_tick": round(executed_ns, 1),
        "speedup": round(speedup, 1),
    }

    # -- fleet sweep: 1000 engines, ten busy, the rest provably idle --
    # One (unused) board satisfies the supervisor; every tenant is a
    # software engine sharing the lead compiler's codegen artifact.
    supervisor = Supervisor([Hypervisor(F1)], software_fallback=True,
                            checkpoint_every=16)
    for i in range(FLEET_TENANTS):
        supervisor.admit(f"t{i}", GATED, software=True)
    for i in range(FLEET_ACTIVE):
        supervisor.tenants[f"t{i}"].runtime.engine.set("en", 1)
    start = time.perf_counter()
    supervisor.run_all(FLEET_TICKS, form=False)
    elapsed = max(time.perf_counter() - start, 1e-9)
    total_ticks = FLEET_TENANTS * FLEET_TICKS
    results["fleet_sweep"] = {
        "tenants": FLEET_TENANTS,
        "active": FLEET_ACTIVE,
        "ticks_each": FLEET_TICKS,
        "wall_seconds": round(elapsed, 3),
        "ticks_per_sec": round(total_ticks / elapsed, 1),
        "idle_fastforwards": supervisor.idle_fastforwards,
    }
    for i in range(FLEET_ACTIVE):
        assert supervisor.tenants[f"t{i}"].runtime.engine.get("acc") > 0
    assert supervisor.tenants[f"t{FLEET_ACTIVE}"].runtime.engine.get("acc") == 0

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    assert supervisor.idle_fastforwards > 0, \
        "idle tenants never took the fast-forward path"
    assert speedup >= MIN_IDLE_SPEEDUP, (
        f"idle tick only {speedup:.1f}x cheaper than an executed one "
        f"(need >={MIN_IDLE_SPEEDUP}x); see {RESULT_PATH}"
    )

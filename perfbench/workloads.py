"""The four workloads: seeded set-up and measured passes.

Each workload has a ``setup(seed, seconds)`` that builds its inputs
(and, for the serving workloads, warm-compiles every design) and a
``measure(state, seconds, tracer)`` pass that drives the program for
about *seconds*, checks every output against the interp references and
returns a :class:`Pass`.  Output checks and bookkeeping run outside
the timed windows.  Every timing is converted to reference seconds with
host-speed probes taken next to it (``speed.py``).

``restart`` runs its two halves as child processes of ``run.py``
(``--child writer`` then ``--child reader``); :func:`writer` and
:func:`reader` are their bodies.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import gc
import json
import os
import resource
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
import inputs
from speed import Probe
from stats import geomean, median, tail

HERE = Path(__file__).resolve().parent

#: least wall seconds between two marks of the run clock in busy turns
CLOCK_MARK_S = 0.0005
#: open-loop arrival rate: about 30% of the fleet's capacity (~140/s),
#: so the tail is a long tenant's own service time rather than queueing
#: behind a burst, which amplifies the shared host's noise (at 60/s the
#: tail spread three times as much from run to run)
OPEN_RATE_HZ = 40.0
#: the open loop's trace: its arrival times are one Poisson draw (seed
#: 1) for every run.  The tail is set by a few bursts of the draw (8
#: arrivals in 80 ms queue behind each other) and by which tenants land
#: in them: with the times drawn from --seed, and again with only the
#: order of the designs, priorities and tick budgets shuffled by it, the
#: tail spread about 3x as much from seed to seed as from run to run of
#: one seed.  So, as in restart, the seed picks only names and principals.
OPEN_TRACE = {"shuffle": False, "times_seed": 1}
#: tenants in one saturated batch (3x the 288 of BENCH_serve)
BURST_N = 864
#: tenants process W serves, and how many retire before it is killed
RESTART_N = 160
RESTART_KILL_AFTER = 80
#: restart's design mix: the serving mix without bitcoin, whose ticks
#: cost ~30x the others'.  Its trace is not shuffled either: which
#: tenants are in flight at the kill, and so R's work (placements,
#: cohorts), would otherwise swing with the seed.
RESTART_MIX = (("mips32", 2.0), ("fuzz", 5.0))
#: fresh R processes per W, each over a copy of W's directories
RESTART_READERS = 3
#: cold compiles into a fresh disk tier per W (compile_s is the median
#: of every W's)
RESTART_COMPILES = 3
#: consecutive windows of an open-loop trace whose tails are medianed
OPEN_TAIL_WINDOWS = 8
#: open-loop latency limit of slo_met_ratio
SLO_S = 0.100
#: seconds of one host-speed probe next to a timing
PROBE_S = 0.05
#: a saturated loop is probed for LOOP_PROBE_S every LOOP_PROBE_EVERY_S
LOOP_PROBE_S = 0.005
LOOP_PROBE_EVERY_S = 0.1
#: sim-busy times each design's run in this many chunks, with a
#: SIM_PROBE_S probe between chunks
SIM_CHUNKS = 5
SIM_PROBE_S = 0.02


@dataclass
class Pass:
    """What one measured pass of a workload produced."""

    attempted: int = 0
    #: refused, errored and output-mismatched operations
    failures: List[str] = field(default_factory=list)
    mismatches: int = 0
    #: named end-to-end values of this pass (times in reference seconds)
    values: Dict[str, float] = field(default_factory=dict)
    #: extra text printed next to a value (tail percentile, samples)
    notes: Dict[str, str] = field(default_factory=dict)
    #: units of work done (repetitions or tenants), and wall seconds
    #: the process was busy doing them (event-loop idle excluded)
    units: int = 0
    busy_s: float = 0.0
    #: mean host speed over the pass, relative to nominal
    speed: float = 1.0
    #: per-layer counters read from the layers' own stats()
    counters: Dict[str, float] = field(default_factory=dict)
    #: tracer summary of a traced pass run in child processes
    layer: Optional[dict] = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _add(counters: Dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0.0) + value


# -- shared serving plumbing -------------------------------------------------


class _IdleSelector(selectors.DefaultSelector):
    """Selector that sums the loop's idle time, probing host speed in it.

    Every wake-up of the serving loops is a timer, so a probe that ends
    a millisecond before the timer is due delays nothing.

    It also keeps the loop's *run clock*: wall time while the loop is
    idle, CPU time while it is busy.  A busy loop never waits (the
    scheduler yields with ``sleep(0)``), so the two differ only by the
    time the shared host took the core away, which comes in bursts
    that the probes cannot convert away.  :meth:`clock_at` reads the
    run clock at a past wall time.
    """

    def __init__(self, probe: Optional[Probe]):
        super().__init__()
        self.probe = probe
        self.idle_s = 0.0
        self._idle_cpu = 0.0
        self._walls: List[float] = []
        self._clocks: List[float] = []

    def run_clock(self) -> float:
        return time.process_time() - self._idle_cpu + self.idle_s

    def clock_at(self, wall: float) -> float:
        """The run clock at *wall*, interpolated between marks."""
        walls, clocks = self._walls, self._clocks
        i = bisect.bisect_right(walls, wall)
        if i == 0:
            return clocks[0] - (walls[0] - wall)
        if i == len(walls):
            return clocks[-1] + (wall - walls[-1])
        share = (wall - walls[i - 1]) / (walls[i] - walls[i - 1])
        return clocks[i - 1] + share * (clocks[i] - clocks[i - 1])

    def select(self, timeout=None):
        start, cpu = time.perf_counter(), time.process_time()
        clock = cpu - self._idle_cpu + self.idle_s
        busy_turn = timeout is not None and timeout <= 0
        if (not busy_turn or not self._walls
                or start - self._walls[-1] >= CLOCK_MARK_S):
            self._walls.append(start)
            self._clocks.append(clock)
        if busy_turn:
            return super().select(timeout)
        try:
            if (self.probe is not None and timeout is not None
                    and timeout > 0.004):
                # a probe overshoots by up to one kernel call (~0.6 ms)
                self.probe.run(min(timeout - 0.002, 0.010))
                timeout = max(0.0, timeout - (time.perf_counter() - start))
            return super().select(timeout)
        finally:
            end = time.perf_counter()
            self.idle_s += end - start
            self._idle_cpu += time.process_time() - cpu
            self._walls.append(end)
            self._clocks.append(clock + end - start)


class _LoopProbe:
    """Probes host speed every few turns of a loop that never idles.

    The probe's own time is recorded, so it is taken back out of every
    latency it falls into.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.spans: List[tuple] = []

    async def run(self) -> None:
        while True:
            await asyncio.sleep(LOOP_PROBE_EVERY_S)
            start = time.perf_counter()
            self.probe.run(LOOP_PROBE_S)
            self.spans.append((start, time.perf_counter()))

    def within(self, start: float, end: float) -> float:
        """Probe seconds inside [start, end]."""
        return sum(max(0.0, min(b, end) - max(a, start))
                   for a, b in self.spans)


def run_loop(main, selector: Optional[_IdleSelector] = None):
    """Run coroutine *main* on a fresh loop; returns (result, idle_s).

    A given *selector* (see :class:`_IdleSelector`) runs the loop.
    """
    selector = selector or _IdleSelector(None)
    loop = asyncio.SelectorEventLoop(selector)
    try:
        return loop.run_until_complete(main), selector.idle_s
    finally:
        loop.close()


def fast_device():
    """DE10 with near-instant modeled compiles: serving, not synthesis."""
    from repro.fabric import DE10

    return dataclasses.replace(DE10, compile_seconds=0.05,
                               reconfig_seconds=0.01)


def make_fleet(service, boards: int = 3, **config):
    from repro.hypervisor import Hypervisor
    from repro.serve import Fleet, FleetConfig

    device = fast_device()
    return Fleet([Hypervisor(device, compiler=service) for _ in range(boards)],
                 FleetConfig(**config))


def warm_compile(service, pool: Dict[str, str], probe: Probe) -> float:
    """Cold source → first tick of every pool design, in reference seconds.

    Each compile is timed between two short probes (``speed.py``).
    """
    from repro.runtime import Runtime

    total, speed = 0.0, probe.run(SIM_PROBE_S)
    for source in pool.values():
        start = time.perf_counter()
        Runtime(source, compiler=service).tick(1)
        wall = time.perf_counter() - start
        after = probe.run(SIM_PROBE_S)
        total += wall * (speed + after) / 2
        speed = after
    return total


def warm_boards(service, pool: Dict[str, str]) -> None:
    """Place every pool design on a board once, through the serving path.

    Warms the board-side artifacts (transformed-module code, synthesis
    estimates, bitstreams) so a timed serving pass measures serving,
    not each board's first compile of each design.
    """
    from repro.serve import ServeConfig, ServeFrontend

    async def main():
        frontend = ServeFrontend(make_fleet(service, boards=1), ServeConfig())
        try:
            for source in pool.values():
                handle = await frontend.submit(source, ticks=2)
                await handle.result()
        finally:
            await frontend.close()

    run_loop(main())


def check_result(out: Pass, expected, arrival, digest: str, result) -> bool:
    """Count a bad status or an output mismatch; True when all is well."""
    if result.status not in ("completed", "finished"):
        out.failures.append(f"{arrival.name}: status {result.status}")
        return False
    wrong = checks.mismatch(expected, digest, arrival.ticks, result.display,
                            result.state, result.ticks)
    if wrong is not None:
        out.mismatches += 1
        out.failures.append(f"{arrival.name}: {wrong}")
        return False
    return True


def serve_counters(out: Pass, frontend, store_before, results) -> None:
    stats = frontend.stats()
    after = frontend.fleet.compiler.stats()
    _add(out.counters, "serve.preemptions", stats["slicer"]["preemptions"])
    _add(out.counters, "fabric.hardware_placements",
         stats["placement"]["hardware"])
    _add(out.counters, "fabric.software_placements",
         stats["placement"]["software"])
    _add(out.counters, "compiler.store_hits", after.hits - store_before.hits)
    _add(out.counters, "compiler.store_misses",
         after.misses - store_before.misses)
    _add(out.counters, "fabric.modeled_s", sum(r.sim_time for r in results))


def _serve(state, out: Pass, fleet, config, trace, *, paced: bool,
           probe: Optional[Probe] = None,
           prober: Optional[_LoopProbe] = None,
           lags: Optional[List[float]] = None):
    """Serve *trace* through one frontend over *fleet*; check every result.

    *paced* submits each arrival at its due time on a reference clock,
    the loop's run clock (see :class:`_IdleSelector`) at the core speed
    *probe* reads in the loop's idle gaps (an open loop, whose lateness
    goes to *lags*): a slow spell of the host then stretches the
    arrival gaps with the service times, so the load, and with it the
    queueing, stays what it is on the reference host.  Latencies and
    lags are then in reference seconds, each converted at the core
    speed of its due time.  Otherwise the whole trace is submitted
    before the scheduler's first turn, and latencies are in wall
    seconds.  Returns ``(start, wall, idle, done)``,
    ``done`` holding ``(arrival, due → result seconds, result, output
    ok)`` per retired tenant.
    """
    from repro.serve import AdmissionError, ServeFrontend

    store_before = state["service"].stats()
    results: list = []
    selector = _IdleSelector(probe)

    async def main():
        frontend = ServeFrontend(fleet, config)
        probing = asyncio.ensure_future(prober.run()) if prober else None
        pending = []
        start = time.perf_counter()
        last, clock, speed = selector.run_clock(), 0.0, 1.0
        try:
            for a in trace:
                due = start
                if paced:
                    while True:
                        now = selector.run_clock()
                        speed = probe.recent
                        clock += (now - last) * speed
                        last = now
                        if clock >= a.at:
                            break
                        await asyncio.sleep((a.at - clock) / speed)
                    lags.append(clock - a.at)
                    due = now - (clock - a.at) / speed
                submitted = time.perf_counter()
                try:
                    handle = await frontend.submit(
                        a.source, ticks=a.ticks, priority=a.priority,
                        tenant=a.tenant, name=a.name)
                except AdmissionError as err:
                    out.failures.append(f"{a.name}: refused: {err}")
                    continue
                pending.append((a, due, submitted, speed, handle))
            for a, due, submitted, speed, handle in pending:
                try:
                    result = await handle.result()
                except Exception as err:  # a failed tenant counts
                    out.failures.append(f"{a.name}: {err!r}")
                    continue
                if paced:  # *due* is on the run clock
                    done_at = selector.clock_at(submitted + result.latency_s)
                    latency = (done_at - due) * speed
                else:
                    latency = submitted - due + result.latency_s
                results.append((a, latency, result))
            return start, time.perf_counter() - start
        finally:
            if probing is not None:
                probing.cancel()
                try:
                    await probing
                except asyncio.CancelledError:
                    pass
            await frontend.close()
            serve_counters(out, frontend, store_before,
                           [r for _, _, r in results])

    (start, wall), idle = run_loop(main(), selector=selector)
    out.attempted += len(trace)
    done = [(a, latency, result,
             check_result(out, state["expected"], a,
                          state["digests"][a.source], result))
            for a, latency, result in results]
    return start, wall, idle, done


# -- sim-busy ----------------------------------------------------------------


def _split(total: int, parts: int) -> List[int]:
    """*total* as *parts* near-equal counts."""
    return [total * (i + 1) // parts - total * i // parts
            for i in range(parts)]


class SimBusy:
    """Closed loop, one caller: cold compile then fixed ticks per design."""

    name = "sim-busy"

    def setup(self, seed: int, seconds: float):
        return {
            "order": inputs.sim_order(seed),
            "sources": inputs.sim_sources(),
            "expected": checks.load_expected(),
        }

    def measure(self, state, seconds: float, tracer=None) -> Pass:
        from repro.compiler import ArtifactStore, CompilerService
        from repro.runtime import Runtime

        out = Pass()
        probe = Probe()
        compile_sums: List[float] = []
        rates: Dict[str, List[float]] = {n: [] for n in state["order"]}
        latencies: List[float] = []
        slowest: List[float] = []
        deadline = time.perf_counter() + seconds
        speed = probe.run(SIM_PROBE_S)

        def timed(step) -> float:
            """Run *step*; its wall time in reference seconds, measured
            between two probes so host drift inside a design cancels."""
            nonlocal speed
            start = time.perf_counter()
            step()
            wall = time.perf_counter() - start
            after = probe.run(SIM_PROBE_S)
            reference = wall * (speed + after) / 2
            speed = after
            out.busy_s += wall
            return reference

        while out.units == 0 or time.perf_counter() < deadline:
            compile_sum = 0.0
            for name in state["order"]:
                source, ticks = state["sources"][name], inputs.SIM_TICKS[name]
                vfs = inputs.sim_vfs(name)
                service = CompilerService(ArtifactStore())
                holder: list = []

                def boot():
                    holder.append(Runtime(source, vfs=vfs, compiler=service))
                    holder[0].tick(1)

                gc.collect()
                compiled = timed(boot)
                runtime = holder[0]
                ran = sum(timed(lambda n=n: runtime.tick(n))
                          for n in _split(ticks - 1, SIM_CHUNKS))
                out.attempted += 1
                compile_sum += compiled
                rates[name].append((ticks - 1) / ran)
                latencies.append(compiled + ran)
                store = service.stats()
                _add(out.counters, "compiler.store_hits", store.hits)
                _add(out.counters, "compiler.store_misses", store.misses)
                _add(out.counters, "fabric.modeled_s", runtime.sim_time)
                if runtime.finished or runtime.is_idle():
                    # ticks/s would count $finish'd or idle ticks
                    out.failures.append(f"{name}: finished or idle")
                wrong = checks.mismatch(
                    state["expected"], inputs.source_digest(source), ticks,
                    runtime.host.display_log, checks.runtime_state(runtime),
                    runtime.ticks)
                if wrong is not None:
                    out.mismatches += 1
                    out.failures.append(f"{name}: {wrong}")
            compile_sums.append(compile_sum)
            slowest.append(max(latencies[-len(state["order"]):]))
            out.units += 1
        out.speed = probe.factor()
        per_design = {n: median(r) for n, r in rates.items()}
        out.values["compile_s"] = median(compile_sums)
        out.values["sim_ticks_per_s"] = geomean(list(per_design.values()))
        for n in sorted(per_design):
            out.values[f"sim_ticks_per_s.{n}"] = per_design[n]
        out.values["throughput_per_s"] = out.values["sim_ticks_per_s"]
        out.values["latency_p50_s"] = median(latencies)
        # Six designs per repetition leave no percentile with ten
        # samples beyond it: the tail is the slowest design.
        out.values["latency_tail_s"] = median(slowest)
        out.notes["latency_tail_s"] = f"max of 6, median of {out.units}"
        return out


# -- serve-open --------------------------------------------------------------


def _serve_setup(seed: int, n: int, rate_hz: float, **trace):
    from repro.compiler import ArtifactStore, CompilerService

    pool = inputs.design_pool()
    service = CompilerService(ArtifactStore())
    probe = Probe()
    compile_s = warm_compile(service, pool, probe)
    warm_boards(service, pool)
    return {
        "seed": seed,
        "pool": pool,
        "trace": inputs.serve_trace(seed, n, rate_hz, pool, **trace),
        "digests": {src: inputs.source_digest(src) for src in pool.values()},
        "expected": checks.load_expected(),
        "service": service,
        "compile_s": compile_s,
        "probe_s": probe.seconds,
    }


class ServeOpen:
    """Open loop: Poisson arrivals at a fixed light rate, due-time latency."""

    name = "serve-open"

    def setup(self, seed: int, seconds: float):
        return _serve_setup(seed, int(OPEN_RATE_HZ * seconds), OPEN_RATE_HZ,
                            **OPEN_TRACE)

    def measure(self, state, seconds: float, tracer=None) -> Pass:
        from repro.serve import ServeConfig

        n = int(OPEN_RATE_HZ * seconds)
        arrivals = state["trace"]
        if len(arrivals) != n:  # a pass of a traced run
            arrivals = inputs.serve_trace(state["seed"], n, OPEN_RATE_HZ,
                                          state["pool"], **OPEN_TRACE)
        out = Pass()
        probe = Probe()
        lags: List[float] = []
        probe.run(PROBE_S)
        gc.collect()
        _, wall, idle, done = _serve(state, out, make_fleet(state["service"]),
                                     ServeConfig(), arrivals, paced=True,
                                     probe=probe, lags=lags)
        probe.run(PROBE_S)
        out.speed = speed = probe.factor()
        out.units = len(arrivals)
        out.busy_s = wall - idle
        latencies = [lat for _, lat, _, _ in done]
        met = sum(1 for _, lat, _, ok in done if ok and lat <= SLO_S)
        out.values["latency_p50_s"] = median(latencies)
        # Poisson bursts set the tail, so one trace's tail swings with
        # its draw: report the median of the tails of consecutive windows.
        size = -(-len(latencies) // OPEN_TAIL_WINDOWS)
        windows = [latencies[i:i + size]
                   for i in range(0, len(latencies), size)]
        out.values["latency_tail_s"] = median([tail(w)[0]
                                               for w in windows])
        out.notes["latency_tail_s"] = (f"{tail(windows[0])[1]} of "
                                       f"{len(windows[0])}, median of "
                                       f"{len(windows)} windows")
        out.values["slo_met_ratio"] = met / max(1, out.attempted)
        out.values["throughput_per_s"] = len(done) / out.busy_s / speed
        out.counters["loadgen.lag_p50_s"] = median(lags)
        out.counters["loadgen.lag_tail_s"] = tail(lags)[0]
        return out


# -- serve-burst -------------------------------------------------------------


class ServeBurst:
    """Batch: every tenant submitted before the scheduler's first turn."""

    name = "serve-burst"

    def setup(self, seed: int, seconds: float):
        return _serve_setup(seed, BURST_N, 50.0)

    def measure(self, state, seconds: float, tracer=None) -> Pass:
        out = Pass()
        speeds: List[float] = []
        samples: Dict[str, List[float]] = {}
        deadline = time.perf_counter() + seconds
        while out.units == 0 or time.perf_counter() < deadline:
            probe = Probe()
            probe.run(PROBE_S)
            gc.collect()
            done, busy = self._batch(state, out, probe)
            probe.run(PROBE_S)
            speed = probe.factor()
            speeds.append(speed)
            out.units += 1
            out.busy_s += busy
            latencies = [lat for _, lat in done]
            high = [lat for a, lat in done if a.priority == "high"]
            for key, value in (
                    ("tenants_per_s", len(done) / max(latencies) / speed),
                    ("latency_p50_s", median(latencies) * speed),
                    ("latency_tail_s", tail(latencies)[0] * speed),
                    ("high_latency_tail_s", tail(high)[0] * speed)):
                samples.setdefault(key, []).append(value)
        out.speed = sum(speeds) / len(speeds)
        for key, values in samples.items():
            out.values[key] = median(values)
        out.values["throughput_per_s"] = out.values["tenants_per_s"]
        out.notes["latency_tail_s"] = (f"{tail(range(BURST_N))[1]} of "
                                       f"{BURST_N}, median of {out.units}")
        return out

    def _batch(self, state, out: Pass, probe: Probe):
        """One batch; returns ((arrival, latency)..., busy wall seconds),
        with the in-loop probes' time taken out of both."""
        from repro.serve import ServeConfig

        n = len(state["trace"])
        fleet = make_fleet(state["service"], board_capacity=4, cohorts=True)
        config = ServeConfig(max_running=n + 8, max_queue=n + 8,
                             per_tenant=n, quantum_ticks=32,
                             checkpoint_on_preempt=False)
        prober = _LoopProbe(probe)
        start, wall, idle, done = _serve(state, out, fleet, config,
                                         state["trace"], paced=False,
                                         prober=prober)
        done = [(a, lat - prober.within(start, start + lat))
                for a, lat, _, _ in done]
        return done, wall - idle - prober.within(start, start + wall)


# -- restart -----------------------------------------------------------------


def _disk_service(path: Path):
    from repro.compiler import ArtifactStore, CompilerService, DiskArtifactStore

    return CompilerService(ArtifactStore(disk=DiskArtifactStore(path)))


def _durable_stack(root: Path):
    from repro.hypervisor import TenantJournal
    from repro.serve import ServeConfig, ServeFrontend

    fleet = make_fleet(_disk_service(root / "artifacts"))
    fleet.supervisor.checkpoint_every = 4
    config = ServeConfig(max_running=16, max_queue=RESTART_N + 8,
                         per_tenant=RESTART_N, quantum_ticks=16)
    journal = TenantJournal(root / "journal")
    return ServeFrontend(fleet, config, journal=journal)


def _child_tracer(trace: bool):
    if not trace:
        return None
    from tracer import Tracer

    return Tracer().install()


def _child_report(root: Path, role: str, report: dict, tracer) -> None:
    if tracer is not None:
        tracer.uninstall()
        report["layer"] = tracer.summary()
        tracer.write_chrome(str(root / f"trace-{role}.json"))
    report["peak_rss_mb"] = peak_rss_mb()
    with open(root / f"{role}.json", "w") as fh:
        json.dump(report, fh)
        fh.flush()
        os.fsync(fh.fileno())


def writer(seed: int, root: Path, trace: bool, started: float) -> None:
    """Process W: journaled serving, killed once enough tenants retired.

    Reports wall seconds (its compiles excepted); the parent converts them
    with probes it takes around the process (see :class:`Restart`).
    """
    pool = inputs.design_pool()
    arrivals = inputs.serve_trace(seed, RESTART_N, 50.0, pool, RESTART_MIX,
                                  shuffle=False)
    expected = checks.load_expected()
    frontend = _durable_stack(root)
    probe = Probe()
    # Cold compiles into fresh disk tiers, the last one W's own.
    compiles = [warm_compile(_disk_service(root / f"warm-{k}"), pool, probe)
                for k in range(RESTART_COMPILES - 1)]
    compiles.append(warm_compile(frontend.fleet.compiler, pool, probe))
    for k in range(RESTART_COMPILES - 1):
        shutil.rmtree(root / f"warm-{k}")
    report: dict = {"setup_s": time.perf_counter() - started - probe.seconds,
                    "compiles": compiles}
    tracer = _child_tracer(trace)
    store_before = frontend.fleet.compiler.stats()

    async def main():
        start = time.perf_counter()
        handles = [await frontend.submit(a.source, ticks=a.ticks,
                                         priority=a.priority, tenant=a.tenant,
                                         name=a.name)
                   for a in arrivals]
        while sum(h.done for h in handles) < RESTART_KILL_AFTER:
            await asyncio.sleep(0)
        return time.perf_counter() - start, handles

    gc.collect()
    (wall, handles), idle = run_loop(main())
    report["durable_serve_s"] = wall
    report["busy_s"] = wall - idle
    out = Pass()
    results = []
    for a, handle in zip(arrivals, handles):
        if not handle.done:
            continue
        result = frontend.result_of(a.name)
        if result is None:
            out.failures.append(f"{a.name}: {handle.status()}")
            continue
        results.append(result)
        check_result(out, expected, a, inputs.source_digest(a.source), result)
    report["retired"] = sum(h.done for h in handles)
    report["failures"] = out.failures
    report["mismatches"] = out.mismatches
    serve_counters(out, frontend, store_before, results)
    report["counters"] = out.counters
    _child_report(root, "writer", report, tracer)
    # Die hard: no journal close, no scheduler shutdown, no flush of
    # anything the durable tier did not already make durable.
    os._exit(0)


def reader(seed: int, root: Path, trace: bool, started: float) -> None:
    """Process R: a fresh stack over W's directories recovers and drains.

    Reports wall seconds, like :func:`writer`.
    """
    pool = inputs.design_pool()
    by_name = {a.name: a for a in inputs.serve_trace(
        seed, RESTART_N, 50.0, pool, RESTART_MIX, shuffle=False)}
    expected = checks.load_expected()
    frontend = _durable_stack(root)
    report: dict = {"setup_s": time.perf_counter() - started}
    tracer = _child_tracer(trace)
    store_before = frontend.fleet.compiler.stats()
    done_at: Dict[str, float] = {}

    async def main():
        start = time.perf_counter()
        handles = await frontend.recover()
        recovered = time.perf_counter() - start
        waiters = []
        for name, handle in handles.items():
            task = asyncio.ensure_future(handle.result())
            task.add_done_callback(
                lambda _t, n=name: done_at.__setitem__(n, time.perf_counter()))
            waiters.append((name, task))
        results, errors = {}, {}
        for name, task in waiters:
            try:
                results[name] = await task
            except Exception as err:  # a failed recovery counts
                errors[name] = err
        await frontend.close()
        frontend.journal.close()
        return start, recovered, results, errors

    gc.collect()
    (start, recover_wall, results, errors), idle = run_loop(main())
    latencies = [t - start for t in done_at.values()]
    drain_wall = max(latencies, default=0.0)
    report.update(recover_s=recover_wall, drain_s=drain_wall,
                  latencies=latencies, busy_s=drain_wall - idle)
    out = Pass()
    out.failures += [f"{name}: {err!r}" for name, err in errors.items()]
    for name, result in results.items():
        a = by_name[name]
        check_result(out, expected, a, inputs.source_digest(a.source), result)
    report["recovered"] = len(results) + len(errors)
    report["failures"] = out.failures
    report["mismatches"] = out.mismatches
    serve_counters(out, frontend, store_before, list(results.values()))
    report["counters"] = out.counters
    _child_report(root, "reader", report, tracer)


def _link_or_copy(src: str, dst: str) -> None:
    """Give an R process its own view of W's files without rewriting them.

    Artifacts and snapshots are only ever replaced by atomic rename or
    unlinked, so a hard link is a private copy; the journal log is
    appended to and truncated in place, so it is copied.
    """
    if os.path.basename(src) == "journal.wal":
        shutil.copy2(src, dst)
    else:
        os.link(src, dst)


class Restart:
    """Process W serves durably and is killed; processes R recover.

    Each repetition runs one W, then RESTART_READERS fresh R processes,
    each over its own byte-identical copy of W's directories.
    """

    name = "restart"

    def setup(self, seed: int, seconds: float):
        return {"seed": seed}

    def _child(self, role: str, seed: int, root: Path, trace: bool) -> dict:
        """Run one child; its report with times in reference seconds.

        A fresh process's own probes read the host badly, so this
        long-lived parent probes right before and after the child and
        converts the child's wall times with that speed.
        """
        probe = Probe()
        probe.run(2 * PROBE_S)
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", role,
             "--seed", str(seed), "--dir", str(root),
             "--trace", "1" if trace else "0"],
            stdout=subprocess.DEVNULL, check=True, timeout=150)
        probe.run(2 * PROBE_S)
        with open(root / f"{role}.json") as fh:
            report = json.load(fh)
        speed = report["speed"] = probe.factor()
        for key in ("setup_s", "durable_serve_s", "recover_s", "drain_s"):
            if key in report:
                report[key] *= speed
        report["latencies"] = [lat * speed
                               for lat in report.get("latencies", ())]
        return report

    def measure(self, state, seconds: float, tracer=None) -> Pass:
        from tracer import merge_summaries

        out = Pass()
        samples: Dict[str, List[float]] = {}
        summaries = []
        speeds = []
        traced = tracer is not None
        base = HERE / "out" / f"restart-{os.getpid()}"
        deadline = time.perf_counter() + seconds
        try:
            while out.units == 0 or time.perf_counter() < deadline:
                root = base / f"rep-{out.units}"
                shutil.rmtree(root, ignore_errors=True)
                root.mkdir(parents=True)
                w = self._child("writer", state["seed"], root, traced)
                readers = []
                for k in range(RESTART_READERS):
                    copy = root / f"reader-{k}"
                    for sub in ("artifacts", "journal"):
                        shutil.copytree(root / sub, copy / sub,
                                        copy_function=_link_or_copy)
                    readers.append(
                        self._child("reader", state["seed"], copy, traced))
                if traced:
                    summaries += [w["layer"]] + [r["layer"] for r in readers]
                    for role, where in (("writer", root), ("reader", copy)):
                        shutil.copy(where / f"trace-{role}.json",
                                    base.parent / f"trace-restart-seed"
                                    f"{state['seed']}-{role}.json")
                out.units += 1
                for child in [w] + readers:
                    out.failures += child["failures"]
                    out.mismatches += child["mismatches"]
                    out.busy_s += child["busy_s"]
                    speeds.append(child["speed"])
                    for key, value in child["counters"].items():
                        _add(out.counters, key, value)
                    samples.setdefault("setup_s", []).append(child["setup_s"])
                out.attempted += w["retired"] + sum(r["recovered"]
                                                    for r in readers)
                samples.setdefault("compile_s", []).extend(w["compiles"])
                samples.setdefault("durable_serve_s", []).append(
                    w["durable_serve_s"])
                for r in readers:
                    for key, sample in (
                            ("recover_s", r["recover_s"]),
                            ("drain_s", r["drain_s"]),
                            ("throughput_per_s",
                             r["recovered"] / r["drain_s"]),
                            ("latency_p50_s", median(r["latencies"])),
                            ("latency_tail_s", tail(r["latencies"])[0]),
                            ("peak_rss_mb", r["peak_rss_mb"])):
                        samples.setdefault(key, []).append(sample)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        for key, values in samples.items():
            out.values[key] = median(values)
        out.speed = sum(speeds) / len(speeds)
        label, n = tail(readers[-1]["latencies"])[1:]
        out.notes["latency_tail_s"] = (
            f"{label} of {n} recovered, median of "
            f"{len(samples['latency_tail_s'])} R processes")
        if summaries:
            out.layer = merge_summaries(summaries)
        return out


WORKLOADS = {w.name: w for w in (SimBusy(), ServeOpen(), ServeBurst(),
                                 Restart())}

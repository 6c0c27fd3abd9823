"""The Synergy runtime instance: one virtualized Verilog application.

A :class:`Runtime` is the analogue of one Cascade REPL session: it owns
a program (compiled through the §3 pipeline), a :class:`TaskHost`
exposing OS-managed resources, and the current engine.  Programs start
in software and transition to hardware once a backend placement is
ready, can be suspended to a portable :class:`Context`, resumed on a
different runtime/backend (workload migration, §3.5), and profiled for
virtual clock frequency.

Simulated wall time (``sim_time``) advances with every operation using
the cost models of the engines, backends, and transition latencies, so
experiment harnesses can plot paper-style time series without running
billions of interpreted ticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.systasks import TaskHost
from ..interp.vfs import VirtualFS
from .backends import DirectBoardBackend, Placement
from .engine import Engine, HardwareEngine, SoftwareEngine, TickStats  # noqa: F401
from .jit import AdaptiveRefinement, TransitionCosts
from .traps import TrapServicer


@dataclass
class Context:
    """A suspended program: everything needed to resume anywhere."""

    program_source: str
    state: Dict[str, object]
    vfs_state: Dict[str, object]
    vfs_files: Dict[str, bytes]
    ticks: int
    display_log: List[str] = field(default_factory=list)
    #: ``$write`` text the program had not yet ended with a line
    pending_line: str = ""


@dataclass
class TelemetryEvent:
    time: float
    tag: str
    value: float = 0.0


@dataclass
class SliceReport:
    """What one bounded scheduling turn actually consumed.

    ``tick`` returns only the *last* engine dispatch's stats; a
    time-slicer needs the cumulative account of its whole turn to
    charge the tenant's deficit, so :meth:`Runtime.tick_chunk` sums as
    it goes.
    """

    ticks: int = 0
    seconds: float = 0.0
    traps: int = 0
    finished: bool = False
    #: the engine proved quiescent at the end of the turn: further
    #: ticks execute nothing, so the scheduler may fast-forward or
    #: deprioritize this tenant instead of dispatching no-op turns
    idle: bool = False


class RuntimeError_(Exception):
    """Raised on runtime protocol misuse."""


class Runtime:
    """One virtualized application instance."""

    def __init__(self, source, name: Optional[str] = None,
                 vfs: Optional[VirtualFS] = None, top: Optional[str] = None,
                 clock: str = "clock", echo: bool = False,
                 costs: Optional[TransitionCosts] = None,
                 sim_backend: Optional[str] = None,
                 compiler: Optional[CompilerService] = None,
                 quiet_boot: bool = False,
                 opt_level: Optional[int] = None):
        self.compiler = compiler if compiler is not None else default_service()
        self.program: CompiledProgram = (
            source if isinstance(source, CompiledProgram)
            else self.compiler.compile_program(source, top)
        )
        self.name = name or self.program.name
        self.clock = clock
        self.sim_backend = sim_backend
        #: mid-end optimization level for this instance's software
        #: engines (None = ambient REPRO_OPT_LEVEL)
        self.opt_level = opt_level
        self.host = TaskHost(vfs if vfs is not None else VirtualFS(), echo=echo)
        # quiet_boot: this instance exists to receive a restored context
        # (a migration destination, §3.5) — initial blocks still run to
        # build a consistent boot state, but their side effects are not
        # replayed into the host: the suspended program already emitted
        # them on its original instance.
        self.engine: Engine = SoftwareEngine(self.program, self.host,
                                             backend=sim_backend,
                                             compiler=self.compiler,
                                             quiet_init=quiet_boot,
                                             opt_level=opt_level)
        self.costs = costs or TransitionCosts()
        self.refinement = AdaptiveRefinement()

        self.sim_time = 0.0
        self.ticks = 0
        self.traps_total = 0
        self.trap_seconds_total = 0.0
        self.telemetry: List[TelemetryEvent] = []

        self.backend: Optional[DirectBoardBackend] = None
        self.placement: Optional[Placement] = None
        self._hw_ready_at: Optional[float] = None
        self.saved_context: Optional[Context] = None
        self.pending_restore: Optional[Context] = None

    # -- properties ----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.host.finished

    @property
    def mode(self) -> str:
        return self.engine.kind

    def log(self, tag: str, value: float = 0.0) -> None:
        self.telemetry.append(TelemetryEvent(self.sim_time, tag, value))

    # -- hardware attachment ----------------------------------------------------

    def attach(self, backend: DirectBoardBackend) -> Placement:
        """Request hardware compilation on *backend*.

        Compilation is scheduled asynchronously (§4.2): the program keeps
        executing in software and transitions once ``sim_time`` passes
        the modeled compile+reconfigure latency (zero-ish on cache hit).
        """
        self.backend = backend
        placement = backend.place(self.program)
        self.placement = placement
        self._hw_ready_at = (
            self.sim_time + placement.compile_seconds + placement.reconfig_seconds
        )
        self.log("compile_requested", placement.compile_seconds)
        return placement

    def _maybe_transition_to_hardware(self) -> None:
        if (self.backend is None or self.placement is None
                or self.engine.kind == "hardware"
                or self._hw_ready_at is None
                or self.sim_time < self._hw_ready_at):
            return
        self.transition_to_hardware()

    def transition_to_hardware(self) -> None:
        """Move the engine from software onto the attached backend."""
        if self.backend is None or self.placement is None:
            raise RuntimeError_("no backend attached")
        state = self.engine.snapshot()
        channel = self.backend.channel(self.placement.engine_id)
        servicer = TrapServicer(self.host, self.program.env, lambda: self.ticks)
        engine = HardwareEngine(
            self.program, self.host, channel, self.placement.clock_hz, servicer
        )
        engine.restore(state)
        transfer = self.program.state.total_bits / self.costs.state_bandwidth_bits_s
        self.sim_time += transfer
        self.engine = engine
        self.log("to_hardware")

    def transition_to_software(self) -> None:
        """Evacuate state from hardware back into a software engine.

        The replacement engine boots quietly: its initial blocks already
        ran when this instance first started, so replaying their side
        effects (boot ``$display`` output, file IO) here would violate
        transparency — the restored state overwrites the boot state
        anyway.
        """
        state = self.engine.snapshot()
        engine = SoftwareEngine(self.program, self.host,
                                backend=self.sim_backend,
                                compiler=self.compiler,
                                quiet_init=True,
                                opt_level=self.opt_level)
        engine.restore(state)
        transfer = self.program.state.total_bits / self.costs.state_bandwidth_bits_s
        self.sim_time += transfer
        self.engine = engine
        self.log("to_software")

    # -- execution ------------------------------------------------------------------

    def tick(self, cycles: int = 1) -> TickStats:
        """Drive *cycles* virtual clock ticks; returns the last stats.

        On a hardware engine, multi-tick requests run as on-device
        batches (one ABI request per batch, §4.1) and only come up for
        air at traps and control events.
        """
        stats = TickStats()
        remaining = cycles
        while remaining > 0 and not self.finished:
            if remaining > 1 and isinstance(self.engine, HardwareEngine):
                stats = self.engine.run_batch(self.clock, remaining)
                self.sim_time += stats.seconds
                self.ticks += stats.ticks
                remaining -= stats.ticks
            elif remaining > 1 and self.engine.is_idle():
                # Quiescent software engine: the event scheduler's fast
                # path advances the whole span in one dispatch.  No
                # traps are possible (nothing executes), and the exact
                # per-tick accounting is preserved.
                stats = self.engine.run_idle(self.clock, remaining)
                self.sim_time += stats.seconds
                self.ticks += stats.ticks
                remaining -= stats.ticks
            else:
                stats = self.engine.run_tick(self.clock)
                self.sim_time += stats.seconds
                self.ticks += 1
                remaining -= 1
            self.traps_total += stats.traps
            self.trap_seconds_total += stats.trap_seconds
            self._post_tick()
        return stats

    def tick_chunk(self, budget: int) -> SliceReport:
        """Drive at most *budget* ticks; returns the cumulative account.

        The serving layer's non-blocking stepping primitive: one
        bounded synchronous chunk per scheduling turn, always returning
        at a quiescence point (between logical ticks) so the caller can
        suspend, checkpoint, migrate, or re-queue the tenant without
        touching mid-tick state.  On a hardware engine the chunk still
        runs as one on-device batch (§4.1); on a cohort lane it consumes
        banked ticks in O(1) when the cohort's lockstep schedule has
        already advanced this lane.
        """
        t0, n0, traps0 = self.sim_time, self.ticks, self.traps_total
        if budget > 0 and not self.finished:
            self.tick(budget)
        return SliceReport(
            ticks=self.ticks - n0,
            seconds=self.sim_time - t0,
            traps=self.traps_total - traps0,
            finished=self.finished,
            idle=self.is_idle(),
        )

    def is_idle(self) -> bool:
        """True when further ticks provably execute nothing.

        Delegates to the engine (only the compiled software backend
        can prove quiescence).  A finished program is not
        *idle* — it is done, and schedulers treat those differently
        (retire vs fast-forward).  Note the engine's proof already
        counts pending NBA shadow-queue entries as activity: a tenant
        whose update queue drains next tick must not be reported idle.
        """
        return not self.finished and self.engine.is_idle()

    def _post_tick(self) -> None:
        # Unsynthesizable control traps are handled between logical
        # ticks, when the program is in a consistent state (§2.1).
        if self.host.save_requested:
            self.host.save_requested = False
            self._do_save()
        if self.host.restart_requested:
            self.host.restart_requested = False
            self._do_restart()
        self.host.yield_asserted = False
        self._maybe_transition_to_hardware()

    def _do_save(self) -> None:
        self.saved_context = self.save_context()
        self.sim_time += self.costs.save_seconds(self.program.state.total_bits)
        self.log("save", self.program.state.total_bits)

    def _do_restart(self) -> None:
        context = self.pending_restore or self.saved_context
        if context is None:
            raise RuntimeError_("$restart with no saved context")
        reconfig = (
            self.backend.device.reconfig_seconds if self.backend is not None else 0.0
        )
        self.restore_context(context)
        self.sim_time += self.costs.restore_seconds(
            self.program.state.total_bits, reconfig
        )
        self.log("restart", self.program.state.total_bits)

    # -- suspend / resume / migrate ----------------------------------------------------

    def save_context(self) -> Context:
        """Capture a portable execution context (suspend)."""
        return Context(
            program_source=self.program.source,
            state=self.engine.snapshot(),
            vfs_state=self.host.vfs.snapshot(),
            vfs_files=dict(self.host.vfs.files),
            ticks=self.ticks,
            display_log=list(self.host.display_log),
            pending_line=self.host.pending_line,
        )

    def restore_context(self, context: Context) -> None:
        """Restore a context captured by :meth:`save_context` (resume).

        Clears any ``$finish`` state: a restored context is mid-execution
        by definition, whatever this instance did before the restore.
        """
        self.host.vfs.files.update(context.vfs_files)
        self.host.vfs.restore(context.vfs_state)
        self.host.finished = False
        self.host.finish_code = 0
        self.engine.restore(context.state)
        self.ticks = context.ticks
        self.log("resume")

    # -- profiling ------------------------------------------------------------------------

    def measure_rate(self, cycles: int = 64) -> float:
        """Measured virtual clock frequency (ticks per simulated second).

        This is the paper's profiling interface: Synergy tracks the
        virtual application frequency and logs it (§A.5).
        """
        t0, n0 = self.sim_time, self.ticks
        self.tick(cycles)
        dt = self.sim_time - t0
        if dt <= 0:
            return 0.0
        return (self.ticks - n0) / dt

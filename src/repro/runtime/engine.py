"""Engines: the unit of placement in the distributed-system IR (§2.1).

A sub-program's state is represented by an *engine*.  Sub-programs start
as low-performance software-simulated engines and are replaced over time
by high-performance FPGA-resident engines; Cascade/Synergy can relocate
them because both kinds speak the same ABI.

* :class:`SoftwareEngine` — interprets the *original* flattened module;
  unsynthesizable tasks execute natively against the instance's
  :class:`TaskHost`.
* :class:`HardwareEngine` — a proxy: the transformed module executes on
  a (simulated) board reached through an :class:`AbiChannel`; traps are
  serviced by a :class:`TrapServicer`.  Its implementation of the ABI is
  simply to forward requests across the channel (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.simulator import Simulator, resolve_backend
from ..interp.systasks import TaskHost
from .abi import (
    AbiChannel, BatchReply, Cont, Evaluate, Get, Restore, RunTicks, Set,
    Snapshot, TrapReply,
)
from .traps import TrapServicer

#: Modeled cost of one interpreted Verilog statement in the software
#: engine.  Puts medium programs at tens-of-kHz virtual clocks, matching
#: Cascade's reported software-simulation regime.
SW_SECONDS_PER_STMT = 2e-6
#: Fixed per-tick software scheduling overhead.
SW_SECONDS_PER_TICK = 1e-5


@dataclass
class TickStats:
    """Cost accounting for one virtual clock tick (or batch of ticks)."""

    seconds: float = 0.0
    native_cycles: int = 0
    traps: int = 0
    abi_messages: int = 0
    ticks: int = 1
    #: ABI time spent servicing traps (argument fetch, result set,
    #: continuation).  Batch-control messages amortize to nothing over
    #: long batches (§4.1), so steady-state throughput models use
    #: ``native_cycles/clock + trap_seconds`` only.
    trap_seconds: float = 0.0


class Engine:
    """Common engine interface (a subset of the Cascade ABI)."""

    kind = "abstract"

    def get(self, name: str) -> int:
        raise NotImplementedError

    def set(self, name: str, value: int) -> None:
        raise NotImplementedError

    def run_tick(self, clock: str) -> TickStats:
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when further ticks provably execute nothing.

        Only the compiled software backend can prove this;
        everything else reports False and keeps dispatching normally.
        """
        return False

    def snapshot(self, names=None) -> Dict[str, object]:
        raise NotImplementedError

    def restore(self, state: Dict[str, object]) -> None:
        raise NotImplementedError


class SoftwareEngine(Engine):
    """Simulates the original program; the starting point of every app.

    *backend* selects the simulation strategy (``"compiled"`` closures
    by default, ``"interp"`` for the reference tree-walker) through the
    :func:`~repro.interp.simulator.Simulator` factory.  *compiler*
    supplies the shared codegen artifact: N engines of one program
    built against one service compile its closures exactly once.
    """

    kind = "software"

    def __init__(self, program: CompiledProgram, host: TaskHost,
                 backend: Optional[str] = None,
                 compiler: Optional[CompilerService] = None,
                 quiet_init: bool = False,
                 opt_level: Optional[int] = None):
        self.program = program
        self.host = host
        self.backend = backend
        code = None
        resolved = resolve_backend(backend)
        if resolved in ("compiled", "batched"):
            # The artifact is keyed by (digest, pipeline fingerprint):
            # engines of one program at one optimization level share
            # one optimized code object, across instances and tenants.
            # The batched backend licenses (or falls back) against the
            # same scalar code artifact.
            service = compiler if compiler is not None else default_service()
            code = service.codegen(program.flat, env=program.env,
                                   digest=program.digest,
                                   opt_level=opt_level)
        # quiet_init: this engine exists only to be restored into (e.g.
        # evacuation from hardware, §3.5) — boot it against a throwaway
        # host so initial-block side effects ($display output, VFS
        # traffic) are not replayed into the instance's real host, then
        # attach the real host (all task dispatch reads sim.host at
        # call time, on both simulation backends).
        boot_host = TaskHost() if quiet_init else host
        self.sim = Simulator(program.flat, boot_host, env=program.env,
                             backend=backend, code=code)
        if quiet_init:
            self.sim.host = host

    def get(self, name: str) -> int:
        return self.sim.get(name)

    def set(self, name: str, value: int) -> None:
        self.sim.set(name, value)
        self.sim.step()

    def run_tick(self, clock: str) -> TickStats:
        before = self.sim.stmts_executed
        self.sim.tick(clock)
        executed = self.sim.stmts_executed - before
        seconds = SW_SECONDS_PER_TICK + executed * SW_SECONDS_PER_STMT
        return TickStats(seconds=seconds)

    def is_idle(self) -> bool:
        probe = getattr(self.sim, "is_idle", None)
        return bool(probe()) if probe is not None else False

    def run_idle(self, clock: str, ticks: int) -> TickStats:
        """Advance an idle engine *ticks* periods in one dispatch.

        Only called after :meth:`is_idle`; the event scheduler's fast
        path makes the whole span one near-zero call.  Accounting is
        exact, not approximate: an idle tick costs the fixed per-tick
        overhead plus zero statements, so the modeled seconds equal
        what *ticks* individual ``run_tick`` calls would have charged.
        """
        before = self.sim.stmts_executed
        self.sim.tick(clock, ticks)
        executed = self.sim.stmts_executed - before
        seconds = ticks * SW_SECONDS_PER_TICK + executed * SW_SECONDS_PER_STMT
        return TickStats(seconds=seconds, ticks=ticks)

    def snapshot(self, names=None) -> Dict[str, object]:
        return self.sim.store.snapshot(names)

    def restore(self, state: Dict[str, object]) -> None:
        self.sim.store.restore(state)
        self.sim.step()


class HardwareEngine(Engine):
    """Proxy for a sub-program resident on (simulated) FPGA fabric."""

    kind = "hardware"

    def __init__(self, program: CompiledProgram, host: TaskHost,
                 channel: AbiChannel, clock_hz: float,
                 servicer: Optional[TrapServicer] = None):
        self.program = program
        self.host = host
        self.channel = channel
        self.clock_hz = clock_hz
        self.servicer = servicer or TrapServicer(host, program.env)

    def get(self, name: str) -> int:
        return self.channel.send(Get(name))

    def set(self, name: str, value: int) -> None:
        self.channel.send(Set(name, value))

    def run_tick(self, clock: str) -> TickStats:
        """One virtual clock tick: rising edge with trap servicing, then
        the falling edge (edge-detection registers must observe it)."""
        stats = TickStats()
        start_messages = self.channel.stats.messages
        start_seconds = self.channel.stats.seconds

        self.channel.send(Set(clock, 1))
        reply: TrapReply = self.channel.send(Evaluate())
        stats.native_cycles += reply.native_cycles
        while reply.status == "trap":
            site = self.program.transform.tasks.get(reply.task_id)
            if site is None:
                raise KeyError(f"engine trapped on unknown task {reply.task_id}")
            trap_t0 = self.channel.stats.seconds
            self.servicer.service(self.channel, site)
            stats.traps += 1
            if self.host.finished:
                stats.trap_seconds += self.channel.stats.seconds - trap_t0
                break
            reply = self.channel.send(Cont())
            stats.native_cycles += reply.native_cycles
            stats.trap_seconds += self.channel.stats.seconds - trap_t0

        self.channel.send(Set(clock, 0))
        if not self.host.finished:
            reply = self.channel.send(Evaluate())
            stats.native_cycles += reply.native_cycles
            while reply.status == "trap":
                site = self.program.transform.tasks.get(reply.task_id)
                if site is None:
                    raise KeyError(f"engine trapped on unknown task {reply.task_id}")
                trap_t0 = self.channel.stats.seconds
                self.servicer.service(self.channel, site)
                stats.traps += 1
                if self.host.finished:
                    stats.trap_seconds += self.channel.stats.seconds - trap_t0
                    break
                reply = self.channel.send(Cont())
                stats.native_cycles += reply.native_cycles
                stats.trap_seconds += self.channel.stats.seconds - trap_t0

        stats.abi_messages = self.channel.stats.messages - start_messages
        stats.seconds = (
            stats.native_cycles / self.clock_hz
            + (self.channel.stats.seconds - start_seconds)
        )
        return stats

    def run_batch(self, clock: str, ticks: int) -> TickStats:
        """Drive up to *ticks* virtual ticks with one ABI request.

        The device generates the virtual clock itself (§4.1's batch
        optimization); control returns early on a trap, a ``$finish``,
        or a ``$save``/``$restart``/``$yield`` that the runtime must
        handle between logical ticks.
        """
        stats = TickStats(ticks=0)
        start_messages = self.channel.stats.messages
        start_seconds = self.channel.stats.seconds
        remaining = ticks
        while remaining > 0 and not self.host.finished:
            reply: BatchReply = self.channel.send(RunTicks(self.clock_name(clock), remaining))
            stats.native_cycles += reply.native_cycles
            stats.ticks += reply.ticks_done
            remaining -= reply.ticks_done
            if reply.status == "trap":
                # Finish the in-flight tick with per-trap servicing.
                trap = TrapReply("trap", reply.task_id, 0)
                while trap.status == "trap":
                    site = self.program.transform.tasks.get(trap.task_id)
                    if site is None:
                        raise KeyError(f"unknown task {trap.task_id}")
                    trap_t0 = self.channel.stats.seconds
                    self.servicer.service(self.channel, site)
                    stats.traps += 1
                    if self.host.finished:
                        stats.trap_seconds += self.channel.stats.seconds - trap_t0
                        break
                    trap = self.channel.send(Cont())
                    stats.native_cycles += trap.native_cycles
                    stats.trap_seconds += self.channel.stats.seconds - trap_t0
                if not self.host.finished:
                    self.channel.send(Set(clock, 0))
                    tail = self.channel.send(Evaluate())
                    stats.native_cycles += tail.native_cycles
                    while tail.status == "trap" and not self.host.finished:
                        site = self.program.transform.tasks.get(tail.task_id)
                        if site is None:
                            raise KeyError(f"unknown task {tail.task_id}")
                        trap_t0 = self.channel.stats.seconds
                        self.servicer.service(self.channel, site)
                        stats.traps += 1
                        tail = self.channel.send(Cont())
                        stats.native_cycles += tail.native_cycles
                        stats.trap_seconds += self.channel.stats.seconds - trap_t0
                stats.ticks += 1
                remaining -= 1
                if (self.host.save_requested or self.host.restart_requested
                        or self.host.yield_asserted):
                    break  # control traps are handled between ticks
        stats.abi_messages = self.channel.stats.messages - start_messages
        stats.seconds = (
            stats.native_cycles / self.clock_hz
            + (self.channel.stats.seconds - start_seconds)
        )
        if stats.ticks == 0:
            stats.ticks = 1  # a fully-blocked tick still advances time
        return stats

    @staticmethod
    def clock_name(clock: str) -> str:
        return clock

    def snapshot(self, names=None) -> Dict[str, object]:
        names_tuple = tuple(names) if names is not None else None
        return self.channel.send(Snapshot(names_tuple))

    def restore(self, state: Dict[str, object]) -> None:
        self.channel.send(Restore(state))

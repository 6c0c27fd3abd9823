"""Cohort engines: N same-program tenants advanced per vector dispatch.

The hypervisor's dominant workload is N instances of one
:class:`~repro.interp.compile.CompiledModuleCode` stepped one at a time
in Python (the artifact store's ~93% hit rate is exactly this shape).
A :class:`CohortEngine` owns one
:class:`~repro.interp.compile.batch.BatchedCohort` — the vectorized
closures of the shared ``batch`` artifact — and hands each tenant a
:class:`CohortLaneEngine`: an :class:`~repro.runtime.engine.Engine`
whose state is one lane of the cohort's ``(slots, N)`` matrix.

Lane engines keep the runtime layer oblivious.  ``Runtime.tick`` still
calls ``run_tick`` once per tenant per tick; vectorization emerges from
*tick banking*: the first lane asked for a tick it does not yet have
advances the whole cohort one vector tick and credits every other live
lane with one banked tick (plus its share of the dispatch cost).  When
the supervisor drives its tenants in lockstep — same tick budget, chunk
by chunk at quiescence boundaries — every lane after the first consumes
a banked tick in O(1), so one NumPy dispatch serves the entire cohort.

Cost accounting splits each vector tick's modeled software seconds
evenly across the lanes that were live when it ran, so a cohort of N
reports the aggregate cost of the one dispatch rather than N scalar
simulations — the speedup shows up in ``sim_time`` exactly as it does
on the wall clock.

Interop with suspend/resume/migration is by construction: a lane
snapshot is bit-compatible with the scalar store snapshot, so
``detach`` produces a state any :class:`SoftwareEngine` can restore
(and ``admit`` accepts one captured from either backend).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..compiler.service import CompilerService, default_service
from ..core.pipeline import CompiledProgram
from ..interp.compile.batch import (  # noqa: F401  (re-exported for callers)
    BatchedCohort, BatchUnsupported, UnsupportedBackend,
)
from ..interp.systasks import TaskHost
from .engine import (
    Engine, SW_SECONDS_PER_STMT, SW_SECONDS_PER_TICK, TickStats,
)


class CohortError(RuntimeError):
    """Raised on cohort protocol misuse (e.g. snapshot mid-bank)."""


class CohortEngine:
    """One vectorized cohort of same-digest tenants.

    Building one raises
    :class:`~repro.interp.compile.batch.UnsupportedBackend` when NumPy
    is absent and :class:`~repro.interp.compile.batch.BatchUnsupported`
    when the program is outside the vector subset — callers (the
    supervisor's cohort formation) treat both as "keep the scalar
    engines".
    """

    def __init__(self, program: CompiledProgram,
                 compiler: Optional[CompilerService] = None,
                 opt_level: Optional[int] = None):
        service = compiler if compiler is not None else default_service()
        self.program = program
        self.batch = service.batch(program.flat, env=program.env,
                                   digest=program.digest,
                                   opt_level=opt_level)
        self.cohort = BatchedCohort(self.batch)
        self.members: List["CohortLaneEngine"] = []
        #: vector dispatches issued (each advances every live lane)
        self.vector_ticks = 0

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def divergence(self) -> int:
        """Lane-divergence events (masked control flow) so far."""
        return self.cohort.divergence

    def admit(self, host: TaskHost,
              state: Optional[Dict[str, object]] = None) -> "CohortLaneEngine":
        """Join *host* as a new lane; returns its engine.

        *state* is a scalar-compatible snapshot (from any engine kind);
        omitted, the lane boots fresh through the program's initial
        blocks.  Requires cohort quiescence (between logical ticks).
        """
        lane = self.cohort.join(host, state=state)
        member = CohortLaneEngine(self, lane)
        self.members.append(member)
        return member

    def detach(self, member: "CohortLaneEngine") -> Dict[str, object]:
        """Remove *member*'s lane; returns its scalar-compatible state.

        The member engine is dead afterwards — the tenant is expected
        to move onto a :class:`SoftwareEngine` restored from the
        returned snapshot (suspend/resume/migration reuse this path).
        """
        if member._banked:
            raise CohortError(
                "detach with banked ticks pending; drain the bank first")
        state = self.cohort.snapshot_lane(member.lane)
        self.cohort.leave(member.lane)
        self.members.remove(member)
        for other in self.members:
            if other.lane > member.lane:
                other.lane -= 1
        member._detached = True
        return state

    # -- vector dispatch ---------------------------------------------------

    def _vector_tick(self, clock: str, caller: "CohortLaneEngine") -> float:
        """Advance every live lane one tick; returns *caller*'s cost share.

        Lanes other than the caller are credited one banked tick each;
        a lane's ``run_tick`` consumes its bank before triggering
        another dispatch, which is what keeps lockstep schedules at one
        dispatch per cohort per tick.
        """
        cohort = self.cohort
        cohort.sync_alive()
        started = [m for m in self.members
                   if not cohort.hosts[m.lane].finished]
        before = cohort.stmts_executed
        if clock == self.batch.clock:
            cohort.tick(1)
        else:
            cohort.generic_tick(clock, 1)
        self.vector_ticks += 1
        executed = cohort.stmts_executed - before
        seconds = SW_SECONDS_PER_TICK + executed * SW_SECONDS_PER_STMT
        share = seconds / max(1, len(started))
        for member in started:
            if member is not caller:
                member._banked.append(share)
        return share


class CohortLaneEngine(Engine):
    """One tenant's view of a :class:`CohortEngine` (one lane).

    Speaks the same engine ABI as :class:`SoftwareEngine`, so
    :class:`~repro.runtime.runtime.Runtime` drives it unchanged.
    ``kind`` stays ``"software"``: a cohort lane *is* the software
    simulation path, just amortized.
    """

    kind = "software"

    def __init__(self, engine: CohortEngine, lane: int):
        self.engine = engine
        self.lane = lane
        #: per-tick cost shares pre-paid by other lanes' dispatches
        self._banked: List[float] = []
        self._detached = False

    @property
    def cohort(self) -> BatchedCohort:
        return self.engine.cohort

    @property
    def host(self) -> TaskHost:
        return self.cohort.hosts[self.lane]

    @property
    def banked(self) -> int:
        """Vector ticks already applied to this lane but not yet
        consumed through ``run_tick`` (nonzero only mid-schedule)."""
        return len(self._banked)

    @property
    def time(self) -> int:
        """This lane's ``$time``.

        Engine snapshots do not carry simulator time, so cohort
        formation sets it explicitly from the scalar engine it absorbs
        (and extraction copies it back) — a formed-and-dissolved tenant
        must be indistinguishable from one that ran scalar throughout.
        """
        return int(self.cohort.times[self.lane])

    @time.setter
    def time(self, value: int) -> None:
        self.cohort.times[self.lane] = value

    def _check_attached(self) -> None:
        if self._detached:
            raise CohortError("engine's lane was detached from its cohort")

    # -- Engine ABI --------------------------------------------------------

    def get(self, name: str) -> int:
        self._check_attached()
        return self.cohort.get_value(name, self.lane)

    def set(self, name: str, value: int) -> None:
        self._check_attached()
        self.cohort.set_value(name, value, lane=self.lane)
        self.cohort.step()

    def run_tick(self, clock: str) -> TickStats:
        self._check_attached()
        if self._banked:
            return TickStats(seconds=self._banked.pop(0))
        return TickStats(seconds=self.engine._vector_tick(clock, self))

    def snapshot(self, names=None) -> Dict[str, object]:
        self._check_attached()
        if self._banked:
            # The lane's state is ahead of the ticks its runtime has
            # accounted for; a checkpoint here would replay them.
            raise CohortError(
                "snapshot with banked ticks pending; drain the bank first")
        return self.cohort.snapshot_lane(self.lane, names)

    def restore(self, state: Dict[str, object]) -> None:
        self._check_attached()
        if self._banked:
            raise CohortError(
                "restore with banked ticks pending; drain the bank first")
        self.cohort.restore_lane(self.lane, state)
        self.cohort.step()

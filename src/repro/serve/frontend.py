"""The asyncio serve frontend: submissions in, results out.

:class:`ServeFrontend` is the event-driven serving plane over one
:class:`~repro.serve.fleet.Fleet`.  Clients ``await submit(...)`` and
get a :class:`~repro.serve.handle.TenantHandle`; one scheduler task
drains the admission queue and runs fair-share turns, cooperating with
the event loop between turns (``await asyncio.sleep(0)``) so
submissions, cancellations, and stream consumers interleave with
execution — progress is event-driven, never lock-stepped on the
slowest tenant.

The execution invariant everything hangs off: **a tenant only ever
changes hands at a quiescence point** (between logical ticks).  A turn
is one bounded synchronous chunk (``Runtime.tick_chunk``); preemption
is the turn budget running out; suspension, checkpointing, migration,
cohort formation/extraction, and cancellation teardown all happen at
the turn boundary, where the paper's ``$save``/``$restart`` machinery
guarantees a consistent state.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fabric.errors import FabricError
from ..hypervisor.durable import RecoveryError, TenantJournal
from ..hypervisor.migration import rehydrate
from .admission import AdmissionConfig, AdmissionController, UnknownDigestError
from .fleet import Fleet
from .handle import TenantHandle, TenantResult
from .slicer import DEFAULT_PRIORITIES, FairShareSlicer


@dataclass
class ServeConfig:
    """Frontend policy: budgets, quantum, priorities, hygiene."""

    max_running: int = 8
    max_queue: int = 64
    per_tenant: int = 8
    #: base tick quantum one weight unit earns per scheduling round
    quantum_ticks: int = 32
    #: priority class → tick-share weight
    priorities: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITIES))
    #: checkpoint every preempted tenant before it leaves the engine
    #: (bounds replay after a board death to one turn)
    checkpoint_on_preempt: bool = True
    #: scheduling turns between quiescence sweeps (rebalance + cohorts)
    quiescence_every: int = 8
    #: capture architectural state into each TenantResult
    capture_state: bool = True

    def admission(self) -> AdmissionConfig:
        return AdmissionConfig(max_running=self.max_running,
                               max_queue=self.max_queue,
                               per_tenant=self.per_tenant)


@dataclass
class _Job:
    """Scheduler-side record of one submission."""

    name: str
    source: str
    digest: str
    handle: TenantHandle
    priority: str
    principal: str
    #: tick target, or None for run-until-$finish
    target: Optional[int]
    clock: str
    vfs: object
    seq: int
    submitted_at: float
    started_at: Optional[float] = None
    first_tick_at: Optional[float] = None
    cursor: int = 0           #: display lines already streamed
    running: bool = False     #: admitted into the fleet
    dequeued: bool = False    #: lazily removed from the admission heap
    cancelled: bool = False
    preemptions: int = 0
    migrations: int = 0

    def __lt__(self, other: "_Job") -> bool:
        return self.seq < other.seq


@dataclass
class _CohortUnit:
    """A lockstep group of same-digest jobs scheduled as one unit."""

    priority: str
    jobs: List[_Job]


class ServeFrontend:
    """Async multi-tenant serving over a hypervisor fleet."""

    def __init__(self, fleet: Fleet, config: Optional[ServeConfig] = None,
                 journal: Optional[TenantJournal] = None):
        self.fleet = fleet
        self.config = config or ServeConfig()
        #: write-ahead tenant journal; shared with the supervisor so
        #: admissions, checkpoints, and releases land in the same log
        self.journal = journal
        if journal is not None:
            self.fleet.supervisor.journal = journal
        #: tenants recover() could not restore, by name
        self.recovery_errors: Dict[str, RecoveryError] = {}
        self.admission = AdmissionController(self.config.admission())
        self.slicer = FairShareSlicer(quantum=self.config.quantum_ticks,
                                      priorities=self.config.priorities)
        self._jobs: Dict[str, _Job] = {}
        self._results: Dict[str, TenantResult] = {}
        self._queue: List[Tuple[int, _Job]] = []  # (class_rank, job) heap
        # Queued jobs start heaviest class first, FIFO within a class.
        by_weight = sorted(self.config.priorities,
                           key=lambda n: -self.config.priorities[n])
        self._ranks = {name: i for i, name in enumerate(by_weight)}
        self._programs: Dict[str, str] = {}  # digest → source text
        self._seq = 0
        self._turns = 0
        self.started_order: List[str] = []
        self._task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._closed = False

    # -- program registry --------------------------------------------------

    def register(self, source: str, top: Optional[str] = None) -> str:
        """Intern *source* for submit-by-digest; returns the digest.

        Compiled through the fleet's lead compiler, so registration
        also warms the artifact chain every placement scores against.
        """
        program = self.fleet.compiler.compile_program(source, top)
        self._programs[program.digest] = source
        return program.digest

    # -- submission --------------------------------------------------------

    async def submit(self, source: Optional[str] = None, *,
                     digest: Optional[str] = None,
                     ticks: Optional[int] = None,
                     priority: str = "normal",
                     tenant: str = "default",
                     name: Optional[str] = None,
                     clock: str = "clock",
                     vfs=None) -> TenantHandle:
        """Submit one job; returns its handle (or raises AdmissionError).

        Exactly one of *source* (Verilog text) or *digest* (a program
        interned via :meth:`register`) identifies the design.  *ticks*
        bounds the run; omitted, the job runs until ``$finish``.
        *tenant* is the principal charged against the per-tenant
        budget; *priority* picks the fair-share class.
        """
        if self._closed:
            raise RuntimeError("frontend is closed")
        if (source is None) == (digest is None):
            raise ValueError("pass exactly one of source= or digest=")
        if priority not in self.config.priorities:
            raise ValueError(
                f"unknown priority {priority!r}; "
                f"configured: {sorted(self.config.priorities)}")
        if digest is not None:
            interned = self._programs.get(digest)
            if interned is None:
                raise UnknownDigestError(
                    f"digest {digest[:12]}… was never registered here")
            source = interned
        else:
            digest = self.register(source)
        self.admission.check_submit(tenant)  # raises before taking slots
        self._seq += 1
        job_name = name or f"{tenant}-{self._seq}"
        if job_name in self._jobs:
            raise ValueError(f"job name {job_name!r} already in use")
        handle = TenantHandle(job_name, priority, tenant)
        handle._frontend = self
        job = _Job(name=job_name, source=source, digest=digest,
                   handle=handle, priority=priority, principal=tenant,
                   target=ticks, clock=clock, vfs=vfs, seq=self._seq,
                   submitted_at=time.monotonic())
        self._jobs[job_name] = job
        self.admission.on_enqueue(tenant)
        if self.journal is not None:
            # Write-ahead of any placement work: a crash from here on
            # leaves a journal image recovery can re-run from source.
            self.journal.job(job_name, digest=digest, source=source,
                             priority=priority, principal=tenant,
                             target=ticks, clock=clock, seq=self._seq)
        heapq.heappush(self._queue, (self._ranks[priority], job))
        self._ensure_running()
        self._wake.set()
        return handle

    def _ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    # -- restart recovery --------------------------------------------------

    async def recover(self, journal: Optional[TenantJournal] = None
                      ) -> Dict[str, TenantHandle]:
        """Replay the journal and re-admit every in-flight tenant.

        The process-restart entry point: a fresh frontend over the same
        journal directory folds the write-ahead log into per-tenant
        images, then for each tenant the crash caught mid-lifecycle:

        * **queued, never placed** — re-enqueued through the normal
          admission path; the dispatcher re-runs it from its journaled
          source.
        * **running** — rehydrated from its newest *verifiable*
          snapshot (older recorded snapshots are the fallbacks) and
          re-placed warmth-first via :meth:`Fleet.readmit`.  The
          snapshot's context carries the display log, so the new
          handle streams every line exactly once — history included.
        * **unrecoverable** — no snapshot survives verification, or
          re-admission itself fails: the handle is failed with a typed
          :class:`RecoveryError`, the slot charged-then-released so
          admission books balance, and a terminal record is journaled
          so the next replay does not resurrect it.

        Returns fresh handles by tenant name (awaitable like any
        submission's).  Idempotent per name: tenants already known to
        this frontend are skipped.
        """
        journal = journal if journal is not None else self.journal
        if journal is None:
            raise ValueError("recover() needs a journal: pass one, or "
                             "construct the frontend with journal=")
        self.journal = journal
        self.fleet.supervisor.journal = journal
        image = journal.replay()
        lead = self.fleet.supervisor.hypervisors[0]
        recovered: Dict[str, TenantHandle] = {}
        for rec in image.in_flight():
            if rec.name in self._jobs:
                continue
            self._seq = max(self._seq, rec.seq)
            priority = (rec.priority
                        if rec.priority in self.config.priorities
                        else "normal")
            handle = TenantHandle(rec.name, priority, rec.principal)
            handle._frontend = self
            job = _Job(name=rec.name, source=rec.source, digest=rec.digest,
                       handle=handle, priority=priority,
                       principal=rec.principal, target=rec.target,
                       clock=rec.clock, vfs=None, seq=rec.seq,
                       submitted_at=time.monotonic())
            self._jobs[rec.name] = job
            recovered[rec.name] = handle
            if rec.source:
                self._programs.setdefault(rec.digest, rec.source)
            if not rec.admitted and not rec.snapshots:
                self.admission.on_enqueue(rec.principal)
                heapq.heappush(self._queue, (self._ranks[priority], job))
                continue
            snapshot = None
            for fname in reversed(rec.snapshots):
                snapshot = journal.load_snapshot(fname)
                if snapshot is not None:
                    break
            if snapshot is None:
                self._recovery_failed(job, RecoveryError(
                    f"tenant {rec.name!r} was in flight at the crash but "
                    f"none of its {len(rec.snapshots)} recorded "
                    f"checkpoint(s) survived verification",
                    tenant=rec.name))
                continue
            try:
                runtime = rehydrate(
                    snapshot["context"], name=rec.name, clock=rec.clock,
                    compiler=self.fleet.compiler,
                    sim_backend=lead.sim_backend,
                    start_time=float(snapshot.get("sim_time", 0.0)))
                self.fleet.readmit(rec.name, runtime)
            except Exception as cause:
                err = RecoveryError(
                    f"tenant {rec.name!r} could not be re-admitted "
                    f"after restart: {cause}", tenant=rec.name)
                err.__cause__ = cause
                self._recovery_failed(job, err)
                continue
            self.admission.on_recover(rec.principal)
            job.running = True
            job.started_at = time.monotonic()
            job.handle._status = "running"
            self.started_order.append(rec.name)
            self.slicer.admit(job)
        if recovered:
            self._ensure_running()
            self._wake.set()
        return recovered

    def _recovery_failed(self, job: _Job, err: RecoveryError) -> None:
        # Charge-then-release (mirroring cancel) so admission books
        # balance: the tenant held a running slot before the crash, and
        # a failed recovery must give that slot back, not leak it.
        self.admission.on_recover(job.principal)
        self.admission.on_release(job.principal)
        self._journal_terminal(job.name, "failed")
        self.recovery_errors[job.name] = err
        job.handle._fail(err)

    # -- cancellation ------------------------------------------------------

    def _cancel(self, name: str) -> bool:
        job = self._jobs.get(name)
        if job is None or job.handle.done:
            return False
        job.cancelled = True
        if not job.running:
            # Still in the admission queue: retire immediately (the
            # heap entry is dropped lazily via the flag).
            job.dequeued = True
            self.admission.on_cancel_queued(job.principal)
            self._retire(job, "cancelled", released=True)
        else:
            # Running or preempted: torn down at its next turn
            # boundary, never mid-tick.
            self._wake.set()
        return True

    # -- the scheduler task ------------------------------------------------

    async def _run(self) -> None:
        try:
            while not self._closed:
                self._dispatch_queued()
                turn = self.slicer.next_turn()
                if turn is None:
                    if not self._queue:
                        self._wake.clear()
                        if self._in_flight() == 0:
                            await self._wake.wait()
                            continue
                    await asyncio.sleep(0)
                    continue
                unit, budget = turn
                if isinstance(unit, _CohortUnit):
                    self._run_cohort_turn(unit, budget)
                else:
                    self._run_job_turn(unit, budget)
                self._turns += 1
                if self._turns % self.config.quiescence_every == 0:
                    self._quiescence_sweep()
                # Yield: submissions, cancels, and stream consumers run.
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            raise
        except BaseException as err:  # scheduler died: fail the in-flight
            for job in list(self._jobs.values()):
                if not job.handle.done:
                    job.handle._fail(err)
            raise

    def _in_flight(self) -> int:
        return sum(1 for j in self._jobs.values() if not j.handle.done)

    def _dispatch_queued(self) -> None:
        while self._queue and self.admission.can_start():
            _, job = heapq.heappop(self._queue)
            if job.dequeued or job.cancelled:
                continue
            try:
                self.fleet.admit_job(job.name, job.source, job.digest,
                                     clock=job.clock, vfs=job.vfs)
            except Exception as err:
                # A compile failure (or a fleet with no takers) fails
                # the one job, never the scheduler.
                job.dequeued = True
                self.admission.on_cancel_queued(job.principal)
                self._journal_terminal(job.name, "failed")
                job.handle._fail(err)
                continue
            self.admission.on_start()
            job.running = True
            job.started_at = time.monotonic()
            job.handle._status = "running"
            self.started_order.append(job.name)
            self.slicer.admit(job)

    # -- one job's turn ----------------------------------------------------

    def _run_job_turn(self, job: _Job, budget: int) -> None:
        if job.cancelled:
            self._finish(job, "cancelled")
            self.slicer.charge(job, 1)
            return
        runtime = self.fleet.runtime(job.name)
        chunk = budget
        if job.target is not None:
            chunk = min(chunk, max(0, job.target - runtime.ticks))
        if chunk <= 0:
            self._finish(job, "completed")
            self.slicer.charge(job, 1)
            return
        job.handle._status = "running"
        try:
            report = self.fleet.advance(job.name, chunk)
        except Exception as err:
            self._fail(job, err)
            self.slicer.charge(job, 1)
            return
        self._note_progress(job, report.ticks)
        self.slicer.charge(job, max(1, report.ticks))
        runtime = self.fleet.runtime(job.name)  # recovery may swap it
        if runtime.finished:
            self._finish(job, "finished")
        elif job.target is not None and runtime.ticks >= job.target:
            self._finish(job, "completed")
        elif (report.idle and job.target is not None
                and not runtime.finished):
            # The engine proved quiescent: every remaining tick to the
            # target is a no-op, so retire the job now in one near-free
            # dispatch instead of cycling it through further turns.
            # (An until-$finish idle job has no bounded span to skip;
            # it keeps cycling and only the idle counter notes it.)
            self.slicer.note_idle(job)
            try:
                report = self.fleet.advance(job.name,
                                            job.target - runtime.ticks)
            except Exception as err:
                self._fail(job, err)
                self.slicer.charge(job, 1)
                return
            self._note_progress(job, report.ticks)
            self.slicer.charge(job, 1)  # near-zero cost: nothing executed
            runtime = self.fleet.runtime(job.name)
            if runtime.finished:
                self._finish(job, "finished")
            elif runtime.ticks >= job.target:
                self._finish(job, "completed")
            else:
                self._preempt(job)
        else:
            if report.idle:
                self.slicer.note_idle(job)
            self._preempt(job)

    def _preempt(self, job: _Job) -> None:
        job.preemptions += 1
        job.handle._status = "preempted"
        if self.config.checkpoint_on_preempt:
            try:
                self.fleet.checkpoint(job.name)
            except FabricError as err:
                try:
                    self.fleet.supervisor.recover_from(job.name, err)
                except FabricError:
                    self._fail(job, err)
                    return
        self.slicer.requeue(job)

    # -- one cohort's turn -------------------------------------------------

    def _run_cohort_turn(self, unit: _CohortUnit, budget: int) -> None:
        for job in [j for j in unit.jobs if j.cancelled]:
            unit.jobs.remove(job)
            self.fleet.extract(job.name)
            self._finish(job, "cancelled")
        if len(unit.jobs) < self.fleet.config.cohort_min_size:
            # Too small to vectorize: dissolve back to individual units.
            for job in unit.jobs:
                self.fleet.extract(job.name)
                self.slicer.requeue(job, preempted=False)
            self.slicer.charge(unit, 1)
            return
        chunk = budget
        for job in unit.jobs:
            if job.target is not None:
                runtime = self.fleet.runtime(job.name)
                chunk = min(chunk, max(1, job.target - runtime.ticks))
        names = [job.name for job in unit.jobs]
        reports = self.fleet.advance_cohort(names, chunk)
        self.slicer.charge(unit, max(1, chunk))
        survivors: List[_Job] = []
        for job in list(unit.jobs):
            self._note_progress(job, reports[job.name].ticks)
            runtime = self.fleet.runtime(job.name)
            if runtime.finished:
                self.fleet.extract(job.name)
                self._finish(job, "finished")
            elif job.target is not None and runtime.ticks >= job.target:
                self.fleet.extract(job.name)
                self._finish(job, "completed")
            else:
                survivors.append(job)
        unit.jobs = survivors
        if self.config.checkpoint_on_preempt:
            for job in survivors:
                self.fleet.checkpoint(job.name)
        if len(survivors) >= self.fleet.config.cohort_min_size:
            for job in survivors:
                job.preemptions += 1
                job.handle._status = "preempted"
            self.slicer.requeue(unit)
        else:
            for job in survivors:
                self.fleet.extract(job.name)
                job.preemptions += 1
                job.handle._status = "preempted"
                self.slicer.requeue(job)

    # -- quiescence sweeps (rebalance + cohort formation) ------------------

    def _quiescence_sweep(self) -> None:
        for name in self.fleet.rebalance():
            job = self._jobs.get(name)
            if job is not None:
                job.migrations += 1
        self._form_cohorts()

    def _form_cohorts(self) -> None:
        """Group queued same-priority same-digest software jobs into
        lockstep cohort units.  Parked jobs left out go back to the
        tail of their class every sweep, which keeps unlicensed software
        jobs behind the rest (saturated median latency rises by a
        quarter without it); refused digests skip formation."""
        if not self.fleet.config.cohorts:
            return
        groups: Dict[Tuple[str, str], List[_Job]] = {}
        for job in self._jobs.values():
            if (not job.running or job.handle.done or job.cancelled
                    or self.fleet.in_cohort(job.name)):
                continue
            runtime = self.fleet.runtime(job.name)
            if (runtime.backend is not None or runtime.finished
                    or runtime.engine.kind != "software"):
                continue
            groups.setdefault((job.priority, job.digest), []).append(job)
        for (priority, _digest), jobs in groups.items():
            if len(jobs) < self.fleet.config.cohort_min_size:
                continue
            # Only jobs actually parked in the slicer can change hands.
            members = [j for j in jobs if self.slicer.withdraw(j)]
            if (len(members) >= self.fleet.config.cohort_min_size
                    and not self.fleet.cohort_refused(members[0].name)):
                self.fleet.form_cohorts([j.name for j in members])
            joined = [j for j in members if self.fleet.in_cohort(j.name)]
            stayed = [j for j in members if not self.fleet.in_cohort(j.name)]
            for job in stayed:
                self.slicer.requeue(job, preempted=False)
            if joined:
                self.slicer.admit(_CohortUnit(priority=priority, jobs=joined))

    # -- retirement --------------------------------------------------------

    def _note_progress(self, job: _Job, ticks: int) -> None:
        if ticks > 0 and job.first_tick_at is None:
            job.first_tick_at = time.monotonic()
        runtime = self.fleet.runtime(job.name)
        lines = runtime.host.display_log
        for line in lines[job.cursor:]:
            job.handle._emit(line)
        job.cursor = len(lines)

    def _build_result(self, job: _Job, status: str) -> TenantResult:
        runtime = self.fleet.runtime(job.name)
        lines = runtime.host.display_log
        for line in lines[job.cursor:]:
            job.handle._emit(line)
        job.cursor = len(lines)
        state: Dict[str, object] = {}
        if self.config.capture_state and status in ("completed", "finished"):
            from ..fuzz.oracle import state_names

            # Architectural state only: boards fold their
            # "__"-prefixed virtualization bookkeeping back into any
            # narrowed snapshot, but a retired tenant's result should
            # read like an unvirtualized run of the same design.
            try:
                state = {
                    name: value for name, value in runtime.engine.snapshot(
                        state_names(runtime.program.flat)).items()
                    if not name.startswith("__")
                }
            except FabricError:
                pass  # a dying board cannot block retirement
        now = time.monotonic()
        tenant = self.fleet.tenant(job.name)
        return TenantResult(
            name=job.name,
            status=status,
            ticks=runtime.ticks,
            sim_time=runtime.sim_time,
            finished=runtime.finished,
            finish_code=runtime.host.finish_code,
            display=tuple(lines),
            state=state,
            destination=self.fleet.destination(job.name),
            recoveries=tenant.recoveries,
            migrations=job.migrations,
            preemptions=job.preemptions,
            ttft_s=((job.first_tick_at or now) - job.submitted_at),
            latency_s=now - job.submitted_at,
        )

    def _finish(self, job: _Job, status: str) -> None:
        result = self._build_result(job, status)
        self.fleet.release(job.name)
        self.admission.on_release(job.principal)
        self._results[job.name] = result
        job.handle._retire(result)

    def _fail(self, job: _Job, err: BaseException) -> None:
        try:
            if self.fleet.in_cohort(job.name):
                self.fleet.extract(job.name)
            self.fleet.release(job.name)
        except Exception:
            pass
        self.admission.on_release(job.principal)
        self._journal_terminal(job.name, "failed")
        job.handle._fail(err)

    def _retire(self, job: _Job, status: str, released: bool = False) -> None:
        """Retire a job that never reached the fleet (queued cancel)."""
        now = time.monotonic()
        result = TenantResult(name=job.name, status=status,
                              ttft_s=0.0,
                              latency_s=now - job.submitted_at)
        self._results[job.name] = result
        self._journal_terminal(job.name, status)
        job.handle._retire(result)
        del released

    def _journal_terminal(self, name: str, status: str) -> None:
        """Record a terminal status for a job the supervisor never
        released (queued cancels, dispatch/compile failures) — the
        supervisor's own release path writes its record itself."""
        if self.journal is not None:
            self.journal.terminal(name, status)
            self.journal.drop_snapshots(name)

    # -- lifecycle ---------------------------------------------------------

    def result_of(self, name: str) -> Optional[TenantResult]:
        return self._results.get(name)

    async def drain(self) -> None:
        """Wait until every accepted submission has retired."""
        while True:
            pending = [j.handle._future for j in self._jobs.values()
                       if not j.handle.done]
            if not pending:
                return
            await asyncio.gather(*pending, return_exceptions=True)

    async def close(self) -> None:
        """Stop the scheduler; in-flight jobs are cancelled."""
        self._closed = True
        for job in list(self._jobs.values()):
            if not job.handle.done:
                job.handle.cancel()
        if self._task is not None and not self._task.done():
            self._wake.set()
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
        # Anything still live after the scheduler stopped retires here.
        for job in list(self._jobs.values()):
            if not job.handle.done:
                if job.running and job.name in self.fleet.supervisor.tenants:
                    try:
                        if self.fleet.in_cohort(job.name):
                            self.fleet.extract(job.name)
                        self.fleet.release(job.name)
                    except Exception:
                        pass
                    self.admission.on_release(job.principal)
                else:
                    self.admission.on_cancel_queued(job.principal)
                self._retire(job, "cancelled")

    async def __aenter__(self) -> "ServeFrontend":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()
        await self.close()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "admission": self.admission.stats(),
            "slicer": self.slicer.stats(),
            "turns": self._turns,
            "jobs": len(self._jobs),
            "retired": len(self._results),
        }
        if self.journal is not None:
            out["journal"] = self.journal.stats()
            out["recovery_errors"] = len(self.recovery_errors)
        out.update(self.fleet.stats())
        return out

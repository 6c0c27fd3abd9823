"""Supervised recovery: checkpoints, quarantine, and tenant restore.

The :class:`Supervisor` closes the reliability loop over a small fleet
of hypervisors.  The layers below it already do the local work — the
ABI channel retries transient faults with capped backoff and converts
hangs into deadline errors; the handshake retries bitstream loads — so
what reaches the supervisor is only what retry cannot fix: a
:class:`~repro.fabric.errors.PersistentFabricError` (dead board,
exhausted retry budget).  Its response is the paper's migration
machinery pointed at disaster recovery:

1. **checkpoint** every tenant at quiescence points (between logical
   ticks), keeping a bounded :class:`~repro.hypervisor.checkpoint.CheckpointRing`
   per engine, keyed by artifact digest so restore never recompiles;
2. on a persistent fault, **quarantine** the afflicted hypervisor
   (board killed, IO streams dropped, admission closed);
3. **restore** every tenant that lived there from its latest
   checkpoint onto a healthy hypervisor — or a software engine when
   none remains — and replay the ticks since the checkpoint.  The
   rebuilt host's display log is seeded from the checkpoint, so the
   crashed run's post-checkpoint output is discarded and the replay
   re-emits it: ``$display`` output stays exactly-once, bit-identical
   to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..fabric.errors import FabricError, PersistentFabricError
from ..runtime.cohort import (
    BatchUnsupported, CohortEngine, CohortLaneEngine, UnsupportedBackend,
)
from ..runtime.engine import SoftwareEngine
from ..runtime.runtime import Runtime
from .checkpoint import DEFAULT_RING_DEPTH, Checkpoint, CheckpointRing
from .hypervisor import Hypervisor, HypervisorClient
from .migration import MigrationReport, rehydrate, suspend


@dataclass
class Tenant:
    """One supervised application instance."""

    name: str
    runtime: Runtime
    client: Optional[HypervisorClient] = None
    host: Optional[Hypervisor] = None
    engine_id: Optional[int] = None
    #: checkpoint-ring key; stable across re-placements (engine ids are
    #: per-hypervisor and get reused, so they cannot key the ring)
    key: int = 0
    recoveries: int = 0

    @property
    def on_hardware_path(self) -> bool:
        return self.host is not None


@dataclass
class RecoveryReport:
    """Accounting for one tenant restore."""

    tenant: str
    checkpoint_ticks: int
    crash_ticks: int        #: logical time the crashed runtime had reached
    destination: str        #: device name, or "software"
    restore_seconds: float  #: modeled suspend-point→running latency


class Supervisor:
    """Fault supervisor over a fleet of hypervisors."""

    def __init__(self, hypervisors: List[Hypervisor],
                 checkpoint_every: int = 8,
                 ring_depth: int = DEFAULT_RING_DEPTH,
                 software_fallback: bool = True,
                 journal=None):
        if not hypervisors:
            raise ValueError("a supervisor needs at least one hypervisor")
        self.hypervisors = list(hypervisors)
        self.checkpoint_every = checkpoint_every
        self.ring = CheckpointRing(ring_depth)
        self.software_fallback = software_fallback
        #: optional :class:`~repro.hypervisor.durable.TenantJournal`:
        #: admissions, quiescence checkpoints, and releases are written
        #: ahead to disk so a process restart can recover every tenant
        self.journal = journal
        self.tenants: Dict[str, Tenant] = {}
        self.recoveries: List[RecoveryReport] = []
        self.migrations: List[MigrationReport] = []
        self.quarantines = 0
        self._next_key = 1  #: ring keys survive engine-id reuse across hosts
        #: live vector cohorts (same-digest software tenants)
        self.cohorts: List[CohortEngine] = []
        self.cohorts_formed = 0
        #: counters accumulated from dissolved cohorts
        self._cohort_divergence = 0
        self._cohort_vector_ticks = 0
        #: quiescent tenants advanced whole spans in one dispatch
        self.idle_fastforwards = 0

    # -- admission ------------------------------------------------------------

    def _healthy_host(self, exclude=()) -> Optional[Hypervisor]:
        for hv in self.hypervisors:
            if hv.healthy and hv not in exclude:
                return hv
        return None

    def admit(self, name: str, source: str, clock: str = "clock",
              software: bool = False, host: Optional[Hypervisor] = None,
              vfs=None) -> Tenant:
        """Admit a tenant: place it and take its baseline checkpoint.

        With *software* set the tenant is never placed on fabric: it
        runs on a software engine under the fleet's lead compiler (so
        same-digest tenants share artifacts) — the shape that cohort
        scheduling (:meth:`run_all`) advances as vector dispatches.
        An explicit *host* pins placement to one hypervisor (the serving
        layer's fleet balancer chooses it); *vfs* pre-loads the tenant's
        virtual filesystem with input files.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already admitted")
        if software:
            host = None
        elif host is None:
            host = self._healthy_host()
        elif not host.healthy:
            raise PersistentFabricError(
                f"requested host {host.device.name} is quarantined")
        if host is None and not (software or self.software_fallback):
            raise PersistentFabricError("no healthy hypervisor to admit onto")
        lead = self.hypervisors[0]
        compiler = (host.compiler if host is not None
                    else lead.compiler if software else None)
        backend = (host.sim_backend if host is not None
                   else lead.sim_backend if software else None)
        runtime = Runtime(source, name=name, clock=clock, compiler=compiler,
                          sim_backend=backend, vfs=vfs)
        tenant = Tenant(name=name, runtime=runtime)
        tenant.key = self._next_key  # ring key, stable across re-placement
        self._next_key += 1
        if host is not None:
            self._place(tenant, host)
        self.tenants[name] = tenant
        if self.journal is not None:
            self.journal.admit(name, digest=runtime.program.digest,
                               source=runtime.program.source, clock=clock)
        self._checkpoint(tenant)  # tick-0 baseline: recovery always has one
        return tenant

    def admit_runtime(self, name: str, runtime: Runtime,
                      host: Optional[Hypervisor] = None) -> Tenant:
        """Admit an already-built runtime (the restart-recovery path).

        Mirrors :meth:`admit` placement, but the runtime arrives
        rehydrated from a durable checkpoint instead of compiled from
        source — its display log is already seeded, its state already
        restored.  The baseline checkpoint lands at the *recovered*
        tick, so the board-death recovery machinery keeps working for
        the rest of the tenant's life.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already admitted")
        if host is not None and not host.healthy:
            raise PersistentFabricError(
                f"requested host {host.device.name} is quarantined")
        tenant = Tenant(name=name, runtime=runtime)
        tenant.key = self._next_key
        self._next_key += 1
        if host is not None:
            self._place(tenant, host)
        self.tenants[name] = tenant
        if self.journal is not None:
            self.journal.admit(name, digest=runtime.program.digest,
                               source=runtime.program.source,
                               clock=runtime.clock)
        self._checkpoint(tenant)
        return tenant

    def release(self, name: str) -> None:
        """Retire a tenant: free its fabric slot and drop its checkpoints.

        A quarantined (or otherwise failing) host cannot veto the
        release — the tenant is gone from the supervisor's books either
        way, and a dead board's slots die with the board.
        """
        tenant = self.tenants.pop(name, None)
        if tenant is None:
            return
        if isinstance(tenant.runtime.engine, CohortLaneEngine):
            self._extract_tenant(tenant)
            self._prune_cohorts()
        if tenant.client is not None and tenant.engine_id is not None:
            try:
                tenant.client.release(tenant.engine_id)
            except FabricError:
                pass
        self.ring.drop(tenant.key)
        if self.journal is not None:
            self.journal.terminal(name, "released")
            self.journal.drop_snapshots(name)

    def _place(self, tenant: Tenant, host: Hypervisor) -> None:
        client = host.connect(tenant.name)
        placement = tenant.runtime.attach(client)
        tenant.client = client
        tenant.host = host
        tenant.engine_id = placement.engine_id

    # -- checkpoint discipline ---------------------------------------------------

    def checkpoint(self, name: str) -> Checkpoint:
        """Checkpoint one tenant now (must be at a quiescence point).

        The serving layer calls this at preemption boundaries so a
        sliced-out tenant always has a restore point no older than its
        last turn.  Cohort members must have drained their banked ticks
        first (:meth:`drain_banked`) — a lane snapshot mid-bank raises.
        """
        return self._checkpoint(self.tenants[name])

    def _checkpoint(self, tenant: Tenant) -> Checkpoint:
        runtime = tenant.runtime
        t0 = runtime.sim_time
        context = suspend(runtime)
        checkpoint = Checkpoint(
            engine_id=tenant.key,
            digest=runtime.program.hardware_digest,
            ticks=runtime.ticks,
            sim_time=runtime.sim_time,
            context=context,
            save_seconds=runtime.sim_time - t0,
        )
        self.ring.push(checkpoint)
        if self.journal is not None:
            self.journal.checkpoint(tenant.name, checkpoint)
        return checkpoint

    # -- execution ------------------------------------------------------------

    def run(self, name: str, ticks: int) -> Runtime:
        """Drive a tenant *ticks* logical ticks with checkpoints and
        recovery; returns the (possibly re-hosted) runtime."""
        tenant = self.tenants[name]
        target = tenant.runtime.ticks + ticks
        while tenant.runtime.ticks < target and not tenant.runtime.finished:
            remaining = target - tenant.runtime.ticks
            chunk = self._chunk_for(tenant.runtime, remaining)
            try:
                tenant.runtime.tick(chunk)
                self._checkpoint(tenant)
            except FabricError as err:
                self._recover_from(tenant, err)
        return tenant.runtime

    def _chunk_for(self, runtime: Runtime, remaining: int) -> int:
        """Checkpoint-bounded chunk size, with idle fast-forward.

        A provably quiescent tenant advances its whole remaining span
        in one near-free dispatch instead of ``remaining /
        checkpoint_every`` no-op turns: intermediate checkpoints of an
        idle tenant would all capture identical state, so skipping them
        loses nothing (the post-span checkpoint still lands).  The
        quiescence proof comes from the engine and already counts
        pending NBA shadow-queue entries as activity.
        """
        if remaining > self.checkpoint_every and runtime.is_idle():
            self.idle_fastforwards += 1
            return remaining
        return min(self.checkpoint_every, remaining)

    # -- cohort scheduling (vector cohorts) ------------------------------------

    def form_cohorts(self, min_size: int = 2,
                     names: Optional[List[str]] = None) -> int:
        """Group same-digest software tenants into vector cohorts.

        Formation happens at a quiescence boundary (between logical
        ticks): each member's scalar state is snapshot into a cohort
        lane and its runtime's engine swapped for the lane engine —
        ``Runtime.tick`` then drives the whole cohort through tick
        banking.  Programs outside the vector subset (or a missing
        NumPy) leave their group on scalar engines.  *names* restricts
        formation to a subset of tenants (the serving layer forms
        cohorts per priority class, so one class's lockstep schedule
        never couples to another's).  Returns the number of cohorts
        formed.
        """
        groups: Dict[str, List[Tenant]] = {}
        pool = (self.tenants.values() if names is None
                else [self.tenants[n] for n in names if n in self.tenants])
        for tenant in pool:
            runtime = tenant.runtime
            if (runtime.backend is not None or runtime.finished
                    or runtime.engine.kind != "software"
                    or isinstance(runtime.engine, CohortLaneEngine)):
                continue
            groups.setdefault(runtime.program.digest, []).append(tenant)
        formed = 0
        for members in groups.values():
            if len(members) < min_size:
                continue
            lead = members[0].runtime
            try:
                engine = CohortEngine(lead.program, compiler=lead.compiler,
                                      opt_level=lead.opt_level)
            except (BatchUnsupported, UnsupportedBackend):
                continue
            for tenant in members:
                runtime = tenant.runtime
                state = runtime.engine.snapshot()
                member = engine.admit(runtime.host, state=state)
                # Engine snapshots carry no $time; copy it across so a
                # formed tenant is indistinguishable from a scalar run.
                member.time = runtime.engine.sim.time
                runtime.engine = member
            self.cohorts.append(engine)
            self.cohorts_formed += 1
            formed += 1
        return formed

    def dissolve_cohorts(self) -> None:
        """Extract every cohort member back onto a scalar engine."""
        for tenant in self.tenants.values():
            if isinstance(tenant.runtime.engine, CohortLaneEngine):
                self._extract_tenant(tenant)
        for engine in self.cohorts:
            self._cohort_divergence += engine.divergence
            self._cohort_vector_ticks += engine.vector_ticks
        self.cohorts = []

    def in_cohort(self, name: str) -> bool:
        tenant = self.tenants.get(name)
        return (tenant is not None
                and isinstance(tenant.runtime.engine, CohortLaneEngine))

    def extract(self, name: str) -> None:
        """Pull one tenant out of its cohort onto a scalar engine.

        Must happen at a quiescence boundary with the tenant's bank
        drained (lockstep schedules guarantee this between turns).  A
        cohort left with one lane is dissolved outright — a vector
        dispatch over one lane is pure overhead.
        """
        tenant = self.tenants[name]
        if not isinstance(tenant.runtime.engine, CohortLaneEngine):
            return
        self._extract_tenant(tenant)
        self._prune_cohorts()

    def _prune_cohorts(self) -> None:
        """Dissolve degenerate cohorts and retire empty ones."""
        survivors: List[CohortEngine] = []
        for engine in self.cohorts:
            if engine.size <= 1:
                for tenant in list(self.tenants.values()):
                    lane = tenant.runtime.engine
                    if (isinstance(lane, CohortLaneEngine)
                            and lane.engine is engine):
                        self._extract_tenant(tenant)
                self._cohort_divergence += engine.divergence
                self._cohort_vector_ticks += engine.vector_ticks
            else:
                survivors.append(engine)
        self.cohorts = survivors

    def drain_banked(self, name: str) -> int:
        """Settle a finished cohort member's banked ticks (see
        :meth:`_drain_banked`); returns the number folded in."""
        return self._drain_banked(self.tenants[name].runtime)

    def _extract_tenant(self, tenant: Tenant) -> None:
        """One tenant's lane → a scalar :class:`SoftwareEngine`.

        The replacement boots quietly (its initial blocks already ran
        when the tenant started) and restores through the simulator's
        ``restore_state`` contract — edge re-detection suppressed, so a
        lane captured mid-``$finish`` tick (clock still high) does not
        replay the finishing edge into the fresh engine.
        """
        runtime = tenant.runtime
        lane_engine = runtime.engine
        self._drain_banked(runtime)
        lane_time = lane_engine.time
        state = lane_engine.engine.detach(lane_engine)
        engine = SoftwareEngine(runtime.program, runtime.host,
                                backend=runtime.sim_backend,
                                compiler=runtime.compiler,
                                quiet_init=True,
                                opt_level=runtime.opt_level)
        engine.sim.restore_state({
            "store": state,
            "vfs": runtime.host.vfs.snapshot(),
            "time": lane_time,
        })
        engine.sim.step()
        runtime.engine = engine

    def _drain_banked(self, runtime: Runtime) -> int:
        """Settle a finished lane's un-consumed banked ticks.

        A lane that ``$finish``es during another lane's vector dispatch
        holds banked ticks its runtime will never consume (the tick
        loop exits on ``finished``).  Those banked entries are exactly
        the ticks a scalar run *would* have executed before stopping,
        so folding them into the runtime's counters reproduces the
        scalar accounting bit-for-bit.
        """
        engine = runtime.engine
        if not isinstance(engine, CohortLaneEngine) or not engine._banked:
            return 0
        if not runtime.finished:
            raise PersistentFabricError(
                f"runtime {runtime.name!r} holds banked ticks while "
                "unfinished: cohort members must be driven in lockstep"
            )
        drained = len(engine._banked)
        runtime.sim_time += sum(engine._banked)
        runtime.ticks += drained
        engine._banked.clear()
        return drained

    def run_all(self, ticks: int, form: bool = True, min_size: int = 2) -> None:
        """Drive every tenant *ticks* logical ticks in lockstep.

        Same-digest software tenants are formed into cohorts first (at
        the quiescence boundary) and advance one vector dispatch per
        tick; everyone else runs scalar.  Checkpoints land every
        ``checkpoint_every`` ticks as in :meth:`run`, banked ticks are
        drained at each boundary so the checkpoints stay consistent,
        and cohorts are dissolved back onto scalar engines on exit —
        faults and recovery therefore see only ordinary engines.
        """
        if form:
            self.form_cohorts(min_size=min_size)
        try:
            targets = {name: tenant.runtime.ticks + ticks
                       for name, tenant in self.tenants.items()}
            progressed = True
            while progressed:
                progressed = False
                for name, tenant in self.tenants.items():
                    runtime = tenant.runtime
                    if runtime.finished:
                        if self._drain_banked(runtime):
                            self._checkpoint(tenant)
                        continue
                    remaining = targets[name] - runtime.ticks
                    if remaining <= 0:
                        continue
                    chunk = self._chunk_for(runtime, remaining)
                    try:
                        runtime.tick(chunk)
                        self._drain_banked(runtime)
                        self._checkpoint(tenant)
                    except FabricError as err:
                        self._recover_from(tenant, err)
                    progressed = True
        finally:
            self.dissolve_cohorts()

    # -- migration (load balancing) --------------------------------------------

    def migrate_tenant(self, name: str,
                       destination: Optional[Hypervisor] = None) -> MigrationReport:
        """Move a live tenant to *destination* (or onto software).

        The serving layer's rebalancer: suspend at quiescence, release
        the source slot (a dead source cannot veto), rebuild the runtime
        from the suspended context with exactly-once ``$display``, and
        re-place on the destination — digest-keyed artifacts make the
        new placement a cache hit, so no recompilation happens here.
        """
        tenant = self.tenants[name]
        if isinstance(tenant.runtime.engine, CohortLaneEngine):
            self.extract(name)
        old = tenant.runtime
        source_label = (tenant.host.device.name
                        if tenant.host is not None else "software")
        if destination is not None and not destination.healthy:
            raise PersistentFabricError(
                f"migration destination {destination.device.name} is quarantined")
        t0 = old.sim_time
        context = suspend(old)
        suspend_cost = old.sim_time - t0
        if tenant.client is not None and tenant.engine_id is not None:
            try:
                tenant.client.release(tenant.engine_id)
            except FabricError:
                pass
        compiler = (destination.compiler if destination is not None
                    else old.compiler)
        backend = (destination.sim_backend if destination is not None
                   else old.sim_backend)
        runtime = rehydrate(context, name=tenant.name, clock=old.clock,
                            compiler=compiler, sim_backend=backend,
                            start_time=old.sim_time)
        reconfig = (destination.device.reconfig_seconds
                    if destination is not None else 0.0)
        resume_cost = runtime.costs.restore_seconds(
            runtime.program.state.total_bits, reconfig)
        runtime.sim_time += resume_cost
        tenant.runtime = runtime
        tenant.client = None
        tenant.host = None
        tenant.engine_id = None
        if destination is not None:
            self._place(tenant, destination)
        report = MigrationReport(
            source=source_label,
            destination=(destination.device.name
                         if destination is not None else "software"),
            state_bits=runtime.program.state.total_bits,
            suspend_seconds=suspend_cost,
            resume_seconds=resume_cost,
        )
        self.migrations.append(report)
        return report

    # -- recovery --------------------------------------------------------------

    def recover_from(self, name: str, err: FabricError) -> None:
        """Public recovery entry: quarantine *name*'s host and restore
        every tenant it carried (see :meth:`_recover_from`)."""
        self._recover_from(self.tenants[name], err)

    def _recover_from(self, tenant: Tenant, err: FabricError) -> None:
        """Quarantine the faulted host and restore everyone it carried."""
        host = tenant.host
        if host is None:
            # A software tenant has no board to lose; a fabric error
            # here is protocol misuse, not something restore can fix.
            raise err
        if not host.quarantined:
            self.quarantines += 1
        host.quarantine()
        victims = [t for t in self.tenants.values() if t.host is host]
        for victim in victims:
            # Recovery destinations can die too (cascading failure):
            # quarantine each one that faults mid-restore and move on
            # to the next healthy host, ultimately software.
            while True:
                destination = self._healthy_host(exclude=(host,))
                if destination is None and not self.software_fallback:
                    raise PersistentFabricError(
                        "no healthy hypervisor left to restore onto"
                    ) from err
                try:
                    self._restore(victim, destination)
                    break
                except FabricError:
                    if destination is None:
                        raise  # a software restore fault is not a board loss
                    if not destination.quarantined:
                        self.quarantines += 1
                    destination.quarantine()

    def _restore(self, tenant: Tenant, destination: Optional[Hypervisor]) -> None:
        checkpoint = self.ring.latest(tenant.key)
        if checkpoint is None:
            raise PersistentFabricError(
                f"tenant {tenant.name!r} has no checkpoint to restore"
            )
        crashed = tenant.runtime
        compiler = (destination.compiler if destination is not None
                    else crashed.compiler)
        # The crashed runtime's clock already absorbed the failure's
        # detection costs (deadline waits, backoff); recovery continues
        # from there, never from the checkpoint's (earlier) timestamp.
        runtime = rehydrate(checkpoint.context, name=tenant.name,
                            clock=crashed.clock, compiler=compiler,
                            sim_backend=(destination.sim_backend
                                         if destination else crashed.sim_backend),
                            start_time=max(crashed.sim_time,
                                           checkpoint.sim_time))
        restore_started = runtime.sim_time
        reconfig = (destination.device.reconfig_seconds
                    if destination is not None else 0.0)
        runtime.sim_time += runtime.costs.restore_seconds(
            runtime.program.state.total_bits, reconfig
        )
        tenant.runtime = runtime
        tenant.client = None
        tenant.host = None
        tenant.engine_id = None
        if destination is not None:
            # Digest-keyed artifacts: this placement is a cache hit in
            # the shared store, so no recompilation happens here.
            self._place(tenant, destination)
        tenant.recoveries += 1
        self.recoveries.append(RecoveryReport(
            tenant=tenant.name,
            checkpoint_ticks=checkpoint.ticks,
            crash_ticks=crashed.ticks,
            destination=(destination.device.name
                         if destination is not None else "software"),
            restore_seconds=runtime.sim_time - restore_started,
        ))

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Fleet health: the ``stats()``/``utilization()`` idiom."""
        return {
            "tenants": len(self.tenants),
            "hypervisors": len(self.hypervisors),
            "healthy_hypervisors": sum(h.healthy for h in self.hypervisors),
            "quarantines": self.quarantines,
            "recoveries": len(self.recoveries),
            "migrations": len(self.migrations),
            "idle_fastforwards": self.idle_fastforwards,
            "checkpoints": self.ring.stats(),
            "retry": [h.retry.stats() for h in self.hypervisors],
            "cohorts": {
                "active": len(self.cohorts),
                "formed": self.cohorts_formed,
                "sizes": [engine.size for engine in self.cohorts],
                "lane_divergence": self._cohort_divergence + sum(
                    engine.divergence for engine in self.cohorts),
                "vector_ticks": self._cohort_vector_ticks + sum(
                    engine.vector_ticks for engine in self.cohorts),
            },
        }

"""Vector cohort tests: cohort lanes vs the scalar backends.

Covers the differential contract (bit-for-bit state, ``$display``
ordering and per-lane ``$finish`` against interp/compiled), the
cohort lane lifecycle (join/leave/snapshot/restore and the
extract → suspend → resume → rejoin round trip), the batch verdict and
NumPy-optional degradation paths, and the supervisor's cohort
scheduling.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.compiler.service import CompilerService
from repro.fabric.device import F1
from repro.hypervisor import Hypervisor, Supervisor
from repro.hypervisor.migration import resume, suspend
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.interp.compile import CompiledSimulator
from repro.interp.compile import batch as batch_mod
from repro.interp.compile.batch import (
    BatchedCohort, BatchedModuleCode, BatchUnsupported, UnsupportedBackend,
)
from repro.runtime import Runtime, SoftwareEngine
from repro.runtime.cohort import CohortEngine, CohortError, CohortLaneEngine
from repro.verilog import flatten, parse

#: Exercises memories, case, loops, signed compares, dynamic range
#: selects, masked if-divergence, $display ordering and $finish.
KITCHEN = """
module kitchen(clock);
  input wire clock;
  reg [15:0] n;
  reg signed [7:0] s;
  reg [31:0] word;
  reg [7:0] mem [0:15];
  reg [3:0] sel;
  integer i;
  wire [15:0] doubled;
  assign doubled = n + n;
  initial begin
    n = 0; s = -5; word = 32'hA5A5A5A5; sel = 0;
    for (i = 0; i < 16; i = i + 1) mem[i] = i * 3;
  end
  always @(posedge clock) begin
    n <= n + 1;
    s <= s + 1;
    sel <= n[3:0];
    word[n[2:0]*4 +: 4] <= n[3:0];
    for (i = 0; i < 4; i = i + 1)
      mem[(n + i) & 15] <= mem[(n + i) & 15] + 1;
    case (sel)
      4'd0: $display("zero n=%0d d=%0d", n, doubled);
      4'd5: $display("five s=%0d", s);
      default: if (s > 0) $display("pos %0d", s);
    endcase
    if (n == FINISH_AT)
      $finish(3);
  end
endmodule
"""


def kitchen(finish_at=40):
    return KITCHEN.replace("FINISH_AT", str(finish_at))


def run_backend(source, backend, ticks, code=None):
    flat = flatten(parse(source), "kitchen")
    host = TaskHost(VirtualFS())
    sim = Simulator(flat, host, backend=backend, code=code)
    sim.tick(cycles=ticks)
    return sim, host


def lane_state(sim):
    return sim.store.snapshot()


def run_cohort(source, ticks, lanes=2):
    """*lanes* fresh lanes of one cohort, ticked together.

    O2 is pinned: vector licensing needs the two-state specialized
    plan, which the ambient ``REPRO_OPT_LEVEL=0`` CI leg would deny.
    """
    service = CompilerService()
    program = service.compile_program(source)
    cohort = BatchedCohort(service.batch(program.flat, env=program.env,
                                         digest=program.digest, opt_level=2))
    hosts = [TaskHost(VirtualFS()) for _ in range(lanes)]
    for host in hosts:
        cohort.join(host)
    cohort.tick(ticks)
    return cohort, hosts


#: A purely sequential module: no combinational cone, so no licence.
SEQ_ONLY = """
module seqonly(clock);
  input wire clock;
  reg [7:0] n;
  initial n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 5) $display("n=%0d", n);
  end
endmodule
"""


def no_numpy(monkeypatch):
    monkeypatch.setattr(batch_mod, "np", None)
    monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
    monkeypatch.setattr("repro.serve.fleet.HAVE_NUMPY", False)


@pytest.fixture
def at_o2(monkeypatch):
    """Pin O2: vector licensing needs the two-state specialized plan,
    which the ambient ``REPRO_OPT_LEVEL=0`` CI leg would deny."""
    monkeypatch.setenv("REPRO_OPT_LEVEL", "2")


class TestDifferential:
    @pytest.mark.parametrize("finish_at,ticks", [(40, 24), (10, 24)])
    def test_state_display_finish_parity(self, finish_at, ticks):
        src = kitchen(finish_at)
        ref_sim, ref_host = run_backend(src, "interp", ticks)
        sim, host = run_backend(src, "compiled", ticks)
        assert lane_state(sim) == lane_state(ref_sim)
        assert host.display_log == ref_host.display_log
        assert (host.finished, host.finish_code) == \
            (ref_host.finished, ref_host.finish_code)
        assert sim.time == ref_sim.time
        cohort, hosts = run_cohort(src, ticks)
        for lane, host in enumerate(hosts):
            assert cohort.snapshot_lane(lane) == lane_state(ref_sim), lane
            assert host.display_log == ref_host.display_log, lane
            assert (host.finished, host.finish_code) == \
                (ref_host.finished, ref_host.finish_code), lane
            assert int(cohort.times[lane]) == ref_sim.time, lane

    @pytest.mark.usefixtures("at_o2")
    def test_per_lane_finish_at_different_ticks(self):
        """Lanes $finish at different ticks; each must match its own
        scalar run, and dead lanes must stop advancing."""
        flat = flatten(parse(kitchen(40)), "kitchen")
        code = CompiledSimulator(flat).code
        cohort = BatchedCohort(BatchedModuleCode(code))
        finishes = [5, 12, 40, 40]
        hosts = []
        for at in finishes:
            host = TaskHost(VirtualFS())
            lane = cohort.join(host)
            # stagger the finish point per lane through its own state
            cohort.set_value("n", 0, lane=lane)
            hosts.append(host)
        # lanes can't vary the module text, so vary via state: push two
        # lanes close to their $finish trigger (n reads its pre-tick
        # value, so starting at 41-f makes n==40 on tick f exactly)
        cohort.set_value("n", 41 - finishes[0], lane=0)
        cohort.set_value("n", 41 - finishes[1], lane=1)
        cohort.tick(20)
        assert hosts[0].finished and hosts[0].finish_code == 3
        assert hosts[1].finished and hosts[1].finish_code == 3
        assert not hosts[2].finished and not hosts[3].finished
        # dead lanes froze their $time at the finish tick
        assert int(cohort.times[0]) == finishes[0]
        assert int(cohort.times[1]) == finishes[1]
        assert int(cohort.times[2]) == 20
        # live lanes keep matching a scalar run from the same state
        scalar = Simulator(flat, TaskHost(VirtualFS()), backend="compiled",
                           code=code)
        scalar.tick(cycles=20)
        assert cohort.snapshot_lane(2) == scalar.store.snapshot()

    @pytest.mark.usefixtures("at_o2")
    def test_display_interleaving_multiple_lanes(self):
        """Each lane's display stream equals its scalar twin's."""
        flat = flatten(parse(kitchen(40)), "kitchen")
        code = CompiledSimulator(flat).code
        cohort = BatchedCohort(BatchedModuleCode(code))
        hosts = [TaskHost(VirtualFS()) for _ in range(3)]
        for host in hosts:
            cohort.join(host)
        cohort.tick(18)
        ref_host = TaskHost(VirtualFS())
        ref = Simulator(flat, ref_host, backend="interp")
        ref.tick(cycles=18)
        for host in hosts:
            assert host.display_log == ref_host.display_log


@pytest.mark.usefixtures("at_o2")
class TestCohortEdges:
    def _supervisor(self, source, n=2):
        sup = Supervisor([Hypervisor(F1)], checkpoint_every=4)
        for i in range(n):
            sup.admit(f"t{i}", source, software=True)
        return sup

    def test_lane_save_restore_roundtrip(self):
        """A lane restored from its own snapshot replays identically,
        and the restore leaves the other lane alone."""
        service = CompilerService()
        program = service.compile_program(kitchen(100))
        engine = CohortEngine(program, compiler=service)
        a = engine.admit(TaskHost(VirtualFS()))
        b = engine.admit(TaskHost(VirtualFS()))

        def lockstep(ticks):
            for _ in range(ticks):
                a.run_tick("clock")
                b.run_tick("clock")

        lockstep(7)
        saved = a.snapshot()
        lockstep(5)
        after_12 = a.snapshot()
        b_after_12 = b.snapshot()
        a.restore(saved)
        assert a.snapshot() == saved
        assert b.snapshot() == b_after_12
        for _ in range(5):
            a.run_tick("clock")  # b banks these; its state moves too
        assert a.snapshot() == after_12
        assert a.time == 17 and b.banked == 5

    def test_unlicensed_program_stays_scalar(self):
        """No licence: formation leaves the scalar engines in place,
        the verdict is interned, and the run matches scalar twins."""
        sup = self._supervisor(SEQ_ONLY)
        twins = self._supervisor(SEQ_ONLY)
        assert sup.form_cohorts() == 0
        assert sup.cohorts == []
        assert all(isinstance(t.runtime.engine, SoftwareEngine)
                   for t in sup.tenants.values())
        lead = sup.tenants["t0"].runtime
        assert lead.compiler.batch_refused(lead.program.digest)
        sup.run_all(12)
        for name in twins.tenants:
            twins.run(name, 12)
            ours = sup.tenants[name].runtime
            assert ours.host.display_log == \
                twins.tenants[name].runtime.host.display_log
            assert ours.engine.snapshot() == \
                twins.tenants[name].runtime.engine.snapshot()

    def test_unsupported_without_numpy(self, monkeypatch):
        from repro.compiler import ArtifactStore

        # A private store: a shared one may already hold the closures.
        service = CompilerService(ArtifactStore())
        program = service.compile_program(kitchen(40))
        no_numpy(monkeypatch)
        with pytest.raises(UnsupportedBackend):
            service.batch(program.flat, env=program.env,
                          digest=program.digest)
        with pytest.raises(UnsupportedBackend):
            CohortEngine(program, compiler=service)
        # a missing NumPy is not a verdict on the program
        assert not service.batch_refused(program.digest)

    def test_supervisor_stays_scalar_without_numpy(self, monkeypatch):
        from repro.serve import Fleet

        no_numpy(monkeypatch)
        sup = self._supervisor(kitchen(25))
        assert sup.form_cohorts() == 0
        sup.run_all(10)
        assert all(isinstance(t.runtime.engine, SoftwareEngine)
                   for t in sup.tenants.values())
        fleet = Fleet([Hypervisor(F1)])
        fleet.admit_job("t0", kitchen(25), digest="d")
        assert fleet.cohort_refused("t0")
        assert fleet.form_cohorts(["t0"]) == 0


class TestBatchVerdict:
    def test_refusal_is_decided_once_per_store(self, tmp_path):
        from repro.compiler import ArtifactStore, DiskArtifactStore

        disk = DiskArtifactStore(tmp_path)
        service = CompilerService(ArtifactStore(disk=disk))
        program = service.compile_program(SEQ_ONLY)
        built = []
        real = batch_mod.BatchedModuleCode

        def counting(code):
            built.append(code)
            return real(code)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batch_mod, "BatchedModuleCode", counting)
            for _ in range(3):
                with pytest.raises(BatchUnsupported):
                    service.batch(program.flat, env=program.env,
                                  digest=program.digest)
        assert len(built) == 1
        stats = service.store.stats("batch")
        assert (stats.misses, stats.hits) == (1, 2)
        assert service.batch_refused(program.digest)
        # refusals stay out of the disk tier and are no warmth
        assert disk.count("batch") == 0
        assert not service.warmth(program.digest)["batch"]


def _perfbench_design_pool():
    """The benchmark's serving design pool (``perfbench/inputs.py``)."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.design_pool()


class TestOneScalarArtifact:
    """Batch layers on the one scalar artifact every engine runs."""

    def test_batch_builds_no_second_scalar_artifact(self):
        from repro.bench import BENCHMARKS
        from repro.compiler import ArtifactStore
        from repro.interp.compile import CompiledModuleCode

        service = CompilerService(ArtifactStore())
        program = service.compile_program(BENCHMARKS["mips32"].source())
        # What a software engine builds, then what cohort formation
        # builds; O2 pinned because the O0 CI leg denies licensing.
        code = service.codegen(program.flat, env=program.env,
                               digest=program.digest, opt_level=2)
        batch = service.batch(program.flat, env=program.env,
                              digest=program.digest, opt_level=2)
        scalar = [entry.value for entry in service.store._entries.values()
                  if isinstance(entry.value, CompiledModuleCode)]
        assert scalar == [code]
        assert batch.code is code

    def test_design_pool_licensing(self):
        from repro.compiler import ArtifactStore
        from repro.interp.compile.batch import BatchUnsupported

        licensed = set()
        pool = _perfbench_design_pool()
        for label, source in pool.items():
            service = CompilerService(ArtifactStore())
            program = service.compile_program(source)
            try:
                service.batch(program.flat, env=program.env,
                              digest=program.digest, opt_level=2)
            except BatchUnsupported:
                continue
            licensed.add(label)
        assert set(pool) == {"mips32", "bitcoin"} | {
            f"fuzz-{i}" for i in range(6)}
        assert licensed == {"mips32", "fuzz-5"}


@pytest.mark.usefixtures("at_o2")
class TestCohortLifecycle:
    def _cohort_engine(self, src=None):
        service = CompilerService()
        program = service.compile_program(src or kitchen(60))
        return CohortEngine(program, compiler=service), program, service

    def test_extract_suspend_resume_rejoin(self):
        """Lane → scalar engine → suspend → resume → back to a lane,
        landing bit-identical with a never-vectorized scalar run."""
        engine, program, service = self._cohort_engine()
        runtime = Runtime(program, name="t0", compiler=service)
        twin = Runtime(program, name="twin", compiler=service)
        runtime.tick(5)
        twin.tick(5)
        # absorb into a cohort
        member = engine.admit(runtime.host, state=runtime.engine.snapshot())
        member.time = runtime.engine.sim.time
        runtime.engine = member
        runtime.tick(6)
        twin.tick(6)
        # extract back to scalar
        state = engine.detach(member)
        scalar = SoftwareEngine(program, runtime.host, compiler=service,
                                quiet_init=True)
        scalar.sim.restore_state({
            "store": state,
            "vfs": runtime.host.vfs.snapshot(),
            "time": 11,
        })
        scalar.sim.step()
        runtime.engine = scalar
        # suspend/resume through the migration path; the context
        # carries logical ticks but not $time, so re-anchor it the way
        # the hypervisor's full-state restore does
        context = suspend(runtime)
        fresh = Runtime(program, name="t1", compiler=service,
                        quiet_boot=True)
        resume(fresh, context)
        fresh.engine.sim.time = scalar.sim.time
        fresh.tick(4)
        twin.tick(4)
        # rejoin a (new) cohort and finish out
        engine2 = CohortEngine(program, compiler=service)
        member2 = engine2.admit(fresh.host,
                                state=fresh.engine.snapshot())
        member2.time = fresh.engine.sim.time
        fresh.engine = member2
        fresh.tick(3)
        twin.tick(3)
        assert fresh.engine.snapshot() == twin.engine.snapshot()
        assert fresh.host.display_log[-3:] == twin.host.display_log[-3:]
        assert fresh.engine.time == twin.engine.sim.time

    def test_detach_shrinks_lanes(self):
        engine, program, service = self._cohort_engine()
        members = [engine.admit(TaskHost(VirtualFS())) for _ in range(3)]
        assert engine.size == 3
        engine.detach(members[1])
        assert engine.size == 2
        assert members[0].lane == 0 and members[2].lane == 1
        with pytest.raises(CohortError):
            members[1].get("n")

    def test_snapshot_blocked_mid_bank(self):
        engine, program, service = self._cohort_engine()
        a = engine.admit(TaskHost(VirtualFS()))
        b = engine.admit(TaskHost(VirtualFS()))
        a.run_tick("clock")  # banks a tick for b
        assert b.banked == 1
        with pytest.raises(CohortError):
            b.snapshot()
        with pytest.raises(CohortError):
            engine.detach(b)
        b.run_tick("clock")  # consume the bank
        assert b.banked == 0
        b.snapshot()


class TestSupervisorCohorts:
    def _mk(self, n, ticks_each):
        sup = Supervisor([Hypervisor(F1)], checkpoint_every=8)
        for i in range(n):
            sup.admit(f"t{i}", kitchen(25), software=True)
        for i, name in enumerate(list(sup.tenants)):
            sup.run(name, i * ticks_each)
        return sup

    def test_run_all_matches_scalar_runs(self):
        a = self._mk(4, 2)
        b = self._mk(4, 2)
        a.run_all(30)
        for name in list(b.tenants):
            b.run(name, 30)
        for i in range(4):
            ra = a.tenants[f"t{i}"].runtime
            rb = b.tenants[f"t{i}"].runtime
            assert not isinstance(ra.engine, CohortLaneEngine)
            assert ra.engine.snapshot() == rb.engine.snapshot()
            assert ra.host.display_log == rb.host.display_log
            assert (ra.finished, ra.host.finish_code) == \
                (rb.finished, rb.host.finish_code)
            assert ra.ticks == rb.ticks
            assert ra.engine.sim.time == rb.engine.sim.time

    @pytest.mark.usefixtures("at_o2")
    def test_stats_telemetry(self):
        sup = self._mk(3, 0)
        formed = sup.form_cohorts()
        assert formed == 1
        stats = sup.stats()
        assert stats["cohorts"]["active"] == 1
        assert stats["cohorts"]["formed"] == 1
        assert stats["cohorts"]["sizes"] == [3]
        sup.run_all(10, form=False)
        sup.dissolve_cohorts()
        stats = sup.stats()
        assert stats["cohorts"]["active"] == 0
        assert stats["cohorts"]["vector_ticks"] >= 10
        hv_stats = sup.hypervisors[0].stats()
        assert "batch_artifacts" in hv_stats
        for key in ("entries", "hits", "misses"):
            assert key in hv_stats["batch_artifacts"]

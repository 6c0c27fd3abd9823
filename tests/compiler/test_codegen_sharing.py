"""Codegen sharing must be invisible: shared-artifact engines stay
bit-identical to freshly-compiled engines.

Two engines built against one :class:`CompiledModuleCode` share the
analysis, schedule templates and code object but nothing mutable —
divergent inputs, save/restore and migration round-trips must behave
exactly as if each engine had compiled privately, under both the
compiled backend and the interp oracle.
"""

import pytest

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService
from repro.fabric import DE10, F1
from repro.harness.common import bench_vfs
from repro.hypervisor import Hypervisor
from repro.hypervisor.migration import migrate
from repro.interp import Simulator, TaskHost
from repro.runtime import DirectBoardBackend, Runtime

COUNTER = """
module counter(input wire clock, input wire [7:0] step,
               output wire [31:0] out);
  reg [31:0] n = 0;
  reg [31:0] mem [0:15];
  always @(posedge clock) begin
    n <= n + step;
    mem[n[3:0]] <= n;
  end
  assign out = n;
endmodule
"""

BACKENDS = ("compiled", "interp")


def _shared_pair(source):
    """Two engines sharing one codegen artifact, plus a fresh engine.

    Forces ``backend="compiled"`` — these tests exercise compiled-code
    sharing specifically, whatever REPRO_SIM_BACKEND says.
    """
    service = CompilerService(ArtifactStore())
    program = service.compile_program(source)
    code = service.codegen(program.flat, env=program.env,
                           digest=program.digest)
    shared_a = Simulator(program.flat, TaskHost(), env=program.env,
                         backend="compiled", code=code)
    shared_b = Simulator(program.flat, TaskHost(), env=program.env,
                         backend="compiled", code=code)
    assert shared_a.code is shared_b.code
    fresh = Simulator(program.flat, TaskHost(), env=program.env,
                      backend="compiled")
    return shared_a, shared_b, fresh


class TestSharedEnginesDiverge:
    def test_divergent_inputs_stay_isolated(self):
        shared_a, shared_b, fresh = _shared_pair(COUNTER)
        for sim in (shared_a, shared_b, fresh):
            sim.set("step", 1)
        shared_a.tick("clock", 7)
        shared_b.set("step", 3)
        shared_b.tick("clock", 4)
        fresh.tick("clock", 7)
        assert shared_a.get("n") == 7
        assert shared_b.get("n") == 12
        # The shared engine matches a freshly-compiled engine bit for bit.
        assert shared_a.store.snapshot() == fresh.store.snapshot()

    def test_memories_not_aliased_between_engines(self):
        shared_a, shared_b, _ = _shared_pair(COUNTER)
        shared_a.set("step", 1)
        shared_a.tick("clock", 5)
        # mem[k] holds k: the mem writer's index is evaluated when the
        # statement executes (LRM §9.2.2), before n's own non-blocking
        # assign latches — matching the hardware transform's __wa capture.
        assert shared_a.store.mem_get("mem", 3) == 3
        assert shared_b.store.mem_get("mem", 3) == 0

    def test_dirty_tracking_is_per_engine(self):
        shared_a, shared_b, _ = _shared_pair(COUNTER)
        shared_a.set("step", 9)
        # B's dirty structures must be untouched by A's write.
        assert not shared_b.store.dirty_list
        shared_b.step()
        assert shared_b.get("step") == 0


@pytest.mark.parametrize("name,ticks", [("mips32", 48), ("bitcoin", 16)])
def test_shared_codegen_matches_fresh_on_benchmarks(name, ticks):
    source = BENCHMARKS[name].source()
    service = CompilerService(ArtifactStore())
    program = service.compile_program(source)
    code = service.codegen(program.flat, env=program.env,
                           digest=program.digest)

    def run(shared):
        host = TaskHost(bench_vfs(name, scale=1 << 12))
        sim = Simulator(program.flat, host, env=program.env,
                        code=code if shared else None)
        sim.tick(cycles=ticks)
        return sim.store.snapshot(), list(host.display_log), host.finished

    assert run(shared=True) == run(shared=False)


class TestSaveRestoreUnderSharing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_round_trip(self, backend):
        service = CompilerService(ArtifactStore())
        first = Runtime(COUNTER, compiler=service, sim_backend=backend)
        second = Runtime(COUNTER, compiler=service, sim_backend=backend)
        first.engine.set("step", 2)
        first.tick(6)
        context = first.save_context()
        second.restore_context(context)
        assert second.engine.get("n") == first.engine.get("n") == 12
        second.tick(1)
        first.tick(1)
        assert second.engine.get("n") == first.engine.get("n")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_migration_round_trip(self, backend):
        service = CompilerService(ArtifactStore())
        source_rt = Runtime(COUNTER, name="src", compiler=service,
                            sim_backend=backend)
        dest_rt = Runtime(COUNTER, name="dst", compiler=service,
                          sim_backend=backend)
        oracle = Runtime(COUNTER, name="oracle", sim_backend="interp")
        for rt in (source_rt, oracle):
            rt.engine.set("step", 1)
            rt.tick(9)
        report = migrate(source_rt, dest_rt)
        assert report.state_bits > 0
        dest_rt.tick(3)
        oracle.tick(3)
        assert dest_rt.engine.get("n") == oracle.engine.get("n") == 12
        assert (dest_rt.engine.snapshot()["mem"]
                == oracle.engine.snapshot()["mem"])


class TestHardwareSlotsShareCodegen:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_direct_backend_hardware_matches_oracle(self, backend):
        service = CompilerService(ArtifactStore())
        runtime = Runtime(COUNTER, compiler=service, sim_backend=backend)
        runtime.engine.set("step", 1)
        board = DirectBoardBackend(DE10, sim_backend=backend,
                                   compiler=service)
        runtime.tick(2)
        runtime.attach(board)
        runtime._hw_ready_at = runtime.sim_time
        runtime.tick(4)
        assert runtime.mode == "hardware"
        assert runtime.engine.get("n") == 6

    def test_two_tenants_share_one_slot_codegen(self):
        service = CompilerService(ArtifactStore())
        hypervisor = Hypervisor(F1, compiler=service,
                                sim_backend="compiled")
        program = service.compile_program(COUNTER)
        client_a = hypervisor.connect("a")
        client_b = hypervisor.connect("b")
        pa = client_a.place(program)
        pb = client_b.place(program)
        slot_a = hypervisor.board.slots[pa.engine_id]
        slot_b = hypervisor.board.slots[pb.engine_id]
        # One codegen artifact, two isolated engine states.
        assert slot_a.sim.code is slot_b.sim.code
        assert slot_a.sim.store is not slot_b.sim.store
        assert service.store.stats("codegen").hits >= 1
        assert service.store.count("codegen") == 1

    def test_shared_slots_run_independently(self):
        service = CompilerService(ArtifactStore())
        hypervisor = Hypervisor(F1, compiler=service)
        program = service.compile_program(COUNTER)
        runtimes = []
        for i in range(3):
            rt = Runtime(program, name=f"t{i}", compiler=service)
            rt.engine.set("step", i + 1)
            client = hypervisor.connect(f"t{i}")
            rt.tick(1)
            rt.attach(client)
            rt._hw_ready_at = rt.sim_time
            rt.tick(1)
            assert rt.mode == "hardware"
            runtimes.append(rt)
        for i, rt in enumerate(runtimes):
            rt.tick(4)
            assert rt.engine.get("n") == 6 * (i + 1)

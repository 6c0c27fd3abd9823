"""``$write`` lines are transparent across engines and lifecycles.

The text of a ``$write`` stays pending on the program's
:class:`~repro.interp.TaskHost` until an output task ends the line.  So
a line started in software and ended on the board, in a vector cohort,
or after a suspend/resume or migration, prints exactly as it does in an
uninterrupted software run.
"""

import pytest

from repro.compiler.service import CompilerService
from repro.fabric import DE10, F1
from repro.hypervisor import Hypervisor, Supervisor
from repro.hypervisor.migration import migrate, resume, suspend
from repro.interp import Simulator, TaskHost
from repro.runtime import DirectBoardBackend, Runtime

#: ``$write`` then ``$display`` every tick (the combinational ``sum``
#: keeps it inside the vector subset, so cohorts can run it).
EVERY_TICK = """
module counter(input wire clock);
  reg [7:0] n;
  reg [7:0] acc;
  wire [7:0] sum;
  assign sum = acc + n;
  initial n = 0;
  initial acc = 0;
  always @(posedge clock) begin
    n <= n + 1;
    acc <= sum;
    $write("n=%0d ", n);
    $display("acc=%0d", acc);
  end
endmodule
"""

#: ``$write`` on even ``n``, ``$display`` on odd: after an odd number of
#: ticks a partial line is pending.
SPLIT = """
module counter(input wire clock);
  reg [7:0] n;
  reg [7:0] acc;
  wire [7:0] sum;
  assign sum = acc + n;
  initial n = 0;
  initial acc = 0;
  always @(posedge clock) begin
    n <= n + 1;
    acc <= sum;
    if (n[0] == 1'b0) $write("n=%0d ", n);
    else $display("acc=%0d", acc);
  end
endmodule
"""

TICKS = 10

both_programs = pytest.mark.parametrize(
    "source", [EVERY_TICK, SPLIT], ids=["every_tick", "split"])


def reference_log(source, ticks=TICKS):
    service = CompilerService()
    program = service.compile_program(source)
    host = TaskHost()
    Simulator(program.flat, host, env=program.env,
              backend="interp").tick(cycles=ticks)
    return host.display_log


def test_every_tick_counter_reads_whole_lines():
    assert reference_log(EVERY_TICK)[:3] == [
        "n=0 acc=0", "n=1 acc=0", "n=2 acc=1"]


def test_software_run_matches_reference():
    runtime = Runtime(EVERY_TICK, name="sw", compiler=CompilerService())
    runtime.tick(TICKS)
    assert runtime.host.display_log == reference_log(EVERY_TICK)


@both_programs
def test_board_run_matches_reference(source):
    service = CompilerService()
    runtime = Runtime(source, name="hw", compiler=service)
    runtime.tick(1)
    runtime.attach(DirectBoardBackend(DE10, compiler=service))
    runtime.transition_to_hardware()
    assert runtime.mode == "hardware"
    runtime.tick(TICKS - 1)
    assert runtime.host.display_log == reference_log(source)


@both_programs
def test_cohort_run_matches_reference(source, monkeypatch):
    pytest.importorskip("numpy")
    # Vector licensing needs the two-state specialized O2 plan.
    monkeypatch.setenv("REPRO_OPT_LEVEL", "2")
    sup = Supervisor([Hypervisor(F1)], checkpoint_every=4)
    for name in ("a", "b"):
        sup.admit(name, source, software=True)
    sup.tenants["a"].runtime.tick(3)  # a partial line is pending on SPLIT
    sup.tenants["b"].runtime.tick(3)
    assert sup.form_cohorts() == 1
    sup.run_all(TICKS - 3, form=False)
    for tenant in sup.tenants.values():
        assert tenant.runtime.host.display_log == reference_log(source)


def test_suspend_resume_keeps_the_pending_line():
    service = CompilerService()
    runtime = Runtime(SPLIT, name="t0", compiler=service)
    runtime.tick(5)
    assert runtime.host.pending_line == "n=4 "
    context = suspend(runtime)
    fresh = Runtime(SPLIT, name="t1", compiler=service, quiet_boot=True)
    resume(fresh, context)
    fresh.tick(TICKS - 5)
    log = runtime.host.display_log + fresh.host.display_log
    assert log == reference_log(SPLIT)


def test_board_migration_keeps_the_pending_line():
    service = CompilerService()
    source = Runtime(SPLIT, name="src", compiler=service)
    source.attach(DirectBoardBackend(DE10, compiler=service))
    source.transition_to_hardware()
    source.tick(5)
    assert source.host.pending_line == "n=4 "
    destination = Runtime(SPLIT, name="dst", compiler=service,
                          quiet_boot=True)
    destination.attach(DirectBoardBackend(F1, compiler=service))
    destination.transition_to_hardware()
    migrate(source, destination)
    destination.tick(TICKS - 5)
    log = source.host.display_log + destination.host.display_log
    assert log == reference_log(SPLIT)


def test_supervised_migration_keeps_the_pending_line():
    """The rehydrate path: the migrated tenant's log is seeded from the
    context, and the pending line rides along."""
    sup = Supervisor([Hypervisor(DE10), Hypervisor(F1)], checkpoint_every=4)
    sup.admit("t", SPLIT)
    sup.run("t", 5)
    sup.migrate_tenant("t", destination=sup.hypervisors[1])
    sup.run("t", TICKS - 5)
    assert sup.tenants["t"].runtime.host.display_log == reference_log(SPLIT)

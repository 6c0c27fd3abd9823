"""System-task lowering in the compiled emitter.

``$fread``, ``$feof``/``$fgetc``, ``$display``/``$write`` and
``$finish``/``$stop`` compile to direct calls on the live task host
instead of escaping to the reference interpreter (``S._exec``/``SYS``),
so file-I/O bodies qualify for the slot-cached emitter.  Two checks:

* the census — at O2 no Table 1 design (the ``sim-busy`` benchmark
  inputs) carries an escape, and every edge-process body is
  specialized;
* differential cases against ``Simulator(backend="interp")`` at O0 and
  O2 — display log, architectural state, ``vfs.snapshot()``, finish
  status and ``stmts_executed`` must all be bit-identical, including
  for the tasks that still fall back.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.compiler import ArtifactStore, CompilerService
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode
from repro.verilog import flatten, parse

ROOT = Path(__file__).resolve().parents[2]


def _sim_sources():
    """Verilog text of the benchmark's six Table 1 designs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.sim_sources()


SIM_SOURCES = _sim_sources()


def _escapes(source: str) -> int:
    return source.count("S._exec(") + source.count("SYS(")


def _specialized(code: CompiledModuleCode, index: int) -> bool:
    """Whether process *index* opens with the slot-cache prologue."""
    prologue = rf"^def p{index}\(\):\n    _st = 0; _ops = 0\n    L\d+ = d\[\d+\]$"
    return re.search(prologue, code.source, re.M) is not None


# -- the Table 1 census -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SIM_SOURCES))
def test_table1_bodies_lowered_and_slot_cached(name):
    program = CompilerService(ArtifactStore()).compile_program(SIM_SOURCES[name])
    code = CompiledModuleCode(program.flat, env=program.env, opt_level=2)
    assert _escapes(code.source) == 0, name
    edges = [p.index for p in code.processes if p.kind == "edge"]
    assert edges
    assert all(_specialized(code, index) for index in edges), name


# -- differential cases ---------------------------------------------------------


def _run(source, files, ticks, backend, opt_level=None):
    flat = flatten(parse(source), "t")
    vfs = VirtualFS()
    for path, data in files.items():
        vfs.add_file(path, data)
    host = TaskHost(vfs)
    code = None
    if backend == "compiled":
        code = CompiledModuleCode(flat, opt_level=opt_level)
    sim = Simulator(flat, host, backend=backend, code=code)
    sim.tick(cycles=ticks)
    observed = {
        "display": list(host.display_log),
        "state": sim.store.snapshot(),
        "vfs": vfs.snapshot(),
        "stmts": sim.stmts_executed,
        "finished": (host.finished, host.finish_code),
        "time": sim.time,
    }
    return observed, code


def _check(source, files, ticks, lowered=True):
    """Compiled at O0 and O2 must match the interpreter exactly.

    With *lowered*, the O2 edge bodies must also be escape-free and
    slot-cached; otherwise at least one escape must remain.
    """
    oracle, _ = _run(source, files, ticks, "interp")
    for level in (0, 2):
        observed, code = _run(source, files, ticks, "compiled", level)
        assert observed == oracle, f"O{level} diverges from the interpreter"
    if lowered:
        assert _escapes(code.source) == 0, code.source
        edges = [p.index for p in code.processes if p.kind == "edge"]
        assert all(_specialized(code, index) for index in edges), code.source
    else:
        assert _escapes(code.source) > 0, code.source
    return oracle


def test_fread_short_final_word_leaves_dest_unchanged():
    source = """
module t(input wire clock);
  reg [31:0] fd = $fopen("in.bin", "r");
  reg [15:0] w = 16'hbeef;
  reg [7:0] n = 0;
  reg e = 0;
  always @(posedge clock) begin
    $fread(fd, w);
    n = n + 1;
    e = $feof(fd);
    $display("%0d w=%h eof=%0d", n, w, e);
  end
endmodule
"""
    oracle = _check(source, {"in.bin": b"\x12\x34\x56\x78\x9a"}, 5)
    # Third read is one byte short: w keeps 5678 and EOF rises.
    assert oracle["display"][2] == "3 w=5678 eof=1"
    assert oracle["display"][3] == "4 w=5678 eof=1"


def test_fread_into_memory_word_and_selects():
    source = """
module t(input wire clock);
  reg [31:0] fd = $fopen("in.bin", "r");
  reg [7:0] mem [0:3];
  reg [1:0] i = 0;
  reg [11:0] odd = 0;
  reg [15:0] part = 0;
  always @(posedge clock) begin
    $fread(fd, mem[i]);
    $fread(fd, odd);
    $fread(fd, part[11:4]);
    $fread(fd, mem[7]);
    i = i + 1;
    $display("%h %h %h %h | %h %h", mem[0], mem[1], mem[2], mem[3], odd, part);
  end
endmodule
"""
    _check(source, {"in.bin": bytes(range(0xf0, 0xff)) * 3}, 8)


def test_fgetc_eof_sentinel_and_unopened_descriptor():
    source = """
module t(input wire clock);
  reg [31:0] fd = $fopen("in.txt", "r");
  reg [7:0] c = 0;
  reg [31:0] wide = 0;
  reg [31:0] z = 0;
  reg e = 0;
  always @(posedge clock) begin
    c = $fgetc(fd);
    wide = $fgetc(fd);
    z = $fgetc(0);
    e = $feof(0);
    if ($feof(fd))
      $display("eof c=%h wide=%h z=%h e=%0d", c, wide, z, e);
    else
      $display("c=%c wide=%0d", c, wide);
  end
endmodule
"""
    oracle = _check(source, {"in.txt": b"ACGTA"}, 5)
    assert "eof c=ff wide=ffffffff z=ffffffff e=1" in oracle["display"]


def test_write_then_display_and_unformatted_output():
    source = """
module t(input wire clock);
  reg [7:0] a = 3;
  reg [15:0] b = 16'h00ab;
  always @(posedge clock) begin
    a = a + 1;
    $write("a=%0d ", a);
    $write("raw");
    $display(" b=%h %b %s", b, a, "str");
    $display("plain", a, b, "tail");
    $display;
    $write(a);
    $strobe("strobe %0d", a);
  end
endmodule
"""
    oracle = _check(source, {}, 3)
    assert oracle["display"][:4] == ["a=4 raw b=ab 100 str", "plain 4 171 tail",
                                     "", "4strobe 4"]


def test_finish_after_blocking_writes_in_cached_body():
    source = """
module t(input wire clock);
  reg [7:0] a = 0;
  reg [7:0] b = 0;
  reg [7:0] q = 0;
  wire [7:0] twice = a + a;
  always @(posedge clock) begin
    a = a + 1;
    b = a * 3;
    if (a == 4) begin
      $display("stop a=%0d b=%0d twice=%0d", a, b, twice);
      $finish(a - 1);
      b = 99;
    end
    q <= b;
  end
endmodule
"""
    oracle = _check(source, {}, 8)
    assert oracle["finished"] == (True, 3)
    assert oracle["state"]["a"] == 4 and oracle["state"]["b"] == 12


def test_stop_without_argument():
    source = """
module t(input wire clock);
  reg [3:0] n = 0;
  always @(posedge clock) begin
    n = n + 1;
    if (n == 2) $stop;
  end
endmodule
"""
    assert _check(source, {}, 4)["finished"] == (True, 0)


def test_whole_memory_fread_still_falls_back():
    source = """
module t(input wire clock);
  reg [31:0] fd = $fopen("in.bin", "r");
  reg [7:0] mem [0:3];
  reg [7:0] k = 0;
  always @(posedge clock) begin
    $fread(fd, mem);
    k = k + 1;
    $display("k=%0d m0=%0d", k, mem[0]);
  end
endmodule
"""
    _check(source, {"in.bin": bytes(range(1, 16))}, 4, lowered=False)


def test_display_random_still_falls_back():
    source = """
module t(input wire clock);
  reg [7:0] k = 0;
  always @(posedge clock) begin
    k = k + 1;
    $display($random);
    $display("k=%0d r=%h", k, $random);
  end
endmodule
"""
    _check(source, {}, 4, lowered=False)

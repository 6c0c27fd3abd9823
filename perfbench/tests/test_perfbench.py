"""The benchmark's own tests: output checks, tracer, metric definitions."""

import copy
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
from stats import tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_pool_design(label="mips32", ticks=10):
    from repro.compiler import ArtifactStore, CompilerService
    from repro.runtime import Runtime

    source = inputs.design_pool()[label]
    runtime = Runtime(source, compiler=CompilerService(ArtifactStore()))
    runtime.tick(ticks)
    return (inputs.source_digest(source), runtime.host.display_log,
            checks.runtime_state(runtime), runtime.ticks)


def test_output_matches_its_interp_reference():
    expected = checks.load_expected()
    digest, display, state, ticks = _run_pool_design()
    assert checks.mismatch(expected, digest, 10, display, state, ticks) is None


def test_corrupted_expected_digest_is_caught():
    expected = checks.load_expected()
    digest, display, state, ticks = _run_pool_design()
    entry = checks.key(digest, 10)
    for field in ("display", "state"):
        corrupted = copy.deepcopy(expected)
        value = corrupted[entry][field]
        corrupted[entry][field] = ("0" if value[0] != "0" else "1") + value[1:]
        wrong = checks.mismatch(corrupted, digest, 10, display, state, ticks)
        assert wrong is not None and field in wrong
    corrupted = copy.deepcopy(expected)
    corrupted[entry]["ticks"] += 1
    assert "ticks" in checks.mismatch(corrupted, digest, 10, display, state,
                                      ticks)


def test_missing_reference_is_a_mismatch():
    digest, display, state, ticks = _run_pool_design()
    assert checks.mismatch({}, digest, 10, display, state, ticks) is not None


def test_tracer_self_time_and_exact_uninstall():
    from repro.compiler import ArtifactStore, CompilerService

    original = CompilerService.__dict__["parse"]
    tracer = Tracer().install()
    try:
        CompilerService(ArtifactStore()).compile_program(
            "module m(input wire clock); reg [3:0] n = 0;"
            " always @(posedge clock) n <= n + 1; endmodule")
    finally:
        tracer.uninstall()
    assert CompilerService.__dict__["parse"] is original
    by_name = {span.name: span for span in tracer.spans}
    program, parse = by_name["core.program"], by_name["verilog.parse"]
    assert parse.parent is program and program.parent is None
    assert abs(program.self_s - (program.duration - parse.duration)) < 1e-9
    assert tracer.covered_s() == program.duration


def test_tail_keeps_ten_samples_beyond():
    value, label, n = tail(list(range(100)))
    assert (value, label, n) == (89, "p90.0", 100)
    assert tail([3.0, 1.0])[:2] == (3.0, "max")


def test_benchmark_json_matches_metric_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: bench[k] for k in ("end_to_end", "per_layer")} == \
        metrics.benchmark_sections()
    meta = json.loads((PERFBENCH / "workloads.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(meta["workloads"])
    assert meta["held_out_seed"] not in range(1, 11)


def test_serve_trace_is_seeded_and_stratified():
    pool = inputs.design_pool()
    one, two = (inputs.serve_trace(seed, 96, 60.0, pool) for seed in (1, 2))
    assert one == inputs.serve_trace(1, 96, 60.0, pool)
    assert [a.design for a in one] != [a.design for a in two]
    for trace in (one, two):
        prefix = trace[:48]
        assert sum(a.design == "mips32" for a in prefix) in (11, 12, 13)
        assert sorted(a.ticks for a in trace) == sorted(a.ticks for a in one)


def test_open_trace_varies_only_names_and_principals_with_the_seed():
    import workloads

    pool = inputs.design_pool()
    one, two = (inputs.serve_trace(seed, 96, workloads.OPEN_RATE_HZ, pool,
                                   **workloads.OPEN_TRACE)
                for seed in (1, 2))
    assert [(a.at, a.design, a.ticks, a.priority) for a in one] == \
        [(a.at, a.design, a.ticks, a.priority) for a in two]
    assert [a.name for a in one] != [a.name for a in two]

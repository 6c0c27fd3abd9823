"""Record the output references of ``expected.json`` from the interp oracle.

Runs every design the workloads can feed the program on the reference
tree-walking interpreter (``sim_backend="interp"``), one tick at a
time, and fingerprints the ``$display`` log, architectural state and
tick count at every tick budget a workload can request.  Run from the
repository root::

    python3 perfbench/record.py

It takes a few minutes (the interpreter runs bitcoin at ~30 ticks/s).
Re-record only when the designs or tick budgets in ``inputs.py``
change; a change to the program never justifies re-recording.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402


def record_one(label: str, source: str, budgets) -> dict:
    from repro.compiler import ArtifactStore, CompilerService
    from repro.interp.vfs import VirtualFS
    from repro.runtime import Runtime

    vfs = inputs.sim_vfs(label) if label in inputs.SIM_TICKS else VirtualFS()
    runtime = Runtime(source, vfs=vfs, sim_backend="interp",
                      compiler=CompilerService(ArtifactStore()))
    wanted = set(budgets)
    digest = inputs.source_digest(source)
    out = {}
    for target in range(1, max(wanted) + 1):
        if not runtime.finished:
            runtime.tick(1)
        if target in wanted:
            out[checks.key(digest, target)] = checks.fingerprint(
                runtime.host.display_log, checks.runtime_state(runtime),
                runtime.ticks)
    return out


def main() -> int:
    references = {}
    for label, source, budgets in inputs.reference_runs():
        start = time.perf_counter()
        references.update(record_one(label, source, budgets))
        print(f"{label}: {len(budgets)} budget(s) up to {max(budgets)} ticks "
              f"in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump({"oracle": "interp", "references": references}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

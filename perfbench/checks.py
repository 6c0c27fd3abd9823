"""Output checks against references recorded from the interp oracle.

A reference is keyed by ``(design digest, ticks requested)`` and holds
three fingerprints of an interp-backend run: the ``$display`` log, the
architectural state (regs, integers, memories; no ``__`` bookkeeping
names) and the tick count reached.  ``perfbench/record.py`` writes them
to ``expected.json``; every workload checks every output against them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _canon(value: object) -> object:
    if isinstance(value, Mapping):
        return [[str(k), _canon(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return int(value)


def _sha(obj: object) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def key(digest: str, ticks: int) -> str:
    return f"{digest}:{ticks}"


def fingerprint(display: Sequence[str], state: Mapping[str, object],
                ticks: int) -> Dict[str, object]:
    """What a reference stores for one run."""
    return {
        "display": _sha(list(display)),
        "state": _sha(_canon({k: v for k, v in state.items()
                              if not k.startswith("__")})),
        "ticks": int(ticks),
    }


def runtime_state(runtime) -> Dict[str, object]:
    """Architectural state of a runtime, as ``TenantResult.state`` holds it."""
    from repro.fuzz.oracle import state_names

    names = state_names(runtime.program.flat)
    return {name: value for name, value in runtime.engine.snapshot(names).items()
            if not name.startswith("__")}


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, object]]:
    with open(path) as fh:
        return json.load(fh)["references"]


def mismatch(expected: Mapping[str, Mapping[str, object]], digest: str,
             ticks_requested: int, display: Sequence[str],
             state: Mapping[str, object], ticks: int) -> Optional[str]:
    """None when the output matches its reference, else what differs."""
    want = expected.get(key(digest, ticks_requested))
    if want is None:
        return f"no reference for {key(digest, ticks_requested)}"
    got = fingerprint(display, state, ticks)
    wrong = [field for field in ("display", "state", "ticks")
             if got[field] != want[field]]
    if wrong:
        return f"{key(digest, ticks_requested)}: {', '.join(wrong)} differ"
    return None

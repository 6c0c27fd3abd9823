"""Seeded inputs of the four workloads.

Everything the program under test receives is generated here from the
workload seed, through the repository's own generators
(``harness.common.bench_vfs``/``bench_source_kwargs`` for the Table 1
designs, ``harness.common.arrival_trace`` for serving traffic).  The
seed picks arrival times, designs, priorities, tick budgets and
principals; the *design pool* of the serving traces is fixed
(:data:`POOL_SEED`), so every tenant's output can be checked against
references recorded once from the interp oracle (``expected.json``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, List, Optional, Tuple

#: Table 1 designs of the closed-loop simulation workload
SIM_DESIGNS = ("adpcm", "bitcoin", "df", "mips32", "nw", "regex")

#: fixed tick count per design, sized to about 0.5 s of compiled
#: simulation on a 2-core x86 host; none of them finishes or goes idle
SIM_TICKS: Dict[str, int] = {
    "adpcm": 20000, "bitcoin": 900, "df": 36000,
    "mips32": 28000, "nw": 4000, "regex": 36000,
}

#: seed of the fixed fuzz-design pool the serving traces draw from
POOL_SEED = 2021

#: tick budgets of serving tenants (``arrival_trace``'s default range)
SERVE_TICKS = (8, 48)


def source_digest(source: str) -> str:
    """The benchmark's own design key (independent of ``repro``'s digests)."""
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def sim_sources() -> Dict[str, str]:
    """Verilog text of each Table 1 design, sized never to ``$finish``."""
    from repro.bench import BENCHMARKS
    from repro.harness.common import bench_source_kwargs

    return {name: BENCHMARKS[name].source(**bench_source_kwargs(name))
            for name in SIM_DESIGNS}


def sim_vfs(name: str):
    """A fresh input filesystem for one Table 1 design."""
    from repro.harness.common import bench_vfs

    return bench_vfs(name)


def sim_order(seed: int) -> List[str]:
    """The seeded order in which the closed loop visits the designs."""
    order = list(SIM_DESIGNS)
    random.Random(seed).shuffle(order)
    return order


def design_pool() -> Dict[str, str]:
    """design label → Verilog text for every design a trace can use."""
    from repro.harness.common import arrival_trace

    return {a.design: a.source for a in arrival_trace(POOL_SEED, 200)}


def _even(weights: List[Tuple[str, float]], n: int) -> List[str]:
    """*n* labels in *weights* proportions, evenly interleaved.

    Smooth weighted round robin: every prefix holds each label within
    one of its exact share.
    """
    total = sum(w for _, w in weights)
    credit = {label: 0.0 for label, _ in weights}
    out = []
    for _ in range(n):
        for label, weight in weights:
            credit[label] += weight
        best = max(credit, key=credit.get)
        credit[best] -= total
        out.append(best)
    return out


def _jitter(rng: random.Random, items: list, block: int = 8) -> list:
    """Shuffle *items* within consecutive blocks of *block*."""
    out = []
    for i in range(0, len(items), block):
        chunk = items[i:i + block]
        rng.shuffle(chunk)
        out += chunk
    return out


def serve_trace(seed: int, n: int, rate_hz: float, pool: Dict[str, str],
                mix=None, shuffle: bool = True,
                times_seed: Optional[int] = None) -> List:
    """A serving trace: ``arrival_trace(seed, n, rate_hz)``, stratified.

    Arrival times, names and principals are ``arrival_trace``'s; with
    *times_seed*, the arrival times are those of ``arrival_trace``
    drawn with *times_seed* instead.  The
    priorities (``DEFAULT_PRIORITY_MIX``), the designs of each priority
    class (*mix*, default ``DEFAULT_SERVE_MIX``; ``"fuzz"`` split evenly
    over the pool) and the tick budgets of each (class, design) (spread evenly over
    :data:`SERVE_TICKS`) are interleaved so that every prefix of the
    trace, and of each class, holds them in their exact proportions; the
    seed shuffles each sequence within blocks of 8 (unless *shuffle* is
    false: then the seed picks only arrival times, names and
    principals).  Every seed thus
    offers the same work in the same order of magnitude at every point
    of the trace (the open loop's windows, the burst's admission order,
    restart's kill point), so the run-to-run spread measures the
    program, not the draw.
    """
    from repro.harness.common import (
        DEFAULT_PRIORITY_MIX, DEFAULT_SERVE_MIX, arrival_trace,
    )

    rng = random.Random(seed)
    jitter = (lambda items: _jitter(rng, items)) if shuffle else list
    fuzz = sorted(label for label in pool if label.startswith("fuzz-"))
    design_weights = []
    for family, weight in mix or DEFAULT_SERVE_MIX:
        labels = fuzz if family == "fuzz" else [family]
        design_weights += [(label, weight / len(labels)) for label in labels]
    priorities = jitter(_even(list(DEFAULT_PRIORITY_MIX), n))
    designs = {c: iter(jitter(_even(design_weights, priorities.count(c))))
               for c in dict.fromkeys(priorities)}
    labels = [next(designs[c]) for c in priorities]
    lo, hi = SERVE_TICKS
    budgets = {}
    for pair in dict.fromkeys(zip(priorities, labels)):
        count = sum(1 for p in zip(priorities, labels) if p == pair)
        spread = [lo + (hi - lo) * (2 * i + 1) // (2 * count)
                  for i in range(count)]
        # golden-ratio order: every prefix spans the whole budget range
        order = sorted(range(count), key=lambda i: (i * 0.6180339887) % 1)
        budgets[pair] = iter(jitter([spread[i] for i in order]))
    arrivals = arrival_trace(seed, n, rate_hz=rate_hz)
    times = [a.at for a in (arrival_trace(times_seed, n, rate_hz=rate_hz)
                            if times_seed is not None else arrivals)]
    return [dataclasses.replace(a, at=at, design=label, source=pool[label],
                                ticks=next(budgets[(priority, label)]),
                                priority=priority)
            for a, at, priority, label in zip(
                arrivals, times, priorities, labels)]


def reference_runs() -> List[Tuple[str, str, List[int]]]:
    """(label, source, tick counts) the references must cover."""
    runs = [(name, source, [SIM_TICKS[name]])
            for name, source in sim_sources().items()]
    lo, hi = SERVE_TICKS
    runs += [(label, source, list(range(lo, hi + 1)))
             for label, source in sorted(design_pool().items())]
    return runs

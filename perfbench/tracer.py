"""Outside-in tracer: spans around the public entry points of each layer.

The benchmark measures the stack from the outside.  :class:`Tracer`
wraps a fixed list of public functions of ``repro`` (never editing
``src/``) and records one :class:`Span` per call: name, start, end, the
enclosing span (through a :mod:`contextvars` variable) and a tenant tag
wherever the call carries a tenant name.  Spans stay in memory; a
layer's *self time* is its duration minus the time of its direct child
spans.  :meth:`Tracer.write_chrome` exports Chrome trace-event JSON,
which opens in Perfetto.

Untraced runs never construct a tracer, so they run with no wrapper at
all.  ``install()`` and ``uninstall()`` restore every patched attribute
exactly.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    """One wrapped call."""

    name: str
    start: float
    parent: Optional["Span"]
    tenant: Optional[str] = None
    end: Optional[float] = None
    #: summed duration of direct child spans
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_s(self) -> float:
        return max(0.0, self.duration - self.child_s)


def _arg(index: int, keyword: str) -> Callable[[tuple, dict], Optional[str]]:
    """Tenant-tag extractor: positional *index* (after self) or *keyword*."""

    def pick(args: tuple, kwargs: dict) -> Optional[str]:
        if keyword in kwargs:
            value = kwargs[keyword]
        elif len(args) > index:
            value = args[index]
        else:
            return None
        return value if isinstance(value, str) else None

    return pick


_NAME = _arg(0, "name")

#: (span name, module, attribute path, tenant extractor).  The span
#: names are the layer metric prefixes of ``perfbench/metrics.py``.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("verilog.parse", "repro.compiler.service", "CompilerService.parse", None),
    ("core.program", "repro.compiler.service",
     "CompilerService.compile_program", None),
    ("opt.optimize", "repro.compiler.service", "CompilerService.optimize",
     None),
    ("interp.codegen", "repro.compiler.service", "CompilerService.codegen",
     None),
    ("interp.batch_codegen", "repro.compiler.service", "CompilerService.batch",
     None),
    ("compiler.disk_load", "repro.compiler.diskstore",
     "DiskArtifactStore.load", None),
    ("compiler.disk_store", "repro.compiler.diskstore",
     "DiskArtifactStore.store", None),
    ("runtime.tick", "repro.runtime.runtime", "Runtime.tick", None),
    ("runtime.chunk", "repro.runtime.runtime", "Runtime.tick_chunk", None),
    ("runtime.idle", "repro.runtime.engine", "SoftwareEngine.run_idle", None),
    ("runtime.cohort", "repro.serve.fleet", "Fleet.advance_cohort", None),
    ("runtime.form_cohorts", "repro.serve.fleet", "Fleet.form_cohorts", None),
    ("serve.advance", "repro.serve.fleet", "Fleet.advance", _NAME),
    ("fabric.program", "repro.fabric.board", "SimulatedBoard.program", None),
    ("fabric.abi", "repro.runtime.abi", "AbiChannel.send", None),
    ("hypervisor.admit", "repro.serve.fleet", "Fleet.admit_job", _NAME),
    ("hypervisor.readmit", "repro.serve.fleet", "Fleet.readmit", _NAME),
    ("hypervisor.checkpoint", "repro.hypervisor.supervisor",
     "Supervisor.checkpoint", _NAME),
    ("hypervisor.migrate", "repro.hypervisor.supervisor",
     "Supervisor.migrate_tenant", _NAME),
    ("hypervisor.journal", "repro.hypervisor.durable", "TenantJournal.job",
     _NAME),
    ("hypervisor.journal", "repro.hypervisor.durable", "TenantJournal.admit",
     _NAME),
    ("hypervisor.journal", "repro.hypervisor.durable",
     "TenantJournal.terminal", _NAME),
    ("hypervisor.snapshot", "repro.hypervisor.durable",
     "TenantJournal.checkpoint", _NAME),
    ("hypervisor.replay", "repro.hypervisor.durable", "TenantJournal.replay",
     None),
    # Patched where its caller looks it up, not where it is defined.
    ("hypervisor.rehydrate", "repro.serve.frontend", "rehydrate",
     _arg(99, "name")),
    ("serve.submit", "repro.serve.frontend", "ServeFrontend.submit",
     _arg(99, "name")),
)


@dataclass
class Tracer:
    """In-memory span recorder over the :data:`TARGETS` entry points."""

    spans: List[Span] = field(default_factory=list)
    #: tenant name → ``perf_counter`` time its ``submit()`` returned
    submitted_at: Dict[str, float] = field(default_factory=dict)
    #: per-tenant wait from ``submit()`` returning to ``admit_job``
    admission_waits: List[float] = field(default_factory=list)
    #: bytes of the artifact files ``DiskArtifactStore.load`` hit
    disk_load_bytes: int = 0
    #: lanes per ``advance_cohort`` call
    cohort_lanes: List[int] = field(default_factory=list)
    cohorts_formed: int = 0
    #: ticks driven through Runtime.tick/tick_chunk, and the idle
    #: fast-forwarded share of them
    ticks: int = 0
    idle_ticks: int = 0
    _patches: List[Tuple[object, str, object]] = field(default_factory=list)
    _current: contextvars.ContextVar = field(
        default_factory=lambda: contextvars.ContextVar("perfbench_span",
                                                       default=None))

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name: str, tenant: Optional[str]) -> Tuple[Span, object]:
        parent = self._current.get()
        if parent is not None and parent.end is not None:
            # A task created inside a span inherits it through its
            # context copy; once that span closed it is no parent.
            parent = None
        span = Span(name, time.perf_counter(), parent, tenant)
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        if span.parent is not None:
            span.parent.child_s += span.duration

    # -- per-target side records ---------------------------------------------

    def _after(self, name: str, owner, args: tuple, kwargs: dict, result,
               span: Span) -> None:
        if name == "runtime.chunk":
            self.ticks += result.ticks
        elif name == "runtime.tick" and (span.parent is None
                                         or span.parent.name != "runtime.chunk"):
            self.ticks += args[0] if args else kwargs.get("cycles", 1)
        elif name == "runtime.idle":
            self.idle_ticks += args[1] if len(args) > 1 else kwargs["ticks"]
        elif name == "serve.submit" and result is not None:
            self.submitted_at[result.name] = span.end
        elif name == "hypervisor.admit" and span.tenant in self.submitted_at:
            self.admission_waits.append(
                span.start - self.submitted_at.pop(span.tenant))
        elif name == "compiler.disk_load" and result is not None:
            try:
                self.disk_load_bytes += os.path.getsize(owner.path_for(*args[:2]))
            except OSError:
                pass
        elif name == "runtime.cohort":
            self.cohort_lanes.append(len(args[0]))
        elif name == "runtime.form_cohorts":
            self.cohorts_formed += int(result or 0)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, tenant_of, method: bool):
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                call_args = args[1:] if method else args
                span, token = tracer._open(
                    name, tenant_of(call_args, kwargs) if tenant_of else None)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(span, token)
                tracer._after(name, args[0] if method else None, call_args,
                              kwargs, result, span)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call_args = args[1:] if method else args
            span, token = tracer._open(
                name, tenant_of(call_args, kwargs) if tenant_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, token)
            tracer._after(name, args[0] if method else None, call_args,
                          kwargs, result, span)
            return result
        return traced

    def install(self) -> "Tracer":
        for name, module_name, path, tenant_of in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(name, original, tenant_of, method=bool(outer)))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- rollups -------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name → (calls, summed self seconds)."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            calls, self_s = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, self_s + span.self_s)
        return out

    def covered_s(self) -> float:
        """Wall seconds covered by at least one root span."""
        intervals = sorted((s.start, s.end) for s in self.spans
                           if s.parent is None and s.end is not None)
        covered, reach = 0.0, float("-inf")
        for start, end in intervals:
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        return covered

    def summary(self) -> dict:
        """Plain-data rollup (what child processes send back)."""
        totals = self.totals()
        return {
            "calls": {k: v[0] for k, v in totals.items()},
            "self_s": {k: v[1] for k, v in totals.items()},
            "covered_s": self.covered_s(),
            "admission_waits": list(self.admission_waits),
            "disk_load_bytes": self.disk_load_bytes,
            "cohort_lanes": list(self.cohort_lanes),
            "cohorts_formed": self.cohorts_formed,
            "ticks": self.ticks,
            "idle_ticks": self.idle_ticks,
        }

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (complete events), Perfetto-readable."""
        origin = min((s.start for s in self.spans), default=0.0)
        ids = {id(span): i for i, span in enumerate(self.spans)}
        events = []
        for i, span in enumerate(self.spans):
            args = {"id": i, "self_us": round(span.self_s * 1e6, 3)}
            if span.parent is not None:
                args["parent"] = ids[id(span.parent)]
            if span.tenant is not None:
                args["tenant"] = span.tenant
            events.append({
                "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": os.getpid(), "tid": 1, "args": args,
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def merge_summaries(summaries: List[dict]) -> dict:
    """Sum numbers, add per-name maps and concatenate lists."""
    out: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, dict):
                into = out.setdefault(key, {})
                for name, number in value.items():
                    into[name] = into.get(name, 0) + number
            elif isinstance(value, list):
                out.setdefault(key, []).extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out

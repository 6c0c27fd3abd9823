"""The pass-based compiler service: one compiler, many instances.

SYNERGY's hypervisor exists so that *one* compiler can serve every
connected runtime (§4); deterministic code generation (§7) makes each
of its stages cacheable by content address.  :class:`CompilerService`
is that compiler: a thin pass pipeline where every stage result —
parsed :class:`~repro.verilog.ast_nodes.SourceFile`, compiled
:class:`~repro.core.pipeline.CompiledProgram`, generated simulator
code (:class:`~repro.interp.compile.CompiledModuleCode`), synthesis
estimate — is interned in an :class:`~repro.compiler.artifacts.ArtifactStore`
under a digest of the stage's deterministic inputs.

Layers share artifacts by sharing a service (or just a store): the
hypervisor hands its service to its board so N tenants running the
same workload build simulator code once; the direct backend shares one
with its bitstream cache; the harness keeps a module-wide one.  A
service built without an explicit store resolves through
:func:`~repro.compiler.artifacts.resolve_store` — private by default,
process-wide under ``REPRO_COMPILER_CACHE=1``.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from ..core.pipeline import CompiledProgram, build_program
from ..verilog import ast_nodes as ast
from ..verilog.parser import parse
from ..verilog.printer import print_module, print_source
from .artifacts import ArtifactStore, resolve_store, text_digest

#: Artifact kinds, one per compiler stage (bitstreams use the same
#: store through the :class:`~repro.fabric.cache.CompilationCache`
#: view, under ``KIND_BITSTREAM``).
KIND_PARSE = "parse"
KIND_SOURCE = "source"      # raw-text alias → compiled program
KIND_PROGRAM = "program"
KIND_OPT = "opt"            # mid-end pipeline output (OptResult)
KIND_CODEGEN = "codegen"    # compiled-simulator code (CompiledModuleCode)
KIND_BATCH = "batch"        # batch verdict: vector closures or a refusal
KIND_SYNTH = "synth"
KIND_BITSTREAM = "bitstream"


class CompilerService:
    """Content-addressed pass pipeline over one artifact store."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = resolve_store(store)

    # -- front end ---------------------------------------------------------

    def parse(self, text: str) -> ast.SourceFile:
        """Parse Verilog text (cached by raw-text digest)."""
        return self.store.get_or_build(
            KIND_PARSE, text_digest(text), lambda: parse(text)
        )

    def compile_program(
        self,
        source: Union[str, ast.SourceFile, ast.Module, CompiledProgram],
        top: Optional[str] = None,
    ) -> CompiledProgram:
        """Run (or reuse) the full §3 pipeline over *source*.

        All three input kinds are canonicalized through the
        deterministic printer, so text, its parse, and its flattened
        module converge on stable digests; raw text additionally gets
        a cheap alias entry so the hot warm path is one digest plus a
        dictionary hit.
        """
        if isinstance(source, CompiledProgram):
            return source
        alias_key: Optional[str] = None
        if isinstance(source, str):
            alias_key = f"{text_digest(source)}\x00top={top or ''}"
            program = self.store.get(KIND_SOURCE, alias_key)
            if program is not None:
                return program
            parsed = self.parse(source)
        elif isinstance(source, ast.SourceFile):
            parsed = source
        else:
            parsed = ast.SourceFile((source,))
        top_name = top if top is not None else parsed.modules[-1].name
        key = text_digest(print_source(parsed) + f"\x00top={top_name}")
        program = self.store.get_or_build(
            KIND_PROGRAM, key, lambda: build_program(parsed, top_name)
        )
        if alias_key is not None:
            self.store.put(KIND_SOURCE, alias_key, program)
        return program

    # -- mid-end optimization ----------------------------------------------

    def optimize(self, module: ast.Module, env=None,
                 digest: Optional[str] = None,
                 opt_level: Optional[int] = None,
                 keep: "frozenset[str]" = frozenset()):
        """Cached mid-end pipeline output for (module text, level).

        Keyed by ``(digest, pipeline fingerprint)`` — the fingerprint
        names the pass schedule and codegen revision, so one store can
        hold several optimization levels of one program side by side
        (the fuzz oracle's O0-vs-O2 cross-check relies on this).
        *keep* is a deterministic function of the module's provenance
        (e.g. the transform's trap table), so it needs no key component.
        """
        from ..opt import optimize_module, pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{pipeline_fingerprint(level)}"
        return self.store.get_or_build(
            KIND_OPT, key,
            lambda: optimize_module(module, env=env, level=level, keep=keep),
        )

    # -- simulator code generation ----------------------------------------

    def codegen(self, module: ast.Module, env=None,
                digest: Optional[str] = None,
                opt_level: Optional[int] = None,
                keep: "frozenset[str]" = frozenset()):
        """Shareable compiled-simulator code for *module*.

        *digest* must content-address the module's deterministic text;
        callers holding a :class:`CompiledProgram` pass ``.digest``
        (flat module) or ``.hardware_digest`` (transformed module) so
        nothing is re-printed.  The artifact key pairs the digest with
        the mid-end pipeline fingerprint of the effective
        ``opt_level``, so differently-optimized code objects of one
        program coexist and are shared independently.  The returned
        :class:`~repro.interp.compile.CompiledModuleCode` is immutable
        and shared: each engine instantiates its own state against it.
        """
        from ..interp.compile import CompiledModuleCode
        from ..opt import pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{pipeline_fingerprint(level)}"
        return self.store.get_or_build(
            KIND_CODEGEN, key,
            lambda: CompiledModuleCode(
                module, env=env,
                opt=self.optimize(module, env=env, digest=digest,
                                  opt_level=level, keep=keep)),
        )

    # -- vector cohort code generation -------------------------------------

    @staticmethod
    def _batch_key(digest: str, level: int) -> str:
        from ..opt import pipeline_fingerprint

        return f"{digest}\x00{pipeline_fingerprint(level)}\x00batch"

    def batch(self, module: ast.Module, env=None,
              digest: Optional[str] = None,
              opt_level: Optional[int] = None,
              keep: "frozenset[str]" = frozenset()):
        """Shareable vectorized cohort closures for *module*.

        Layered on :meth:`codegen` (codegen key plus a ``batch``
        discriminator).  The entry is the program's batch verdict
        (:func:`~repro.interp.compile.batch.vectorize`), so an
        unlicensed program is analysed once per store and each later
        call raises ``BatchUnsupported`` from a hit.  Refusals stay out
        of the disk tier.  Raises ``UnsupportedBackend`` without NumPy.
        """
        from ..interp.compile.batch import (
            BatchRefusal, BatchUnsupported, vectorize,
        )
        from ..opt import resolve_opt_level

        level = resolve_opt_level(opt_level)
        if digest is None:
            digest = text_digest(print_module(module))
        key = self._batch_key(digest, level)
        verdict = self.store.get(KIND_BATCH, key)
        if verdict is None:
            t0 = time.perf_counter()
            verdict = vectorize(self.codegen(module, env=env, digest=digest,
                                             opt_level=level, keep=keep))
            self.store.put(KIND_BATCH, key, verdict,
                           seconds=time.perf_counter() - t0,
                           durable=not isinstance(verdict, BatchRefusal))
        if isinstance(verdict, BatchRefusal):
            raise BatchUnsupported(verdict.reason)
        return verdict

    def batch_refused(self, digest: str,
                      opt_level: Optional[int] = None) -> bool:
        """Has :meth:`batch` already refused *digest*?  (Stats-free.)"""
        from ..interp.compile.batch import BatchRefusal
        from ..opt import resolve_opt_level

        key = self._batch_key(digest, resolve_opt_level(opt_level))
        return isinstance(self.store.peek(KIND_BATCH, key), BatchRefusal)

    # -- synthesis ---------------------------------------------------------

    def estimate(self, module: ast.Module, env, options,
                 digest: Optional[str] = None, env_tag: str = ""):
        """Cached synthesis estimate for (module text, options).

        *env_tag* discriminates call sites that estimate the same
        module under different width environments (the coalescer
        estimates transformed modules against the flat env; the hull
        uses the transformed env) — their numbers differ and must not
        alias.
        """
        from ..fabric.synth import Synthesizer

        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{options.key}\x00{env_tag}"
        return self.store.get_or_build(
            KIND_SYNTH, key, lambda: Synthesizer(options).estimate(module, env)
        )

    # -- reporting ---------------------------------------------------------

    def stats(self, kind: Optional[str] = None):
        """Aggregate (or per-kind) statistics of the backing store."""
        return self.store.stats(kind)

    def warmth(self, digest: str,
               opt_level: Optional[int] = None) -> "Dict[str, bool]":
        """Which pipeline stages are already interned for *digest*.

        A stats-free probe (:meth:`ArtifactStore.contains`) so placement
        policy can ask "would this program warm-start here?" without
        polluting the hit/miss counters the experiments report.  The
        serving layer's fleet balancer scores candidate hosts by how
        deep their store's artifact chain already reaches — a host whose
        service holds the codegen (or batch) artifact starts a
        same-digest tenant with zero rebuild; a batch refusal is no
        warmth.  The probe spans both
        tiers: an artifact persisted to the ``REPRO_ARTIFACT_DIR`` disk
        store (possibly by an earlier process) counts as warmth, which
        is exactly what makes recovered placements after a restart land
        where the artifacts already are.
        """
        from ..opt import pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        staged = f"{digest}\x00{pipeline_fingerprint(level)}"
        return {
            "opt": self.store.contains(KIND_OPT, staged),
            "codegen": self.store.contains(KIND_CODEGEN, staged),
            "batch": (self.store.contains(KIND_BATCH,
                                          self._batch_key(digest, level))
                      and not self.batch_refused(digest, level)),
        }


def default_service() -> CompilerService:
    """The service un-plumbed call sites get.

    Store selection is :func:`~repro.compiler.artifacts.resolve_store`'s
    (the single home of the ``REPRO_COMPILER_CACHE`` rule): the
    process-wide shared store when the variable is set, otherwise a
    fresh private store — i.e. no caching across calls, matching the
    pre-refactor pipeline.  The service itself is a stateless wrapper,
    so a fresh one per call is free.
    """
    return CompilerService()

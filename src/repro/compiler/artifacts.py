"""The content-addressed artifact store (paper §7).

SYNERGY's premise is one compiler shared by many runtime instances;
deterministic code generation is what makes caching *every* stage of
that compiler pay off.  An :class:`ArtifactStore` maps
``(kind, digest)`` keys to immutable stage outputs — parsed source
files, compiled programs, generated simulator code, synthesis
estimates, bitstreams — with unified hit/miss/eviction statistics and
a bounded-LRU policy so long-lived hypervisors do not grow without
bound.

Keys are *content addresses*: the digest of the deterministic text of
the stage input (source text through the printer, plus discriminators
such as :attr:`SynthOptions.key <repro.fabric.synth.SynthOptions.key>`
or the device name).  Two tenants submitting the same program —
however they constructed it — therefore share one artifact per stage.

``REPRO_COMPILER_CACHE=1`` switches the *default* store used by layers
that were not handed one explicitly from private-per-component to one
process-wide store (:func:`shared_store`), the paper's one-compiler-
many-instances deployment shape.  The environment variable is read per
call so tests can flip it with ``monkeypatch``.

``REPRO_ARTIFACT_DIR`` additionally mounts a durable
:class:`~repro.compiler.diskstore.DiskArtifactStore` *under* every
default-resolved store: ``put`` writes through to disk, a memory miss
probes disk and promotes the hit.  The disk tier survives the process,
so a fresh worker mounting a populated directory warm-starts instead of
cold-compiling (the multi-process deployment ROADMAP names).  Stores
constructed explicitly stay memory-only unless handed a ``disk=`` tier.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fabric)
    from .diskstore import DiskArtifactStore


def text_digest(text: str) -> str:
    """Stable digest of deterministic generated text — the content
    address every compiler stage is keyed by."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class KindStats:
    """Hit/miss accounting for one artifact kind (or an aggregate)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Build seconds avoided by hits: each entry records what it cost to
    #: build (modeled seconds for bitstreams, measured wall time for
    #: stages built through :meth:`ArtifactStore.get_or_build`).
    seconds_saved: float = 0.0
    #: the subset of ``hits`` served by the durable disk tier
    disk_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merged(self, other: "KindStats") -> "KindStats":
        return KindStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.evictions + other.evictions,
            self.seconds_saved + other.seconds_saved,
            self.disk_hits + other.disk_hits,
        )


class _Entry:
    __slots__ = ("value", "seconds")

    def __init__(self, value: object, seconds: float):
        self.value = value
        self.seconds = seconds


class ArtifactStore:
    """Content-addressed cache over every compiler stage.

    *max_entries* bounds the total entry count across all kinds; the
    least-recently-used entry is evicted first (and counted against its
    kind's ``evictions``).  ``None`` means unbounded.

    *disk* mounts a durable write-through tier
    (:class:`~repro.compiler.diskstore.DiskArtifactStore`): ``put``
    persists, a memory miss probes disk and promotes the hit (counted
    as a hit plus ``disk_hits``).  Disk failures are invisible here —
    the tier degrades to miss/skip, never raises.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 disk: Optional["DiskArtifactStore"] = None):
        self._entries: "OrderedDict[Tuple[str, str], _Entry]" = OrderedDict()
        self.max_entries = max_entries
        self.disk = disk
        self._stats: Dict[str, KindStats] = {}

    # -- statistics --------------------------------------------------------

    def _kind_stats(self, kind: str) -> KindStats:
        stats = self._stats.get(kind)
        if stats is None:
            stats = self._stats[kind] = KindStats()
        return stats

    def stats(self, kind: Optional[str] = None) -> KindStats:
        """Aggregate statistics (all kinds), or one kind's counters.

        The aggregate is a snapshot; per-kind objects are live and keep
        counting.
        """
        if kind is not None:
            return self._kind_stats(kind)
        total = KindStats()
        for stats in self._stats.values():
            total = total.merged(stats)
        return total

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._stats))

    # -- the store surface -------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[object]:
        """Look an artifact up; counts a hit or a miss.

        A memory miss falls through to the disk tier (when mounted);
        a verifiable disk artifact is promoted into memory and counted
        as a hit.
        """
        entry = self._entries.get((kind, key))
        stats = self._kind_stats(kind)
        if entry is None:
            if self.disk is not None:
                loaded = self.disk.load(kind, key)
                if loaded is not None:
                    value, seconds = loaded
                    self._insert(kind, key, value, seconds)
                    stats.hits += 1
                    stats.disk_hits += 1
                    stats.seconds_saved += seconds
                    return value
            stats.misses += 1
            return None
        stats.hits += 1
        stats.seconds_saved += entry.seconds
        self._entries.move_to_end((kind, key))
        return entry.value

    def peek(self, kind: str, key: str) -> Optional[object]:
        """Look up without touching statistics or LRU order (speculation)."""
        entry = self._entries.get((kind, key))
        return entry.value if entry is not None else None

    def contains(self, kind: str, key: str) -> bool:
        """Stats-free presence probe across both tiers (warmth scoring).

        The disk half is an existence check, not a verified load — a
        corrupt file can answer True here and still miss on ``get``;
        placement warmth is a heuristic, so cheap beats certain.
        """
        if (kind, key) in self._entries:
            return True
        return self.disk is not None and self.disk.contains(kind, key)

    def _insert(self, kind: str, key: str, value: object,
                seconds: float) -> None:
        self._entries[(kind, key)] = _Entry(value, seconds)
        self._entries.move_to_end((kind, key))
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                (old_kind, _), _entry = self._entries.popitem(last=False)
                self._kind_stats(old_kind).evictions += 1

    def put(self, kind: str, key: str, value: object,
            seconds: float = 0.0, durable: bool = True) -> None:
        """Insert an artifact; *seconds* is what building it cost, and
        ``durable=False`` keeps it out of the disk tier."""
        self._insert(kind, key, value, seconds)
        if durable and self.disk is not None:
            self.disk.store(kind, key, value, seconds)

    def get_or_build(self, kind: str, key: str,
                     build: Callable[[], object]) -> object:
        """Return the cached artifact or build, record and return it.

        Build wall time is measured and stored with the entry, so later
        hits accumulate honest ``seconds_saved``.
        """
        value = self.get(kind, key)
        if value is not None:
            return value
        t0 = time.perf_counter()
        value = build()
        self.put(kind, key, value, seconds=time.perf_counter() - t0)
        return value

    # -- maintenance -------------------------------------------------------

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self._entries)
        return sum(1 for (k, _) in self._entries if k == kind)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self, kind: Optional[str] = None) -> None:
        """Drop entries (of one kind, or everything) and their stats."""
        if kind is None:
            self._entries.clear()
            self._stats.clear()
            return
        for full_key in [fk for fk in self._entries if fk[0] == kind]:
            del self._entries[full_key]
        self._stats.pop(kind, None)


#: The process-wide store (one compiler, many instances).  Created
#: lazily; selected as the default by ``REPRO_COMPILER_CACHE=1``.
_SHARED: Optional[ArtifactStore] = None


def shared_store() -> ArtifactStore:
    """The process-wide artifact store, creating it on first use."""
    global _SHARED
    if _SHARED is None:
        _SHARED = ArtifactStore()
    return _SHARED


def default_disk_store() -> Optional["DiskArtifactStore"]:
    """The durable tier ``REPRO_ARTIFACT_DIR`` selects, or ``None``.

    Read per call (matching ``REPRO_COMPILER_CACHE``); each resolution
    gets its own store object, but they all address the same directory
    — the files, not the Python objects, are the shared state.
    """
    path = os.environ.get("REPRO_ARTIFACT_DIR")
    if not path:
        return None
    from .diskstore import DiskArtifactStore

    return DiskArtifactStore(path)


def resolve_store(store: Optional[ArtifactStore] = None) -> ArtifactStore:
    """Pick the store a component should use.

    An explicit *store* always wins; otherwise ``REPRO_COMPILER_CACHE``
    (truthy) selects the process-wide :func:`shared_store`, and the
    fallback is a fresh private store — component-local caching, no
    cross-component leakage.  Either default-resolved shape mounts the
    ``REPRO_ARTIFACT_DIR`` disk tier when set, so private stores still
    share warm artifacts durably (cross-component *and* cross-process)
    through the filesystem.
    """
    if store is not None:
        return store
    if os.environ.get("REPRO_COMPILER_CACHE", "") not in ("", "0"):
        resolved = shared_store()
        if resolved.disk is None:
            resolved.disk = default_disk_store()
        return resolved
    return ArtifactStore(disk=default_disk_store())

"""Content-addressed caching of pipeline artifacts.

Cache keys are built as a *chain*: the key of pass ``i`` is the hash of
(key of pass ``i-1``, pass name, pass configuration fingerprint), and
the chain is seeded from a stable fingerprint of the context's initial
artifacts (source text or dependence graph).  Because every pass is a
deterministic function of its upstream artifacts and its configuration,
the chained key identifies the pass *output* exactly — two pipelines
sharing a prefix share cached results for that prefix, even if their
tails differ (e.g. schedule-only vs schedule-and-evaluate).

Fingerprints are computed from *values*, never from object identity,
so structurally equal graphs/machines built independently hit the same
cache entries.  Scheduling passes fingerprint only the machine's
*compile-time* communication model — the paper's run-time fluctuation
(``mm``, fluctuation mode, seed) cannot change the schedule, so Table
1's three fluctuation levels share one scheduling run per seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from typing import Any, Mapping

from repro.graph.ddg import DependenceGraph
from repro.machine.comm import CommModel, FluctuatingComm, UniformComm, ZeroComm
from repro.machine.model import Machine
from repro.obs.metrics import registry as _metrics
from repro.obs.tracer import current_tracer as _tracer

from repro.pipeline.report import Diagnostic

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "default_cache",
    "fingerprint",
    "machine_compile_fingerprint",
    "machine_runtime_fingerprint",
    "set_default_cache",
    "stable_hash",
]

_SEP = "\x1f"


def stable_hash(*parts: str) -> str:
    """Deterministic short digest of string parts (blake2b, 16 hex)."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part.encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _graph_fingerprint(graph: DependenceGraph) -> str:
    nodes = _SEP.join(
        f"{n.name}:{n.latency}" for n in graph.nodes.values()
    )
    edges = _SEP.join(
        f"{e.src}>{e.dst}:{e.distance}:{e.comm}:{e.kind}"
        for e in graph.edges
    )
    return stable_hash("graph", graph.name, nodes, edges)


def fingerprint(value: Any) -> str:
    """Stable content fingerprint of a pipeline input artifact.

    Graphs and machines are fingerprinted structurally; frozen
    dataclasses (AST nodes, comm models) via their ``repr``, which is
    value-based and stable across processes.
    """
    if isinstance(value, DependenceGraph):
        return _graph_fingerprint(value)
    if isinstance(value, Machine):
        return machine_runtime_fingerprint(value)
    if isinstance(value, str):
        return stable_hash("str", value)
    if value is None or isinstance(value, (int, float, bool)):
        return stable_hash("scalar", repr(value))
    if isinstance(value, (tuple, list)):
        return stable_hash("seq", *[fingerprint(v) for v in value])
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return stable_hash("dc", repr(value))
    # last resort: repr — correct for any value-semantics object.
    return stable_hash("obj", repr(value))


def _comm_compile_fingerprint(comm: CommModel) -> str:
    # The three library models all use `edge.comm if set else k` as the
    # compile-time cost; per-edge overrides are part of the *graph*
    # fingerprint, so the default k fully determines the compile view.
    if isinstance(comm, (ZeroComm, UniformComm, FluctuatingComm)):
        return f"k={comm.max_compile_cost()}"
    return repr(comm)  # unknown model: be conservative


def machine_compile_fingerprint(machine: Machine) -> str:
    """What the *scheduler* can observe of a machine."""
    return stable_hash(
        "machine-compile",
        str(machine.processors),
        _comm_compile_fingerprint(machine.comm),
    )


def machine_runtime_fingerprint(machine: Machine) -> str:
    """The full machine, run-time fluctuation included."""
    return stable_hash(
        "machine-runtime", str(machine.processors), repr(machine.comm)
    )


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One pass's cached output: artifacts + replayable instrumentation."""

    artifacts: Mapping[str, Any]
    counters: Mapping[str, Any]
    diagnostics: tuple[Diagnostic, ...]


class ArtifactCache:
    """Bounded LRU map from chained pass keys to :class:`CacheEntry`.

    Artifacts are immutable by convention (frozen dataclasses, graphs
    never mutated after construction), so entries are shared between
    compilations without copying.

    All operations hold an internal :class:`threading.RLock`.  The
    compile paths of this package (campaign workers, serve workers,
    serial runs) each run on one thread per process, so the lock is
    for library callers that share one cache across their own threads:
    without it they would race on the ``OrderedDict`` reordering and
    the hit/miss counters.
    """

    def __init__(self, maxsize: int = 512) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        # metrics are gated on tracing being enabled: the disabled path
        # costs one attribute check on the null-tracer singleton.
        if _tracer().enabled:
            name = "artifact_cache.hits" if entry else "artifact_cache.misses"
            _metrics().counter(name).inc()
        return entry

    def get_or_compute(self, key, compute):
        """``get(key)``, computing and storing the entry on a miss.

        Returns ``(entry, fresh)`` where ``fresh`` is ``True`` when
        ``compute()`` ran.  If ``compute()`` raises, nothing is stored.
        Passes are pure functions of their chained key, so two callers
        that miss on the same key at once both compute the same entry;
        no merging is needed for correctness.
        """
        entry = self.get(key)
        if entry is not None:
            return entry, False
        entry = compute()
        self.put(key, entry)
        return entry, True

    def put(self, key: str, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def fresh(self) -> "ArtifactCache":
        """An empty cache of the same configuration, sharing no lock.

        Takes no lock itself, so a forked worker can call it on the
        copy of a cache another thread held at fork time.
        """
        return ArtifactCache(self.maxsize)


_DEFAULT_CACHE = ArtifactCache(maxsize=512)


def default_cache() -> ArtifactCache:
    """The process-wide cache shared by the compatibility wrappers."""
    return _DEFAULT_CACHE


def set_default_cache(cache: ArtifactCache) -> ArtifactCache:
    """Swap the process-wide cache; returns the previous one.

    The campaign runner installs a two-tier (memory + disk) cache in
    each worker process so sibling workers — and later runs — share
    scheduler results.  Callers that swap temporarily must restore the
    previous cache in a ``finally``.
    """
    global _DEFAULT_CACHE
    prev = _DEFAULT_CACHE
    _DEFAULT_CACHE = cache
    return prev

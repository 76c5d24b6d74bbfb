"""The persistent artifact store behind :mod:`repro.cache`.

An :class:`ArtifactCache` is a content-addressed pickle store on disk:
``<root>/<layer>/<key[:2]>/<key>.pkl``.  It is deliberately boring —
the guarantees are what matter:

- **atomic writes**: entries are written to a temp file in the target
  directory and ``os.replace``d into place, so concurrent writers
  (forked suite workers, parallel CI shards) can never expose a
  half-written entry;
- **corruption tolerance**: an unreadable, truncated, or
  garbage entry is a *miss* (with a one-line warning), never an
  exception — the bad file is discarded and recomputed;
- **bounded size**: an LRU cap (default 512 MiB, ``REPRO_CACHE_MAX_MB``);
  hits refresh an entry's timestamp.  A write costs O(1) amortized: each
  handle keeps a running byte total, seeded by one directory scan on its
  first write and then advanced by the size of each file it writes.  The
  store is re-scanned only when that total passes the cap, or when this
  handle's writes since its last scan exceed ``RESYNC_FRACTION`` of the
  headroom that scan found.  A re-scan re-syncs the total with the disk
  and, if the store is over the cap, evicts least-recently-used entries
  down to ``LOW_WATER_FRACTION`` of it, so a store sitting at its cap
  does not re-scan on every write.  Overwrites and discarded corrupt
  entries are never subtracted: the total can only overcount, which
  just brings the next re-scan forward.  One handle, however many
  threads share it, is at or under the cap whenever no write is in
  flight.  *K* handles writing one directory at once (forked suite
  workers each have their own) cannot see each other's writes between
  scans, so the directory can peak at
  ``max_bytes * (1 + (K - 1) * RESYNC_FRACTION)`` plus one entry per
  write in flight; the next re-scan brings it back under the cap;
- **observable**: per-layer hit/miss/put/eviction counters
  (:class:`StoreStats`) that the CLI surfaces and the explorer
  aggregates across workers.

Configuration: ``REPRO_CACHE_DIR`` names the root (default
``~/.cache/repro-flexcl``); setting it to the empty string disables
persistent caching entirely, as does ``--no-cache`` on the CLI.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: default cache root, under the user's cache directory
DEFAULT_CACHE_DIR = "~/.cache/repro-flexcl"
#: default LRU size cap in MiB (``REPRO_CACHE_MAX_MB`` overrides)
DEFAULT_MAX_MB = 512
#: an over-cap store is evicted down to this fraction of its cap
LOW_WATER_FRACTION = 0.9
#: a handle re-scans once its writes since its last scan exceed this
#: fraction of the headroom below the cap that scan found
RESYNC_FRACTION = 0.5


@dataclass
class StoreStats:
    """Hit/miss/put/eviction counters of one :class:`ArtifactCache`."""

    hits: Dict[str, int] = field(default_factory=dict)
    misses: Dict[str, int] = field(default_factory=dict)
    puts: Dict[str, int] = field(default_factory=dict)
    evictions: int = 0

    def _bump(self, table: Dict[str, int], layer: str, n: int = 1) -> None:
        table[layer] = table.get(layer, 0) + n

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def lookups(self) -> int:
        return self.total_hits + self.total_misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.total_hits / n if n else 0.0

    def copy(self) -> "StoreStats":
        return StoreStats(hits=dict(self.hits), misses=dict(self.misses),
                          puts=dict(self.puts), evictions=self.evictions)

    def __add__(self, other: "StoreStats") -> "StoreStats":
        out = self.copy()
        for layer, n in other.hits.items():
            out._bump(out.hits, layer, n)
        for layer, n in other.misses.items():
            out._bump(out.misses, layer, n)
        for layer, n in other.puts.items():
            out._bump(out.puts, layer, n)
        out.evictions += other.evictions
        return out

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        out = self.copy()
        for layer, n in other.hits.items():
            out._bump(out.hits, layer, -n)
        for layer, n in other.misses.items():
            out._bump(out.misses, layer, -n)
        for layer, n in other.puts.items():
            out._bump(out.puts, layer, -n)
        out.evictions -= other.evictions
        return out

    def to_dict(self) -> Dict[str, object]:
        return {"hits": dict(self.hits), "misses": dict(self.misses),
                "puts": dict(self.puts), "evictions": self.evictions,
                "hit_rate": self.hit_rate}

    def summary(self) -> str:
        layers = sorted(set(self.hits) | set(self.misses))
        per_layer = ", ".join(
            f"{layer} {self.hits.get(layer, 0)}/"
            f"{self.hits.get(layer, 0) + self.misses.get(layer, 0)}"
            for layer in layers) or "no lookups"
        return (f"disk cache: {self.total_hits}/{self.lookups} hits "
                f"({self.hit_rate:.0%}) [{per_layer}]")


class ArtifactCache:
    """Content-addressed persistent cache (see module docstring).

    Instances are safe to share between threads (the serve daemon's
    worker pool reads and writes one store concurrently): the stats
    counters, the running byte total and the eviction scan are guarded
    by a lock.  File operations themselves were already
    concurrency-safe — atomic ``os.replace`` writes and
    miss-on-unreadable reads — so the lock only serialises the
    in-process bookkeeping.
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root).expanduser()
        if max_bytes is None:
            max_bytes = _env_max_bytes()
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._lock = threading.Lock()
        #: running byte total of the store (None until the first write
        #: seeds it) and what this handle may still write before it
        #: re-scans; both guarded by ``_lock``
        self._total: Optional[int] = None
        self._budget = 0

    # -- paths ---------------------------------------------------------

    def _entry_path(self, layer: str, key: str) -> Path:
        return self.root / layer / key[:2] / f"{key}.pkl"

    # -- core operations ----------------------------------------------

    def get(self, layer: str, key: str) -> Tuple[bool, Any]:
        """Look *key* up in *layer*: ``(True, value)`` on a hit,
        ``(False, None)`` on a miss.  Never raises on bad entries."""
        path = self._entry_path(layer, key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            with self._lock:
                self.stats._bump(self.stats.misses, layer)
            return False, None
        except Exception as exc:
            # Truncated/garbage/unpicklable entry: warn, drop, miss.
            warnings.warn(
                f"repro.cache: discarding unreadable entry "
                f"{path.name} in layer {layer!r} "
                f"({type(exc).__name__}: {exc})",
                RuntimeWarning, stacklevel=2)
            self._discard(path)
            with self._lock:
                self.stats._bump(self.stats.misses, layer)
            return False, None
        with self._lock:
            self.stats._bump(self.stats.hits, layer)
        self._touch(path)
        return True, value

    def put(self, layer: str, key: str, value: Any) -> None:
        """Store *value* under (*layer*, *key*) atomically."""
        path = self._entry_path(layer, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                    size = fh.tell()
                os.replace(tmp, path)
            except BaseException:
                self._discard(Path(tmp))
                raise
        except OSError as exc:
            # A read-only or full cache dir degrades to "no caching",
            # it never takes the computation down with it.
            warnings.warn(f"repro.cache: cannot write {path} "
                          f"({exc})", RuntimeWarning, stacklevel=2)
            return
        with self._lock:
            self.stats._bump(self.stats.puts, layer)
            self._account(size)

    def get_or_compute(self, layer: str, key: str,
                       compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        found, value = self.get(layer, key)
        if found:
            return value
        value = compute()
        self.put(layer, key, value)
        return value

    # -- maintenance ---------------------------------------------------

    def entries(self):
        """Every entry file currently in the store."""
        if not self.root.is_dir():
            return
        yield from self.root.glob("*/??/*.pkl")

    def entry_count(self) -> int:
        return sum(1 for _ in self.entries())

    def usage(self) -> Tuple[Dict[str, int], int]:
        """Entries per layer and total bytes, from one walk of the store."""
        counts: Dict[str, int] = {}
        total = 0
        for _, size, path in self._scan():
            layer = path.parent.parent.name
            counts[layer] = counts.get(layer, 0) + 1
            total += size
        return counts, total

    def size_bytes(self) -> int:
        return self.usage()[1]

    def layer_counts(self) -> Dict[str, int]:
        return self.usage()[0]

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        with self._lock:
            removed = 0
            for path in list(self.entries()):
                if self._discard(path):
                    removed += 1
            self._sync(0)
        return removed

    def _scan(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` of every entry still on disk."""
        found = []
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue
            found.append((st.st_mtime, st.st_size, path))
        return found

    def _sync(self, total: int) -> None:
        self._total = total
        self._budget = int((self.max_bytes - total) * RESYNC_FRACTION)

    def _account(self, size: int) -> None:
        """Add one write of *size* bytes to the running total; re-scan
        when it passes the cap or outruns this handle's budget.  Caller
        holds the lock."""
        if self.max_bytes <= 0:
            return
        if self._total is not None:
            self._total += size
            self._budget -= size
            if self._total <= self.max_bytes and self._budget >= 0:
                return
        self._rescan()

    def _rescan(self) -> None:
        """Re-sync the running total with the disk and, when over the
        cap, evict least-recently-used entries down to the low-water
        mark.

        Runs under the lock: two concurrent writers must not race the
        same LRU scan (each would discard the other's survivors and
        double-count evictions).
        """
        entries = self._scan()
        total = sum(size for _, size, _ in entries)
        if total > self.max_bytes:
            low_water = int(self.max_bytes * LOW_WATER_FRACTION)
            for _, size, path in sorted(entries):
                if total <= low_water:
                    break
                if self._discard(path):
                    total -= size
                    self.stats.evictions += 1
        self._sync(total)

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass

    @staticmethod
    def _discard(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False


def _env_max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_MB", "")
    try:
        mb = int(raw) if raw else DEFAULT_MAX_MB
    except ValueError:
        mb = DEFAULT_MAX_MB
    return mb * 1024 * 1024


def resolve_cache_dir(cache_dir: Optional[str] = None) -> Optional[Path]:
    """The effective cache root: an explicit *cache_dir* wins, then
    ``REPRO_CACHE_DIR`` (empty string = disabled), then the default.
    Returns None when persistent caching is disabled."""
    if cache_dir is not None:
        return Path(cache_dir).expanduser() if cache_dir else None
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env).expanduser() if env else None
    return Path(DEFAULT_CACHE_DIR).expanduser()


def open_cache(cache_dir: Optional[str] = None,
               enabled: bool = True) -> Optional[ArtifactCache]:
    """The standard way to obtain the configured cache (or None when
    disabled via *enabled*, ``--no-cache``, or ``REPRO_CACHE_DIR=``)."""
    if not enabled:
        return None
    root = resolve_cache_dir(cache_dir)
    if root is None:
        return None
    return ArtifactCache(root)

"""Content-addressed artifact cache (memory + disk).

Artifacts — routing tables, profiling runs, evaluation runs — are keyed by
a :func:`repro.runtime.fingerprint.stable_hash` of everything that
determines them (network + workload + seed + config), so a repeated sweep
hits the cache instead of re-simulating, and results are *bit-identical*
to a cold computation (pickle round-trips preserve exact array bytes).

Layout on disk: ``<root>/<kind>/<hash>.pkl``, written atomically
(temp file + ``os.replace``) so concurrent workers can share one cache
directory; a corrupt or truncated entry is treated as a miss and
rewritten.  The default root is ``$MASSF_CACHE_DIR`` or ``.massf-cache/``
under the current directory.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from repro.runtime.fingerprint import stable_hash

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "default_cache",
    "DEFAULT_CACHE_DIR",
]

T = TypeVar("T")

#: Default on-disk location (relative to the working directory) when
#: ``$MASSF_CACHE_DIR`` is not set.  Excluded from version control.
DEFAULT_CACHE_DIR = ".massf-cache"


@dataclass
class CacheStats:
    """Hit/miss/store counters, per artifact kind and in total.

    Counter bumps are serialized by a lock so one :class:`ArtifactCache`
    can be shared by concurrent service jobs running in threads.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    by_kind: dict = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _bump(self, kind: str, what: str) -> None:
        with self._lock:
            setattr(self, what, getattr(self, what) + 1)
            per = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
            if what in per:
                per[what] += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another process's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        for kind, per in other.by_kind.items():
            mine = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
            for key in ("hits", "misses"):
                mine[key] += per.get(key, 0)

    def summary(self) -> str:
        per = ", ".join(
            f"{kind}: {c['hits']}h/{c['misses']}m"
            for kind, c in sorted(self.by_kind.items())
        )
        return (
            f"cache {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%})" + (f" [{per}]" if per else "")
        )


class ArtifactCache:
    """Two-tier (dict + directory) content-addressed store.

    Parameters
    ----------
    root:
        Disk directory, or ``None`` for a memory-only cache.
    memory:
        Keep a per-process dict in front of the disk tier (saves repeated
        unpickling within one process).
    """

    def __init__(
        self, root: str | Path | None = None, *, memory: bool = True
    ) -> None:
        self.root = Path(root) if root is not None else None
        self._memory: dict[tuple[str, str], object] | None = (
            {} if memory else None
        )
        self._mem_lock = threading.Lock()
        self.stats = CacheStats()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_mem_lock", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mem_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_of(*parts: object) -> str:
        """Content key for ``parts`` (stable across processes)."""
        return stable_hash(*parts)

    def _path(self, kind: str, key: str) -> Path:
        assert self.root is not None
        return self.root / kind / f"{key}.pkl"

    def lookup(self, kind: str, key: str) -> tuple[bool, object]:
        """Return ``(found, value)`` without touching the counters."""
        if self._memory is not None:
            with self._mem_lock:
                if (kind, key) in self._memory:
                    return True, self._memory[(kind, key)]
        if self.root is not None:
            path = self._path(kind, key)
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError):
                return False, None
            if self._memory is not None:
                with self._mem_lock:
                    self._memory[(kind, key)] = value
            return True, value
        return False, None

    def store(self, kind: str, key: str, value: object) -> None:
        """Insert an artifact (atomic on disk)."""
        self.stats._bump(kind, "stores")
        if self._memory is not None:
            with self._mem_lock:
                self._memory[(kind, key)] = value
        if self.root is None:
            return
        directory = self.root / kind
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(kind, key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_compute(
        self, kind: str, key_parts: tuple, compute: Callable[[], T]
    ) -> T:
        """The main entry point: fetch by content key or compute + store."""
        key = self.key_of(kind, *key_parts)
        found, value = self.lookup(kind, key)
        if found:
            self.stats._bump(kind, "hits")
            return value  # type: ignore[return-value]
        self.stats._bump(kind, "misses")
        value = compute()
        self.store(kind, key, value)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.root) if self.root else "memory-only"
        return f"<ArtifactCache {where} {self.stats.summary()}>"


def default_cache_root() -> Path:
    """``$MASSF_CACHE_DIR`` or ``.massf-cache`` under the cwd."""
    return Path(os.environ.get("MASSF_CACHE_DIR", DEFAULT_CACHE_DIR))


def default_cache() -> ArtifactCache:
    """A fresh cache on the default root (cheap: directories are lazy)."""
    return ArtifactCache(default_cache_root())


def resolve_cache(
    cache: "ArtifactCache | str | Path | bool | None",
) -> ArtifactCache | None:
    """Normalize the ``cache=`` argument accepted across the API.

    ``None``/``False`` → no caching; ``True``/``"default"`` → the default
    disk cache; a path → a disk cache there; an :class:`ArtifactCache` →
    itself.
    """
    if cache is None or cache is False:
        return None
    if cache is True or cache == "default":
        return default_cache()
    if isinstance(cache, (str, Path)):
        return ArtifactCache(cache)
    return cache

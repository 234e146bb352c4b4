"""Content-addressed on-disk cache for run results.

Cache keys combine the RunSpec's content hash with a *code-version salt* —
a digest over every ``repro`` source file — so editing any module invalidates
prior entries instead of serving results computed by different code. The
salt can be pinned via ``REPRO_CACHE_SALT`` (e.g. in CI, to share a cache
across identical checkouts without re-hashing).

An entry is a result's encoding (:func:`~repro.exec.serialize.encode_wire`),
made once by whoever ran it and written verbatim to a JSON file atomically
(temp file + rename, no ``fsync``: see DESIGN §8), fanned out by key prefix
to keep directories small. A hit is decoded once, with the cyclic GC paused.
A corrupt, unreadable or malformed entry is treated as a miss and removed.

An optional disk quota (``quota_bytes``, wired from
``ResourceBudget.cache_quota_mb`` / ``REPRO_CACHE_QUOTA_MB`` /
``repro --cache-quota-mb``) turns the store into an LRU cache: ``get``
freshens an entry's mtime, and every ``put`` garbage-collects
least-recently-used entries until the cache fits — the entry just written is
protected, so the cache never exceeds the quota after a store settles.
``gc``/``scrub`` are also exposed directly (``repro cache gc|scrub|stats``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile

# result_to_wire stays bound, unused: profilers wrap each module's binding.
from repro.exec.serialize import (  # noqa: F401
    RESULT_SCHEMA_VERSION,
    gc_paused,
    result_from_wire,
    result_to_wire,
)
from repro.exec.spec import RunSpec
from repro.pipeline.scheduler_base import RunResult

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_code_salt: str | None = None


def code_salt(refresh: bool = False) -> str:
    """Digest of the ``repro`` package sources (12 hex chars).

    Any change to any ``.py`` file under the package changes the salt and
    therefore every cache key; determinism of a cached result only holds for
    the exact code that produced it.
    """
    global _code_salt
    if _code_salt is not None and not refresh:
        return _code_salt
    pinned = os.environ.get("REPRO_CACHE_SALT")
    if pinned:
        _code_salt = pinned
        return _code_salt
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    digest.update(f"schema={RESULT_SCHEMA_VERSION}".encode())
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _code_salt = digest.hexdigest()[:12]
    return _code_salt


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    quota_evictions: int = 0
    scrubbed: int = 0


class ResultCache:
    """Content-addressed store mapping RunSpecs to serialized results.

    Args:
        root: Cache directory.
        salt: Code-version salt override (defaults to :func:`code_salt`).
        quota_bytes: Optional disk quota; when set, every :meth:`put` LRU
            garbage-collects back under it (see :meth:`gc`).
    """

    def __init__(
        self,
        root: str | os.PathLike = DEFAULT_CACHE_DIR,
        salt: str | None = None,
        quota_bytes: int | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.salt = salt if salt is not None else code_salt()
        if quota_bytes is not None and quota_bytes < 1:
            raise ValueError(f"quota_bytes must be >= 1, got {quota_bytes}")
        self.quota_bytes = quota_bytes
        self.stats = CacheStats()

    def key(self, spec: RunSpec) -> str:
        """Cache key: spec content hash + code-version salt."""
        return f"{spec.content_hash()}-{self.salt}"

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> RunResult | None:
        """The result stored for *spec*, decoded, or ``None`` on a miss."""
        path = self._path(self.key(spec))
        try:
            payload = path.read_bytes()
            with gc_paused():
                result = result_from_wire(json.loads(payload))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, OSError):
            # Corrupt, truncated, or stale-layout entry: evict it and treat
            # as a miss — the executor re-runs and re-stores, self-healing.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            self.stats.evictions += 1
            return None
        # LRU freshness: a hit makes the entry the youngest, so the quota GC
        # (which evicts by mtime) never reclaims a live entry before a stale
        # one. Best-effort — a read-only cache still serves hits.
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats.hits += 1
        return result

    def put(self, spec: RunSpec, payload: bytes) -> None:
        """Store an entry's bytes under *spec*'s content address, verbatim.

        *payload* is a result's :func:`~repro.exec.serialize.encode_wire`.
        The write is atomic (temp file + rename) but not fsynced: a worker
        or parent that dies leaves written bytes in the page cache, and an
        entry torn by a kernel crash or power loss is evicted as a miss.
        """
        path = self._path(self.key(spec))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        if self.quota_bytes is not None:
            self.gc(protect={path})

    # ------------------------------------------------------------ inspection
    def entries(self) -> list[pathlib.Path]:
        """All entry files currently in the cache."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*.json"))

    def total_bytes(self) -> int:
        """Total on-disk size of all entries."""
        return sum(path.stat().st_size for path in self.entries())

    # ------------------------------------------------------------ governance
    def gc(
        self,
        quota_bytes: int | None = None,
        protect: set[pathlib.Path] | None = None,
    ) -> int:
        """LRU garbage collection: evict oldest entries until under quota.

        Entries are ranked by (mtime, path) — ``get`` freshens mtimes, so
        recently-served entries outlive stale ones, and the path tiebreak
        keeps eviction order deterministic on filesystems with coarse
        timestamps. *protect* entries (the one a ``put`` just wrote) are
        only reclaimed as a last resort, when they alone exceed the quota —
        the cache never finishes a ``put`` over its quota. Returns how many
        entries were removed.
        """
        quota = quota_bytes if quota_bytes is not None else self.quota_bytes
        if quota is None:
            return 0
        protect = protect or set()
        records: list[tuple[int, str, pathlib.Path, int]] = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            records.append((stat.st_mtime_ns, str(path), path, stat.st_size))
            total += stat.st_size
        removed = 0
        records.sort()
        for last_resort in (False, True):
            for _, _, path, size in records:
                if total <= quota:
                    break
                if (path in protect) is not last_resort:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
            if total <= quota:
                break
        self.stats.quota_evictions += removed
        return removed

    def scrub(self) -> int:
        """Validate every entry; unlink those that cannot deserialize.

        The ``get`` path already self-heals corrupt entries lazily; ``scrub``
        does it eagerly for the whole store (``repro cache scrub``), so a
        damaged cache stops wasting quota on bytes that can only ever miss.
        Returns how many entries were removed.
        """
        removed = 0
        for path in self.entries():
            try:
                payload = path.read_bytes()
                with gc_paused():
                    result_from_wire(json.loads(payload))
            except (ValueError, OSError):
                path.unlink(missing_ok=True)
                removed += 1
        self.stats.scrubbed += removed
        return removed

    def describe(self) -> str:
        """Human-readable cache summary for the CLI."""
        entries = self.entries()
        size_mb = sum(p.stat().st_size for p in entries) / 1e6
        quota = (
            f" of {self.quota_bytes / 1e6:.1f} MB quota"
            if self.quota_bytes is not None
            else ""
        )
        return (
            f"cache {self.root}: {len(entries)} entries, {size_mb:.1f} MB{quota}, "
            f"salt {self.salt} (session: {self.stats.hits} hits, "
            f"{self.stats.misses} misses, {self.stats.stores} stores, "
            f"{self.stats.evictions} evictions, "
            f"{self.stats.quota_evictions} quota evictions, "
            f"{self.stats.scrubbed} scrubbed)"
        )

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

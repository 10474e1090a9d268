"""Persistent, content-addressed compilation cache.

The store maps a content key (:func:`repro.fingerprint.compile_key` /
:func:`~repro.fingerprint.sweep_key` — SHA-256 over the canonical
compilation inputs plus the schema version) to a pickled artifact on
disk, with a bounded in-memory LRU in front.  Because keys are content
hashes, there is no invalidation protocol: changed inputs or a bumped
:data:`~repro.fingerprint.CACHE_SCHEMA_VERSION` simply hash to keys that
were never written.

Design points:

* **One artifact per key.**  A ``result`` artifact holds three parts:
  the *reply* (the four fields a compile request answers with, built by
  :func:`repro.fingerprint.result_reply`), a CRC32 over the reply and
  result bytes, and the pickled result.  :meth:`CompilationCache.get`
  verifies the checksum and unpickles the result;
  :meth:`CompilationCache.get_reply` verifies the same checksum and
  unpickles only the reply, so a warm hit that needs no result object
  never imports the compiler.  Both verify bytes read from disk; the
  memory LRU admits only verified or freshly packed bytes.  ``sweep``
  artifacts are plain pickles.
* **Values round-trip through pickle on every read**, including
  memory-LRU hits: the LRU holds the artifact *bytes*, so every ``get``
  returns an independent object and a caller mutating its result (the
  framework stamps ``degradation_level`` on it) can never corrupt the
  cached copy.
* **Writes are atomic** (temp file + ``os.replace`` in the same
  directory), so concurrent batch-compile workers sharing one cache
  directory never observe torn artifacts; last-writer-wins races are
  harmless because identical keys hold identical content.
* **Corrupt or unreadable entries are misses**: a checksum mismatch or
  a failed unpickle deletes the file and returns ``None`` rather than
  raising into the compile path, so the slot heals on the next store.
  The checksum covers both parts, so a damaged result is never served
  behind an intact reply.
* **The cache never fails a compilation**: ``get`` and ``put`` absorb
  storage-layer failures (I/O errors, and the ``cache.get`` /
  ``cache.put`` fault points the chaos suite arms) and degrade to
  cache-off behaviour — a failed read is a miss, a failed write is a
  dropped store — counting the incident in ``CacheStats.errors``.
* **Cross-process writers are serialized per key**: ``put`` takes a
  per-key lockfile (``O_CREAT | O_EXCL`` with stale-lock takeover)
  around the temp-write + rename, so two ``batch_compile``/serve
  processes hammering the same key cannot interleave a torn write; if
  the lock cannot be acquired within a short budget the write proceeds
  anyway — the atomic rename still guarantees readers never observe a
  partial artifact, the lock only serializes the writers.
* **Observability**: every lookup updates the store's own
  :class:`CacheStats`, and — while a tracer is active, matching the
  run-granularity convention of :mod:`repro.obs` — mirrors
  ``cache.hit`` / ``cache.miss`` / ``cache.evict`` counters (labeled by
  namespace) into the process metrics registry and annotates hits on
  the innermost open span.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigError, InjectedFault
from repro.obs import spans as obs
from repro.robustness.inject import declare_fault_point, fault_point

__all__ = ["CacheStats", "CompilationCache"]

declare_fault_point("cache.get", "one artifact lookup in the disk store")
declare_fault_point("cache.put", "one artifact write in the disk store")

#: Failures the storage layer absorbs: real I/O trouble plus the chaos
#: suite's injected stand-in for it.
_STORAGE_FAILURES = (OSError, InjectedFault)

#: Seconds a writer waits for another process's per-key lock before
#: proceeding unlocked (the atomic rename keeps readers safe either way).
_LOCK_TIMEOUT = 5.0

#: Age past which a lockfile is presumed abandoned (a writer that died
#: between acquire and release) and taken over.
_LOCK_STALE_SECONDS = 30.0

#: Namespace for whole-compilation artifacts (reply + ``LCMMResult``).
RESULT_NAMESPACE = "result"
#: Namespace for DSE warm-start score maps (``{tile_key: latency}``).
SWEEP_NAMESPACE = "sweep"

#: Header of a result artifact: magic, CRC32 of everything after the
#: header, byte length of the pickled reply (0 = stored without one).
_HEADER = struct.Struct("<4sII")
_MAGIC = b"LCR7"


def _pack(value: Any, reply: Any | None) -> bytes:
    """One result artifact: header, pickled reply, pickled value."""
    value_part = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    reply_part = (
        b"" if reply is None else pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
    )
    crc = zlib.crc32(value_part, zlib.crc32(reply_part))
    return _HEADER.pack(_MAGIC, crc, len(reply_part)) + reply_part + value_part


def _verify(payload: bytes) -> None:
    """Check a result artifact read from disk.

    Raises:
        ValueError: Wrong magic or checksum mismatch (a torn or damaged
            file, or one written under another layout).
    """
    magic, crc, _ = _HEADER.unpack_from(payload)
    if magic != _MAGIC or zlib.crc32(memoryview(payload)[_HEADER.size:]) != crc:
        raise ValueError("damaged result artifact")


def _parts(payload: bytes) -> tuple[memoryview, memoryview]:
    """The (reply, value) byte ranges of a result artifact."""
    reply_len = _HEADER.unpack_from(payload)[2]
    rest = memoryview(payload)[_HEADER.size:]
    return rest[:reply_len], rest[reply_len:]


class _NoReply(Exception):
    """An intact result artifact that was stored without a reply."""


def _decode_value(payload: bytes) -> Any:
    return pickle.loads(_parts(payload)[1])


def _decode_reply(payload: bytes) -> Any:
    reply_part = _parts(payload)[0]
    if not reply_part:
        raise _NoReply
    return pickle.loads(reply_part)


@dataclass
class CacheStats:
    """Lookup outcomes of one :class:`CompilationCache` instance.

    Attributes:
        hits: Lookups answered (from memory or disk).
        misses: Lookups that found nothing usable.
        stores: Artifacts written.
        evictions: Memory-LRU entries dropped for capacity (the disk
            copy survives; a later lookup re-reads it).
        memory_hits: Subset of ``hits`` served without touching disk.
        errors: Storage-layer failures absorbed (failed reads counted
            as misses, failed writes as dropped stores).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    memory_hits: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "memory_hits": self.memory_hits,
            "errors": self.errors,
            "hit_rate": self.hit_rate,
        }


class CompilationCache:
    """Disk-backed content-addressed artifact store with a memory LRU.

    Args:
        root: Cache directory (created on first write).  ``None`` keeps
            the cache purely in memory — same semantics, nothing
            persisted, useful for tests and single-process warm-starts.
        memory_entries: Bound on the in-memory LRU (0 disables it; every
            hit then re-reads disk).

    Raises:
        repro.errors.ConfigError: On a negative ``memory_entries``.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        memory_entries: int = 256,
    ) -> None:
        if memory_entries < 0:
            raise ConfigError(
                "memory_entries must be non-negative",
                details={"memory_entries": memory_entries},
            )
        self.root = Path(root) if root is not None else None
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._lru: OrderedDict[tuple[str, str], bytes] = OrderedDict()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _path(self, key: str, namespace: str) -> Path:
        assert self.root is not None
        # Two-level fan-out keeps directories small on big zoos.
        return self.root / namespace / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str, namespace: str = RESULT_NAMESPACE) -> Any | None:
        """The artifact stored under ``key``, or ``None``.

        Every hit unpickles fresh bytes (memory or disk), so callers own
        their copy outright.  A failing storage layer (I/O error, armed
        ``cache.get`` fault) degrades to a miss — the cache must never
        fail the compilation it fronts.
        """
        decode = _decode_value if namespace == RESULT_NAMESPACE else pickle.loads
        return self._read(key, namespace, decode)

    def get_reply(self, key: str) -> Any | None:
        """The reply stored beside the result under ``key``, or ``None``.

        Verifies the same checksum as :meth:`get` and counts the lookup
        the same way, but unpickles only the reply.  ``None`` also
        answers an intact artifact stored without a reply; that read
        counts nothing, so a caller that then falls back to :meth:`get`
        (``contains`` tells the two ``None`` apart) counts one lookup.
        """
        try:
            return self._read(key, RESULT_NAMESPACE, _decode_reply)
        except _NoReply:
            return None

    def _read(
        self, key: str, namespace: str, decode: Callable[[bytes], Any]
    ) -> Any | None:
        payload = self._lru.get((namespace, key))
        from_memory = payload is not None
        if payload is None and self.root is not None:
            path = self._path(key, namespace)
            try:
                fault_point("cache.get", key=key[:12], namespace=namespace)
                payload = path.read_bytes()
            except FileNotFoundError:
                payload = None
            except _STORAGE_FAILURES:
                self.stats.errors += 1
                self._record("cache.error", namespace)
                payload = None
        if payload is not None:
            try:
                if namespace == RESULT_NAMESPACE and not from_memory:
                    # LRU bytes were verified (or packed) on the way in.
                    _verify(payload)
                value = decode(payload)
            except _NoReply:
                raise  # intact: the caller's fallback read counts it
            except Exception:
                # A torn, damaged or schema-incompatible artifact is a
                # miss; drop it so the slot heals on the next store.
                self._lru.pop((namespace, key), None)
                if self.root is not None:
                    try:
                        self._path(key, namespace).unlink()
                    except OSError:
                        pass
            else:
                self._remember(namespace, key, payload)
                self.stats.hits += 1
                if from_memory:
                    self.stats.memory_hits += 1
                self._record("cache.hit", namespace)
                obs.annotate("cache-hit", namespace=namespace, key=key[:12])
                return value
        self.stats.misses += 1
        self._record("cache.miss", namespace)
        return None

    def put(
        self,
        key: str,
        value: Any,
        namespace: str = RESULT_NAMESPACE,
        *,
        reply: Any | None = None,
    ) -> None:
        """Store ``value`` under ``key`` (atomic on disk, LRU-admitted).

        In the result namespace ``reply`` is stored beside the value for
        :meth:`get_reply`; other namespaces store the value alone.  The
        disk write is serialized against concurrent cross-process writers
        by a per-key lockfile and performed as temp-write + atomic
        rename.  A failing storage layer (I/O error, armed ``cache.put``
        fault) drops the disk copy — counted in ``CacheStats.errors`` —
        but never raises into the compile path; the in-memory LRU still
        remembers the value.
        """
        if namespace == RESULT_NAMESPACE:
            payload = _pack(value, reply)
        else:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if self.root is not None:
            path = self._path(key, namespace)
            try:
                fault_point("cache.put", key=key[:12], namespace=namespace)
                path.parent.mkdir(parents=True, exist_ok=True)
                lock = self._acquire_lock(path)
                try:
                    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
                    try:
                        with os.fdopen(fd, "wb") as handle:
                            handle.write(payload)
                        os.replace(tmp, path)
                    except BaseException:
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
                        raise
                finally:
                    self._release_lock(lock)
            except _STORAGE_FAILURES:
                self.stats.errors += 1
                self._record("cache.error", namespace)
        self._remember(namespace, key, payload)
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Per-key write lock (cross-process)
    # ------------------------------------------------------------------
    @staticmethod
    def _lock_path(path: Path) -> Path:
        return path.with_suffix(path.suffix + ".lock")

    def _acquire_lock(self, path: Path) -> Path | None:
        """Take the per-key writer lock, or give up after a short wait.

        ``O_CREAT | O_EXCL`` makes creation the atomic acquire.  A lock
        older than :data:`_LOCK_STALE_SECONDS` is presumed abandoned by a
        dead writer and taken over.  Returns the lock path on success or
        ``None`` when the budget ran out — the caller then writes
        unlocked, which the atomic rename keeps safe for readers.
        """
        lock = self._lock_path(path)
        deadline = time.monotonic() + _LOCK_TIMEOUT
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > _LOCK_STALE_SECONDS:
                    # Abandoned: remove and retry the atomic acquire
                    # (the unlink may race another takeover; the retry
                    # loop sorts the survivors out).
                    try:
                        os.unlink(lock)
                    except OSError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    return None
                time.sleep(0.002)
            else:
                with os.fdopen(fd, "w") as handle:
                    handle.write(f"{os.getpid()} {time.time():.3f}\n")
                return lock

    @staticmethod
    def _release_lock(lock: Path | None) -> None:
        if lock is not None:
            try:
                os.unlink(lock)
            except OSError:
                pass

    def contains(self, key: str, namespace: str = RESULT_NAMESPACE) -> bool:
        """Whether a lookup would hit, without counting it as one."""
        if (namespace, key) in self._lru:
            return True
        return self.root is not None and self._path(key, namespace).exists()

    # ------------------------------------------------------------------
    # Memory LRU
    # ------------------------------------------------------------------
    def _remember(self, namespace: str, key: str, payload: bytes) -> None:
        if self.memory_entries == 0:
            return
        lru = self._lru
        lru[(namespace, key)] = payload
        lru.move_to_end((namespace, key))
        while len(lru) > self.memory_entries:
            lru.popitem(last=False)
            self.stats.evictions += 1
            self._record("cache.evict", namespace)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @staticmethod
    def _record(counter: str, namespace: str) -> None:
        if not obs.enabled():
            return
        from repro.obs.metrics import registry

        registry().counter(counter).inc(namespace=namespace)

    def __repr__(self) -> str:  # pragma: no cover — debug aid
        where = str(self.root) if self.root is not None else "<memory>"
        return (
            f"CompilationCache({where!r}, entries={len(self._lru)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )

"""Content-addressed on-disk cache of experiment cell results.

Cells recur across figures — the SGX_O baseline appears in Figs. 8, 9, 10,
13 and 14, and the reliability curves of Fig. 11 recur in the scrub sweep —
so each distinct cell is computed once and reused. A cell's identity is the
SHA-256 of everything that determines its output:

* the cell kind (``run_workload`` / ``montecarlo``);
* every field of its inputs, canonicalised recursively (dataclasses, enums,
  dicts, sequences, primitives — ``repr`` for scalars, so floats keep full
  precision);
* a *code-version fingerprint*: the hash of every ``repro`` source file.
  Any change to the simulator invalidates the whole cache, which is the
  only safe rule for a model whose outputs depend on all of its code.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json``, written
atomically; the default root is ``~/.cache/synergy-repro`` (override with
``REPRO_CACHE_DIR`` or ``--no-cache`` / ``REPRO_CACHE=0`` to disable).
Each entry stores a SHA-256 digest of its payload, checked on every read:
an altered payload is detected and recomputed, never served.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from typing import Optional, Union

from repro.parallel.context import get_context
from repro.parallel.instrument import EXECUTION_STATS, ExecutionStats

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of all ``repro`` package sources (computed once per process)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for directory, _dirs, files in sorted(os.walk(package_root)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, package_root).encode())
                digest.update(b"\x00")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
                digest.update(b"\x00")
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def _canonical(value: object) -> object:
    """JSON-able canonical form of any experiment parameter."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                field.name: _canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    # Floats and anything exotic: repr keeps full precision and type info.
    return repr(value)


def cache_key(kind: str, **components: object) -> str:
    """Content address of one cell: kind + canonical inputs + code version."""
    payload = {
        "kind": kind,
        "fingerprint": code_fingerprint(),
        "components": _canonical(components),
    }
    serialised = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(serialised.encode("utf-8")).hexdigest()


def canonical_bytes(payload: object) -> bytes:
    """The canonical JSON encoding of a payload (what the digest covers).

    Round-trips through ``json`` first so a fresh in-process result and one
    read back from disk (where non-string dict keys have already been
    stringified) serialise to *identical bytes*.
    """
    normalised = json.loads(json.dumps(payload))
    return json.dumps(
        normalised, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def payload_digest(payload: object) -> str:
    """SHA-256 of :func:`canonical_bytes` — the entry's integrity check."""
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def default_cache_dir() -> str:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/synergy-repro``."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "synergy-repro"
    )


class RunCache:
    """Directory of content-addressed JSON cell results."""

    def __init__(
        self,
        root: Optional[str] = None,
        stats: Optional[ExecutionStats] = None,
    ):
        self.root = root or default_cache_dir()
        self._stats = stats if stats is not None else EXECUTION_STATS

    def path_for(self, key: str) -> str:
        """On-disk location of one entry (two-level fan-out by prefix)."""
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[object]:
        """The cached payload for ``key``, or ``None`` (counts hit/miss).

        A *corrupt* entry — the file exists but does not parse, parses to
        something without a ``payload``, or its payload no longer matches
        the stored ``digest`` — is treated as a miss, counted separately
        (``cache_corrupt``), and deleted so a writer killed mid-flight
        (or a bad disk) can never poison later runs: the caller recomputes.
        Hits are touched (mtime) so size-budgeted eviction is LRU, not FIFO.
        """
        path = self.path_for(key)
        try:
            with open(path, "r") as handle:
                raw = handle.read()
        except OSError:
            self._stats.cache_misses += 1
            return None
        try:
            entry = json.loads(raw)
            payload = entry["payload"]
            if entry["digest"] != payload_digest(payload):
                raise ValueError("payload digest mismatch")
        except (ValueError, KeyError, TypeError):
            self._stats.cache_corrupt += 1
            self._stats.cache_misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass  # lost a race with another process's cleanup
            return None
        self._stats.cache_hits += 1
        try:
            os.utime(path, None)
        except OSError:
            pass  # entry may have been evicted concurrently; hit still valid
        return payload

    def has(self, key: str) -> bool:
        """Whether an entry exists — a *silent* probe.

        The planner scans the whole unique-cell list before dispatch;
        counting those probes as hits/misses would double every counter
        the assembly phase later records, so existence checks touch
        neither the stats nor the entry's mtime. Nor do they check the
        digest: the assembly phase's :meth:`get` does, and its caller
        recomputes a bad entry.
        """
        return os.path.isfile(self.path_for(key))

    def put(self, key: str, payload: object) -> None:
        """Store one cell result (atomic rename; concurrent-writer safe).

        The entry carries the payload's digest, which :meth:`get` checks.
        An unwritable root is counted (``cache_write_errors``) and
        the caller carries on uncached.
        """
        entry = {
            "key": key,
            "fingerprint": code_fingerprint(),
            "digest": payload_digest(payload),
            "payload": payload,
        }
        path = self.path_for(key)
        temp_path = ""
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            descriptor, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            with os.fdopen(descriptor, "w") as handle:
                json.dump(entry, handle)
            os.replace(temp_path, path)
            temp_path = ""
        except OSError:
            self._stats.cache_write_errors += 1
        finally:
            if temp_path:
                with contextlib.suppress(OSError):
                    os.unlink(temp_path)

    def entries(self) -> list:
        """Every entry as ``(mtime, size_bytes, path)``, oldest first.

        Ties on mtime break on path, so the eviction order is stable across
        processes and filesystems with coarse timestamps.
        """
        found = []
        if not os.path.isdir(self.root):
            return found
        for directory, _dirs, files in os.walk(self.root):
            for name in files:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue  # deleted under us: not an entry any more
                found.append((info.st_mtime, info.st_size, path))
        found.sort(key=lambda item: (item[0], item[2]))
        return found

    def size_bytes(self) -> int:
        """Total on-disk payload size across all entries."""
        return sum(size for _mtime, size, _path in self.entries())

    def enforce_budget(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the cache fits the budget.

        Returns how many entries were removed (each counted in
        ``cache_evictions``). ``max_bytes <= 0`` means unlimited. Safe
        against concurrent writers: an entry that disappears mid-scan is
        simply skipped.
        """
        if max_bytes <= 0:
            return 0
        listing = self.entries()
        total = sum(size for _mtime, size, _path in listing)
        evicted = 0
        for _mtime, size, path in listing:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # another process evicted it first
            total -= size
            evicted += 1
            self._stats.cache_evictions += 1
        return evicted

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for directory, _dirs, files in os.walk(self.root):
            for name in files:
                if name.endswith(".json"):
                    os.unlink(os.path.join(directory, name))
                    removed += 1
        return removed

    def __len__(self) -> int:
        count = 0
        if not os.path.isdir(self.root):
            return count
        for directory, _dirs, files in os.walk(self.root):
            count += sum(1 for name in files if name.endswith(".json"))
        return count


def resolve_cache(
    cache: Union[None, bool, str, RunCache] = None
) -> Optional[RunCache]:
    """Resolve a ``cache`` argument against the execution context.

    ``None`` -> the context's policy; ``False`` -> disabled; ``True`` ->
    enabled at the context/default location; a path or :class:`RunCache`
    -> that cache.
    """
    if isinstance(cache, RunCache):
        return cache
    if isinstance(cache, str):
        return RunCache(cache)
    context = get_context()
    if cache is None:
        cache = context.cache_enabled
    if not cache:
        return None
    return RunCache(context.cache_dir)

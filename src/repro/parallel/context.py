"""Process-wide execution policy: worker count and run-cache settings.

Every fan-out point (``sim.runner.run_suite``, the Monte-Carlo shard loop)
resolves its ``jobs``/``cache`` arguments against one process-global
:class:`ExecutionContext`, so the CLI flags (``--jobs``, ``--no-cache``)
and environment overrides (``REPRO_JOBS``, ``REPRO_CACHE``,
``REPRO_CACHE_DIR``) steer every experiment without
threading parameters through each figure function.
"""

from __future__ import annotations

import contextlib
import os
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator, Optional


@dataclass(frozen=True)
class ExecutionContext:
    """How experiment cells execute in this process."""

    jobs: int = 1  #: worker processes for grid/shard fan-out
    cache_enabled: bool = True  #: consult/populate the on-disk run cache
    cache_dir: Optional[str] = None  #: None -> default location


def default_jobs() -> int:
    """The CPUs this process may run on (the ``--jobs $(nproc)`` value)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _from_env() -> ExecutionContext:
    jobs = os.environ.get("REPRO_JOBS")
    cache = os.environ.get("REPRO_CACHE", "1")
    return ExecutionContext(
        jobs=max(1, int(jobs)) if jobs else 1,
        cache_enabled=cache.lower() not in ("0", "false", "no", "off"),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    )


_CONTEXT: Optional[ExecutionContext] = None

#: Scoped override (tests, benchmarks, run_spec, the service's workers).
#: A ContextVar rather than a rebind of the global: overrides are visible
#: only to the thread (or asyncio task) that entered them, so concurrent
#: jobs with different jobs/cache settings cannot trample each other.
_OVERRIDE: "ContextVar[Optional[ExecutionContext]]" = ContextVar(
    "repro_exec_override", default=None
)


def get_context() -> ExecutionContext:
    """The active context: the innermost scoped override if any, else the
    process baseline (built from the environment on first use)."""
    override = _OVERRIDE.get()
    if override is not None:
        return override
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = _from_env()
    return _CONTEXT


@contextlib.contextmanager
def overridden(**changes: object) -> Iterator[ExecutionContext]:
    """Temporarily override context fields (tests, benchmarks, helpers).

    Thread- and task-scoped: the override is invisible outside the entering
    thread, and restoration is exception-safe and re-entrant.
    """
    token = _OVERRIDE.set(replace(get_context(), **changes))
    try:
        yield get_context()
    finally:
        _OVERRIDE.reset(token)


@contextlib.contextmanager
def applied(context: ExecutionContext) -> Iterator[ExecutionContext]:
    """Make a previously captured ``ExecutionContext`` the active one.

    The service captures ``get_context()`` on the thread that constructed
    it (where any test/CLI override *is* visible) and re-applies it on each
    worker thread, which — overrides being thread-scoped — would otherwise
    see only the process baseline.
    """
    token = _OVERRIDE.set(context)
    try:
        yield context
    finally:
        _OVERRIDE.reset(token)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """An explicit ``jobs`` argument wins; otherwise the context's."""
    if jobs is None:
        return get_context().jobs
    return max(1, int(jobs))

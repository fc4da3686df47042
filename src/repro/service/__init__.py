"""Async experiment job service.

A stdlib-only (asyncio) long-running service that wraps the harness:
clients POST :class:`~repro.harness.spec.ExperimentSpec` payloads, the
service coalesces identical concurrent submissions onto one simulation,
streams per-cell progress, and serves results from a size-budgeted
content-addressed run cache. Each unique spec runs in its own forked
child process, one slot per usable CPU by default (``--workers``
overrides the count); the parent keeps the dedup ladder and the cache.
Results are byte-identical at any slot count. See DESIGN.md ("Service
architecture").
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import (
    ACCEPTED,
    CACHED,
    COALESCED,
    Job,
    JobCancelled,
    JobManager,
    ServiceStats,
    canonical_result_bytes,
)
from repro.service.server import ExperimentService, ServiceConfig, serve
from repro.service.worker import WorkerBridge

__all__ = [
    "ACCEPTED",
    "CACHED",
    "COALESCED",
    "ExperimentService",
    "Job",
    "JobCancelled",
    "JobManager",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "WorkerBridge",
    "canonical_result_bytes",
    "serve",
]

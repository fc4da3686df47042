"""Service assembly and lifecycle.

:class:`ExperimentService` wires the pieces — :class:`JobManager`,
:class:`WorkerBridge`, the asyncio-streams HTTP layer — behind two modes:

* ``await service.start(); await service.serve_forever()`` inside an
  existing event loop (the ``repro serve`` CLI path);
* ``service.start_background()`` which spins a daemon thread with its own
  loop and returns once the socket is bound — the harness used by the
  tests and the in-process load-test mode.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from typing import Dict, Optional

from repro.parallel.context import get_context
from repro.parallel.runcache import RunCache
from repro.service.http import ServiceProtocol, handle_connection
from repro.service.jobs import JobManager, ServiceStats
from repro.service.worker import WorkerBridge


@dataclasses.dataclass
class ServiceConfig:
    """Knobs for one service instance.

    Results have one reuse tier, the run cache: a repeat of a finished spec
    revives from it, so with ``cache=False`` (or a budget smaller than one
    result) every repeat simulates again.
    """

    host: str = "127.0.0.1"
    #: 0 lets the OS pick a free port (the bound port is reported back).
    port: int = 0
    #: Default process fan-out per spec (specs may pin their own ``jobs``).
    spec_jobs: int = 1
    #: Concurrent job slots, each running its job in a forked child
    #: process; ``None`` sizes them to the usable CPUs.
    workers: Optional[int] = None
    #: On-disk run-cache budget in bytes; 0 disables eviction.
    cache_budget_bytes: int = 0
    #: Persist spec-level results to the run cache (and revive from it).
    cache: bool = True
    #: Cache root; ``None`` -> the execution context's cache dir.
    cache_dir: Optional[str] = None


class ExperimentService:
    """One job service instance: manager + worker + HTTP front end."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.stats = ServiceStats()
        run_cache: Optional[RunCache] = None
        if self.config.cache:
            root = self.config.cache_dir or get_context().cache_dir
            run_cache = RunCache(root)
        self.manager = JobManager(stats=self.stats, run_cache=run_cache)
        self.worker = WorkerBridge(
            self.manager,
            spec_jobs=self.config.spec_jobs,
            cache_budget_bytes=self.config.cache_budget_bytes,
            workers=self.config.workers,
        )
        self.protocol = ServiceProtocol(self.manager, self._extra_stats)
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._thread_loop: Optional[asyncio.AbstractEventLoop] = None
        self._main_task: Optional["asyncio.Task[None]"] = None
        self.port: int = self.config.port

    def _extra_stats(self) -> Dict[str, object]:
        return {
            "config": {
                "spec_jobs": self.config.spec_jobs,
                "workers": self.worker.workers,
                "cache_budget_bytes": self.config.cache_budget_bytes,
            }
        }

    # -- in-loop lifecycle ----------------------------------------------------

    async def start(self) -> int:
        """Bind the socket and start the worker; returns the bound port."""
        self.worker.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self.port

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await handle_connection(self.protocol, reader, writer)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("start() the service before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the socket and stop the worker loop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.worker.stop()

    # -- background-thread lifecycle -----------------------------------------

    def start_background(self, timeout_s: float = 10.0) -> int:
        """Run the service on a daemon thread; returns the bound port.

        Blocks until the socket is bound (or raises on startup failure).
        """
        if self._thread is not None:
            raise RuntimeError("service already running in background")
        ready = threading.Event()
        failure: Dict[str, BaseException] = {}

        def body() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._thread_loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # lint-ok: H301 startup failures
                # must surface in the caller's thread, whatever their type.
                failure["error"] = exc
                ready.set()
                loop.close()
                return
            self._main_task = loop.create_task(self._background_main())
            ready.set()
            try:
                loop.run_until_complete(self._main_task)
            except asyncio.CancelledError:
                pass
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=body, name="repro-service", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout_s):
            raise RuntimeError("service did not start within %.1fs" % timeout_s)
        if "error" in failure:
            self._thread = None
            raise failure["error"]
        return self.port

    async def _background_main(self) -> None:
        try:
            await self.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    def stop_background(self, timeout_s: float = 10.0) -> None:
        """Stop a background service and join its thread."""
        thread, loop = self._thread, self._thread_loop
        main_task = self._main_task
        if thread is None or loop is None or main_task is None:
            return
        # Cancel only the serve task — never in-flight connection handlers,
        # whose cancellation 3.11's asyncio.streams logs spuriously.
        loop.call_soon_threadsafe(main_task.cancel)
        thread.join(timeout_s)
        self._thread = None
        self._thread_loop = None
        self._main_task = None


async def serve(config: Optional[ServiceConfig] = None) -> None:
    """Run a service until interrupted (the ``repro serve`` entry point)."""
    service = ExperimentService(config)
    port = await service.start()
    print(
        "synergy-repro service listening on http://%s:%d"
        % (service.config.host, port),
        flush=True,
    )
    try:
        await service.serve_forever()
    finally:
        await service.stop()

"""Minimal HTTP/1.1 layer over asyncio streams.

The issue forbids both third-party frameworks and ``http.server``; what the
service needs from HTTP is small enough to do directly on
``asyncio.start_server``: parse one request (line + headers + sized body),
dispatch on method/path, write one response, close. Every connection is
``Connection: close`` — the load-test client opens a fresh connection per
call, which is also the honest way to measure submission latency.

Routes (all JSON):

====== ================================ =======================================
POST   /v1/jobs                          submit a spec -> job id + disposition
GET    /v1/jobs/<id>                     job status (state, progress, ETA)
GET    /v1/jobs/<id>/events              progress feed; ``?since=N&wait_s=S``
                                         long-polls for events past ``N``
GET    /v1/jobs/<id>/result              result bytes; ``?wait_s=S`` blocks
POST   /v1/jobs/<id>/cancel              cancel (terminates a running job)
GET    /v1/stats                         service + cache counters
GET    /v1/healthz                       liveness probe
====== ================================ =======================================
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.harness.spec import SpecError
from repro.service.jobs import CACHED, DONE, FAILED, JobManager

#: Upper bound on request bodies (specs are tiny; anything bigger is abuse).
MAX_BODY_BYTES = 1 << 20

#: Long-poll waits are clamped to keep connections bounded.
MAX_WAIT_SECONDS = 60.0

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """An error that maps directly to an HTTP response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request."""

    def __init__(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.body = body

    def json(self) -> object:
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "request body is not valid JSON")

    def query_float(self, name: str, default: float = 0.0) -> float:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise HttpError(400, "query parameter %r must be a number" % name)

    def query_int(self, name: str, default: int = 0) -> int:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(400, "query parameter %r must be an integer" % name)


Response = Tuple[int, bytes, str]


def json_response(status: int, payload: object) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return status, body, "application/json"


class ServiceProtocol:
    """Dispatches parsed requests against a :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        extra_stats: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> None:
        self.manager = manager
        self._extra_stats = extra_stats

    async def dispatch(self, request: Request) -> Response:
        parts = [part for part in request.path.split("/") if part]
        if parts[:1] != ["v1"]:
            raise HttpError(404, "unknown path %r" % request.path)
        tail = parts[1:]
        if tail == ["healthz"] and request.method == "GET":
            return json_response(200, {"ok": True})
        if tail == ["stats"] and request.method == "GET":
            return self._stats()
        if tail == ["jobs"] and request.method == "POST":
            return self._submit(request)
        if len(tail) >= 2 and tail[0] == "jobs":
            return await self._job_route(request, tail[1], tail[2:])
        raise HttpError(404, "unknown path %r" % request.path)

    def _submit(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "spec payload must be a JSON object")
        try:
            job, disposition = self.manager.submit(payload)
        except SpecError as exc:
            self.manager.stats.rejected.inc()
            raise HttpError(400, str(exc))
        status = 200 if disposition == CACHED else 202
        return json_response(
            status,
            {
                "id": job.id,
                "key": job.key,
                "disposition": disposition,
                "state": job.state,
            },
        )

    async def _job_route(
        self, request: Request, job_id: str, rest: List[str]
    ) -> Response:
        job = self.manager.get(job_id)
        if job is None:
            raise HttpError(404, "no such job %r" % job_id)
        if not rest and request.method == "GET":
            return json_response(200, job.status())
        if rest == ["cancel"] and request.method == "POST":
            self.manager.cancel(job_id)
            return json_response(
                200, {"id": job.id, "state": job.state, "cancel_requested": True}
            )
        if rest == ["events"] and request.method == "GET":
            since = max(0, request.query_int("since", 0))
            wait_s = min(MAX_WAIT_SECONDS, request.query_float("wait_s", 0.0))
            if wait_s > 0:
                await job.wait_events(since, wait_s)
            events = job.events[since:]
            return json_response(
                200,
                {
                    "id": job.id,
                    "state": job.state,
                    "since": since,
                    "next": since + len(events),
                    "events": events,
                },
            )
        if rest == ["result"] and request.method == "GET":
            wait_s = min(MAX_WAIT_SECONDS, request.query_float("wait_s", 0.0))
            if wait_s > 0:
                await job.wait_done(wait_s)
            if job.state == DONE and job.result_bytes is not None:
                return 200, job.result_bytes, "application/json"
            if job.state == FAILED:
                raise HttpError(500, job.error or "job failed")
            if job.terminal:
                raise HttpError(409, "job %s was cancelled" % job.id)
            raise HttpError(408, "job %s is %s" % (job.id, job.state))
        raise HttpError(404, "unknown path %r" % request.path)

    def _stats(self) -> Response:
        payload: Dict[str, object] = {"service": self.manager.stats.as_dict()}
        cache = self.manager.run_cache
        if cache is not None:
            payload["cache"] = {
                "root": cache.root,
                "entries": len(cache),
                "size_bytes": cache.size_bytes(),
            }
        if self._extra_stats is not None:
            payload.update(self._extra_stats())
        return json_response(200, payload)


async def handle_connection(
    protocol: ServiceProtocol,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve exactly one request on one connection, then close it."""
    try:
        try:
            request = await _read_request(reader)
        except HttpError as exc:
            await _write_response(
                writer, json_response(exc.status, {"error": exc.message})
            )
            return
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            return  # client went away or sent garbage before a full request
        try:
            response = await protocol.dispatch(request)
        except HttpError as exc:
            response = json_response(exc.status, {"error": exc.message})
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # lint-ok: H301 connection isolation — a
            # handler bug must 500 this request, not kill the accept loop.
            response = json_response(
                500, {"error": "%s: %s" % (type(exc).__name__, exc)}
            )
        await _write_response(writer, response)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already hung up; nothing left to close


async def _read_request(reader: asyncio.StreamReader) -> Request:
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("empty request")
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise HttpError(400, "malformed request line")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length > 0 else b""
    split = urlsplit(target)
    query = {
        name: values[-1]
        for name, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return Request(method.upper(), split.path, query, body)


async def _write_response(
    writer: asyncio.StreamWriter, response: Response
) -> None:
    status, body, content_type = response
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %d\r\n"
        "Connection: close\r\n"
        "\r\n" % (status, reason, content_type, len(body))
    )
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
    except (ConnectionError, OSError):
        pass  # client disconnected mid-response; nothing to salvage

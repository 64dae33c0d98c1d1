"""Stdlib-asyncio HTTP surface of the simulation server.

No third-party web framework: the container this repo targets ships
only the standard library, so the server speaks a deliberately small
slice of HTTP/1.1 over ``asyncio.start_server`` — enough for JSON
request/response bodies, Server-Sent Events, and ``curl``.

Routes::

    GET    /healthz            liveness probe
    GET    /metrics            cache, pool and job counts and the
                               ring run-time digest, each read from
                               its owner (``JobManager.stats``)
    GET    /jobs               job listing (summaries, no results)
    POST   /jobs               submit a job (JSON body -> 202 + record)
    GET    /jobs/<id>          job detail incl. result when done;
                               ``?wait=SECONDS`` long-polls for a
                               terminal state
    GET    /jobs/<id>/events   SSE stream: live per-node status
                               snapshots while running, one final
                               ``state`` event at terminal state
    DELETE /jobs/<id>          cancel (queued: dropped; running: ring
                               killed)

Submissions run on the event loop (queueing a job takes a lock and
never blocks), and a long-poll awaits the job's own future, so no
waiting client holds a thread.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ConfigError
from repro.serve.jobs import JobManager, JobRequest

#: SSE frame cadence while a job runs.
_EVENT_INTERVAL = 0.25
#: Upper bound for ?wait= long-polls.
_MAX_WAIT = 120.0
#: Largest request body the server accepts (inline netlists included).
_MAX_BODY = 8 * 1024 * 1024
#: Most header lines one request may send (as ``http.client`` allows).
_MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload) -> bytes:
    return _response(status, (json.dumps(payload) + "\n").encode())


class ServeApp:
    """One HTTP server bound to one :class:`JobManager`."""

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 8472,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.port == 0:
            self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            method, path, query, headers = await self._read_request_head(reader)
            body = await self._read_body(reader, headers)
            await self._route(method, path, query, body, writer)
        except _HttpError as exc:
            writer.write(_json_response(exc.status, {"error": exc.message}))
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request/stream
        except Exception as exc:  # noqa: BLE001 - server must survive
            try:
                writer.write(
                    _json_response(
                        500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request_head(self, reader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        path, _, raw_query = target.partition("?")
        query: dict[str, str] = {}
        if raw_query:
            for pair in raw_query.split("&"):
                key, _, value = pair.partition("=")
                if key:
                    query[key] = value
        headers: dict[str, str] = {}
        lines = 0
        while line := (await reader.readline()).decode("latin-1").strip():
            lines += 1
            if lines > _MAX_HEADERS:
                raise _HttpError(400, f"more than {_MAX_HEADERS} header lines")
            key, _, value = line.partition(":")
            headers[key.strip().lower()] = value.strip()
        return method.upper(), path, query, headers

    async def _read_body(self, reader, headers: dict[str, str]) -> bytes:
        raw = headers.get("content-length", "0") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, f"bad Content-Length {raw!r}")
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        if length == 0:
            return b""
        return await reader.readexactly(length)

    # ------------------------------------------------------------------
    async def _route(self, method, path, query, body, writer) -> None:
        if path == "/healthz" and method == "GET":
            writer.write(_json_response(200, {"ok": True}))
            return
        if path == "/metrics" and method == "GET":
            writer.write(_json_response(200, self.manager.stats()))
            return
        if path == "/jobs" and method == "GET":
            writer.write(
                _json_response(
                    200,
                    {
                        "jobs": [
                            job.to_dict(include_result=False)
                            for job in self.manager.jobs()
                        ]
                    },
                )
            )
            return
        if path == "/jobs" and method == "POST":
            await self._submit(body, writer)
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, tail = rest.partition("/")
            if tail == "" and method == "GET":
                await self._job_detail(job_id, query, writer)
                return
            if tail == "" and method == "DELETE":
                self._cancel(job_id, writer)
                return
            if tail == "events" and method == "GET":
                await self._stream_events(job_id, writer)
                return
        raise _HttpError(
            404 if method in ("GET", "POST", "DELETE") else 405,
            f"no route for {method} {path}",
        )

    # ------------------------------------------------------------------
    async def _submit(self, body: bytes, writer) -> None:
        try:
            payload = json.loads(body.decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        try:
            job = self.manager.submit(JobRequest.from_dict(payload))
        except ConfigError as exc:
            raise _HttpError(400, str(exc)) from None
        writer.write(_json_response(202, job.to_dict(include_result=False)))

    async def _job_detail(self, job_id: str, query, writer) -> None:
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        if "wait" in query:
            try:
                patience = min(float(query["wait"] or _MAX_WAIT), _MAX_WAIT)
            except ValueError:
                raise _HttpError(400, "wait must be a number") from None
            # asyncio.wait never cancels what it waits on, so a poll
            # that times out (or a client that hangs up) leaves the job
            # running; wrap_future would pass a cancel on to it.
            await asyncio.wait(
                [asyncio.wrap_future(job._future)], timeout=patience
            )
        writer.write(_json_response(200, job.to_dict()))

    def _cancel(self, job_id: str, writer) -> None:
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        changed = self.manager.cancel(job_id)
        writer.write(
            _json_response(
                200, {"id": job_id, "cancelled": changed,
                      "state": job.state.value}
            )
        )

    async def _stream_events(self, job_id: str, writer) -> None:
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"no such job: {job_id}")
        writer.write(
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n".encode("ascii")
        )
        await writer.drain()
        while True:
            snapshots = self.manager.status_snapshots(job_id)
            frame = {
                "state": job.state.value,
                "nodes": {str(n): s for n, s in sorted(snapshots.items())},
            }
            event = "state" if job.state.terminal else "status"
            writer.write(
                f"event: {event}\ndata: {json.dumps(frame)}\n\n".encode()
            )
            await writer.drain()
            if job.state.terminal:
                return
            await asyncio.sleep(_EVENT_INTERVAL)


async def run_server(
    manager: JobManager, *, host: str = "127.0.0.1", port: int = 8472
) -> None:
    """Run the server until cancelled (the CLI entry point awaits this)."""
    app = ServeApp(manager, host=host, port=port)
    await app.start()
    print(f"repro-sim serve: listening on http://{app.host}:{app.port}")
    try:
        await app.serve_forever()
    finally:
        await app.stop()

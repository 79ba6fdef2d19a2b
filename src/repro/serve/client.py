"""Bundled client for the job server — over TCP or a Unix socket.

The quickstart loop is submit → wait → fetch::

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8932")
    job = client.submit({"kind": "color", "dataset": "uniform-random"})
    done = client.wait(job["job_id"])
    rows = client.result(job["job_id"])["result"]

Unix-socket servers are addressed by path::

    client = ServeClient(socket_path="/tmp/repro-serve.sock")

The client is deliberately thin — stdlib :mod:`http.client`, one
connection per call (the server is threaded, one handler thread per
connection), and :class:`ServeError` carrying the HTTP status plus the
server's ``error`` message for anything non-2xx. :meth:`ServeClient.wait`
holds one status request open on the server (``GET /jobs/<id>?wait=S``)
until the job ends, so it learns of completion when it happens rather
than at the next poll; running out of time raises :class:`WaitTimeout`.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any
from urllib.parse import urlsplit

__all__ = ["ServeClient", "ServeError", "WaitTimeout"]


class ServeError(Exception):
    """A non-2xx response from the job server."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class WaitTimeout(TimeoutError):
    """:meth:`ServeClient.wait` reached its deadline before the job ended.

    A client-side deadline, not a transport failure: the job keeps
    running server-side, and ``state`` is the last state seen.
    """

    def __init__(self, job_id: str, state: str, timeout: float) -> None:
        super().__init__(f"job {job_id} still {state} after {timeout}s")
        self.job_id = job_id
        self.state = state
        self.timeout = timeout


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``HTTPConnection`` that dials a Unix domain socket path."""

    def __init__(self, socket_path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self._socket_path)
        except OSError:
            sock.close()
            raise
        self.sock = sock


class ServeClient:
    """Talks to one job server (see module docstring for the loop)."""

    def __init__(
        self,
        url: str | None = None,
        *,
        socket_path: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        if (url is None) == (socket_path is None):
            raise ValueError("pass exactly one of url= or socket_path=")
        self.timeout = float(timeout)
        self.socket_path = socket_path
        if url is not None:
            parts = urlsplit(url if "//" in url else f"http://{url}")
            if parts.scheme not in ("", "http"):
                raise ValueError(f"only http:// URLs are supported, got {url!r}")
            self.host = parts.hostname or "127.0.0.1"
            self.port = parts.port or 80
        else:
            self.host = self.port = None  # type: ignore[assignment]

    # -- transport ------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self.socket_path is not None:
            return _UnixHTTPConnection(self.socket_path, self.timeout)
        assert self.host is not None and self.port is not None
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def request(self, method: str, path: str, body: Any = None) -> Any:
        """One JSON round-trip; raises :class:`ServeError` on non-2xx."""
        conn = self._connect()
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                doc = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                doc = {"error": raw.decode(errors="replace")}
            if resp.status >= 400:
                raise ServeError(resp.status, str(doc.get("error", raw)))
            return doc
        finally:
            conn.close()

    # -- endpoints ------------------------------------------------------

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Submit a job spec; the returned view includes ``deduped``."""
        return self.request("POST", "/jobs", spec)

    def job(self, job_id: str) -> dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request("POST", f"/jobs/{job_id}/cancel")

    def restart(self, job_id: str) -> dict[str, Any]:
        return self.request("POST", f"/jobs/{job_id}/restart")

    def jobs(self, *, state: str | None = None, limit: int = 50) -> list[dict]:
        path = f"/jobs?limit={limit}"
        if state:
            path += f"&state={state}"
        return self.request("GET", path)["jobs"]

    def health(self) -> dict[str, Any]:
        return self.request("GET", "/health")

    def metrics(self) -> dict[str, Any]:
        return self.request("GET", "/metrics")

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll_s: float = 0.2
    ) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns its view.

        Each status request asks the server to hold it until the job
        ends, for at most the time left, half the socket timeout (so a
        held request never trips it) and the server's cap. A server
        that answers non-terminal before that without holding (one that
        predates ``?wait=``) is asked again after ``poll_s``, so the loop
        never spins. Raises :class:`WaitTimeout` if the deadline passes
        first (the job keeps running server-side; this only stops the
        waiting).
        """
        from ..store.db import TERMINAL_JOB_STATES
        from .app import MAX_WAIT_S

        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            hold = round(max(0.0, min(left, self.timeout / 2, MAX_WAIT_S)), 3)
            sent = time.monotonic()
            view = self.request("GET", f"/jobs/{job_id}?wait={hold}")
            if view["state"] in TERMINAL_JOB_STATES:
                return view
            now = time.monotonic()
            if now >= deadline:
                raise WaitTimeout(job_id, view["state"], timeout)
            if now - sent < hold:
                time.sleep(min(poll_s, deadline - now))

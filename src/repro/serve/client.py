"""Blocking client for the analysis daemon.

One :class:`ServeClient` is one socket connection issuing sequential
JSON-RPC calls; open several clients for concurrency (the daemon
multiplexes connections).  The high-level helpers mirror the CLI verbs:

    with ServeClient(socket_path=path) as client:
        job = client.submit({"kind": "name", "name": "kocher_01"})
        report, cache = client.wait(job["job"])

``wait`` pages through the job's streaming progress events with
*held* ``status`` calls: the daemon answers each one when the job has
something new (an event, or its final state), so the client never
sleeps and learns of the result one round trip after the job ends.
Each event is handed to an optional callback as it arrives.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from ..api.report import Report
from . import protocol
from .protocol import ServeError

__all__ = ["ServeClient", "ServeError", "ServeStats"]


@dataclass(frozen=True)
class ServeStats(Mapping):
    """The daemon's ``stats`` reply with the lifetime fields typed.

    Mapping-compatible with the raw reply dict (``stats["pool"]``,
    ``stats.get("jobs")`` keep working), plus typed accessors for the
    fields every monitoring consumer wants: when the daemon started
    (``started_at``, epoch seconds) and how long it has been up
    (``uptime_s``).  Older daemons that only report ``uptime`` still
    populate ``uptime_s``; their ``started_at`` is reconstructed from
    the reply's arrival time.
    """

    raw: Dict[str, Any] = field(default_factory=dict)
    started_at: float = 0.0
    uptime_s: float = 0.0

    @classmethod
    def from_reply(cls, reply: Mapping[str, Any]) -> "ServeStats":
        raw = dict(reply)
        uptime = float(raw.get("uptime_s", raw.get("uptime", 0.0)))
        started = raw.get("started_at")
        if started is None:
            started = time.time() - uptime
        return cls(raw=raw, started_at=float(started), uptime_s=uptime)

    def __getitem__(self, key: str) -> Any:
        return self.raw[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.raw)

    def __len__(self) -> int:
        return len(self.raw)

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.raw)


class ServeClient:
    """A connected daemon client (context manager)."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: Optional[int] = None,
                 timeout: float = 600.0):
        if socket_path is None and host is None:
            from .server import default_socket_path
            socket_path = default_socket_path()
        self.socket_path = socket_path
        self.host, self.port = host, port
        self.timeout = timeout
        self._seq = 0
        try:
            if socket_path is not None:
                self._sock = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
                self._sock.settimeout(timeout)
                self._sock.connect(socket_path)
            else:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout)
        except OSError as exc:
            where = socket_path if socket_path is not None \
                else f"{host}:{port}"
            raise ConnectionError(
                f"cannot reach analysis daemon at {where}: {exc} "
                f"(is `repro serve` running?)") from exc
        self._file = self._sock.makefile("rb")

    # -- transport -----------------------------------------------------------

    def call(self, method: str, **params: Any) -> Dict[str, Any]:
        """One round-trip; raises :class:`ServeError` on error replies."""
        self._seq += 1
        frame = protocol.request(self._seq, method, params or None)
        self._sock.sendall(protocol.encode(frame))
        line = self._file.readline(protocol.MAX_LINE)
        if not line:
            raise ConnectionError("daemon closed the connection")
        msg = protocol.decode(line)
        if "error" in msg:
            error = msg["error"]
            raise ServeError(error.get("code", protocol.INTERNAL_ERROR),
                             error.get("message", "unknown error"),
                             error.get("data"))
        return msg.get("result", {})

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def submit(self, target: Mapping[str, Any],
               analysis: str = "pitchfork",
               options: Optional[Mapping[str, Any]] = None
               ) -> Dict[str, Any]:
        return self.call("submit", target=dict(target), analysis=analysis,
                         options=dict(options or {}))

    def status(self, job_id: str, since: int = 0,
               wait: Optional[float] = None) -> Dict[str, Any]:
        """The job's state and its events from ``since`` on.

        With ``wait`` (seconds) the daemon holds the reply until the job
        has events past ``since`` or has settled, or the wait (capped at
        :data:`~repro.serve.protocol.MAX_HOLD`) runs out.  A daemon too
        old to hold raises :class:`ServeError` instead of answering at
        once, so a waiting loop can never spin on it.
        """
        if wait is None:
            return self.call("status", job=job_id, since=since)
        reply = self.call("status", job=job_id, since=since, wait=wait)
        if reply.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ServeError(
                protocol.PROTOCOL_MISMATCH,
                f"daemon speaks protocol {reply.get('protocol', 1)}, "
                f"held status needs {protocol.PROTOCOL_VERSION} "
                f"(restart `repro serve`)")
        return reply

    def result(self, job_id: str) -> Tuple[Report, Dict[str, Any]]:
        """The finished job's :class:`Report` plus the daemon's cache
        counters (``source``/``memory_hits``/``store_hits``/…)."""
        result = self.call("result", job=job_id)
        return Report.from_dict(result["report"]), result.get("cache", {})

    def result_dict(self, job_id: str) -> Dict[str, Any]:
        """The raw result payload (pristine report dict + cache)."""
        return self.call("result", job=job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.call("cancel", job=job_id)

    def stats(self) -> ServeStats:
        """Daemon stats, mapping-compatible with the raw reply and with
        ``started_at``/``uptime_s`` typed (see :class:`ServeStats`)."""
        return ServeStats.from_reply(self.call("stats"))

    def metrics(self, render: bool = False) -> Dict[str, Any]:
        """The daemon's aggregated metrics registry
        (``{"metrics": {counters, gauges, histograms}, "interval"}``;
        ``render=True`` adds a flat text exposition)."""
        return self.call("metrics", render=render)

    def results(self, limit: int = 50) -> Dict[str, Any]:
        return self.call("results", limit=limit)

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self.call("shutdown", drain=drain)

    # -- conveniences --------------------------------------------------------

    def wait(self, job_id: str, timeout: Optional[float] = None,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None
             ) -> Tuple[Report, Dict[str, Any]]:
        """Wait until the job settles; return (report, cache counters).

        Each round is one held ``status``, answered as soon as the job
        has new events or settles.  Streams progress: each new event is
        passed to ``on_event`` as it arrives.  Raises
        :class:`ServeError` for failed/cancelled jobs and
        ``TimeoutError`` on ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        # Hold each status well inside the socket timeout.
        cap = protocol.MAX_HOLD if self.timeout is None \
            else min(protocol.MAX_HOLD, self.timeout / 2)
        cursor = 0
        while True:
            hold = cap if deadline is None \
                else max(0.0, min(cap, deadline - time.monotonic()))
            status = self.status(job_id, since=cursor, wait=hold)
            if on_event is not None:
                for event in status.get("events", ()):
                    on_event(event)
            cursor = status.get("next_cursor", cursor)
            if status["state"] not in ("queued", "running"):
                return self.result(job_id)
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout}s")

    def submit_and_wait(self, target: Mapping[str, Any],
                        analysis: str = "pitchfork",
                        options: Optional[Mapping[str, Any]] = None,
                        timeout: Optional[float] = None,
                        on_event: Optional[Callable[[Dict[str, Any]], None]]
                        = None) -> Tuple[Report, Dict[str, Any]]:
        job = self.submit(target, analysis=analysis, options=options)
        return self.wait(job["job"], timeout=timeout, on_event=on_event)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.socket_path or f"{self.host}:{self.port}"
        return f"ServeClient({where!r})"

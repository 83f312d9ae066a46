"""Held ``status`` replies and a clean daemon shutdown.

A ``status`` with ``wait`` is answered when the job has new events or
settles, so ``ServeClient.wait`` needs no timer: these tests pin that it
never sleeps, that a held reply comes as soon as the job settles (not
when the hold runs out), that client timeouts still fire on time, that
bad ``wait`` and ``since`` values are clean errors, and that a reply
from a daemon which cannot hold is refused rather than spun on.  The
last test stops a subprocess daemon with one idle and one held
connection open and checks that its log stays free of tracebacks.
"""

import os
import subprocess
import sys
import threading
import time
import types

import pytest

import repro
from repro.api import Project
from repro.serve import (ServeClient, ServeError, protocol, start_in_thread,
                         strip_volatile)
from repro.serve import client as client_module

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")

#: A target that runs for a second or more (truncated by max_paths).
SLOW = {"kind": "name", "name": "donna-c"}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hold")
    handle = start_in_thread(socket_path=str(tmp / "daemon.sock"),
                             workers=1)
    yield handle
    handle.stop()


@pytest.fixture()
def client(daemon):
    with ServeClient(socket_path=daemon.server.socket_path) as c:
        yield c


def test_wait_never_sleeps(client, monkeypatch):
    def no_sleep(_seconds):
        raise AssertionError("ServeClient.wait slept")

    monkeypatch.setattr(client_module, "time", types.SimpleNamespace(
        monotonic=time.monotonic, time=time.time, sleep=no_sleep))
    report, cache = client.submit_and_wait(
        {"kind": "name", "name": "kocher_07"}, options={"bound": 21})
    assert cache["source"] == "computed"
    direct = Project.from_litmus("kocher_07").run("pitchfork", bound=21)
    assert strip_volatile(report.to_dict()) \
        == strip_volatile(direct.to_dict())


def test_held_status_returns_when_the_job_settles(client):
    job = client.submit(SLOW, options={"bound": 16, "max_paths": 1500})
    assert job["state"] in ("queued", "running")
    t0 = time.monotonic()
    cursor, holds = 0, 0
    while True:
        start = time.monotonic()
        status = client.status(job["job"], since=cursor,
                               wait=protocol.MAX_HOLD)
        assert time.monotonic() - start < protocol.MAX_HOLD / 2
        holds += 1
        cursor = status["next_cursor"]
        if status["state"] not in ("queued", "running"):
            break
    assert status["state"] == "done"
    assert status["protocol"] == protocol.PROTOCOL_VERSION
    # One reply per event at most (queued, running, done): no spinning.
    assert holds <= 3
    assert time.monotonic() - t0 < protocol.MAX_HOLD / 2


def test_wait_timeout_fires_on_time(client):
    job = client.submit(SLOW, options={"bound": 16, "max_paths": 4000})
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        client.wait(job["job"], timeout=0.2)
    assert time.monotonic() - start < 5.0


def test_held_status_errors(client):
    with pytest.raises(ServeError) as err:
        client.status("job-999999", wait=1.0)
    assert err.value.code == protocol.UNKNOWN_JOB
    job = client.submit({"kind": "name", "name": "kocher_01"})["job"]
    for bad in (-1, "soon", True, [1]):
        with pytest.raises(ServeError) as err:
            client.call("status", job=job, wait=bad)
        assert err.value.code == protocol.INVALID_PARAMS, bad
    # A negative cursor would re-deliver old events and never hold.
    for bad in (-1, 1.5, "0", None):
        with pytest.raises(ServeError) as err:
            client.call("status", job=job, since=bad, wait=1.0)
        assert err.value.code == protocol.INVALID_PARAMS, bad


def test_old_daemon_reply_is_refused_not_spun_on(client, monkeypatch):
    """A daemon that ignores ``wait`` answers at once and without a
    protocol version; ``wait`` raises instead of looping on it."""
    calls = []

    def old_call(method, **params):
        calls.append(method)
        return {"job": params["job"], "state": "running", "events": [],
                "next_cursor": 0}

    monkeypatch.setattr(client, "call", old_call)
    with pytest.raises(ServeError) as err:
        client.wait("job-1")
    assert err.value.code == protocol.PROTOCOL_MISMATCH
    assert calls == ["status"]


def test_shutdown_with_open_connections_logs_no_traceback(tmp_path):
    """Stopping a daemon with one idle and one held connection open ends
    both cleanly: the held client gets a reply (or a clean
    ``ConnectionError``), never a hang, and the log has no traceback."""
    sock = str(tmp_path / "d.sock")
    log_path = tmp_path / "daemon.log"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--workers", "1"],
            env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock):
            assert proc.poll() is None, log_path.read_text()
            assert time.monotonic() < deadline, "daemon never listened"
            time.sleep(0.05)
        idle = ServeClient(socket_path=sock, timeout=60)
        idle.ping()
        held = ServeClient(socket_path=sock, timeout=60)
        job = held.submit(SLOW, options={"bound": 16, "max_paths": 2000})
        cursor = held.status(job["job"])["next_cursor"]
        outcome = []

        def hold():
            try:
                outcome.append(held.status(job["job"], since=cursor,
                                           wait=protocol.MAX_HOLD))
            except ConnectionError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=hold, daemon=True)
        thread.start()
        with ServeClient(socket_path=sock, timeout=60) as stopper:
            stopper.shutdown(drain=True)
        assert proc.wait(timeout=60) == 0
        thread.join(timeout=30)
        assert not thread.is_alive(), "held status never answered"
        assert len(outcome) == 1
        if isinstance(outcome[0], dict):
            assert outcome[0]["job"] == job["job"]
        idle.close()
        held.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    log = log_path.read_text()
    assert "Traceback" not in log, log

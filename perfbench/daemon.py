"""A ``repro serve`` daemon in its own process group, always torn down.

The daemon runs as ``python -m repro serve --workers 2`` in a new
session, so it and its pool workers share one process group that
:meth:`Daemon.stop` can kill whatever state the daemon is in.  The
socket lives under the run's scratch directory, addressed relative to
the checkout root to stay under the Unix socket path limit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Optional

WORKERS = 2
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0


class Daemon:
    def __init__(self, root: str, scratch: str, store: str):
        self.root = root
        self.dir = tempfile.mkdtemp(prefix="d", dir=scratch)
        self.socket = os.path.relpath(os.path.join(self.dir, "s"), root)
        self.store = store
        self.proc: Optional[subprocess.Popen] = None
        self.log_path = os.path.join(self.dir, "daemon.log")

    def start(self):
        """Spawn the daemon and return a connected client once it
        answers a ping."""
        from repro.serve import ServeClient, ServeError
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(self.root, "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", self.socket, "--store", self.store,
                 "--workers", str(WORKERS)],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True)
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}"
                                   f" before ready: {self._log_tail()}")
            if os.path.exists(os.path.join(self.root, self.socket)):
                try:
                    client = ServeClient(socket_path=self.socket,
                                         timeout=300.0)
                except ConnectionError:
                    pass
                else:
                    try:
                        client.ping()
                        return client
                    except (ConnectionError, OSError, ServeError):
                        client.close()
            if time.monotonic() > deadline:
                raise RuntimeError("daemon not ready after "
                                   f"{READY_TIMEOUT:g}s: {self._log_tail()}")
            time.sleep(0.01)

    def stop(self) -> Optional[float]:
        """Shut the daemon down (drain, then signals), reap it, kill any
        straggler in its process group and remove its directory.
        Returns the peak RSS in MB of the daemon and its reaped workers,
        or None if it never started."""
        proc, self.proc = self.proc, None
        if proc is None:
            self._cleanup()
            return None
        peak = None
        try:
            if proc.poll() is None:
                self._request_shutdown()
                peak = self._reap(proc)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if proc.returncode is None:
                proc.wait()
            self._cleanup()
        return peak

    def _request_shutdown(self) -> None:
        from repro.serve import ServeClient, ServeError
        try:
            with ServeClient(socket_path=self.socket, timeout=10.0) as c:
                c.shutdown(drain=True)
        except (ConnectionError, OSError, ServeError):
            pass

    def _reap(self, proc: subprocess.Popen) -> Optional[float]:
        """Wait for the daemon, escalating to SIGTERM then SIGKILL on
        its group; returns its peak RSS (ru_maxrss covers the reaped
        pool workers too)."""
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + STOP_TIMEOUT
            while time.monotonic() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid == proc.pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return usage.ru_maxrss / 1024.0
                time.sleep(0.01)
        return None

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as fh:
                return fh.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def _cleanup(self) -> None:
        import shutil
        shutil.rmtree(self.dir, ignore_errors=True)

"""One set-up of a workload, timed by the runner from outside.

Starts as a fresh interpreter, imports the program, builds the
workload's inputs from the seed and, for ``serve-mixed``, starts a
daemon and waits until it answers.  Prints ``ready`` at that point, then
tears down.  Usage: ``probe.py <workload> <seed> <scratch-dir>``.
"""

import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = workloads.make(name, ROOT, scratch)
    workload.build(seed)
    if name != "serve-mixed":
        print("ready", flush=True)
        return 0
    from daemon import Daemon
    store = tempfile.mkdtemp(prefix="store-", dir=scratch)
    daemon = Daemon(ROOT, scratch, store)
    try:
        daemon.start().close()
        print("ready", flush=True)
    finally:
        daemon.stop()
        shutil.rmtree(store, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

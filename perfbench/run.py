"""The repository benchmark: one runner, named workloads, end-to-end
metrics from untraced passes and per-layer metrics from a traced pass.

    python3 perfbench/run.py --workload table2-paper --seed 1 \\
        --seconds 40 --trace 0

Prints a summary, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1 when a
verdict is wrong, incomplete or errored, or when a deterministic counter
differs between passes; exits 2 when the program cannot be found.  A
record of the run (environment, sample counts, failing targets,
counters) is written under ``.perfbench/`` in the checkout.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

from stats import failed_share, median, tail  # noqa: E402

#: Set-up probes per run, spread over it.
SETUP_PROBES = 7
PROBE_TIMEOUT = 120.0

#: Per-layer metrics that must repeat exactly between passes.
DETERMINISTIC = (
    "pitchfork.paths", "engine.step.calls", "engine.trial.calls",
    "core.step.calls", "engine.frontier.pops", "engine.por.skipped",
    "engine.subsume.probes", "engine.subsume.hits", "sps.calls",
    "sps.steps", "serve.computed", "serve.memory_hits",
    "serve.store_hits", "serve.store.writes")


def units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def probe_setup(workload: str, seed: int, scratch: str) -> float:
    """Seconds from spawning a fresh interpreter until the workload is
    ready (imports, inputs built, daemon answering)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload,
         str(seed), scratch], stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            # SIGTERM first: a serve-mixed probe stops its daemon.
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return ready


def timed_passes(run_pass, corpus, seconds: float, probe):
    """Passes until the next one would end past ``seconds``, with the
    set-up probes spread evenly over the same time, so that probes and
    passes sample the same stretch of the host's load."""
    passes, setup = [], []
    busy = 0.0      #: seconds spent in passes
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if (len(setup) < SETUP_PROBES
                and elapsed >= len(setup) * seconds / SETUP_PROBES):
            setup.append(probe())
            continue
        if passes and elapsed + busy / len(passes) > seconds:
            break
        t = time.perf_counter()
        passes.append(run_pass(corpus))
        busy += time.perf_counter() - t
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return passes, setup


def median_timings(passes, setup: List[float], factor: float):
    """Timings of a run: medians over the whole run, times ``factor``.
    ``setup_s`` is the median probe, ``wall_s`` the median pass,
    ``verdict_p50_s`` the median over targets of each target's median
    latency, and ``verdict_tail_s`` the median over passes of each
    pass's tail over its own requests."""
    latencies: Dict[str, List[float]] = {}
    for p in passes:
        for v in p.verdicts:
            latencies.setdefault(v.name, []).append(v.latency)
    tails = [tail([v.latency for v in p.verdicts]) for p in passes]
    raw = {
        "setup_s": median(setup),
        "wall_s": median(p.wall for p in passes),
        "verdict_p50_s": median(median(lat) for lat in latencies.values()),
        "verdict_tail_s": median(t.value for t in tails),
    }
    return {name: value * factor for name, value in raw.items()}, tails


def end_to_end(passes, setup: List[float], speed):
    """End-to-end metrics of a timed run.  ``speed`` is the run's
    :class:`hostspeed.HostSpeed`, whose factor scales the timings of an
    in-process workload; it is None for ``serve-mixed``, whose time is
    mostly waits that do not scale with the CPU's speed."""
    factor = 1.0 if speed is None else speed.factor()
    metrics, tails = median_timings(passes, setup, factor)
    if speed is None:
        metrics["peak_rss_mb"] = median(p.peak_rss_mb for p in passes)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_probes": setup, "passes": len(passes),
               "pass_walls": [p.wall for p in passes],
               "verdict_p50": len(passes[0].verdicts),
               "pass_tails": [t.value for t in tails],
               "verdict_tail": {"percentile": tails[0].label,
                                "samples": tails[0].samples,
                                "beyond": tails[0].beyond}}
    if speed is not None:
        samples["host_speed"] = speed.record()
    return metrics, samples


def served_tiers(passes) -> Dict[str, Dict[str, float]]:
    """``serve-mixed`` submit latencies by the tier that answered,
    pooled over passes (in the run record, not in BENCHMARK.json)."""
    out = {}
    for tier in ("computed", "memory", "store"):
        lat = [v.latency for p in passes for v in p.verdicts
               if v.tier == tier]
        if lat:
            t = tail(lat)
            out[tier] = {"p50_ms": median(lat) * 1e3,
                         "tail_ms": t.value * 1e3, "tail": t.label,
                         "samples": t.samples, "beyond": t.beyond}
    return out


def traced_run(workload, corpus, seconds: float):
    """Untraced and traced passes in turn until ``seconds``."""
    import tracing
    t0 = time.perf_counter()
    untraced, traced, layers = [], [], []
    while True:
        untraced.append(workload.run_pass(corpus))
        recorder = tracing.SpanRecorder()
        patches = tracing.install(recorder)
        try:
            result = workload.run_pass(corpus)
        finally:
            patches.restore()
        traced.append(result)
        layers.append(tracing.layer_metrics(recorder, result.wall,
                                            result.counters))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(traced) > seconds:
            break
    recorder.write(os.path.join(OUT, f"trace-{workload.name}"))
    traced_wall = min(p.wall for p in traced)
    metrics = {name: median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_ratio"] = \
        traced_wall / min(p.wall for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    mismatched = [name for name in DETERMINISTIC
                  if len({layer[name] for layer in layers}) > 1]
    return untraced + traced, metrics, mismatched


def source_identity() -> Dict[str, str]:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        return run(args, workloads, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, workloads, scratch: str) -> int:
    workload = workloads.make(args.workload, ROOT, scratch)
    mismatched: List[str] = []
    if args.trace:
        corpus = workload.build(args.seed)
        passes, metrics, mismatched = traced_run(workload, corpus,
                                                 args.seconds)
        samples = {"passes": len(passes),
                   "traced_passes": len(passes) // 2}
    else:
        corpus = workload.build(args.seed)
        speed, run_pass = None, workload.run_pass
        if args.workload != "serve-mixed":
            import hostspeed
            speed = hostspeed.HostSpeed()
            run_pass = functools.partial(run_pass, between=speed.between)
        passes, setup = timed_passes(
            run_pass, corpus, args.seconds,
            lambda: probe_setup(args.workload, args.seed, scratch))
        metrics, samples = end_to_end(passes, setup, speed)
    counters = [p.counters for p in passes]
    if any(c != counters[0] for c in counters):
        mismatched.append("pass counters")
    verdicts = [v for p in passes for v in p.verdicts]
    share, failing = failed_share(verdicts)
    failing = sorted(set(failing))
    correct = not failing and not mismatched

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        **source_identity(),
        "samples": samples, "metrics": metrics,
        "failed_share": share, "failing": failing,
        "nondeterministic": mismatched, "counters": counters[0],
    }
    if args.workload == "serve-mixed":
        record["submit_tiers"] = served_tiers(passes)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(verdicts)} verdicts, failed_share {share:.4f}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:28} {value:.6g}")
    if "submit_tiers" in record:
        for tier, row in record["submit_tiers"].items():
            print(f"  submit {tier:9} p50 {row['p50_ms']:.2f} ms, "
                  f"{row['tail']} {row['tail_ms']:.2f} ms "
                  f"(n={row['samples']}, {row['beyond']} beyond)")
    for line in failing:
        print(f"  FAILED {line}", file=sys.stderr)
    for name in mismatched:
        print(f"  NONDETERMINISTIC {name}", file=sys.stderr)

    unit = units()
    print(json.dumps({
        "correct": correct, "attempted": len(verdicts),
        "failed": sum(not v.ok for v in verdicts),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""qwave benchmark: one command runs a named workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a qwave source tree; it imports qwave from
./src and keeps its scratch files under ./.bench_work. With --trace 0
the last stdout line is a JSON object whose metrics are the end-to-end
metrics; with --trace 1 they are the per-layer metrics of the same
workload and seed, timed from outside the library (tracer.py). The
line before it records the machine, the code, the raw wall times and
the check details.

Timed-region metrics are in seconds at a reference host speed: wall
time scaled by the host's speed measured alongside (speed.py), so that
runs of the same code agree on a host whose speed drifts. setup_s is
plain wall time.

Workloads, metrics and the reasons for them are in WORKLOADS.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters started per run to time set-up again; with the
# run's own set-up they give SETUP_SAMPLES samples, and setup_s is the
# median of their wall times. Set-up is not scaled by the host's speed
# (speed.py): it is mostly imports, whose time did not follow the
# speed kernel's.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: "setup" times set-up alone in a fresh interpreter; "wall"
    # is an untraced run without set-up samples, whose wall time and check
    # results a traced run compares with its own.
    p.add_argument("--part", choices=("all", "setup", "wall"), default="all",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_qwave(root):
    src = root / "src"
    if not (src / "qwave" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qwave sources under {src}; run from the "
                         "root of a qwave source tree")
    sys.path.insert(0, str(src))
    import qwave
    import qwave.qcli  # noqa: F401  (not imported by the package itself)
    if Path(qwave.__file__).resolve().parent != (src / "qwave").resolve():
        raise SystemExit(f"bench: imported qwave from {qwave.__file__}, "
                         f"not from {src}")


def machine_record(root):
    import mpmath
    import numpy
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "qwave").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "QWAVE_THREADS": os.environ.get("QWAVE_THREADS"),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "platform": platform.platform(),
    }


def child(args, part, root):
    """Run this script again in a fresh interpreter; return its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--part", part]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bench child ({part}) failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    import_qwave(root)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, work)
        setup_wall_s = time.perf_counter() - START
        if args.part == "setup":
            print(json.dumps({"setup_wall_s": setup_wall_s}))
            return 0

        if tracer:
            tracer.reset()
        with speed.SpeedProbe() as probe:
            t0 = time.perf_counter()
            ops, passes = workload.run(args.seconds)
            t1 = time.perf_counter()
        layers = tracer.metrics() if tracer else None
        timed_s = probe.ref_seconds(t0, t1)
        wall_s = timed_s / passes
        check_detail, correct = workload.check()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # In JSON form, so it compares equal to a child run's copy.
        check_detail = json.loads(json.dumps(check_detail, default=str))
        if args.part == "wall":
            print(json.dumps({"wall_s": wall_s, "checks": check_detail}))
            return 0

        failed = sum(not op.ok for op in ops)
        setups = [setup_wall_s]
        if tracer:
            # Tracing must not change a single output digest or value.
            untraced = child(args, "wall", root)
            correct = correct and untraced["checks"] == check_detail
            layers["trace.overhead_s"] = (wall_s - untraced["wall_s"], "s")
            metrics = layers
        else:
            setups += [child(args, "setup", root)["setup_wall_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
            if workload.LATENCY_PER == "op":
                latencies_ms = [probe.ref_seconds(op.start, op.end) * 1e3
                                for op in ops]
            else:
                latencies_ms = [wall_s * 1e3] * passes
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (wall_s, "s"),
                "ops_per_s": (len(latencies_ms) / timed_s, "1/s"),
                "op_ms_p50": (statistics.median(latencies_ms), "ms"),
                "op_ms_p95": (percentile(latencies_ms, 95), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
            }
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_record(root), "ops": len(ops),
            "passes": passes, "timed_wall_s": t1 - t0,
            "timed_ref_s": timed_s, "host_slowdown": probe.factor(),
            "setup_wall_s": setups,
            "checks": check_detail}))
        print(json.dumps({
            "correct": bool(correct), "attempted": len(ops), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's files are still there
            pass


if __name__ == "__main__":
    sys.exit(main())

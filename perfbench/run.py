"""BookLeaf benchmark: grind time, set-up and sweep throughput.

Run from the repository root::

    python3 perfbench/run.py --workload noh-serial --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 35   # all workloads

One run starts the workload in a child process (BLAS pinned to one
thread, ``src`` on the path), times a fixed numpy reference loop
before and after it, samples the child's process tree for peak memory,
and prints as its last stdout line::

    {"correct": true, "attempted": n, "failed": 0, "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) of ``BENCHMARK.json``.  The lines before it give the
environment and the sample statistics behind each figure.  See
README.md in this directory for the workloads and the metrics.

``--steadiness N`` instead runs every workload (or those named by
``--workload``) N times with seeds 1..N, each as its own process like
a single run, and prints per end-to-end metric the median, the
quartiles and the spread (quartile distance over median) against the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

#: one thread per BLAS/OpenMP pool, in this process and the workload's
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

WORKLOADS = ("noh-serial", "sod-ale-ranks2", "sweep-mixed")
#: the workload is killed past this many seconds beyond ``--seconds``,
#: so a run ends well inside the 180 s a run may take
CHILD_GRACE_S = 100
MEMORY_SAMPLE_S = 0.25


class Reference:
    """A fixed numpy triad over 4 MiB arrays, independent of the repo.
    It tells a slow host phase from a regression.  The arrays are
    allocated once, so the timings before and after a run read the
    same memory."""

    def __init__(self):
        self.b = np.arange(1 << 19, dtype=np.float64)
        self.c = np.ones(1 << 19)
        self.a = np.empty_like(self.b)

    def ms(self):
        """The fastest of five 20-pass timings, in milliseconds."""
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(20):
                np.multiply(self.c, 1.5, out=self.a)
                self.a += self.b
            times.append(time.perf_counter() - t0)
        return min(times) * 1e3


def _tree_memory_kb(session):
    """Summed resident set size of every process in ``session``.

    A page shared between processes counts once per process, so a
    forked rank's copy-on-write pages count whether or not either side
    has written them yet: the sum does not depend on when the rank's
    garbage collector happens to touch them."""
    total = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[3]) != session:
                continue
            with open(f"/proc/{entry}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            continue  # the process ended between listing and reading
    return total


class MemorySampler(threading.Thread):
    """Polls the workload's session for its peak summed memory."""

    def __init__(self, session):
        super().__init__(daemon=True)
        self.session = session
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(MEMORY_SAMPLE_S):
            self.peak_kb = max(self.peak_kb, _tree_memory_kb(self.session))


def run_workload(args):
    """One benchmark run; returns (attempted, failed, metrics), or None
    when the workload could not run."""
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    reference = Reference()
    ref_before = reference.ms()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    sampler = MemorySampler(proc.pid)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        out = ""
        print("workload timed out", file=sys.stderr)
    finally:
        # the session holds the rank processes and pool workers too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sampler.done.set()
        sampler.join()
        shutil.rmtree(workdir, ignore_errors=True)
    ref_after = reference.ms()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    doc = json.loads(lines[-1])
    if not doc["metrics"]:
        return None
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpus_visible": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": 1,
        "host.ref_ms": {"before": ref_before, "after": ref_after},
        "workload_prepare_s": doc["prepare_s"]}}))
    print(json.dumps({"samples": doc["samples"]}))
    metrics = doc["metrics"]
    if args.trace:
        metrics["host.ref_ms"] = statistics.mean((ref_before, ref_after))
    else:
        metrics["peak_rss_mb"] = sampler.peak_kb / 1024
    return doc["attempted"], doc["failed"], metrics


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def single(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("src/repro not found: run from the repository root",
              file=sys.stderr)
        return 2
    got = run_workload(args)
    if got is None:
        print("workload failed", file=sys.stderr)
        return 1
    attempted, failed, metrics = got
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


def steadiness(args):
    """Repeat each workload over seeds 1..N and report each end-to-end
    metric's spread (quartile distance over median) against its
    bound."""
    spec = load_spec()
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.steadiness + 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print(f"# {workload} seed {seed}: failed", flush=True)
                status = 1
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ref = json.loads(lines[0])["env"]["host.ref_ms"]
            if not result["correct"]:
                status = 1
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items())
                + f", host.ref_ms={ref['before']:.3g}/{ref['after']:.3g}",
                flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "within bound" if spread <= metric["bound"] else "TOO NOISY")
            print(f"{workload:15s} {metric['name']:11s} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f} "
                  f"bound={metric['bound']} {verdict}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="repeat each workload N times and report "
                             "each metric's spread against its bound")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())

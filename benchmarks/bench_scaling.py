"""Virtual-rank scaling bench — comm cost of the packed exchange.

Runs Sod at a fixed global mesh over a ladder of virtual rank counts
on both distributed backends with tracing on, and records per rung
the wall seconds, the seconds inside ``cat="comm"`` spans (halo
exchanges and the dt tree, summed over ranks), the comm bytes and
messages per step, and the parallel efficiency ``T1 / (n * Tn)`` per
backend.  The shared-memory mailbox shrink ratio
(:func:`repro.parallel.commplan.mailbox_ratio`) completes the picture.
Writes ``BENCH_scaling.json`` at the repository root so CI can track
the numbers and ``repro compare --gate-comm`` can gate the
``bytes_per_step`` leaves.

Virtual ranks time-share the host CPUs, so wall-clock does not drop
with rank count once the ladder passes ``cpus_visible`` (recorded);
efficiency is advisory there, and the comm bytes and messages are the
hardware-independent signals.

Run standalone (``python benchmarks/bench_scaling.py [--quick]``) or
through the bench harness (``pytest benchmarks/bench_scaling.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.api import RunConfig, run
from repro.parallel.commplan import compile_plans, mailbox_ratio
from repro.parallel.halo import build_subdomains
from repro.parallel.partition import partition
from repro.problems import load_problem

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_NX = 64
DEFAULT_STEPS = 40
DEFAULT_RANKS = (1, 2, 4, 8)
BACKENDS = ("threads", "processes")
PROBLEM = "sod"


def _cpus_visible() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _comm_seconds(spans) -> float:
    """Seconds inside ``cat="comm"`` spans, summed over all ranks."""
    return sum(s.dur_ns for s in spans
               if s.cat == "comm" and s.dur_ns > 0) / 1e9


def _one_run(nx: int, backend: str, nranks: int, steps: int):
    """One traced run; returns ``(wall, comm, result)``."""
    config = RunConfig(problem=PROBLEM, nx=nx, ny=nx, max_steps=steps,
                       nranks=nranks, backend=backend, trace=True)
    t0 = time.perf_counter()
    result = run(config)
    wall = time.perf_counter() - t0
    return wall, _comm_seconds(result.spans), result


def time_case(nx: int, backend: str, nranks: int, steps: int,
              repeats: int = 1) -> dict:
    """Best-of-``repeats`` traced runs of one rung: the minimum
    timings (scheduling noise only ever adds time), the
    schedule-determined counters verbatim from the last run."""
    samples = [_one_run(nx, backend, nranks, steps)
               for _ in range(max(repeats, 1))]
    walls = [s[0] for s in samples]
    result = samples[-1][2]
    total_bytes = sum(e["bytes"] for e in result.comm_per_rank)
    messages = sum(e["messages"] for e in result.comm_per_rank)
    nstep = max(result.nstep, 1)
    return {
        "backend": backend,
        "nranks": nranks,
        "steps": result.nstep,
        "samples": len(walls),
        "sample_seconds": walls,
        "wall_seconds": min(walls),
        "comm_seconds": min(s[1] for s in samples),
        "bytes_per_step": total_bytes / nstep,
        "messages_per_step": messages / nstep,
    }


def _mailbox_shrink(nx: int, nranks: int) -> dict:
    setup = load_problem(PROBLEM, nx=nx, ny=nx)
    mesh = setup.state.mesh
    subs = build_subdomains(mesh, partition(mesh, nranks, "rcb"), nranks)
    out = mailbox_ratio(subs, compile_plans(subs))
    out.update(nx=nx, nranks=nranks)
    return out


def run_matrix(nx: int = DEFAULT_NX, steps: int = DEFAULT_STEPS,
               ranks=DEFAULT_RANKS, repeats: int = 3) -> dict:
    cases = []
    for backend in BACKENDS:
        t1 = None
        for nranks in ranks:
            entry = time_case(nx, backend, nranks, steps, repeats)
            if nranks == 1:
                t1 = entry["wall_seconds"]
            entry["efficiency"] = (
                t1 / (nranks * entry["wall_seconds"]) if t1 else None
            )
            cases.append(entry)
    return {
        "bench": "commplan-scaling",
        "description": ("Sod at fixed global size over a virtual-rank "
                        "ladder; comm seconds from cat=comm spans"),
        "problem": PROBLEM,
        "nx": nx,
        "steps": steps,
        "cpus_visible": _cpus_visible(),
        "cases": cases,
        "mailbox": _mailbox_shrink(nx, 4 if 4 in ranks else max(ranks)),
    }


def write_report(report: dict,
                 path: Path = ROOT / "BENCH_scaling.json") -> None:
    path.write_text(json.dumps(report, indent=2) + "\n")


def format_report(report: dict) -> str:
    lines = [f"scaling bench: {report['problem']} nx={report['nx']}, "
             f"{report['steps']} steps, "
             f"{report['cpus_visible']} cpu(s) visible",
             f"{'backend':>10}{'ranks':>7}{'wall s':>9}{'comm s':>9}"
             f"{'B/step':>9}{'msg/step':>10}{'eff':>7}"]
    for c in report["cases"]:
        eff = f"{c['efficiency']:.2f}" if c["efficiency"] else "-"
        lines.append(
            f"{c['backend']:>10}{c['nranks']:>7}"
            f"{c['wall_seconds']:>9.3f}{c['comm_seconds']:>9.3f}"
            f"{c['bytes_per_step']:>9.0f}{c['messages_per_step']:>10.1f}"
            f"{eff:>7}"
        )
    mb = report["mailbox"]
    lines.append(
        f"mailbox shrink at {mb['nranks']} ranks: "
        f"{mb['legacy_bytes']} -> {mb['packed_bytes']} bytes "
        f"({mb['ratio']:.1f}x smaller)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# bench-harness entry point
# ----------------------------------------------------------------------
def test_scaling_matrix(results_dir):
    report = run_matrix(nx=32, steps=10, ranks=(1, 2, 4), repeats=1)
    write_report(report)
    text = format_report(report)
    (results_dir / "scaling.txt").write_text(text + "\n")
    print()
    print(text)
    assert len(report["cases"]) == len(BACKENDS) * 3
    for c in report["cases"]:
        assert c["wall_seconds"] > 0
        if c["nranks"] > 1:
            assert c["comm_seconds"] > 0
            assert c["bytes_per_step"] > 0
    # the two backends run the same schedule: identical traffic
    by_key = {(c["backend"], c["nranks"]): c for c in report["cases"]}
    for nranks in (2, 4):
        threads = by_key[("threads", nranks)]
        procs = by_key[("processes", nranks)]
        assert threads["bytes_per_step"] == procs["bytes_per_step"]
        assert threads["messages_per_step"] == procs["messages_per_step"]
    assert report["mailbox"]["ratio"] > 1.0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small mesh, short ladder (CI smoke)")
    parser.add_argument("--nx", type=int, default=None)
    parser.add_argument("--ranks", default=None,
                        help="comma-separated rank ladder")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of repeats per rung (default 5, "
                             "1 with --quick)")
    args = parser.parse_args(argv[1:])
    nx = args.nx or (32 if args.quick else DEFAULT_NX)
    if args.ranks:
        ranks = tuple(int(tok) for tok in args.ranks.split(","))
    else:
        ranks = (1, 2, 4) if args.quick else DEFAULT_RANKS
    repeats = args.repeats or (1 if args.quick else 5)
    report = run_matrix(nx=nx, steps=DEFAULT_STEPS, ranks=ranks,
                        repeats=repeats)
    write_report(report)
    print(format_report(report))
    print(f"\nwrote {ROOT / 'BENCH_scaling.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

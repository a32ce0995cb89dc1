"""The repository benchmark: seeded, oracle-checked workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload farm_narrow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the per-layer pass instead (see ``layers.py``).  The
metric names, units and workloads are those of ``BENCHMARK.json``; every
workload prints all of them, so a layer a workload never reaches reads 0.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every result equalled the oracle; ``all`` runs each workload
in its own process and exits non-zero if any of them failed.

A workload runs in a child process.  The parent makes itself the child
subreaper, so every process the workload leaves behind (the
multiprocessing resource tracker outlives the runtime's worker pool, for
one) is handed back to it on the child's exit; it waits for each, and
kills any still running after ``REAP_GRACE_S``.  The benchmark thus
returns only once every process it started has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("farm_narrow", "farm_wide", "runtime_open", "chip_flow")
#: Seconds the processes a workload left behind get to end by themselves.
REAP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import emit, meta

    if workload in ("farm_narrow", "farm_wide"):
        from perfbench import farm as module
        out = module.run(workload, seed, seconds, trace)
    elif workload == "runtime_open":
        from perfbench import runtime_open as module
        out = module.run(seed, seconds, trace)
    else:
        from perfbench import chip_flow as module
        out = module.run(seed, seconds, trace)

    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for m in wanted:
        have = out.metrics.get(m["name"])
        if have is None and trace:
            out.put(m["name"], 0.0, m["unit"], 0, "not reached on this workload")
        elif have is None:
            raise RuntimeError(f"{workload} did not measure {m['name']}")
        elif have.unit != m["unit"]:
            raise RuntimeError(
                f"{m['name']}: unit {have.unit!r}, BENCHMARK.json says {m['unit']!r}"
            )
    emit(out, meta(workload, seed, seconds, trace), [m["name"] for m in wanted])
    return 0 if out.correct else 1


def _children() -> list:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:  # ended meanwhile
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def _reap(grace_s: float) -> None:
    """Wait for every child, killing those still running after *grace_s*."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _supervise(argv: list) -> int:
    """Run this script on *argv* in a child and reap all it leaves.

    A SIGTERM kills the child and, at once, every process it leaves.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    proc = subprocess.Popen([sys.executable, __file__, *argv, "--in-process"])
    grace_s = 0.0
    try:
        status = proc.wait()
        grace_s = REAP_GRACE_S
        return status
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        _reap(grace_s)


def _run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so set-up and memory are its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--in-process", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, bool(args.trace))
    if not args.in_process:
        return _supervise(sys.argv[1:] if argv is None else list(argv))
    return _run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro.bist`` -- demo, coverage gate, and health soak.

Three subcommands:

* ``demo``       -- self-test one healthy chip and one defective chip and
  print both verdicts (the quickstart).
* ``coverage``   -- run BIST over the full modelled fault universe of an
  ``m`` x ``w`` array; print the escape list and exit non-zero if
  coverage falls below the gate (default 0.95).
* ``soak``       -- the fleet-health soak: real traffic over a farm with
  latent defects, background BIST, quarantine, and wafer healing; exits
  non-zero unless every result matched the oracle and at least one full
  quarantine + heal cycle ran.

A library error from the arguments (for example ``--m 0``) is a usage
error: exit 2, with the usage and one error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from ..errors import ReproError
from .controller import BISTController
from .defects import fault_universe, mutation_defect


def _print_report(report) -> None:
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"{report.chip}: {verdict}  "
        f"(functional={'ok' if report.functional_ok else 'FAIL'}, "
        f"timing={'ok' if report.timing_ok else 'FAIL'}, "
        f"signature={report.signature:#010x}, "
        f"golden={report.golden:#010x})"
    )
    if report.diagnosis is not None:
        d = report.diagnosis
        print(
            f"  diagnosis: cell {d.cell} "
            f"(col {d.col}, row {d.row}), first divergence at beat "
            f"{d.beat}, node {d.node}: got {d.got}, want {d.want}"
        )
    if report.characterization is not None:
        c = report.characterization
        print(
            f"  timing: worst path {c.worst_delay_ns:.1f} ns vs "
            f"{c.phase_budget_ns:.1f} ns phase budget "
            f"({c.worst_phase}); recommended beat "
            f"{c.recommended_beat_ns:.0f} ns; "
            f"settle <= {c.max_settle_passes} passes"
        )


def cmd_demo(args: argparse.Namespace) -> int:
    controller = BISTController(m=args.m, w=args.w, vectors=args.vectors)
    print(f"BIST on a {args.m}x{args.w} matcher array, "
          f"{args.vectors} LFSR vectors\n")
    _print_report(controller.run(chip_name="healthy-chip"))
    print()
    defect = mutation_defect(args.mutant, args.m, args.w)
    print(f"injecting {defect.describe()} "
          f"(the {args.mutant!r} signoff mutant):")
    _print_report(controller.run(defect=defect, chip_name="defective-chip"))
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    universe = fault_universe(args.m, args.w)
    controller = BISTController(
        m=args.m, w=args.w, vectors=args.vectors,
        fault_universe=universe,
    )
    t0 = time.perf_counter()
    escapes: List[str] = []
    by_kind: Dict[str, List[int]] = {}
    for defect in universe:
        report = controller.run(defect=defect)
        caught = not report.ok
        hit, total = by_kind.setdefault(defect.kind.value, [0, 0])
        by_kind[defect.kind.value] = [hit + (1 if caught else 0), total + 1]
        if not caught:
            escapes.append(defect.describe())
    elapsed = time.perf_counter() - t0
    coverage = 1.0 - len(escapes) / len(universe)
    print(f"fault universe: {len(universe)} faults on a "
          f"{args.m}x{args.w} array ({elapsed:.1f}s)")
    for kind in sorted(by_kind):
        hit, total = by_kind[kind]
        print(f"  {kind:<12} {hit}/{total}")
    print(f"coverage: {coverage:.3f} (gate {args.gate:.2f})")
    if escapes:
        print("escapes: " + ", ".join(escapes))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "m": args.m, "w": args.w, "vectors": args.vectors,
                    "universe": len(universe), "coverage": coverage,
                    "gate": args.gate, "escapes": escapes,
                    "by_kind": {
                        k: {"caught": v[0], "total": v[1]}
                        for k, v in sorted(by_kind.items())
                    },
                },
                fh, indent=2,
            )
        print(f"wrote {args.out}")
    return 0 if coverage >= args.gate else 1


def cmd_soak(args: argparse.Namespace) -> int:
    from .soak import run_soak

    result = run_soak(
        rounds=args.rounds, jobs_per_round=args.jobs, seed=args.seed,
        log=print,
    )
    wire = result.to_wire()
    print(
        f"\nsoak: {wire['jobs']} jobs over {wire['rounds']} rounds; "
        f"{wire['mismatches']} mismatches, "
        f"{wire['quarantines']} quarantines, {wire['heals']} heals, "
        f"{wire['bist_runs']} BIST runs; "
        f"fleet {wire['final_live']}/{wire['target_live']} live"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(wire, fh, indent=2)
        print(f"wrote {args.out}")
    print("SOAK " + ("PASS" if result.ok else "FAIL"))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bist",
        description="Gate-level built-in self-test and fleet health.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="self-test a healthy and a "
                          "defective chip")
    demo.add_argument("--m", type=int, default=2, help="array columns")
    demo.add_argument("--w", type=int, default=2, help="array rows")
    demo.add_argument("--vectors", type=int, default=16)
    demo.add_argument("--mutant", default="erc-undersized-pullup",
                      help="signoff mutant to inject")
    demo.set_defaults(func=cmd_demo)

    cov = sub.add_parser("coverage", help="BIST coverage over the fault "
                         "universe")
    cov.add_argument("--m", type=int, default=2)
    cov.add_argument("--w", type=int, default=2)
    cov.add_argument("--vectors", type=int, default=16)
    cov.add_argument("--gate", type=float, default=0.95)
    cov.add_argument("--out", default="", help="write a JSON report here")
    cov.set_defaults(func=cmd_coverage)

    soak = sub.add_parser("soak", help="traffic + chip deaths + "
                          "quarantine + healing")
    soak.add_argument("--rounds", type=int, default=4)
    soak.add_argument("--jobs", type=int, default=18,
                      help="jobs per round")
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument("--out", default="", help="write a JSON report here")
    soak.set_defaults(func=cmd_soak)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

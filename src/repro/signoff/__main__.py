"""Command-line signoff: ``python -m repro.signoff``.

Compiles the prototype -- the ``match`` chip, ``--columns`` x
``--char-bits`` -- and runs the full pipeline on it (or on one cell with
``--cell``), prints the stage summary, optionally writes the JSON report,
and exits non-zero when any error-severity finding exists -- the CI
gate.  Bad sizes are usage errors: exit 2, with the usage and one
error line on stderr."""

from __future__ import annotations

import argparse
import sys

from ..compiler.flow import compile_workload
from ..errors import ReproError
from .mutations import mutant_names, run_mutant
from .pipeline import Signoff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.signoff",
        description="Run the signoff pipeline (DRC, extraction, LVS, ERC, "
        "timing) on the prototype chip or a single cell.",
    )
    parser.add_argument(
        "--columns", type=int, default=8,
        help="pattern columns of the prototype (default 8)",
    )
    parser.add_argument(
        "--char-bits", type=int, default=2,
        help="bits per character / comparator rows (default 2)",
    )
    parser.add_argument(
        "--cell", choices=["comparator", "accumulator"],
        help="verify a single cell instead of the whole chip",
    )
    parser.add_argument(
        "--negative", action="store_true",
        help="with --cell: verify the negative twin",
    )
    parser.add_argument(
        "--mutant", choices=mutant_names(),
        help="run a seeded-defect mutant instead (demonstration)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the machine-readable report to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the text summary"
    )
    args = parser.parse_args(argv)

    signoff = Signoff()
    if args.mutant:
        mutation, report = run_mutant(args.mutant, signoff)
        if not args.quiet:
            print(f"mutant: {mutation.name} -- {mutation.description}")
    elif args.cell:
        report = signoff.run_cell(args.cell, positive=not args.negative)
    else:
        try:
            chip = compile_workload(
                "match", args.columns, char_bits=args.char_bits
            )
        except ReproError as exc:
            parser.error(str(exc))
        report = signoff.run_design(chip)

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
    if not args.quiet:
        print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

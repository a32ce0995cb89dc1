"""Command-line flow driver: ``python -m repro.compiler``.

With no arguments, compiles the acceptance matrix -- every kernel at two
sizes, one larger than the 8-cell prototype -- and prints one line per
design.  ``--kernel`` (with ``--cells`` etc.) compiles a single point
instead.  ``--signoff`` pushes each compiled design through the full
signoff pipeline and exits non-zero if any design fails; ``--verify``
runs the differential check (structural and switch-level engines against
the workload registry's batched and oracle engines) on a seeded sample job;
``--json`` archives the signoff reports for CI.  An invalid spec (for
example ``--cells 0``) is a usage error: exit 2, with the usage and one
error line on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from ..alphabet import Alphabet
from ..chip.chip import KERNELS
from ..errors import ReproError
from ..signoff.pipeline import Signoff
from .flow import compile_workload
from .verify import differential

#: The default compile matrix: every kernel at two sizes, one beyond the
#: prototype's 8 columns.
MATRIX = (
    ("match", 8, 2, 2),
    ("match", 16, 4, 2),
    ("count", 8, 2, 2),
    ("count", 12, 3, 2),
    ("inner-product", 4, 2, 2),
    ("inner-product", 6, 2, 2),
)


def _sample_job(spec):
    """A deterministic sample job for one compiled design."""
    rng = random.Random(20260808)
    if spec.kernel == "inner-product":
        top = 1 << spec.data_bits
        taps = [(i % (top - 1)) + 1 for i in range(min(spec.cells, 3))]
        stream = [rng.randrange(top) for _ in range(24)]
        return taps, stream, None
    symbols = "".join(chr(ord("A") + i) for i in range(1 << spec.char_bits))
    alphabet = Alphabet(symbols)
    pattern = symbols[: min(spec.cells, 3)]
    stream = "".join(rng.choice(symbols) for _ in range(24))
    return pattern, stream, alphabet


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler",
        description="Compile parameterized workload specs to silicon "
        "(netlist, layout, CIF) and optionally run signoff and "
        "differential verification.",
    )
    parser.add_argument(
        "--kernel", choices=KERNELS,
        help="compile a single design instead of the default matrix",
    )
    parser.add_argument(
        "--cells", type=int, default=8,
        help="with --kernel: array columns (default 8)",
    )
    parser.add_argument(
        "--char-bits", type=int, default=2,
        help="with --kernel: bits per character (default 2)",
    )
    parser.add_argument(
        "--data-bits", type=int, default=2,
        help="with --kernel: data bus width of numeric kernels (default 2)",
    )
    parser.add_argument(
        "--signoff", action="store_true",
        help="run the full signoff pipeline on every compiled design",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="differentially verify each design (structural and "
        "switch-level vs the workload batched and oracle engines)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the signoff report(s) to PATH (implies --signoff; a "
        "single report for --kernel, a name-keyed object for the matrix)",
    )
    parser.add_argument(
        "--cif", metavar="PATH",
        help="with --kernel: write the design's CIF to PATH",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the text summary"
    )
    args = parser.parse_args(argv)
    if args.json:
        args.signoff = True
    if args.cif and not args.kernel:
        parser.error("--cif needs --kernel (one design, one CIF)")

    if args.kernel:
        points = [(args.kernel, args.cells, args.char_bits, args.data_bits)]
    else:
        points = list(MATRIX)

    signoff = Signoff()
    reports = {}
    failures = 0
    for kernel, cells, char_bits, data_bits in points:
        try:
            chip = compile_workload(
                kernel, cells, char_bits=char_bits, data_bits=data_bits
            )
        except ReproError as exc:
            parser.error(str(exc))
        line = (
            f"{chip.spec.name:12s} {len(chip.design.cells):3d} cells "
            f"{chip.netlist.n_transistors:5d} transistors"
        )
        if args.signoff:
            report = signoff.run_design(chip)
            reports[chip.spec.name] = report
            line += f"  signoff={'PASS' if report.ok else 'FAIL'}"
            if not report.ok:
                failures += 1
        if args.verify:
            params, stream, alphabet = _sample_job(chip.spec)
            d = differential(
                chip, params, stream, alphabet, engines=("ir", "switch")
            )
            line += f"  differential={'PASS' if d.ok else 'FAIL'}"
            if not d.ok:
                failures += 1
                line += f" ({d.detail})"
        if args.cif:
            with open(args.cif, "w") as fh:
                fh.write(chip.cif())
            line += f"  cif={args.cif}"
        if not args.quiet:
            print(line)

    if args.json:
        if args.kernel:
            payload = next(iter(reports.values())).to_dict()
        else:
            payload = {name: r.to_dict() for name, r in reports.items()}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if not args.quiet and args.signoff:
        bad = [n for n, r in reports.items() if not r.ok]
        print(
            f"{len(reports)} design(s) through signoff"
            + (f"; FAILED: {', '.join(bad)}" if bad else ", all clean")
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

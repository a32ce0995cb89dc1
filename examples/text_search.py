#!/usr/bin/env python3
"""Office-automation text search (the Warter & Mules motivation).

The paper cites string-matching hardware "proposed for use in office
automation systems".  This example plays that scenario: a stream of
document text searched for wildcard queries on a cascade of pattern
matching chips, with the host's naive software matcher timed for
comparison under the 1979 cost model.
"""

import time

from repro import ASCII_UPPER, match_oracle, parse_pattern
from repro.baselines.naive import OpCounter, naive_match
from repro.chip import ChipCascade
from repro.chip.chip import ChipSpec
from repro.host.bus import HostSpec

DOCUMENT = (
    "THE TIME TO DESIGN SPECIAL PURPOSE CHIPS HAS COME "
    "SYSTOLIC ALGORITHMS PUMP DATA THROUGH SIMPLE CELLS "
    "THE PATTERN MATCHING CHIP FINDS PATTERNS AT FOUR MEGACHARACTERS "
    "PER SECOND WHICH IS FASTER THAN THE HOST MEMORY CAN SUPPLY THEM "
) * 4

#: Queries with wild cards: "?" matches any character (X itself is a
#: letter of this alphabet, so the paper's X cannot serve as the marker).
QUERIES = ["CHIP", "P?TTERN", "S?STOLIC", "THE TIME", "MEG?CHARACTERS"]


def main():
    spec = ChipSpec(cells=8, char_bits=5, beat_ns=250.0)
    cascade = ChipCascade(spec, n_chips=2, alphabet=ASCII_UPPER)  # 16 cells
    host = HostSpec()

    print(f"document: {len(DOCUMENT)} characters; "
          f"cascade capacity {cascade.capacity} characters\n")

    for query in QUERIES:
        cascade.load_pattern(query, wildcard_symbol="?")
        t0 = time.perf_counter()
        results = cascade.match(DOCUMENT)
        sim_s = time.perf_counter() - t0

        pcs = parse_pattern(query, ASCII_UPPER, wildcard_symbol="?")
        assert results == match_oracle(pcs, list(DOCUMENT))
        counter = OpCounter()
        naive_match(pcs, list(DOCUMENT), counter)

        k = len(query) - 1
        starts = [i - k for i, r in enumerate(results) if r]
        chip_us = cascade.beats_for_text(len(DOCUMENT)) * spec.beat_ns / 1000
        sw_us = host.software_match_time_ns(len(DOCUMENT), len(query)) / 1000
        print(f"query {query!r:>18}: {len(starts):2d} hits at {starts[:6]}"
              f"{'...' if len(starts) > 6 else ''}")
        print(f"{'':>20} chip {chip_us:8.1f} us | 1979 host software "
              f"{sw_us:8.1f} us ({counter.comparisons} comparisons) "
              f"| sim wall {sim_s*1e3:.0f} ms")


if __name__ == "__main__":
    main()

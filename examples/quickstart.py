#!/usr/bin/env python3
"""Quickstart: the paper's own example, at three levels of the stack.

Runs the pattern AXC (X = wild card) over the Figure 3-1 text on the
behavioural chip model, the bit-pipelined array, and -- transistor by
transistor -- the switch-level netlist, and shows they agree with the
definition.
"""

from repro import Alphabet, BitLevelMatcher, PatternMatcher, match_oracle
from repro.compiler import GateLevelMatcher

ALPHABET = Alphabet("ABCD")      # the prototype's two-bit characters
PATTERN = "AXC"
TEXT = "ABCAACACCAB"


def show(name, results):
    bits = "".join("1" if r else "0" for r in results)
    print(f"{name:>28}: {bits}")


def main():
    print(f"pattern {PATTERN!r} over text {TEXT!r}")
    print(f"{'text':>28}: {TEXT}")

    oracle = match_oracle(PatternMatcher(PATTERN, ALPHABET).pattern, list(TEXT))
    show("definition (Section 3.1)", oracle)

    matcher = PatternMatcher(PATTERN, ALPHABET)
    show("systolic array (char level)", matcher.match(TEXT))

    bit_level = BitLevelMatcher(PATTERN, ALPHABET)
    show("bit-pipelined (Figure 3-4)", bit_level.match(TEXT))

    gate_level = GateLevelMatcher(PATTERN, ALPHABET)
    show(f"{gate_level.n_transistors}-transistor netlist", gate_level.match(TEXT))

    report = matcher.report(TEXT)
    print(f"\nmatches end at positions {report.match_positions} "
          f"(substrings ABC, AAC, ACC -- the paper's Figure 3-1)")
    print(f"run took {report.beats} beats; at 250 ns/beat that is "
          f"{report.beats * 250 / 1000:.1f} us")


if __name__ == "__main__":
    main()

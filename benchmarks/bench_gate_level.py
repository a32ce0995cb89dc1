"""Cross-level bonus bench: the whole matcher at switch level.

Not a numbered figure, but the load-bearing verification behind
Section 3.2.2: the transistor netlist of the full array reproduces the
algorithm.  Benchmarks the switch-level simulation rate (four orders of
magnitude slower than behavioural -- which is why the paper designs at
the algorithm level and compiles downward).
"""

import time

from repro import Alphabet, PatternMatcher, match_oracle
from repro.compiler import GateLevelMatcher


def test_gate_level_matches_oracle(ab4, benchmark):
    g = GateLevelMatcher("AXC", ab4)
    text = "ABCAACACCAB"
    results = benchmark(g.match, text)
    assert results == match_oracle(g.pattern, list(text))


def test_gate_vs_behavioural_speed_ratio(ab4):
    text = "ABCAACACCAB"
    g = GateLevelMatcher("AXC", ab4)
    b = PatternMatcher("AXC", ab4)
    t0 = time.perf_counter()
    g.match(text)
    gate_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(50):
        b.match(text)
    beh_s = (time.perf_counter() - t0) / 50
    print(f"\nswitch-level: {gate_s*1e3:.1f} ms vs behavioural "
          f"{beh_s*1e3:.2f} ms per run ({gate_s/beh_s:.0f}x), "
          f"{g.n_transistors} transistors simulated")
    assert gate_s > beh_s

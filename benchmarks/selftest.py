#!/usr/bin/env python3
"""Self-test of the benchmark's reference code, on hand-computed examples.

    python3 benchmarks/selftest.py

Exits 0 when the reference reproduces the hand computations and the output
checks reject corrupted outputs; prints each failure and exits 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import reference as ref

# Two unit-weight triangles {a, b, c} and {d, e, f} joined by the edge c-d.
# Degrees: a, b, e, f have 2; c, d have 3; the volume is 14.
BARBELL = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0), ("c", "d", 1.0),
           ("d", "e", 1.0), ("e", "f", 1.0), ("d", "f", 1.0)]
TRIANGLES = [["a", "b", "c"], ["d", "e", "f"]]

# H1 = 4 (2/14) log2(14/2) + 2 (3/14) log2(14/3)
H1 = 4 / 7 * math.log2(7) + 3 / 7 * math.log2(14 / 3)
# Each triangle module has volume 7 and cut 1:
# H = 2 (1/14) log2(14/7) + 4 (2/14) log2(7/2) + 2 (3/14) log2(7/3)
H_TRIANGLES = 1 / 7 + 4 / 7 * math.log2(7 / 2) + 3 / 7 * math.log2(7 / 3)
# Splitting {d, e, f} into d and {e, f} (volume 4, cut 2) adds a level:
# H = 2/14 + (1/14) [4 log2(7/2) + 6 log2(7/3) + 2 log2(7/4) + 2 * 2 log2(4/2)]
NESTED = {"children": [
    {"children": [{"vertex": "a"}, {"vertex": "b"}, {"vertex": "c"}]},
    {"children": [{"vertex": "d"}, {"children": [{"vertex": "e"}, {"vertex": "f"}]}]}]}
H_NESTED = 2 / 14 + (4 * math.log2(7 / 2) + 6 * math.log2(7 / 3)
                     + 2 * math.log2(7 / 4) + 4) / 14


def entropy_output(h1: float, h_t: float, modules) -> str:
    lines = [f"h1 {h1:.9f}", f"h_t {h_t:.9f}"] + [f"module {' '.join(m)}" for m in modules]
    return "\n".join(lines) + "\n"


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    star = {"children": [{"vertex": v} for v in "abcdef"]}
    expect(abs(ref.degree_entropy(BARBELL) - H1) < 1e-12, "degree entropy of the barbell")
    expect(abs(ref.tree_entropy(BARBELL, star) - H1) < 1e-12, "the star tree's entropy is H1")
    expect(abs(ref.tree_entropy(BARBELL, ref.partition_doc(TRIANGLES)) - H_TRIANGLES) < 1e-12,
           "entropy of the two-triangle partition")
    expect(abs(ref.tree_entropy(BARBELL, NESTED) - H_NESTED) < 1e-12,
           "entropy of the three-level tree")
    expect(ref.tree_height(NESTED) == 3 and ref.tree_height(star) == 1, "tree heights")
    expect(ref.node_leaf_sets(NESTED) == {frozenset("abcdef"), frozenset("abc"), frozenset("def"),
                                          frozenset("ef")} | {frozenset(v) for v in "abcdef"},
           "leaf sets of the three-level tree's nodes")

    good = entropy_output(H1, H_TRIANGLES, TRIANGLES)
    expect(ref.check_entropy_dim(good, BARBELL, 2) == [], "a correct k=2 output is accepted")
    expect(ref.check_entropy_dim(entropy_output(H1, H_NESTED, TRIANGLES), BARBELL, 3) == [],
           "a k=3 output below the partition's entropy is accepted")
    corrupted = [
        ("h_t off by 1e-6", entropy_output(H1, H_TRIANGLES + 1e-6, TRIANGLES), 2),
        ("h_t above the partition at k=3", entropy_output(H1, H_TRIANGLES + 1e-6, TRIANGLES), 3),
        ("h1 off by 1e-6", entropy_output(H1 + 1e-6, H_TRIANGLES, TRIANGLES), 2),
        ("a vertex missing from the modules",
         entropy_output(H1, H_TRIANGLES, [["a", "b", "c"], ["d", "e"]]), 2),
        ("a vertex in two modules",
         entropy_output(H1, H_TRIANGLES, [["a", "b", "c"], ["c", "d", "e", "f"]]), 2),
        ("a missing h_t line", f"h1 {H1:.9f}\nmodule a b c\nmodule d e f\n", 2),
    ]
    for what, stdout, k in corrupted:
        expect(ref.check_entropy_dim(stdout, BARBELL, k) != [], f"{what} is rejected")

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{'ok' if not failures else 'failed'}: reference self-test")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Timed rows of single library calls and quality rows of the greedy, for
the BENCH_*.json performance series.

Each row times one structen call on a fixed seeded input from
benchmarks/inputs.py (read only, shared with the gated benchmark):

  - `minimize_kd` on `sparse_graph(Random(1), n, 3n)` for n in {200, 400,
    1000} and on `path_graph(Random(1), 300)`, at k in {2, 3};
  - `build_data_space` at height 2 on `planted_blocks(Random(1), 4, n/4)`
    for n in {16, 24}, with an empty feature catalog;
  - a chain of 60 `insert_point` calls on `inputs.point` requests, 15 to
    each block in shuffled order, that grows the n=24 space to 84 points;
    the space first gets its `inputs.catalog` features through
    `dataclasses.replace`, and neither that nor the requests are timed.

After the timed rows come the quality rows, one per gap corpus: the
greedy's relative gap (greedy - optimum) / optimum to `brute_force_kd` on
`sparse_graph(Random(seed), n, 2n)` for seeds 1-100, with its weights in
[0.5, 2) or all 1, at k=2 with n=10 and at k=3 with n=7.  A row gives the
number of runs more than 1e-12 above the optimum, the mean gap and the max
gap; they are not timed.

Every source tree named on the command line is run in its own fresh
process per repeat, and the trees take turns, so that a drift of the
host's speed falls on all of them alike.  A timed row gives the median
wall time of 5 repeats, the greedy's steps per phase (read from the trace
as the gated benchmark's tracer reads them), and the number of kappa
values swept or the number of inserts.  These counts, and a quality row's
figures, must be the same in every repeat.  The file records the commit of
each tree and the Python version.  As in `timeit`, the cyclic garbage
collector runs before each timed call and is off during it, so that a full
collection, which falls wherever the allocation count happens to trip it,
is not charged to one row; the gated benchmark keeps the collector on.

    python3 scripts/bench_rows.py parent=../parent/src change=src --out BENCH_26.json
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPARSE_N = (200, 400, 1000)
PATH_N = 300
PLANTED_N = (16, 24)
INSERTS = 60
REPEATS = 5
GAP_CORPORA = ((2, 10), (3, 7))   # (k, n); the oracle is exact and fast there
GAP_SEEDS = range(1, 101)


def _timed(call):
    """`call()` and its wall time, with the cyclic collector run before and
    off during it."""
    gc.collect()
    gc.disable()
    try:
        start = perf_counter()
        result = call()
        return result, perf_counter() - start
    finally:
        gc.enable()


def _graph(st, edges):
    ids = list(dict.fromkeys(x for u, v, _ in edges for x in (u, v)))
    return st.Graph(ids, edges)


def worker(src: str) -> list[dict]:
    """One repeat of every row, timed in this process on the tree `src`."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "benchmarks")]
    import inputs
    import structen as st
    from tracer import phase_steps

    rows = []
    graphs = [(f"sparse n={n} m={3 * n}", _graph(st, inputs.sparse_graph(random.Random(1), n, 3 * n)))
              for n in SPARSE_N]
    graphs.append((f"path n={PATH_N}", _graph(st, inputs.path_graph(random.Random(1), PATH_N))))
    for name, g in graphs:
        for k in (2, 3):
            result, seconds = _timed(lambda: st.minimize_kd(g, k))
            rows.append({"row": f"minimize_kd {name} k={k}", "seconds": seconds,
                         "steps": dict(sorted(phase_steps(result.trace).items()))})
    for n in PLANTED_N:
        rng = random.Random(1)
        ids, block_of, sim = inputs.planted_blocks(rng, 4, n // 4)
        catalog = st.FeatureCatalog({vid: st.FeatureSet() for vid in ids})
        ds, seconds = _timed(lambda: st.build_data_space(sim, catalog, 2, ids))
        rows.append({"row": f"build_data_space planted n={n} height=2", "seconds": seconds,
                     "kappa_values": len(ds.sweep)})
    # the chain grows the last space built, with the rng that planted it
    ds = dataclasses.replace(ds, catalog=st.FeatureCatalog.from_dict(inputs.catalog(rng, block_of)))
    blocks = [i % 4 for i in range(INSERTS)]
    rng.shuffle(blocks)
    requests = []
    for i, block in enumerate(blocks):
        requests.append(inputs.point(rng, f"x{i:02d}", block, block_of))
        block_of[f"x{i:02d}"] = block

    def chain():
        space = ds
        for doc in requests:
            space, _ = st.insert_point(space, doc["id"], doc["sims"], doc["syntax"], doc["semantics"])
        return space

    space, seconds = _timed(chain)
    rows.append({"row": f"insert_point chain planted n={n}+{INSERTS}", "seconds": seconds,
                 "inserts": space.graph.n - n})
    for weights in ("continuous", "unit"):
        for k, n in GAP_CORPORA:
            above, gaps = 0, []
            for seed in GAP_SEEDS:
                edges = inputs.sparse_graph(random.Random(seed), n, 2 * n)
                if weights == "unit":
                    edges = [(u, v, 1.0) for u, v, _ in edges]
                g = _graph(st, edges)
                greedy = st.minimize_kd(g, k).entropy
                optimum = st.brute_force_kd(g, k, max_n=n).entropy
                above += greedy - optimum > 1e-12
                gaps.append((greedy - optimum) / optimum)
            rows.append({"row": f"gap sparse {weights} n={n} m={2 * n} k={k} "
                                f"seeds={GAP_SEEDS[0]}-{GAP_SEEDS[-1]}",
                         "above_optimum": above, "mean_gap": statistics.fmean(gaps),
                         "max_gap": max(gaps)})
    return rows


def commit_of(src: str) -> str:
    """The commit holding `src`, marked dirty when its files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", src, *args], capture_output=True, text=True,
                              check=True).stdout.strip()
    try:
        head = git("rev-parse", "--short", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain", "--untracked-files=no", ".") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC",
                        help="a label and the `src` directory of a source tree")
    parser.add_argument("--out", help="write the rows to this JSON file")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        json.dump(worker(args.worker), sys.stdout)
        return 0
    if not args.trees or not all("=" in tree for tree in args.trees):
        parser.error("name each source tree as LABEL=SRC")
    trees = dict(tree.split("=", 1) for tree in args.trees)
    runs = {label: [] for label in trees}
    for r in range(REPEATS):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for label in order:
            done = subprocess.run([sys.executable, __file__, "--worker", trees[label]],
                                  capture_output=True, text=True, check=True)
            runs[label].append(json.loads(done.stdout))
    doc = {"python": platform.python_version(), "cpus": os.cpu_count(),
           "repeats": REPEATS, "trees": {}}
    for label, repeats in runs.items():
        rows = []
        for i, first in enumerate(repeats[0]):
            counts = {key: value for key, value in first.items() if key not in ("row", "seconds")}
            if any({key: rep[i][key] for key in counts} != counts for rep in repeats):
                raise SystemExit(f"{label}: {first['row']}: counts differ between repeats")
            row = {"row": first["row"]}
            if "seconds" in first:
                row["median_s"] = statistics.median(rep[i]["seconds"] for rep in repeats)
            rows.append({**row, **counts})
        doc["trees"][label] = {"commit": commit_of(trees[label]), "rows": rows}
        for row in rows:
            if "median_s" in row:
                print(f"{label:>8}  {row['row']:<48} {row['median_s']:9.4f} s")
            else:
                print(f"{label:>8}  {row['row']:<48} {row['above_optimum']:3d} above, "
                      f"mean {row['mean_gap']:.2%}, max {row['max_gap']:.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded input generation for the benchmark workloads.

Every generator takes a `random.Random` and returns plain Python data; the
writers put it into the file formats the structen CLI reads.  Weights are
drawn from continuous ranges, so they are non-dyadic and ties between them
do not occur in practice.  Floats are written with `repr`, so a file read
back yields exactly the generated values.
"""

from __future__ import annotations

import json
import random

WITHIN = (0.55, 0.95)   # similarity range inside a planted block
BETWEEN = (0.02, 0.30)  # similarity range across planted blocks


def sparse_graph(rng: random.Random, n: int, m: int, prefix: str = "v"):
    """Connected graph: a random spanning tree plus random extra edges.

    Returns a list of (u, v, weight) with weights in [0.5, 2.0).
    """
    order = list(range(n))
    rng.shuffle(order)
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = rng.uniform(0.5, 2.0)
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in edges:
            edges[(min(u, v), max(u, v))] = rng.uniform(0.5, 2.0)
    return [(f"{prefix}{u}", f"{prefix}{v}", w) for (u, v), w in edges.items()]


def path_graph(rng: random.Random, n: int, prefix: str = "p"):
    return [(f"{prefix}{i}", f"{prefix}{i + 1}", rng.uniform(0.5, 2.0)) for i in range(n - 1)]


def write_edges(path, edges) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in edges:
            fh.write(f"{u} {v} {w!r}\n")


def planted_blocks(rng: random.Random, blocks: int, size: int, prefix: str = "s"):
    """Samples split into equal blocks, in shuffled identifier order.

    Returns (ids, block_of, sim) where sim is a symmetric list-of-lists
    with a zero diagonal, WITHIN-range similarities inside a block and
    BETWEEN-range ones across blocks.
    """
    n = blocks * size
    ids = [f"{prefix}{i:02d}" for i in range(n)]
    members = list(ids)
    rng.shuffle(members)
    block_of = {vid: pos // size for pos, vid in enumerate(members)}
    sim = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = WITHIN if block_of[ids[i]] == block_of[ids[j]] else BETWEEN
            sim[i][j] = sim[j][i] = rng.uniform(lo, hi)
    return ids, block_of, sim


def write_similarity(path, ids, sim) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["id"] + list(ids)) + "\n")
        for i, row in enumerate(sim):
            cells = ["0" if i == j else (x if isinstance(x, str) else repr(x))
                     for j, x in enumerate(row)]
            fh.write(",".join([ids[i]] + cells) + "\n")


def catalog(rng: random.Random, block_of) -> dict:
    """Feature catalog: the block token as syntax, plus a shared token and a
    random per-sample token as semantics."""
    return {vid: block_features(rng, b) for vid, b in sorted(block_of.items())}


def block_features(rng: random.Random, block: int) -> dict:
    return {"syntax": [f"blk{block}"],
            "semantics": ["item", f"sem{block}", f"tag{rng.randrange(3)}"]}


def point(rng: random.Random, pid: str, block: int, block_of) -> dict:
    """Insertion request with a similarity to every present sample."""
    sims = {}
    for vid, b in block_of.items():
        lo, hi = WITHIN if b == block else BETWEEN
        sims[vid] = rng.uniform(lo, hi)
    doc = {"id": pid, "sims": sims}
    doc.update(block_features(rng, block))
    return doc


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# Fixed fault inputs: they do not depend on the seed, so the failure they
# provoke is the same in every run.
INF_EDGES = [("a", "b", 1.25), ("b", "c", float("inf")), ("c", "d", 0.75),
             ("d", "e", 1.5), ("e", "a", 0.5)]
NAN_IDS = ["a", "b", "c", "d"]
NAN_SIM = [[0.0, 0.7, "nan", 0.2],
           [0.7, 0.0, 0.6, 0.1],
           ["nan", 0.6, 0.0, 0.8],
           [0.2, 0.1, 0.8, 0.0]]

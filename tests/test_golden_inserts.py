"""Golden insert chains: `insert_point` output must stay byte-identical.

Each case builds a seeded starting space and streams 3 to 5 points into
it.  After every insert it records the serialized decoder as JSON, the
graph's edges, and the `InsertReport` fields with `repr`, and at the end
the space's `sweep`; the sha256 of that text is pinned below, so the
chosen attachment count, every cached vol and cut, `h_before`, `h_after`
and the final module are pinned to the last bit.

The cases cover continuous, dyadic and equal similarities; height caps 2
and 3; spaces from `build_data_space`, whose decoders carry the greedy's
own stats, and spaces whose decoder is read back from a document (fresh
stats); and points whose matched abstraction is a leaf at the height cap.
Attachment counts score exactly the same, so that the smaller count must
win, for featureless points on a star decoder with dyadic or equal
similarities, and past a weight of 1e-300, which changes no sum.

`PYTHONPATH=src python tests/test_golden_inserts.py` prints the table from
the code as it stands.  Re-record it only for a change that is meant to
alter the output.  Every float sum behind it is a left fold, so it does
not depend on the interpreter's builtin `sum`.
"""

import hashlib
import json
import random

import numpy as np
import pytest

import structen as st
from structen import FeatureCatalog, FeatureSet, InvariantViolation


def _blocks(rng):
    sizes = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
    starts = np.cumsum([0] + sizes)
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


def _catalog(blocks, unique):
    return FeatureCatalog({
        str(v): FeatureSet(frozenset({f"b{bi}"} | ({f"u{v}"} if unique else set())))
        for bi, block in enumerate(blocks) for v in block})


def greedy_space(rng, height, unique):
    """`build_data_space` over a planted block matrix with continuous entries."""
    blocks = _blocks(rng)
    n = sum(map(len, blocks))
    home = {v: bi for bi, block in enumerate(blocks) for v in block}
    sim = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = (0.55, 0.95) if home[i] == home[j] else (0.02, 0.3)
            sim[i, j] = sim[j, i] = rng.uniform(lo, hi)
    return st.build_data_space(sim, _catalog(blocks, unique), height=height), blocks


def document_space(rng, height, unique, star=False):
    """A space whose decoder is read back from its document: fresh stats.

    With `star` the decoder is the flat star tree.
    """
    blocks = _blocks(rng)
    n = sum(map(len, blocks))
    home = {v: bi for bi, block in enumerate(blocks) for v in block}
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    edges += [(i, j, rng.choice([0.5, 1.0, 2.0]) if home[i] == home[j] else 0.25)
              for i in range(n) for j in range(i + 2, n)
              if rng.random() < (0.8 if home[i] == home[j] else 0.15)]
    g = st.Graph.from_index_edges(n, edges)
    doc = st.serialize(g, st.star_tree(g) if star else st.minimize_kd(g, height).tree)
    space = st.DataSpace(g, st.deserialize(g, doc), _catalog(blocks, unique), len(edges), height)
    return space, blocks


def _sims(rng, ids, kind):
    if kind == "continuous":
        return {v: rng.choice([0.0, rng.random()]) for v in ids}
    if kind == "dyadic":
        return {v: rng.choice([0.0, 0.25, 0.5, 1.0]) for v in ids}
    if kind == "tiny":  # a weight below every rounding step changes no sum
        return {v: rng.choice([0.0, 1e-300, rng.random()]) for v in ids}
    return {v: rng.choice([0.0, 0.5]) for v in ids}  # equal


def chain(seed, space_kind, sims_kind, height, unique):
    """Text of one insert chain: per insert the decoder document, the graph
    edges and the report; then the space's sweep."""
    rng = random.Random(f"{seed}:{space_kind}:{sims_kind}:{height}:{unique}")
    if space_kind == "greedy":
        ds, blocks = greedy_space(rng, height, unique)
    else:
        ds, blocks = document_space(rng, height, unique, star=space_kind == "star")
    lines = []
    for j in range(rng.randint(3, 5)):
        sims = _sims(rng, ds.graph.vertex_ids, sims_kind)
        if not any(sims.values()):
            sims[ds.graph.vertex_ids[0]] = 1.0
        syntax = set() if space_kind == "star" else {f"b{rng.randrange(len(blocks))}"}
        if unique:  # matches the leaf of one sample, often at the cap depth
            syntax.add(f"u{rng.choice(sorted(v for b in blocks for v in b))}")
        ds, report = st.insert_point(ds, f"x{j}", sims, syntax=syntax)
        lines.append(json.dumps(st.serialize(ds.graph, ds.decoder), sort_keys=True))
        lines.append(repr(ds.graph.edges))
        lines.append(repr((report.abstraction, report.chosen_k, report.module,
                           report.h_before, report.h_after)))
    lines.append(repr(ds.sweep))
    return "\n".join(lines)


CASES = [
    f"{seed}/{space}/{sims}/h{height}/{'unique' if unique else 'blocks'}"
    for seed, (space, sims, height, unique) in enumerate(
        (space, sims, height, unique)
        for space in ("greedy", "document")
        for sims in ("continuous", "dyadic", "equal")
        for height in (2, 3)
        for unique in (False, True))
] + ["24/star/equal/h2/blocks", "25/star/dyadic/h3/blocks", "26/star/equal/h3/blocks",
      "27/greedy/tiny/h2/blocks", "28/document/tiny/h3/unique", "29/greedy/tiny/h3/unique"]


def digest(case):
    seed, space, sims, height, catalog = case.split("/")
    text = chain(int(seed), space, sims, int(height[1:]), catalog == "unique")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    "0/greedy/continuous/h2/blocks": "63dcf4b2e6720fa36331d3ed6368be7726b5cc77bfdcc40ea8aae7b677e647c6",
    "1/greedy/continuous/h2/unique": "60a6732a978af3e9ddbdcf013e599bd323234bdebc7007896ddf78830a84d9fb",
    "2/greedy/continuous/h3/blocks": "489451212bfe896f66cf1f0c6fdca7eda9b629a0ed91a0a98537b03f622b4179",
    "3/greedy/continuous/h3/unique": "e0858c96aea813b8e9841de9b60945f60eae35498aa088bd8406b651819e37c8",
    "4/greedy/dyadic/h2/blocks": "40b051bd062a44725aab95f16439a3c348734ed45bdcbfff7ba650dcd6216d1a",
    "5/greedy/dyadic/h2/unique": "f41d6a6ceab74586a4db6cf031b9e89c9baaaa50166a64d33437335480ec05b1",
    "6/greedy/dyadic/h3/blocks": "08db4cafeb09958cf13817097ee40ee0d327feda160d1a11464e7349d7931ceb",
    "7/greedy/dyadic/h3/unique": "1261dcc08d3a9b79b9458cd8b68581d630cbbca185e8d98530a1844244ed4f61",
    "8/greedy/equal/h2/blocks": "0a44b9e36744e8a54ea4a5cce75f9fa36b7c700ab97fb1497cbe971df0507e3a",
    "9/greedy/equal/h2/unique": "e9031d2300f0b4e5fd6decc85a64ac2a69451cee840d88d54ca495adbbea8bd6",
    "10/greedy/equal/h3/blocks": "8388c4fba0d1209620cdb563108c7f864d99642331b96c8135fdc857d6a8d7a4",
    "11/greedy/equal/h3/unique": "a76e324f2f7a8a8b2de384f877b2c6e6e29696b3305a8a8121791de7f9ffc316",
    "12/document/continuous/h2/blocks": "62d4955e180b051cfa56afe3f5b1f9ac25a8cc80fe120da2461cc72ade708c8b",
    "13/document/continuous/h2/unique": "d4081929cd6841b10705ab05bbcf3cf5e8ddeee6696d860ad80fe29b5e7f9993",
    "14/document/continuous/h3/blocks": "75108a1727002d7811dd0113bc2a0a17930bd1ce1df370077dd785c15611dcf8",
    "15/document/continuous/h3/unique": "8d8a5c9a1fc9277c1b7c67091c43f29c0c4ecd544f06d6f05ffedc75372bad70",
    "16/document/dyadic/h2/blocks": "f63611914a1d59fbad44db64debaf8bc3bce285b8d318c62ad6bc3bc916cf901",
    "17/document/dyadic/h2/unique": "857b70a9c02ac0ec8f66e0a078704b63869b60522d179eda85800ece1043919d",
    "18/document/dyadic/h3/blocks": "27526b0ac3a6bae375a88948fd1423ca636ce0bfbf54bf87db6fc7970021b676",
    "19/document/dyadic/h3/unique": "95501e031669d76c5c401562ca11a4acae3d959c3d29ba6eaebd202766ee1bf7",
    "20/document/equal/h2/blocks": "378f171535421057d22e0e5d8673c26b82e16b1a001475a6b37437ac21b32089",
    "21/document/equal/h2/unique": "1b670c6d9892d237086d2f25a64130b3b5cef5fa817115e651fb87ab194acf57",
    "22/document/equal/h3/blocks": "a1b4e46d36d3925ec0f47231f465d89981eb42c2fd6d53c0c386cd4194df8b0a",
    "23/document/equal/h3/unique": "6f904128273eb20add5738d6d738bc0bcf1015467ec3826303a7a04ad2232c32",
    "24/star/equal/h2/blocks": "55f538b88134206aeaecef715f06de0f81869a2f207c14c80edffb823fa27679",
    "25/star/dyadic/h3/blocks": "e21fba11b0204c304bf99eb40c7229a9462b32944bd23b482fbcbc11d04d1f22",
    "26/star/equal/h3/blocks": "74bfe1d08e09aa1c4d5ad59de88b41b2d7f4f2447fb2ded253cfd5ce61c8c11d",
    "27/greedy/tiny/h2/blocks": "9118e07db9bbb0cd99a05496630c8a78059539e46b1e1a427de320ad987eb54b",
    "28/document/tiny/h3/unique": "aa445dbc18b093f60cf6c5f86dfa4aa58d2a4770a36fe8b6d50f4c1b934a060f",
    "29/greedy/tiny/h3/unique": "a0e8a462ea5bc550a5eebbd583c5d42c6b8a67e1d81abde495f03fa78a90167f",
}


@pytest.mark.parametrize("case", CASES)
def test_insert_chain_matches_golden(case):
    assert digest(case) == GOLDEN[case]


class TestInsertErrors:
    @pytest.fixture
    def space(self):
        return greedy_space(random.Random(0), 2, False)[0]

    def test_aliasing_sims_keys_are_a_duplicate_edge(self, space):
        # "1" and 1 name one vertex: the second attachment repeats the first
        with pytest.raises(InvariantViolation, match="duplicate edge '1'-'x'"):
            st.insert_point(space, "x", {"1": 0.5, 1: 0.6})

    def test_attachment_volume_overflow(self, space):
        with pytest.raises(InvariantViolation, match="graph volume overflows to inf"):
            st.insert_point(space, "x", {"1": 1e308, "2": 1.5e308})

    def test_duplicate_edge_precedes_volume_overflow(self, space):
        # the whole attachment is checked before the sweep, edge by edge
        # first: the volume overflows at the second count, but the third
        # repeats vertex '1'
        with pytest.raises(InvariantViolation, match="duplicate edge '1'-'x'"):
            st.insert_point(space, "x", {"2": 1.5e308, "1": 1e308, 1: 0.5})


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": "{digest(case)}",')

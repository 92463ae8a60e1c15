import builtins
import math
import random

import numpy as np
import pytest

import structen as st
from structen.tree import EncodingTree, TreeNode


_BUILTIN_SUM = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """A pure-Python port of the builtin `sum` of CPython 3.12, whose float
    path compensates rounding (Neumaier's improved Kahan-Babuska sum,
    gh-100425) where 3.11 folds left to right.  It follows the C code's
    int, float and generic paths as read, not as run."""
    if isinstance(start, (str, bytes, bytearray)):
        return _BUILTIN_SUM(iterable, start)  # the builtin's TypeError
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:  # a C long
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            result = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture
def py312_sum(monkeypatch):
    """Run the test with `builtins.sum` swapped for `neumaier_sum`, the
    float `sum` of CPython 3.12 and later.

    The port's fidelity to 3.12 cannot be checked without a 3.12
    interpreter, which is why CI also runs the suite on 3.12."""
    monkeypatch.setattr(builtins, "sum", neumaier_sum)


@pytest.fixture
def triangle():
    return st.Graph.from_index_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


@pytest.fixture
def p3():
    return st.Graph.from_index_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def cycle4():
    return st.Graph.from_index_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])


@pytest.fixture
def barbell():
    return st.Graph.from_index_edges(
        6,
        [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
         (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0), (2, 3, 1.0)])


def complete_graph(n, weight=1.0):
    edges = [(i, j, weight) for i in range(n) for j in range(i + 1, n)]
    return st.Graph.from_index_edges(n, edges)


def two_cliques(size, bridge=1.0):
    edges = [(i, j, 1.0) for i in range(size) for j in range(i + 1, size)]
    edges += [(size + i, size + j, 1.0) for i in range(size) for j in range(i + 1, size)]
    edges.append((size - 1, size, bridge))
    return st.Graph.from_index_edges(2 * size, edges)


def random_connected_graph(rng, n_lo=4, n_hi=12, weighted=True, extra=0.3):
    n = rng.randint(n_lo, n_hi)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((min(order[i], order[j]), max(order[i], order[j])))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    weights = [0.5, 1.0, 1.0, 2.0] if weighted else [1.0]
    return st.Graph.from_index_edges(
        n, [(u, v, rng.choice(weights)) for u, v in sorted(edges)])


def random_nested_spec(rng, items):
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return [items[0], items[1]]
    parts_n = rng.randint(2, min(len(items), 4))
    pool = list(items)
    rng.shuffle(pool)
    parts = [[] for _ in range(parts_n)]
    for i, v in enumerate(pool):
        parts[i % parts_n].append(v)
    return [random_nested_spec(rng, sorted(p)) for p in parts]


def random_encoding_tree(g, rng):
    return st.build_tree(g, random_nested_spec(rng, list(range(g.n))))


def items_tree(spec):
    """Partition tree over bare items (no graph), for distribution entropy."""

    def rec(s):
        if isinstance(s, int):
            return TreeNode((s,))
        children = [rec(c) for c in s]
        vertices = frozenset().union(*(c.vertices for c in children))
        return TreeNode(vertices, children=children)

    return EncodingTree(rec(spec))


def assert_children_ordered(t):
    """Every node's children in strictly increasing min-vertex order."""
    for _, node in t.walk():
        lows = [min(c.vertices) for c in node.children]
        assert all(a < b for a, b in zip(lows, lows[1:])), lows


def planted_similarity(blocks, within=1.0, cross=0.1):
    n = sum(len(b) for b in blocks)
    m = np.full((n, n), cross)
    np.fill_diagonal(m, 0.0)
    for block in blocks:
        for i in block:
            for j in block:
                if i != j:
                    m[i, j] = within
    return m


def partition_ids(g, tree):
    return sorted(sorted(g.vertex_ids[v] for v in c.vertices)
                  for c in tree.root.children)

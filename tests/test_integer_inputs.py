"""One rule per integer input: `is_integer` decides every tree position, vertex,
spec leaf, count and size guard.  Numpy integers are integers; bools and
floats are not, and each is rejected with the message of the input it posed as.
"""

import math

import numpy as np
import pytest

import structen as st
from structen import InvariantViolation, TraceStep

C4 = st.Graph.from_index_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
STAR = st.star_tree(C4)


def leaf_types(t):
    return t, {type(v) for _, node in t.walk() for v in node.vertices}


INTEGER_INPUTS = {
    # id -> (call, outcome): a str is the message of the InvariantViolation
    # the call raises; anything else is the value it returns
    "node_at a bool path": (lambda: STAR.node_at((True,)), "no node at path True"),
    "node_at a float path": (lambda: STAR.node_at((1.0,)), "no node at path 1.0"),
    "merge_delta at a bool path": (lambda: st.merge_delta(C4, STAR, (0,), (True,)),
                                   "no node at path True"),
    "merge_delta at a float path": (lambda: st.merge_delta(C4, STAR, (0.0,), (1,)),
                                    "no node at path 0.0"),
    "combine_apply at a bool path": (lambda: st.combine_apply(C4, STAR, (0,), (True,)),
                                     "no node at path True"),
    "combine_apply at a float path": (lambda: st.combine_apply(C4, STAR, (0,), (1.0,)),
                                      "no node at path 1.0"),
    "replay of a bool path": (
        lambda: st.replay_trace(C4, [TraceStep("merge", (0,), (True,), 0.25)]),
        "trace step 0 (merge 0 True): no node at path True"),
    "replay of a float path": (
        lambda: st.replay_trace(C4, [TraceStep("combine", (0,), (1.0,), 0.25)]),
        "trace step 0 (combine 0 1.0): no node at path 1.0"),
    "codeword of vertex True": (lambda: st.codeword(STAR, True), "unknown vertex True"),
    "codeword of vertex 1.0": (lambda: st.codeword(STAR, 1.0), "unknown vertex 1.0"),
    "numpy spec leaves": (
        lambda: leaf_types(st.build_tree(C4, [np.int64(0), [np.int32(1), 2], np.uint8(3)])),
        (st.build_tree(C4, [0, [1, 2], 3]), {int})),
    "numpy partition parts": (
        lambda: leaf_types(st.from_partition(C4, [np.array([0, 1]), np.array([2, 3])])),
        (st.from_partition(C4, [{0, 1}, {2, 3}]), {int})),
    "oracle guard '5'": (lambda: st.brute_force_kd(C4, 2, max_n="5"), "max_n='5' is not an integer"),
    "oracle guard 5.0": (lambda: st.brute_force_kd(C4, 3, max_n=5.0), "max_n=5.0 is not an integer"),
    "2-level oracle guard True": (lambda: st.brute_force_2d(C4, max_n=True),
                                  "max_n=True is not an integer"),
    "conductance guard None": (lambda: st.conductance_exact(C4, max_n=None),
                               "max_n=None is not an integer"),
    "lower-bound guard '24'": (lambda: st.entropy_lower_bound(C4, max_n="24"),
                               "max_n='24' is not an integer"),
    "index graph of n '3'": (lambda: st.Graph.from_index_edges("3", [(0, 1, 1.0), (1, 2, 1.0)]),
                             "n='3' is not an integer"),
    "index graph of n 3.0": (
        lambda: st.Graph.from_index_edges(3.0, [(0, 1, 1.0), (1, 2, 1.0)], ids="abc"),
        "n=3.0 is not an integer"),
    "index graph of n True": (lambda: st.Graph.from_index_edges(True, [(0, 1, 1.0)]),
                              "n=True is not an integer"),
    # a NaN weight is non-finite, not non-positive
    "NaN edge weight": (lambda: st.Graph(["a", "b"], [("a", "b", math.nan)]),
                        "non-finite weight on edge 'a'-'b'"),
}


@pytest.mark.parametrize("call, outcome", INTEGER_INPUTS.values(), ids=INTEGER_INPUTS.keys())
def test_integer_input(call, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InvariantViolation) as err:
            call()
        assert str(err.value) == outcome
    else:
        assert call() == outcome

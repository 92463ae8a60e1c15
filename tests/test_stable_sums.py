"""Output does not depend on how the builtin `sum` rounds floats.

CPython 3.12 made `sum` of floats compensate rounding; every float sum in
structen is a left fold (`graph.left_sum`), so the golden traces, the
golden inserts and the CLI's output must stay byte-identical with the
builtin swapped for a port of the 3.12 float path (`py312_sum`).
"""

import builtins
import json
import random

import pytest

import test_golden_inserts as golden_inserts
import test_golden_traces as golden_traces
from conftest import neumaier_sum
from structen.cli import main
from structen.graph import left_sum


def test_port_compensates_rounding(py312_sum):
    assert builtins.sum is neumaier_sum
    assert neumaier_sum([0.1] * 10) == 1.0 != left_sum([0.1] * 10)
    assert neumaier_sum([1e16, 1.0, -1e16]) == 1.0
    assert neumaier_sum([1, 2, True]) == 4 and neumaier_sum([0.5, 2]) == 2.5
    with pytest.raises(TypeError):
        neumaier_sum(["a"], "")


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("name", sorted(golden_traces.GRAPHS))
def test_golden_trace(py312_sum, name, k):
    assert golden_traces.digest(golden_traces.GRAPHS[name](), k) == \
        golden_traces.GOLDEN[f"{name}/k{k}"]


@pytest.mark.parametrize("case", golden_inserts.CASES)
def test_golden_insert(py312_sum, case):
    assert golden_inserts.digest(case) == golden_inserts.GOLDEN[case]


CLI_RUNS = (
    ("entropy", "--graph", "{}/g.tsv", "--dim", "3", "--trace", "{}/trace.txt"),
    ("build", "--similarity", "{}/sim.csv", "--height", "3", "--space-out", "{}/space.json"),
    ("insert", "--space", "{}/space.json", "--point", "{}/point.json", "--out", "{}/space2.json"),
)


def _cli_outputs(where, capsys):
    # CLI_RUNS on inputs with non-dyadic weights; every byte written, by file
    where.mkdir()
    rng = random.Random(14)
    n = 30
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
    (where / "g.tsv").write_text(
        "".join(f"v{u} v{v} {rng.uniform(0.05, 3.0):.6f}\n" for u, v in sorted(edges)),
        encoding="utf-8")
    ids = [f"s{i}" for i in range(14)]
    sim = [[0.0] * len(ids) for _ in ids]
    for i in range(len(ids)):
        for j in range(i):
            near = (i < 7) == (j < 7)
            sim[i][j] = sim[j][i] = round(rng.uniform(0.5, 0.95) if near
                                          else rng.uniform(0.02, 0.3), 6)
    (where / "sim.csv").write_text(
        "," + ",".join(ids) + "\n"
        + "".join(f"{v}," + ",".join(map(str, row)) + "\n" for v, row in zip(ids, sim)),
        encoding="utf-8")
    (where / "point.json").write_text(json.dumps(
        {"id": "x", "sims": {v: round(rng.uniform(0.1, 0.9), 6) for v in ids[:9]}}),
        encoding="utf-8")
    out = {}
    for argv in CLI_RUNS:
        assert main([a.format(where) for a in argv]) == 0
        out[argv[0]] = capsys.readouterr().out
    for name in ("trace.txt", "space.json", "space2.json"):
        out[name] = (where / name).read_bytes()
    return out


def test_cli_bytes(tmp_path, capsys, request):
    want = _cli_outputs(tmp_path / "builtin", capsys)
    request.getfixturevalue("py312_sum")
    assert _cli_outputs(tmp_path / "port", capsys) == want

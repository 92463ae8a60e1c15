import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structen as st
from structen.cli import main

BARBELL_TSV = (
    "a\tb\t1\na\tc\t1\nb\tc\t1\n"
    "d\te\t1\nd\tf\t1\ne\tf\t1\nc\td\t1\n")
K4_TSV = "p q 1\np r 1\np s 1\nq r 1\nq s 1\nr s 1\n"
TWO_PART_DOC = {"children": [
    {"children": [{"vertex": "a"}, {"vertex": "b"}, {"vertex": "c"}]},
    {"children": [{"vertex": "d"}, {"vertex": "e"}, {"vertex": "f"}]},
]}
FEATURES_DOC = {
    "a": {"syntax": ["t", "u"], "semantics": []},
    "b": {"syntax": ["t", "u"], "semantics": []},
    "c": {"syntax": ["t", "v"], "semantics": []},
    "d": {"syntax": ["t", "w"], "semantics": []},
    "e": {"syntax": ["t", "w"], "semantics": []},
    "f": {"syntax": ["t", "w"], "semantics": []},
}


@pytest.fixture
def files(tmp_path):
    (tmp_path / "barbell.tsv").write_text(BARBELL_TSV, encoding="utf-8")
    (tmp_path / "k4.tsv").write_text(K4_TSV, encoding="utf-8")
    (tmp_path / "twopart.json").write_text(json.dumps(TWO_PART_DOC), encoding="utf-8")
    (tmp_path / "features.json").write_text(json.dumps(FEATURES_DOC), encoding="utf-8")
    ids = [f"s{i}" for i in range(8)]
    m = np.full((8, 8), 0.1)
    np.fill_diagonal(m, 0.0)
    for block in (range(4), range(4, 8)):
        for i in block:
            for j in block:
                if i != j:
                    m[i, j] = 1.0
    lines = ["," + ",".join(ids)]
    for i, row in enumerate(m):
        lines.append(ids[i] + "," + ",".join(f"{x:g}" for x in row))
    (tmp_path / "blocks.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "blockfeat.json").write_text(json.dumps({
        f"s{i}": {"syntax": ["b1" if i < 4 else "b2"], "semantics": [f"m{i}"]}
        for i in range(8)}), encoding="utf-8")
    (tmp_path / "point.json").write_text(json.dumps({
        "id": "x", "sims": {f"s{i}": (0.5 if i < 4 else 0.0) for i in range(8)},
        "syntax": ["b1"], "semantics": ["mx"]}), encoding="utf-8")
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_h1_only(self, files, capsys):
        code, out, _ = run(capsys, "entropy", "--graph", files / "k4.tsv")
        assert code == 0
        assert out == "h1 2.000000000\n"

    def test_tree_report(self, files, capsys):
        code, out, _ = run(capsys, "entropy", "--graph", files / "barbell.tsv",
                           "--tree", files / "twopart.json")
        assert code == 0
        assert out == ("h1 2.556656707\n"
                       "h_t 1.699513850\n"
                       "compress 0.857142857\n"
                       "decode 0.857142857\n"
                       "ratio 0.335259268\n")

    def test_greedy_dim(self, files, capsys):
        code, out, _ = run(capsys, "entropy", "--graph", files / "barbell.tsv",
                           "--dim", 2)
        assert code == 0
        assert out == ("h1 2.556656707\n"
                       "h_t 1.699513850\n"
                       "module a b c\n"
                       "module d e f\n")

    def test_star_report_prints_unsigned_zero(self, files, capsys):
        star = files / "star.json"
        star.write_text(json.dumps({"children": [{"vertex": v} for v in "pqrs"]}),
                        encoding="utf-8")
        code, out, _ = run(capsys, "entropy", "--graph", files / "k4.tsv", "--tree", star)
        assert code == 0
        assert out == ("h1 2.000000000\n"
                       "h_t 2.000000000\n"
                       "compress 0.000000000\n"
                       "decode 0.000000000\n"
                       "ratio 0.000000000\n")

    @pytest.mark.parametrize("error, code", [
        (st.GraphParseError, 1), (st.InvariantViolation, 2), (st.SizeGuardExceeded, 3),
        (FileNotFoundError, 1)])
    def test_each_error_type_exits_with_its_code(self, files, capsys, monkeypatch, error, code):
        def fail(path):
            raise error("boom")

        monkeypatch.setattr("structen.cli.load_graph", fail)
        assert run(capsys, "entropy", "--graph", files / "k4.tsv") == (code, "", "error: boom\n")

    def test_parse_error_exit_1(self, files, capsys):
        bad = files / "bad.tsv"
        bad.write_text("a b c d\n", encoding="utf-8")
        code, _, err = run(capsys, "entropy", "--graph", bad)
        assert code == 1 and "error:" in err

    def test_self_loop_exit_2(self, files, capsys):
        loop = files / "loop.tsv"
        loop.write_text("a\ta\t1\n", encoding="utf-8")
        code, _, err = run(capsys, "entropy", "--graph", loop)
        assert code == 2 and "self-loop" in err
        inf = files / "inf.tsv"
        inf.write_text("a\tb\t1\nb\tc\tinf\nc\ta\t1\n", encoding="utf-8")
        code, _, err = run(capsys, "entropy", "--graph", inf, "--dim", 2)
        assert code == 2 and "non-finite" in err

    def test_nan_weight_is_non_finite(self, files, capsys):
        for w, fault in (("nan", "non-finite"), ("-1.0", "non-positive")):
            bad = files / "weight.tsv"
            bad.write_text(f"a b {w}\n", encoding="utf-8")
            assert run(capsys, "entropy", "--graph", bad) == \
                (2, "", f"error: {fault} weight on edge 'a'-'b'\n")

    def test_invalid_tree_exit_2(self, files, capsys):
        doc = {"children": [
            {"children": [{"vertex": "a"}, {"vertex": "b"}]},
            {"children": [{"vertex": "d"}, {"vertex": "e"}, {"vertex": "f"}]},
        ]}
        bad = files / "badtree.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "entropy", "--graph", files / "barbell.tsv",
                           "--tree", bad)
        assert code == 2 and "invalid encoding tree" in err
        code, _, err = run(capsys, "knowledge", "--graph", files / "barbell.tsv",
                           "--tree", bad, "--features", files / "features.json")
        assert code == 2 and "invalid encoding tree" in err

    def test_missing_file_exit_1(self, files, capsys):
        code, _, _ = run(capsys, "entropy", "--graph", files / "nope.tsv")
        assert code == 1

    def test_runs_as_module(self, tmp_path):
        # `python -m structen.cli` runs the same entry point as the console script
        (tmp_path / "path.txt").write_text("a b\nb c\n", encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "structen.cli", *argv], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=60)

        done = cli("entropy", "--graph", "path.txt")
        assert (done.returncode, done.stdout) == (0, "h1 1.500000000\n")
        done = cli("entropy", "--graph", "nope.txt")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ")

    def test_import_leaves_numpy_unloaded(self, files):
        # the package needs only the standard library: no command loads numpy,
        # build and insert included
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = ("import contextlib, io, sys, structen.cli\n"
                "loaded = ['numpy' in sys.modules]\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [structen.cli.main(['build', '--similarity', 'blocks.csv',\n"
                "                                '--space-out', 'space.json']),\n"
                "             structen.cli.main(['insert', '--space', 'space.json',\n"
                "                                '--point', 'point.json'])]\n"
                "loaded.append('numpy' in sys.modules)\n"
                "print(codes, loaded)")
        done = subprocess.run([sys.executable, "-c", code], cwd=files, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[0, 0] [False, False]\n"), done.stderr

    def test_trace_file_replays_to_printed_result(self, files, capsys):
        rng = random.Random(40)
        lines = [f"v{i} v{i + 1} {rng.uniform(0.1, 3.0):.4f}" for i in range(24)]
        lines += [f"v{u} v{v} {rng.uniform(0.1, 3.0):.4f}"
                  for u, v in sorted({tuple(sorted(rng.sample(range(25), 2)))
                                      for _ in range(40)})
                  if v != u + 1]
        graph = files / "sparse.tsv"
        graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
        trace = files / "trace.txt"
        for dim in (2, 3, 4):
            code, plain, _ = run(capsys, "entropy", "--graph", graph, "--dim", dim)
            code_t, out, _ = run(capsys, "entropy", "--graph", graph, "--dim", dim,
                                 "--trace", trace)
            assert code == code_t == 0
            assert out == plain
            g = st.load_graph(graph)
            text = trace.read_text(encoding="utf-8")
            assert text == st.minimize_kd(g, dim).trace_text()
            assert any(line.split()[1] == "flatten" for line in text.splitlines())
            tree = st.replay_trace(g, st.parse_trace(text))
            out_lines = out.splitlines()
            assert out_lines[1] == f"h_t {st.structural_entropy(g, tree):.9f}"
            assert out_lines[2:] == [
                "module " + " ".join(g.vertex_ids[v] for v in sorted(c.vertices))
                for c in tree.root.children]

    def test_trace_needs_dim(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy", "--graph", str(files / "k4.tsv"), "--trace",
                  str(files / "trace.txt")])
        assert exc.value.code == 2
        assert "--trace needs --dim" in capsys.readouterr().err
        assert not (files / "trace.txt").exists()

    def test_dim_below_two_exit_2(self, files, capsys):
        for dim in (0, 1, -3):
            for extra in ((), ("--trace", files / "trace.txt")):
                code, out, err = run(capsys, "entropy", "--graph", files / "k4.tsv",
                                     "--dim", dim, *extra)
                assert code == 2 and "height cap" in err
                assert out == ""
                assert not (files / "trace.txt").exists()

    def test_deeply_nested_tree_document_exit_1(self, files, capsys):
        # a caterpillar over a path graph: valid, but 1000 levels deep
        depth = 1000
        graph = files / "path.tsv"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(depth)), encoding="utf-8")
        doc = ("".join(f'{{"children": [{{"vertex": "{i}"}}, ' for i in range(depth - 1))
               + f'{{"children": [{{"vertex": "{depth - 1}"}}, {{"vertex": "{depth}"}}]}}'
               + "]}" * (depth - 1))
        json_doc = files / "deep.json"
        json_doc.write_text(doc, encoding="utf-8")
        code, out, err = run(capsys, "entropy", "--graph", graph, "--tree", json_doc)
        assert code == 1 and out == ""
        assert "document nested too deeply" in err and "Traceback" not in err


class TestOracleCommand:
    def test_barbell_height_2(self, files, capsys):
        out_tree = files / "oracle.json"
        code, out, _ = run(capsys, "oracle", "--graph", files / "barbell.tsv",
                           "--height", 2, "--out", out_tree)
        assert code == 0
        assert out == ("optimum 1.699513850\n"
                       "module a b c\n"
                       "module d e f\n")
        doc = json.loads(out_tree.read_text(encoding="utf-8"))
        assert doc["vol"] == 14.0
        assert len(doc["children"]) == 2

    def test_barbell_height_3(self, files, capsys):
        out_tree = files / "oracle.json"
        code, out, _ = run(capsys, "oracle", "--graph", files / "barbell.tsv",
                           "--height", 3, "--out", out_tree)
        assert code == 0
        assert out == ("optimum 1.468841015\n"
                       "module a b c\n"
                       "module d e f\n")
        g = st.load_graph(files / "barbell.tsv")
        tree = st.deserialize(g, json.loads(out_tree.read_text(encoding="utf-8")))
        assert tree == st.brute_force_kd(g, 3).tree and tree.height() == 3

    def test_any_height_within_the_size_guard(self, files, capsys):
        # no tree over the barbell's 6 vertices is taller than 5
        code, out, err = run(capsys, "oracle", "--graph", files / "barbell.tsv", "--height", 4)
        assert (code, err) == (0, "")
        assert run(capsys, "oracle", "--graph", files / "barbell.tsv", "--height", 9) == \
            run(capsys, "oracle", "--graph", files / "barbell.tsv", "--height", 5)

    def test_size_guard_exit_3(self, files, capsys):
        ring = files / "ring12.tsv"
        ring.write_text("".join(f"v{i}\tv{(i + 1) % 12}\t1\n" for i in range(12)),
                        encoding="utf-8")
        code, _, err = run(capsys, "oracle", "--graph", ring, "--height", 2)
        assert code == 3 and "limited to" in err


class TestBuildCommand:
    def test_planted_blocks(self, files, capsys):
        code, out, _ = run(capsys, "build", "--similarity", files / "blocks.csv",
                           "--height", 2, "--features", files / "blockfeat.json",
                           "--graph-out", files / "built.tsv",
                           "--space-out", files / "space.json")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kappa 13 decode 0.991735537"
        assert "chosen 13" in lines
        assert lines[-2:] == ["module s0 s1 s2 s3", "module s4 s5 s6 s7"]
        built = (files / "built.tsv").read_text(encoding="utf-8")
        assert built.splitlines()[0] == "s0\ts1\t1.000000000"
        assert len(built.splitlines()) == 13
        space = json.loads((files / "space.json").read_text(encoding="utf-8"))
        assert space["construction_k"] == 13

    def test_uniform_matrix(self, files, capsys):
        ids = ["a", "b", "c", "d"]
        lines = ["," + ",".join(ids)]
        for i in range(4):
            row = ["0" if i == j else "1" for j in range(4)]
            lines.append(ids[i] + "," + ",".join(row))
        uni = files / "uniform.csv"
        uni.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "build", "--similarity", uni, "--height", 2)
        assert code == 0
        # the sweep has a strict interior argmax here, not a tie at the
        # smallest connected count
        assert out.splitlines()[:4] == [
            "kappa 3 decode 0.194987500",
            "kappa 4 decode 0.500000000",
            "kappa 5 decode 0.400000000",
            "kappa 6 decode 0.333333333",
        ]
        assert "chosen 4" in out.splitlines()

    def test_asymmetric_exit_1(self, files, capsys):
        asym = files / "asym.csv"
        asym.write_text(",a,b\na,0,2\nb,3,0\n", encoding="utf-8")
        code, _, err = run(capsys, "build", "--similarity", asym)
        assert code == 1 and "symmetric" in err
        nan = files / "nan.csv"
        nan.write_text(",a,b,c\na,0,1,nan\nb,1,0,1\nc,nan,1,0\n", encoding="utf-8")
        code, _, err = run(capsys, "build", "--similarity", nan)
        assert code == 1 and "bad number" in err

    def test_negative_entry_exit_1(self, files, capsys):
        neg = files / "neg.csv"
        neg.write_text(",a,b,c\na,0,1,-2\nb,1,0,1\nc,-2,1,0\n", encoding="utf-8")
        code, out, err = run(capsys, "build", "--similarity", neg)
        assert code == 1 and out == "" and "negative entry" in err


class TestInsertCommand:
    def test_block_point(self, files, capsys):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        code, out, _ = run(capsys, "insert", "--space", files / "space.json",
                           "--point", files / "point.json",
                           "--out", files / "space2.json")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "abstraction 0"
        assert lines[1].startswith("k ")
        assert lines[2] == "module s0 s1 s2 s3 x"
        assert lines[3].startswith("h_before ") and lines[4].startswith("h_after ")
        space2 = json.loads((files / "space2.json").read_text(encoding="utf-8"))
        assert "x" in space2["vertices"]
        assert "x" in space2["catalog"]

    def test_featureless_point_reports_root(self, files, capsys):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        point = files / "plain.json"
        point.write_text(json.dumps({"id": "y", "sims": {"s0": 0.4}}),
                         encoding="utf-8")
        code, out, _ = run(capsys, "insert", "--space", files / "space.json",
                           "--point", point)
        assert code == 0
        assert out.splitlines()[0] == "abstraction root"

    @pytest.mark.parametrize("point_id, member", [("y", "y"), (42, "42")])
    def test_string_or_integer_id(self, files, capsys, point_id, member):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        point = files / "named.json"
        point.write_text(json.dumps({"id": point_id, "sims": {"s0": 0.4}}),
                         encoding="utf-8")
        code, out, _ = run(capsys, "insert", "--space", files / "space.json",
                           "--point", point)
        assert code == 0
        assert member in out.splitlines()[2].split()[1:]

    def test_all_zero_sims_exit_2(self, files, capsys):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        point = files / "zero.json"
        point.write_text(json.dumps({"id": "z", "sims": {"s0": 0.0}}),
                         encoding="utf-8")
        code, _, err = run(capsys, "insert", "--space", files / "space.json",
                           "--point", point)
        assert code == 2 and "zero" in err

    def test_duplicate_id_exit_2(self, files, capsys):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        point = files / "dup.json"
        point.write_text(json.dumps({"id": "s0", "sims": {"s1": 1.0}}),
                         encoding="utf-8")
        code, _, err = run(capsys, "insert", "--space", files / "space.json",
                           "--point", point)
        assert code == 2 and "already present" in err

    def test_catalog_missing_a_vertex_exit_2(self, files, capsys):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        space = files / "space.json"
        doc = json.loads(space.read_text(encoding="utf-8"))
        del doc["catalog"]["s3"]
        space.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "insert", "--space", space,
                             "--point", files / "point.json")
        assert (code, out) == (2, "")
        assert "missing catalog entry for vertex 's3'" in err


def _leaves(*ids):
    return [{"vertex": f"s{i}"} for i in ids]


# a height-3 decoder over s0..s7, for the height-2 space that `build` writes
TALL_DECODER = {"children": [{"children": [{"children": _leaves(0, 1)}, *_leaves(2, 3)]},
                             {"children": _leaves(4, 5, 6, 7)}]}

BAD_INSERT_INPUTS = [
    # (document, key path, new value, exit code, stderr fragment)
    *[("space", (key,), value, 1, f"{key!r} must be an integer")
      for key in ("height", "construction_k") for value in ("abc", 2.7, 1.5, True)],
    ("space", ("vertices",), "s0s1s2", 1, "'vertices' must be a list"),
    ("space", ("vertices",), {"s0": 1}, 1, "'vertices' must be a list"),
    ("space", ("edges",), {"s0": "s1"}, 1, "each edge must be a [u, v, weight] list"),
    ("space", ("edges", 0), ["s0", "s1"], 1, "each edge must be a [u, v, weight] list"),
    ("space", ("edges", 0), "s0s1", 1, "each edge must be a [u, v, weight] list"),
    ("space", ("edges", 0), ["s0", "s1", 1.0, 2.0], 1, "each edge must be a [u, v, weight] list"),
    *[("space", ("edges", 0), ["s0", "s1", w], 1, "edge weights must be numbers")
      for w in ("1.0", None, True)],
    *[("point", ("sims", "s0"), value, 1, "'sims' must map vertex ids to weights")
      for value in ("0.5", None)],
    *[("point", (key,), value, 1, f"{key!r} must be a list of tokens")
      for key in ("syntax", "semantics")
      for value in (5, "abc", [None], [{"k": 1}], [1.5], ["t", 2])],
    # a JSON token is a string; any other value is not read as its str
    ("space", ("catalog", "s0", "syntax"), ["b1", None], 1, "token lists expected for 's0'"),
    ("space", ("catalog", "s0", "semantics"), [1.5], 1, "token lists expected for 's0'"),
    *[("point", ("id",), value, 1, "'id' must be a string or an integer")
      for value in (None, True, 1.5, [1, 2], {"x": 1})],
    *[("space", ("abstraction_source",), value, 1, "'abstraction_source' must be a string")
      for value in (["syntax"], None, 5)],
    # numbers of the right type but out of range stay invariant violations
    *[("space", ("height",), value, 2, "height cap must be at least 2") for value in (0, 1)],
    ("space", ("decoder",), TALL_DECODER, 2, "decoder is taller than the height cap 2"),
    ("space", ("edges", 0), ["s0", "s1", -1.0], 2, "non-positive weight"),
    ("point", ("sims", "s0"), -0.5, 2, "negative or non-finite similarity"),
    ("space", ("abstraction_source",), "tags", 2, "unknown feature source 'tags'"),
    # JSON integers too large for a float
    ("space", ("edges", 0), ["s0", "s1", 10 ** 400], 2, "non-finite weight"),
    ("point", ("sims", "s0"), 10 ** 400, 2, "negative or non-finite similarity"),
]


class TestInsertDocumentTypes:
    @pytest.mark.parametrize(
        "target, keys, value, code, message", BAD_INSERT_INPUTS,
        ids=[f"{t}.{'.'.join(map(str, k))}={v!r:.40}" for t, k, v, _, _ in BAD_INSERT_INPUTS])
    def test_bad_value_exits_cleanly(self, files, capsys, target, keys, value, code, message):
        run(capsys, "build", "--similarity", files / "blocks.csv",
            "--height", 2, "--features", files / "blockfeat.json",
            "--space-out", files / "space.json")
        path = files / f"{target}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        got, out, err = run(capsys, "insert", "--space", files / "space.json",
                            "--point", files / "point.json")
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err and "Traceback" not in err


NON_UTF8_INPUTS = {
    # input document -> argv, "{}" standing for the files' directory
    "edge list": ("entropy", "--graph", "{}/bad.txt"),
    "tree": ("entropy", "--graph", "{}/barbell.tsv", "--tree", "{}/bad.txt"),
    "similarity csv": ("build", "--similarity", "{}/bad.txt"),
    "catalog": ("knowledge", "--graph", "{}/barbell.tsv", "--tree", "{}/twopart.json",
                "--features", "{}/bad.txt"),
    "space": ("insert", "--space", "{}/bad.txt", "--point", "{}/point.json"),
    "point": ("insert", "--space", "{}/space.json", "--point", "{}/bad.txt"),
}


class TestNonUtf8Input:
    @pytest.mark.parametrize("argv", NON_UTF8_INPUTS.values(), ids=NON_UTF8_INPUTS.keys())
    def test_exit_1_naming_the_file(self, files, capsys, argv):
        run(capsys, "build", "--similarity", files / "blocks.csv", "--height", 2,
            "--features", files / "blockfeat.json", "--space-out", files / "space.json")
        (files / "bad.txt").write_bytes(b"a b\n\xff\n")
        code, out, err = run(capsys, *(a.format(files) for a in argv))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {files / 'bad.txt'}: not UTF-8 text")
        assert "Traceback" not in err


BUILD_FROM_BAD = ("build", "--similarity", "{}/bad.txt")
BUILD_WITH_BAD_FEATURES = ("build", "--similarity", "{}/blocks.csv", "--features", "{}/bad.txt")
INSERT_BAD_POINT = ("insert", "--space", "{}/space.json", "--point", "{}/bad.txt")
BAD_DOCUMENTS = {
    # input fault -> (argv, text of bad.txt, stderr line after "error: "),
    # "{}" standing for the files' directory and "{}/" dropped from the line
    "csv of one sample": (BUILD_FROM_BAD, ",a\na,0\n",
                          "bad.txt: similarity matrix needs at least 2 samples"),
    "csv row count": (BUILD_FROM_BAD, ",a,b,c\na,0,1,1\nb,1,0,1\n",
                      "bad.txt: expected 4 rows, got 3"),
    "csv short row": (BUILD_FROM_BAD, ",a,b\na,0\nb,1,0\n",
                      "bad.txt: row 2 has 2 fields, expected 3"),
    "csv row id": (BUILD_FROM_BAD, ",a,b\na,0,1\nc,1,0\n",
                   "bad.txt: row 3 identifier 'c' does not match header"),
    "weight with a digit separator": (("entropy", "--graph", "{}/bad.txt"), "a b 1_5\n",
                                      "bad.txt:1: bad weight '1_5'"),
    "catalog not an object": (BUILD_WITH_BAD_FEATURES, "[]",
                              "feature catalog: expected an object of vertex entries"),
    "catalog entry not an object": (BUILD_WITH_BAD_FEATURES, '{"s0": 5}',
                                    "feature catalog: entry for 's0' must be an object"),
    "catalog tokens not a list": (BUILD_WITH_BAD_FEATURES, '{"s0": {"syntax": "b1"}}',
                                  "feature catalog: token lists expected for 's0'"),
    "catalog token not a string": (BUILD_WITH_BAD_FEATURES, '{"s0": {"syntax": ["b1", null]}}',
                                   "feature catalog: token lists expected for 's0'"),
    "catalog token a number": (BUILD_WITH_BAD_FEATURES, '{"s0": {"semantics": [1.5]}}',
                               "feature catalog: token lists expected for 's0'"),
    "malformed json": (("entropy", "--graph", "{}/barbell.tsv", "--tree", "{}/bad.txt"),
                       '{"children": [', "bad.txt: Expecting value: line 1 column 15 (char 14)"),
    "space missing a key": (("insert", "--space", "{}/bad.txt", "--point", "{}/point.json"),
                            '{"vertices": ["s0", "s1"]}', "space document: missing 'edges'"),
    "point without id": (INSERT_BAD_POINT, '{"sims": {"s0": 0.5}}',
                         "bad.txt: point document needs 'id' and 'sims'"),
    "point without sims": (INSERT_BAD_POINT, '{"id": "x"}',
                           "bad.txt: point document needs 'id' and 'sims'"),
}


class TestBadDocuments:
    @pytest.mark.parametrize("argv, text, message", BAD_DOCUMENTS.values(),
                             ids=BAD_DOCUMENTS.keys())
    def test_exit_1_with_one_error_line(self, files, capsys, argv, text, message):
        run(capsys, "build", "--similarity", files / "blocks.csv", "--height", 2,
            "--features", files / "blockfeat.json", "--space-out", files / "space.json")
        (files / "bad.txt").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *(a.format(files) for a in argv))
        assert (code, out) == (1, "")
        assert err.replace(f"{files}/", "") == f"error: {message}\n"


class TestKnowledgeCommand:
    def test_worked_example(self, files, capsys):
        out_doc = files / "kdoc.json"
        code, out, _ = run(capsys, "knowledge", "--graph", files / "barbell.tsv",
                           "--tree", files / "twopart.json",
                           "--features", files / "features.json",
                           "--out", out_doc)
        assert code == 0
        assert out == "root-features t\n"
        doc = json.loads(out_doc.read_text(encoding="utf-8"))
        assert doc["knowledge"]["features"] == ["t"]
        module = doc["knowledge"]["children"][1]
        assert module["features"] == ["t", "w"]
        # block {d,e,f} shares {t,w}, so its leaves contract into the module
        abs_children = doc["abstractions"]["children"]
        assert {"features": ["t", "w"], "vertices": ["d", "e", "f"],
                "children": []} in abs_children

    def test_empty_catalog_exit_2(self, files, capsys):
        empty = files / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "knowledge", "--graph", files / "barbell.tsv",
                           "--tree", files / "twopart.json", "--features", empty)
        assert code == 2 and "missing catalog entry" in err

    def test_singleton_module_leaf_features(self, files, capsys):
        doc = {"children": [
            {"children": [{"vertex": "a"}, {"vertex": "b"}, {"vertex": "c"},
                          {"vertex": "d"}, {"vertex": "e"}]},
            {"vertex": "f"},
        ]}
        tree = files / "singleton.json"
        tree.write_text(json.dumps(doc), encoding="utf-8")
        out_doc = files / "kdoc2.json"
        code, out, _ = run(capsys, "knowledge", "--graph", files / "barbell.tsv",
                           "--tree", tree, "--features", files / "features.json",
                           "--out", out_doc)
        assert code == 0
        payload = json.loads(out_doc.read_text(encoding="utf-8"))
        leaf = payload["knowledge"]["children"][1]
        assert leaf == {"features": ["t", "w"], "vertex": "f"}


class TestDeterminism:
    def test_repeated_runs_identical(self, files, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "entropy", "--graph", files / "barbell.tsv",
                               "--tree", files / "twopart.json")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_build_byte_identical(self, files, capsys):
        outputs = []
        for run_idx in range(2):
            space = files / f"space{run_idx}.json"
            code, out, _ = run(capsys, "build", "--similarity", files / "blocks.csv",
                               "--height", 2, "--features", files / "blockfeat.json",
                               "--space-out", space)
            assert code == 0
            outputs.append(out + space.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]

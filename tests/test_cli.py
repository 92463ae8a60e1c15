import json
import random

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
      for key in ("syntax", "semantics") for value in (5, "abc")],
    *[("space", ("abstraction_source",), value, 1, "'abstraction_source' must be a string")
      for value in (["syntax"], None, 5)],
    # numbers of the right type but out of range stay invariant violations
    ("space", ("height",), 1, 2, "taller than the height cap"),
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

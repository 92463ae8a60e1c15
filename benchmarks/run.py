#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of structen's three user paths.

Each workload runs in its own single-threaded process, in a closed loop:
one CLI command at a time, back to back, through `structen.cli.main(argv)`
in-process on input files generated from `--seed`.  A run repeats whole
rounds of the workload's commands for `--seconds`, checks every output
against the independent code in `reference.py`, prints every metric with
its unit, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the repository root:

    python3 benchmarks/run.py --workload minimize --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload stream --seed 1 --seconds 40 --trace 1
    python3 benchmarks/run.py --seed 1 --seconds 40      # every workload in turn
    python3 benchmarks/run.py --workload build --seed 1 --seconds 1 --record
    python3 benchmarks/run.py --write-manifest           # rewrites BENCHMARK.json

See benchmarks/README.md for the workloads, the metrics and what moves them.
"""

from __future__ import annotations

import os

# One thread per workload process: numpy's BLAS pools read these on import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
import reference
from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 40
SETUP_SAMPLE_S = 0.02  # set-up repeats between rounds until this much time passed
SPARSE_N, SPARSE_M, PATH_N = 200, 600, 300
BLOCKS, BLOCK_SIZE = 4, 4            # planted matrices of `build`
START_BLOCKS, START_SIZE = 3, 5      # starting space of `stream`
CHAIN = 45                           # inserts per `stream` round

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("pass_s", "s", "lower", 0.25),
    ("command_p50_s", "s", "lower", 0.25),
    ("commands_per_s", "1/s", "higher", 0.25),
]


@dataclass(frozen=True)
class Op:
    """One CLI command of a round.

    A fault op provokes a known fault: it is untimed, and it counts as
    failed while the CLI does not give the documented exit code.
    """

    label: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()
    check: Callable[[str], list[str]] | None = field(default=None, compare=False)
    fault: str = ""
    expect_rc: int = 0


def call(cli, argv) -> tuple[object, str, str, float]:
    """Run one command in-process: (exit code or exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the CLI let an error escape: record it as the outcome
        rc = f"uncaught {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- workloads
# Each setup function writes the inputs for one seed into `work` and returns
# the ops of one round plus any errors met while setting up.

def setup_minimize(seed: int, work: Path, cli):
    rng = random.Random(f"minimize:{seed}")
    graphs = {"sparse": inputs.sparse_graph(rng, SPARSE_N, SPARSE_M),
              "path": inputs.path_graph(rng, PATH_N)}
    ops = []
    for name, edges in graphs.items():
        inputs.write_edges(work / f"{name}.tsv", edges)
        for k in (2, 3):
            ops.append(Op(f"entropy-{name}-dim{k}",
                          ("entropy", "--graph", str(work / f"{name}.tsv"), "--dim", str(k)),
                          check=partial(reference.check_entropy_dim, edges=edges, k=k)))
    inputs.write_edges(work / "inf.tsv", inputs.INF_EDGES)
    ops.append(Op("fault-inf-weight", ("entropy", "--graph", str(work / "inf.tsv"), "--dim", "2"),
                  fault="an edge list with an inf weight should exit 2", expect_rc=2))
    return ops, []


def _build_op(label, work: Path, stem: str, height: int, ids, block_of, sim, features=False):
    graph_out, space_out = work / f"{stem}.tsv", work / f"{stem}.space.json"
    argv = ["build", "--similarity", str(work / f"{stem}.csv"), "--height", str(height),
            "--graph-out", str(graph_out), "--space-out", str(space_out)]
    if features:
        argv += ["--features", str(work / f"{stem}.features.json")]

    def check(stdout):
        return reference.check_build(stdout, ids, sim, block_of, height,
                                     graph_out.read_text(encoding="utf-8"), read_json(space_out))

    return Op(label, tuple(argv), (graph_out, space_out), check)


def _write_planted(rng, work: Path, stem: str, blocks=BLOCKS, size=BLOCK_SIZE):
    ids, block_of, sim = inputs.planted_blocks(rng, blocks, size, prefix=stem)
    inputs.write_similarity(work / f"{stem}.csv", ids, sim)
    inputs.write_json(work / f"{stem}.features.json", inputs.catalog(rng, block_of))
    return ids, block_of, sim


def setup_build(seed: int, work: Path, cli):
    rng = random.Random(f"build:{seed}")
    plain = _write_planted(rng, work, "a")
    featured = _write_planted(rng, work, "b")
    inputs.write_similarity(work / "nan.csv", inputs.NAN_IDS, inputs.NAN_SIM)
    ops = [_build_op("build-height2", work, "a", 2, *plain),
           _build_op("build-height3-features", work, "b", 3, *featured, features=True),
           Op("fault-nan-similarity",
              ("build", "--similarity", str(work / "nan.csv"), "--height", "2"),
              fault="a similarity CSV with a nan cell should exit 1", expect_rc=1)]
    return ops, []


def setup_stream(seed: int, work: Path, cli):
    rng = random.Random(f"stream:{seed}")
    ids, block_of, sim = _write_planted(rng, work, "s", START_BLOCKS, START_SIZE)
    start = _build_op("build-start-space", work, "s", 2, ids, block_of, sim, features=True)
    rc, stdout, stderr, _ = call(cli, start.argv)
    errors = [f"setup build exited {rc!r}: {stderr.strip()}"] if rc != 0 else start.check(stdout)
    shutil.copyfile(work / "s.space.json", work / "space00.json")

    # Every block receives the same number of points, so the work of a
    # chain varies little from seed to seed.
    blocks = [i % START_BLOCKS for i in range(CHAIN)]
    rng.shuffle(blocks)
    present = dict(block_of)
    ops = []
    for i, block in enumerate(blocks):
        pid = f"x{i:02d}"
        doc = inputs.point(rng, pid, block, present)
        present[pid] = block
        point = work / f"point{i:02d}.json"
        inputs.write_json(point, doc)
        space_in, space_out = work / f"space{i:02d}.json", work / f"space{i + 1:02d}.json"

        def check(stdout, space_in=space_in, space_out=space_out, doc=doc):
            return reference.check_insert(stdout, read_json(space_in), read_json(space_out), doc)

        ops.append(Op(f"insert-{i:02d}", ("insert", "--space", str(space_in), "--point", str(point),
                                          "--out", str(space_out)), (space_out,), check))
    return ops, [f"setup: {e}" for e in errors]


@dataclass(frozen=True)
class Workload:
    setup: Callable
    why: str


WORKLOADS = {
    "minimize": Workload(setup_minimize,
                         "entropy --dim 2/3 on sparse and path graphs: the greedy optimizer "
                         "dominates, learning is idle"),
    "build": Workload(setup_build,
                      "build over a kappa sweep on planted blocks: hundreds of greedy runs on "
                      "small graphs, per-call overhead"),
    "stream": Workload(setup_stream,
                       "a chain of insert commands on a growing space: tree copies, stats "
                       "refreshes, Graph builds, JSON I/O; no greedy"),
}


# ---------------------------------------------------------------- running

class Runner:
    """Runs whole rounds of ops and checks every output it sees."""

    def __init__(self, cli, ops: list[Op]):
        self.cli = cli
        self.ops = ops
        self.rounds = 0
        self.failed = 0
        self.errors: list[str] = []
        self.faults: dict[str, str] = {}
        self.digests: dict[str, dict[str, str]] | None = None
        self.command_s: list[float] = []

    def run(self, seconds: float, between: Callable[[], object],
            tracer: Tracer | None = None) -> list[float]:
        """Rounds until `seconds` have passed (at least one); returns pass times.

        `between` runs after every round but the last.
        """
        passes = []
        start = perf_counter()
        while True:
            gc.collect()
            passes.append(self._round(tracer))
            if perf_counter() - start >= seconds:
                return passes
            between()

    def _round(self, tracer) -> float:
        outcomes = {}
        total = 0.0
        for op in self.ops:
            if tracer is not None:
                tracer.paused = bool(op.fault)
            rc, stdout, stderr, seconds = call(self.cli, op.argv)
            if op.fault:
                if rc != op.expect_rc:
                    self.failed += 1
                    self.faults[op.label] = f"{op.fault}; got {rc!r}"
                continue
            total += seconds
            self.command_s.append(seconds)
            if rc != 0:
                self.failed += 1
                self.errors.append(f"{op.label}: exited {rc!r}: {stderr.strip()}")
            outcomes[op.label] = stdout
        if tracer is not None:
            tracer.paused = True
        self._check(outcomes)
        self.rounds += 1
        return total

    def _check(self, outcomes: dict[str, str]) -> None:
        digests = {}
        for op in self.ops:
            if op.label not in outcomes:
                continue
            stdout = outcomes[op.label]
            digests[op.label] = {"stdout": sha256(stdout.encode())}
            for path in op.outputs:
                digests[op.label][path.name] = sha256(path.read_bytes())
            if self.digests is None and op.check is not None:
                self.errors += [f"{op.label}: {e}" for e in op.check(stdout)]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.errors.append(f"pass {self.rounds + 1}: output differs from the first pass")

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_structen():
    """Import structen from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "structen" / "__init__.py").is_file():
        raise SystemExit(f"error: no structen sources at {src}")
    sys.path.insert(0, str(src))
    import structen.cli
    if Path(structen.cli.__file__).resolve().parent != (src / "structen").resolve():
        raise SystemExit(f"error: structen was imported from {structen.cli.__file__}")
    return structen.cli


def digest_report(args, digests) -> list[str]:
    """Compare with (or, under --record, write) the recorded output digests."""
    path = HERE / "digests" / f"{args.workload}-seed{args.seed}.json"
    if args.record:
        path.parent.mkdir(exist_ok=True)
        inputs.write_json(path, {
            "command": f"python3 benchmarks/run.py --workload {args.workload} "
                       f"--seed {args.seed} --seconds 1 --trace 0 --record",
            "digests": digests})
        return [f"digests recorded in {path.relative_to(ROOT)}"]
    if not path.is_file():
        return [f"no recorded digests for seed {args.seed}"]
    recorded = read_json(path)["digests"]
    differ = sorted(f"{label} {name}" for label in set(recorded) | set(digests)
                    for name in set(recorded.get(label, {})) | set(digests.get(label, {}))
                    if recorded.get(label, {}).get(name) != digests.get(label, {}).get(name))
    return [f"digests: {len(differ)} differ from {path.relative_to(ROOT)}"] + \
        [f"digest differs: {d}" for d in differ]


def run_workload(args) -> dict:
    cli = load_structen()
    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Set-up runs again after every round, rewriting the same files, so
        # that its median samples the whole run rather than its first moment;
        # a set-up of a few milliseconds repeats to give more samples.
        setup_s, setup_errors = [], []

        def set_up():
            start = perf_counter()
            ops, errors = workload.setup(args.seed, work, cli)
            setup_s.append(perf_counter() - start)
            setup_errors.extend(errors)
            return ops

        def set_up_again():
            start = perf_counter()
            while perf_counter() - start < SETUP_SAMPLE_S:
                set_up()

        runner = Runner(cli, set_up())
        notes = []
        if args.trace:
            untraced = runner.run(args.seconds / 2, set_up_again)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run(args.seconds / 2, set_up_again, tracer)
            finally:
                tracer.uninstall()
            overhead = statistics.median(traced) - statistics.median(untraced)
            metrics = tracer.metrics(len(traced), overhead)
            units = dict(metric_units())
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            tracer.dump(out, {"workload": args.workload, "seed": args.seed,
                              "traced_passes": len(traced), "untraced_passes": len(untraced),
                              "overhead_s": overhead})
            notes.append(f"spans and counts written to {out.relative_to(ROOT)}")
        else:
            passes = runner.run(args.seconds, set_up_again)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "pass_s": statistics.fmean(passes),
                "command_p50_s": statistics.median(runner.command_s),
                "commands_per_s": len(runner.command_s) / sum(runner.command_s),
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
            notes.append(f"{len(passes)} passes, {len(runner.command_s)} timed commands")
        notes += digest_report(args, runner.digests)
        runner.errors += sorted(set(setup_errors))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, why in sorted(runner.faults.items()):
        notes.append(f"known fault, counted as failed: {label}: {why}")
    for line in notes + [f"error: {e}" for e in runner.errors[:20]]:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {"correct": not runner.errors, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/run.py"],
        "paths": ["benchmarks"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "higher" if u == "1/s" else "lower"}
                      for n, u in metric_units()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the output digests of this seed instead of comparing")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        inputs.write_json(ROOT / "BENCHMARK.json", manifest())
        return 0
    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            child = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(child + ["--record"] * args.record).returncode)
        return status
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing by wrapping structen's public calls from outside.

structen's modules import each other's functions by name, so a function is
wrapped by rebinding that name in every structen module that holds it.
`Graph.__init__` and `EncodingTree.copy` are wrapped on their classes.
Per-node methods such as `TreeNode.height` are left alone: they run about a
million times per greedy call, and wrapping them would swamp the figures.

A span's self time is its duration minus the time covered by traced child
spans; counts are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric stem, module, class or None, attribute, report a call count).
# The order is the order of the per-layer metrics.
TARGETS = [
    ("cli.self", "cli", None, "main", False),
    ("graph.load_graph", "graph", None, "load_graph", False),
    ("graph.load_similarity_csv", "graph", None, "load_similarity_csv", False),
    ("graph.one_dim_entropy", "graph", None, "one_dim_entropy", False),
    ("graph.Graph", "graph", "Graph", "__init__", True),
    ("graph.positive_pairs", "graph", None, "positive_pairs", True),
    ("graph.build_topk_graph", "graph", None, "build_topk_graph", False),
    ("tree.refresh_stats", "tree", None, "refresh_stats", True),
    ("tree.validate", "tree", None, "validate", True),
    ("tree.copy", "tree", "EncodingTree", "copy", True),
    ("tree.deserialize", "tree", None, "deserialize", False),
    ("tree.serialize", "tree", None, "serialize", False),
    ("metrics.structural_entropy", "metrics", None, "structural_entropy", True),
    ("optimize.minimize_kd", "optimize", None, "minimize_kd", True),
    ("learning.build_data_space", "learning", None, "build_data_space", False),
    ("learning.insert_point", "learning", None, "insert_point", True),
    ("learning.knowledge_tree", "learning", None, "knowledge_tree", False),
]
STEP_PHASES = ("agglomerate", "compress", "polish")


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for stem, _, _, _, calls in TARGETS:
        out += ([(f"{stem}_calls", "count")] if calls else []) + [(f"{stem}_s", "s")]
    out += [(f"optimize.steps_{p}", "count") for p in STEP_PHASES]
    out += [("optimize.steps_per_s", "1/s"), ("learning.sweep_points", "count"),
            ("learning.placements_per_insert", "count"), ("trace.overhead_s", "s")]
    return out


def phase_steps(trace) -> Counter:
    """Greedy steps per phase, read from an optimizer trace.

    Steps before the first flatten are agglomerate steps, flatten steps
    are compress steps, and the steps after them are polish steps.
    """
    kinds = [step.kind for step in trace]
    if "flatten" not in kinds:
        return Counter(agglomerate=len(kinds))
    first = kinds.index("flatten")
    flattens = kinds.count("flatten")
    return Counter(agglomerate=first, compress=flattens,
                   polish=len(kinds) - first - flattens)


class Tracer:
    """Records spans and counts while installed; `paused` turns it off."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.paused = False
        self._stack: list[list] = []      # [span id, child seconds]
        self._next_id = 0
        self._inserting = 0               # open learning.insert_point spans
        self._command = -1
        self._origin = perf_counter()
        self._undo: list[tuple] = []

    def _wrap(self, stem: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if stem == "cli.self":
                self._command += 1
            if stem == "tree.refresh_stats" and self._inserting:
                self.counts["refresh_in_insert"] += 1
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            self._inserting += stem == "learning.insert_point"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._inserting -= stem == "learning.insert_point"
                duration = end - start
                self.self_s[stem] += duration - frame[1]
                self.calls[stem] += 1
                if parent is not None:
                    parent[1] += duration
                self.spans.append((frame[0], parent[0] if parent else None, self._command,
                                   stem, start - self._origin, end - self._origin))
            if stem == "optimize.minimize_kd":
                self.counts.update(phase_steps(result.trace))
            elif stem == "learning.build_data_space":
                self.counts["sweep_points"] += len(result.sweep)
            return result
        return traced

    def install(self, package: str = "structen") -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for stem, module, cls_name, attr, _ in TARGETS:
            home = sys.modules[f"{package}.{module}"]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(stem, original))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(stem, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Per-pass values of every metric in `metric_units()`."""
        values: dict[str, float] = {}
        for stem, *_ in TARGETS:
            values[f"{stem}_s"] = self.self_s[stem] / passes
            values[f"{stem}_calls"] = self.calls[stem] / passes
        for phase in STEP_PHASES:
            values[f"optimize.steps_{phase}"] = self.counts[phase] / passes
        steps = sum(self.counts[p] for p in STEP_PHASES)
        greedy_s = self.self_s["optimize.minimize_kd"]
        values["optimize.steps_per_s"] = steps / greedy_s if greedy_s > 0 else 0.0
        values["learning.sweep_points"] = self.counts["sweep_points"] / passes
        inserts = self.calls["learning.insert_point"]
        values["learning.placements_per_insert"] = (
            self.counts["refresh_in_insert"] / inserts if inserts else 0.0)
        values["trace.overhead_s"] = overhead_s
        return {name: values[name] for name, _ in metric_units()}

    def dump(self, path, header: dict) -> None:
        doc = dict(header)
        doc["self_s"] = dict(sorted(self.self_s.items()))
        doc["calls"] = dict(sorted(self.calls.items()))
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["span_fields"] = ["id", "parent", "command", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")

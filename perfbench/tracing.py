"""Spans around rscol's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function wherever rscol looks it up:
the module attribute, the class attribute for static constructors, and every
``from .x import y`` binding in the other rscol modules.  A span records name,
start, end, parent span and command id; counters are read from the returned
objects after the span has ended.  Spans stay in memory until the pass ends.

``layer_metrics`` turns the spans of the traced passes into the per-layer
metrics, each averaged per pass.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _nbytes(result) -> dict:
    return {"bytes": int(result.nbytes)}


# module -> {function or Class.function: counter extractor or None}
TRACED = {
    "cli": {"run": None},
    "graph": {
        "read_graph_file": None,
        "write_graph_file": None,
        "Graph.from_edge_list": None,
        "is_chordal": None,
        "list_triangles": None,
        "connected_components": None,
    },
    "tree3rs": {"test_3rs_tree": lambda r: {"visited": r.visited}},
    "chordal3rs": {
        "eliminate_triangles": lambda r: {
            "eliminations": r.eliminations,
            "triangles": sum(r.triangle_counts),
        },
    },
    "solver": {
        "decide_k_rs": lambda r: {"nodes": r.nodes},
        "decide_k_star": lambda r: {"nodes": r.nodes},
        "decide_k_ordered": lambda r: {"nodes": r.nodes},
    },
    "constructions": {"sat_to_graph": None},
    "colouring": {
        "is_proper": None,
        "is_rs": None,
        "is_star": None,
        "is_ordered": None,
        "read_colouring_file": None,
        "read_partial_colouring_file": None,
        "write_colouring_file": None,
    },
    "hessian": {
        "read_matrix_market": _nbytes,
        "SparsityPattern.from_dense": None,
        "pattern_to_graph": None,
        "greedy_rs_colouring": lambda r: {"colours": r.k},
        "compress": _nbytes,
        "recover": _nbytes,
        "read_dense_csv": _nbytes,
        "write_dense_csv": None,
    },
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, command id, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.command = -1

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return traced

    def install(self) -> None:
        modules = {m: sys.modules[f"rscol.{m}"] for m in TRACED}
        for module_name, functions in TRACED.items():
            home = modules[module_name]
            for qualname, counter in functions.items():
                span_name = f"{module_name}.{qualname.rsplit('.', 1)[-1]}"
                if "." in qualname:  # a static constructor on a class
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr].__func__
                    setattr(cls, attr, staticmethod(self._wrap(span_name, original, counter)))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(span_name, original, counter)
                for module in modules.values():
                    if getattr(module, qualname, None) is original:
                        setattr(module, qualname, wrapper)


# -- aggregation ---------------------------------------------------------------------


def _inclusive(spans, names) -> float:
    """Time inside calls to `names`, counting nested calls of the same set once."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent != -1 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent == -1:
            total += span[2] - span[1]
    return total


def _self(spans, name) -> float:
    """Duration of `name` spans minus the time their direct children cover."""
    total = 0.0
    for span in spans:
        if span[0] == name:
            total += span[2] - span[1]
    for span in spans:
        if span[3] != -1 and spans[span[3]][0] == name:
            total -= span[2] - span[1]
    return total


def _calls(spans, names) -> int:
    return sum(1 for span in spans if span[0] in names)


def _counter(spans, name, key) -> int:
    return sum(span[5][key] for span in spans if span[0] == name and span[5])


VERIFY = {"colouring.is_proper", "colouring.is_rs", "colouring.is_star", "colouring.is_ordered"}
COLOURING_IO = {
    "colouring.read_colouring_file",
    "colouring.read_partial_colouring_file",
    "colouring.write_colouring_file",
}
DENSE = {
    "hessian.read_matrix_market",
    "hessian.compress",
    "hessian.recover",
    "hessian.read_dense_csv",
}


def select(spans, commands) -> list[list]:
    """The spans of the given command ids, with parent indices renumbered."""
    index: dict[int, int] = {}
    out = []
    for i, span in enumerate(spans):
        if span[4] in commands:
            index[i] = len(out)
            out.append([*span[:3], index.get(span[3], -1), *span[4:]])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    t = lambda *names: _inclusive(spans, set(names))  # noqa: E731
    elimination = "chordal3rs.eliminate_triangles"
    return {
        "graph.parse_s": _self(spans, "graph.read_graph_file"),
        "graph.build_s": t("graph.from_edge_list"),
        "graph.build_calls": _calls(spans, {"graph.from_edge_list"}),
        "graph.is_chordal_s": t("graph.is_chordal"),
        "graph.list_triangles_s": t("graph.list_triangles"),
        "graph.list_triangles_calls": _calls(spans, {"graph.list_triangles"}),
        "graph.components_s": t("graph.connected_components"),
        "graph.write_s": t("graph.write_graph_file"),
        "tree3rs.test_s": t("tree3rs.test_3rs_tree"),
        "tree3rs.visited": _counter(spans, "tree3rs.test_3rs_tree", "visited"),
        "chordal3rs.eliminate_s": t(elimination),
        "chordal3rs.eliminations": _counter(spans, elimination, "eliminations"),
        "chordal3rs.triangles_scanned": _counter(spans, elimination, "triangles"),
        "solver.ordered_s": t("solver.decide_k_ordered"),
        "solver.ordered_nodes": _counter(spans, "solver.decide_k_ordered", "nodes"),
        "solver.star_s": t("solver.decide_k_star"),
        "solver.star_nodes": _counter(spans, "solver.decide_k_star", "nodes"),
        "solver.rs_s": t("solver.decide_k_rs"),
        "solver.rs_nodes": _counter(spans, "solver.decide_k_rs", "nodes"),
        "solver.decide_calls": _calls(spans, {"solver.decide_k_rs"}),
        "constructions.sat_to_graph_s": t("constructions.sat_to_graph"),
        "colouring.verify_s": _inclusive(spans, VERIFY),
        "colouring.verify_calls": _calls(spans, VERIFY),
        "colouring.io_s": _inclusive(spans, COLOURING_IO),
        "hessian.mm_read_s": t("hessian.read_matrix_market"),
        "hessian.pattern_s": t("hessian.from_dense", "hessian.pattern_to_graph"),
        "hessian.compress_s": t("hessian.compress"),
        "hessian.dense_bytes": sum(_counter(spans, name, "bytes") for name in DENSE),
        "hessian.group_s": t("hessian.greedy_rs_colouring"),
        "hessian.colours": _counter(spans, "hessian.greedy_rs_colouring", "colours"),
        "hessian.recover_s": t("hessian.recover"),
        "hessian.csv_read_s": t("hessian.read_dense_csv"),
        "hessian.csv_write_s": t("hessian.write_dense_csv"),
        "cli.self_s": _self(spans, "cli.run"),
    }


def layer_metrics(traced_passes) -> dict[str, float]:
    """Per-pass means over the traced passes, plus the derived ratios."""
    per_pass = [pass_metrics(spans) for spans in traced_passes]
    m = {key: sum(p[key] for p in per_pass) / len(per_pass) for key in per_pass[0]}
    m["tree3rs.visited_per_s"] = _ratio(m["tree3rs.visited"], m["tree3rs.test_s"])
    m["chordal3rs.useful_ratio"] = _ratio(m["chordal3rs.eliminations"],
                                          m["chordal3rs.triangles_scanned"])
    m["solver.rs_nodes_per_s"] = _ratio(m["solver.rs_nodes"], m["solver.rs_s"])
    return m

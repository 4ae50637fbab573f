"""Tests of the benchmark's own checks, generators and plumbing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import filecmp
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
HERE = os.path.join(ROOT, "perfbench")

DART_EDGES = [(0, 1), (1, 2), (1, 3), (1, 4), (3, 2), (4, 2)]


def test_rs_check_accepts_the_dart_colouring():
    assert checks.is_rs(checks.adjacency(5, DART_EDGES), [1, 0, 1, 2, 2])


def test_rs_check_rejects_planted_violations():
    adj = checks.adjacency(5, DART_EDGES)
    # vertex 1 (colour 1) gets two neighbours of the lower colour 0
    assert not checks.is_rs(adj, [0, 1, 0, 2, 2])
    # monochromatic edge 3-2
    assert not checks.is_rs(adj, [1, 0, 2, 2, 3])


def _random_graph(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _brute_ranking_number(n, edges):
    """Fewest colours of a vertex ranking, by trying every colouring and every
    path between two equal colours."""
    adj = checks.adjacency(n, edges)

    def paths(u, v, seen):
        if u == v:
            yield []
            return
        for w in adj[u]:
            if w not in seen:
                for rest in paths(w, v, seen | {w}):
                    yield [w] + rest

    for k in range(1, n + 1):
        for c in itertools.product(range(k), repeat=n):
            if all(
                any(c[x] > c[u] for x in path[:-1])
                for u in range(n) for v in range(u + 1, n) if c[u] == c[v]
                for path in paths(u, v, {u})
            ):
                return k
    return 0


def test_treedepth_recursion_matches_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = _random_graph(n, rng.uniform(0.2, 0.8), rng)
        assert checks.treedepth(n, edges) == _brute_ranking_number(n, edges), edges


def test_treedepth_of_known_graphs():
    assert checks.treedepth(7, [(i, i + 1) for i in range(6)]) == 3  # P7
    assert checks.treedepth(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]) == 5
    assert checks.treedepth(4, [(0, 1), (2, 3)]) == 2


def test_exact_search_finds_and_refutes():
    assert checks.find_rs_colouring(checks.adjacency(5, DART_EDGES), 3) is not None
    assert checks.find_rs_colouring(checks.adjacency(14, workloads.WORKED_TREE_EDGES), 3) is None
    assert checks.find_rs_colouring(checks.adjacency(6, workloads.TYPE1_GADGET_EDGES), 3) is None
    # P4 is not 2-rs colourable: the middle vertices would both need a
    # neighbour below them
    assert checks.find_rs_colouring(checks.adjacency(4, [(0, 1), (1, 2), (2, 3)]), 2) is None


def test_exact_search_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 6)
        edges = _random_graph(n, 0.5, rng)
        adj = checks.adjacency(n, edges)
        brute = any(checks.is_rs(adj, c) for c in itertools.product(range(3), repeat=n))
        assert (checks.find_rs_colouring(adj, 3) is not None) == brute


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "TREE_N", 3000)
    monkeypatch.setattr(workloads, "EARED_SIZES", ((200, 20), (300, 30)))
    monkeypatch.setattr(workloads, "TRIANGLE_FREE_N", 300)
    monkeypatch.setattr(workloads, "GRID_SIDES", (5, 8))
    monkeypatch.setattr(workloads, "RANDOM_N", 60)


def _inputs(name, seed, directory):
    os.mkdir(directory)
    workloads.WORKLOADS[name].build(seed, directory)
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, small_sizes, tmp_path):
    files = _inputs(name, 1, tmp_path / "a")
    assert _inputs(name, 1, tmp_path / "b") == files
    assert _inputs(name, 2, tmp_path / "c") == files
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", files, shallow=False)
    assert mismatch, "a different seed gave identical inputs"


@pytest.mark.parametrize("stem, gadget", [
    ("tree_no.gr", workloads.WORKED_TREE_EDGES),
    ("eared_no_0.gr", workloads.TYPE1_GADGET_EDGES),
    ("eared_no_1.gr", workloads.TYPE1_GADGET_EDGES),
])
def test_planted_no_instances_contain_their_gadget(stem, gadget, small_sizes, tmp_path):
    name = "tree-150k" if stem.startswith("tree") else "chordal-eared"
    workloads.WORKLOADS[name].build(5, str(tmp_path))
    n, edges = checks.read_graph(str(tmp_path / stem))
    with open(tmp_path / (stem + ".gadget")) as fh:
        mapping = [int(v) - 1 for v in fh.read().split()]
    assert checks.contains_subgraph(checks.adjacency(n, edges), mapping, gadget)


def test_unsat_gadget_is_the_reduction_graph():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rscol.constructions import PositiveCnf, sat_to_graph

    num_vars, clauses = workloads.UNSAT_CUBIC
    gg = sat_to_graph(PositiveCnf.of(num_vars, clauses), variant="basic")
    n, edges = workloads.basic_gadget(num_vars, clauses)
    assert (n, edges) == (gg.graph.n, list(gg.graph.edges()))
    girth = sat_to_graph(PositiveCnf.of(num_vars, clauses), variant="girth", s=2).graph
    assert workloads.gadget_size(num_vars, len(clauses), "girth", 2) == (girth.n, girth.m)


def test_c13_set_and_its_answers():
    graphs = workloads.c13_graphs()
    assert len(graphs) == 100 and all(2 <= n <= 10 for n, _ in graphs)
    for n, edges in graphs[:20]:
        assert checks.treedepth(n, edges) >= 1


def _fake_run():
    r = run.Run(workloads.WORKLOADS["tree-150k"])
    r.setup_times = [0.5]
    r.startup_times = [(0.2, 0.01)]
    p = {"wall_s": 2.0, "seconds": [0.9, 1.1], "groups": ["a", "b"], "reference_s": 0.01,
         "peak_rss_mb": 100.0, "colours": 0, "spans": []}
    r.passes = [p]
    r.traced = [dict(p, wall_s=2.1)]
    return r


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    fake = _fake_run()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(fake))
    assert {m["name"] for m in spec["per_layer"]} == set(run.per_layer(fake))
    e2e = run.end_to_end(fake)
    assert e2e["wall_ref"] == pytest.approx(200) and e2e["group_b_ref"] == pytest.approx(110)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail(list(range(20)))[0] == 50
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 99


def test_worker_traces_layers(tmp_path):
    n, us, vs, _ = workloads.eared_tree(60, 4, np.random.default_rng(0))
    graph = tmp_path / "g.gr"
    checks.write_graph(str(graph), n, us.tolist(), vs.tolist())
    plan = {"src": os.path.join(ROOT, "src"), "trace": True,
            "commands": [["chordal3rs", "-g", str(graph)]]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), str(tmp_path / "plan.json"),
                    str(tmp_path / "result.json")], check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["commands"][0]["stdout"].startswith("RESULT: YES")
    names = {span[0] for span in result["spans"]}
    assert {"cli.run", "graph.read_graph_file", "graph.from_edge_list", "graph.is_chordal",
            "chordal3rs.eliminate_triangles", "graph.list_triangles",
            "tree3rs.test_3rs_tree"} <= names
    m = run.tracing.layer_metrics([result["spans"]])
    assert m["chordal3rs.eliminations"] == 4
    assert m["graph.list_triangles_calls"] == 5
    assert m["graph.build_calls"] >= 1 + 4  # the parse, then one rebuild per elimination
    assert m["graph.parse_s"] > 0 and m["cli.self_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-150k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Command-line entry point.

Every command prints a machine-readable first line "RESULT: <token>".
Exit codes: 0 = yes/valid/ok, 1 = no/invalid, 2 = usage or input error,
3 = budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

import numpy as np

from . import chordal3rs, colouring, constructions, graph, hessian, solver, tree3rs

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep RESULT-line discipline on bad usage
        raise _UsageError(message)


def _budget(args) -> solver.SolveBudget:
    return solver.SolveBudget(max_nodes=args.budget_nodes, time_limit=args.budget_secs)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=10_000_000)
    p.add_argument("--budget-secs", type=float, default=120.0)


def _parse_vertex_list(text: str, n: int, what: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        v = int(tok)
        if not (1 <= v <= n):
            raise graph.GraphError(f"{what}: vertex {v} outside 1..{n}")
        out.append(v - 1)
    return out


def _emit(token, *details: str) -> None:
    print(f"RESULT: {token}")
    for line in details:
        print(line)


def _maybe_dot(g: graph.Graph, args) -> None:
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(graph.to_dot(g))


# -- command handlers ------------------------------------------------------------


def _cmd_verify(args) -> int:
    g = graph.read_graph_file(args.graph)
    c = colouring.read_colouring_file(args.colouring, g.n)
    _maybe_dot(g, args)
    kinds = {
        "proper": colouring.is_proper,
        "rs": colouring.is_rs,
        "star": colouring.is_star,
        "ordered": colouring.is_ordered,
        "distance-two": colouring.is_distance_two,
    }
    ok = kinds[args.kind](g, c)
    if ok:
        _emit("VALID")
        return EXIT_YES
    details = []
    if args.kind == "rs":
        witness = colouring.find_rs_violation(g, c)
        if witness is not None and len(witness) == 3:
            x, y, z = witness
            details.append(f"violating path: {x + 1} {y + 1} {z + 1}")
        elif witness is not None:
            u, v = witness
            details.append(f"monochromatic edge: {u + 1} {v + 1}")
    _emit("INVALID", *details)
    return EXIT_NO


def _cmd_solve(args) -> int:
    g = graph.read_graph_file(args.graph)
    _maybe_dot(g, args)
    budget = _budget(args)
    try:
        if args.task == "decide-rs":
            if args.colours is None:
                raise _UsageError("decide-rs needs -k")
            pre = None
            if args.precolouring:
                pre = colouring.read_partial_colouring_file(
                    args.precolouring, g.n, args.colours
                )
            result = _decide_rs(g, args.colours, budget, args.threads, pre)
            if result.status is solver.SolveStatus.BUDGET_EXCEEDED:
                _emit("BUDGET_EXCEEDED", f"nodes: {result.nodes}")
                return EXIT_BUDGET
            if result.status is solver.SolveStatus.YES:
                if args.witness_out and result.witness is not None:
                    colouring.write_colouring_file(result.witness, args.witness_out)
                _emit("YES", f"nodes: {result.nodes}")
                return EXIT_YES
            _emit("NO", f"nodes: {result.nodes}")
            return EXIT_NO
        if args.task in ("chi-rs", "chi-star", "chi-ordered"):
            fn = {
                "chi-rs": solver.rs_chromatic_number,
                "chi-star": solver.star_chromatic_number,
                "chi-ordered": solver.ordered_chromatic_number,
            }[args.task]
            value = fn(g, budget=budget)
            _emit(str(value))
            return EXIT_YES
        if args.task == "mis":
            members = solver.max_independent_set(g, budget=budget)
            _emit(str(len(members)), "members: " + " ".join(str(v + 1) for v in members))
            return EXIT_YES
        raise _UsageError(f"unknown task {args.task}")
    except solver.BudgetExceededError as exc:
        _emit("BUDGET_EXCEEDED", str(exc))
        return EXIT_BUDGET


def _decide_rs_worker(payload):
    n, edges, k, fixed, max_nodes, time_limit = payload
    g = graph.Graph.from_edge_list(n, edges)
    pre = colouring.PartialColouring.of(n, fixed, k)
    budget = solver.SolveBudget(max_nodes=max_nodes, time_limit=time_limit)
    result = solver.decide_k_rs(g, k, pre=pre, budget=budget)
    witness = None if result.witness is None else result.witness.colours
    return result.status.value, result.nodes, witness


def _decide_rs(g, k, budget, threads, pre=None) -> solver.SolveResult:
    if threads <= 1 or g.n == 0 or k < 1:
        return solver.decide_k_rs(g, k, pre=pre, budget=budget)
    # split the root vertex's colour choices across worker processes; a YES
    # from any worker stands, and the lowest root colour picks the witness
    import multiprocessing

    fixed = {} if pre is None else {v: c for v, c in enumerate(pre.colours) if c is not None}
    free = [v for v in range(g.n) if v not in fixed]
    if not free:
        return solver.decide_k_rs(g, k, pre=pre, budget=budget)
    root = max(free, key=g.degree)
    payloads = [
        (g.n, list(g.edges()), k, {**fixed, root: col}, budget.max_nodes, budget.time_limit)
        for col in range(k)
    ]
    with multiprocessing.Pool(min(threads, k)) as pool:
        outcomes = pool.map(_decide_rs_worker, payloads)
    nodes = sum(n for _, n, _ in outcomes)
    for status, _, colours in outcomes:  # in root-colour order
        if status == "yes":
            witness = colouring.Colouring(colours, k)
            if not colouring.is_rs(g, witness):
                raise RuntimeError("a decide-rs worker returned a colouring that is not rs")
            return solver.SolveResult(solver.SolveStatus.YES, witness=witness, nodes=nodes)
    if any(status == "budget_exceeded" for status, _, _ in outcomes):
        return solver.SolveResult(solver.SolveStatus.BUDGET_EXCEEDED, nodes=nodes)
    return solver.SolveResult(solver.SolveStatus.NO, nodes=nodes)


def _cmd_tree3rs(args) -> int:
    g = graph.read_graph_file(args.graph)
    _maybe_dot(g, args)
    result = tree3rs.test_3rs_tree(g)
    if result.colourable:
        _emit("YES")
        return EXIT_YES
    _emit("NO", f"reason: {result.reason_text()}")
    return EXIT_NO


def _cmd_chordal3rs(args) -> int:
    g = graph.read_graph_file(args.graph)
    _maybe_dot(g, args)
    result = chordal3rs.test_3rs_chordal(g, collect_trees=bool(args.dump_tree))
    if args.dump_tree:
        for idx, tree in enumerate(result.final_trees):
            path = args.dump_tree if len(result.final_trees) == 1 else f"{args.dump_tree}.{idx}"
            graph.write_graph_file(tree, path, comment=f"reduced tree {idx}")
    if result.colourable:
        _emit("YES")
        return EXIT_YES
    _emit("NO", f"reason: {result.reason}")
    return EXIT_NO


def _cmd_path_feasible(args) -> int:
    ok = tree3rs.path_3rs_feasible(args.n, args.i, args.j)
    _emit("YES" if ok else "NO")
    return EXIT_YES if ok else EXIT_NO


def _cmd_gen_sat(args) -> int:
    f = constructions.read_cnf_file(args.formula)
    gg = constructions.sat_to_graph(f, variant=args.variant, s=args.s)
    graph.write_graph_file(gg.graph, args.out, comment=f"{args.variant} reduction gadget")
    if args.names:
        constructions.write_names_file(gg, args.names)
    _maybe_dot(gg.graph, args)
    _emit("OK", f"vertices: {gg.graph.n}", f"edges: {gg.graph.m}")
    return EXIT_YES


def _cmd_gen_blowup(args) -> int:
    g = graph.read_graph_file(args.graph)
    bu = constructions.edge_blowup(g)
    graph.write_graph_file(bu.graph, args.out, comment="edge blow-up")
    if args.names:
        with open(args.names, "w") as fh:
            for (u, v), fresh in sorted(bu.edge_vertices.items()):
                ids = " ".join(str(e + 1) for e in fresh)
                fh.write(f"e_{u + 1}_{v + 1} {ids}\n")
    _maybe_dot(bu.graph, args)
    _emit("OK", f"vertices: {bu.graph.n}", f"edges: {bu.graph.m}")
    return EXIT_YES


def _cmd_gplus(args) -> int:
    g = graph.read_graph_file(args.graph)
    plus = constructions.g_plus(g)
    graph.write_graph_file(plus, args.out, comment="pendant-padded graph")
    _maybe_dot(plus, args)
    _emit("OK", f"vertices: {plus.n}", f"edges: {plus.m}")
    return EXIT_YES


def _cmd_split_chi(args) -> int:
    g = graph.read_graph_file(args.graph)
    clique = _parse_vertex_list(args.clique, g.n, "--clique")
    independent = sorted(set(range(g.n)) - set(clique))
    p = constructions.SplitPartition(tuple(sorted(clique)), tuple(independent))
    value = constructions.split_rs_chromatic(g, p)
    _emit(str(value))
    return EXIT_YES


def _cmd_cobip_convert(args) -> int:
    g = graph.read_graph_file(args.graph)
    sc = colouring.read_colouring_file(args.colouring, g.n)
    side_a = _parse_vertex_list(args.a, g.n, "--a")
    side_b = sorted(set(range(g.n)) - set(side_a))
    p = constructions.CoBipartitePartition(tuple(sorted(side_a)), tuple(side_b))
    try:
        ordered = constructions.star_to_ordered_cobipartite(g, p, sc)
    except ValueError as exc:
        _emit("INVALID", str(exc))
        return EXIT_NO
    colouring.write_colouring_file(ordered, args.out)
    _emit("OK", f"colours: {ordered.k}")
    return EXIT_YES


def _cmd_hess_compress(args) -> int:
    matrix = hessian.read_matrix_market(args.matrix)
    pattern = hessian.SparsityPattern.from_dense(matrix)
    g = hessian.pattern_to_graph(pattern)
    order = "largest_degree_first" if args.order == "ldf" else args.order
    grouping_colouring = hessian.greedy_rs_colouring(g, order=order)
    # greedy_rs_colouring raises unless its result is rs
    grouping = hessian.SeedGrouping(grouping_colouring)
    compressed = hessian.compress(matrix, grouping, pattern)
    hessian.write_dense_csv(compressed, args.out)
    if args.groups:
        colouring.write_colouring_file(grouping_colouring, args.groups)
    _emit("OK", f"colours: {grouping.k}", f"shape: {compressed.shape[0]}x{compressed.shape[1]}")
    return EXIT_YES


def _cmd_hess_recover(args) -> int:
    compressed = hessian.read_dense_csv(args.compressed)
    pattern_matrix = hessian.read_matrix_market(args.pattern)
    pattern = hessian.SparsityPattern.from_dense(pattern_matrix)
    groups = colouring.read_colouring_file(args.groups, pattern.n)
    # recover checks the rs property on the pattern graph
    grouping = hessian.SeedGrouping(groups)
    recovered = hessian.recover(np.asarray(compressed), pattern, grouping)
    hessian.write_dense_csv(recovered, args.out)
    _emit("OK", f"shape: {recovered.shape[0]}x{recovered.shape[1]}")
    return EXIT_YES


# -- wiring ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rscol", description="restricted star colouring toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a colouring against a graph")
    p.add_argument("--kind", choices=["proper", "rs", "star", "ordered", "distance-two"],
                   default="rs")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--colouring", required=True)
    p.add_argument("--dot")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("solve", help="exact solves: decisions, chromatic numbers, MIS")
    p.add_argument("--task", choices=["decide-rs", "chi-rs", "chi-star", "chi-ordered", "mis"],
                   required=True)
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-k", "--colours", type=int)
    p.add_argument("--precolouring")
    p.add_argument("--witness-out")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--dot")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("tree3rs", help="linear-time 3-rs test for trees")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--dot")
    p.set_defaults(handler=_cmd_tree3rs)

    p = sub.add_parser("chordal3rs", help="3-rs test for chordal graphs by triangle elimination")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--dump-tree")
    p.add_argument("--dot")
    p.set_defaults(handler=_cmd_chordal3rs)

    p = sub.add_parser("path-feasible", help="3-rs path extension feasibility")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.set_defaults(handler=_cmd_path_feasible)

    p = sub.add_parser("gen-sat", help="positive 3-CNF to gadget graph")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("--variant", choices=["basic", "girth"], default="basic")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--names")
    p.add_argument("--dot")
    p.set_defaults(handler=_cmd_gen_sat)

    p = sub.add_parser("gen-blowup", help="edge blow-up of a graph")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--names")
    p.add_argument("--dot")
    p.set_defaults(handler=_cmd_gen_blowup)

    p = sub.add_parser("gplus", help="pendant-pad every vertex to max degree + 1")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--dot")
    p.set_defaults(handler=_cmd_gplus)

    p = sub.add_parser("split-chi", help="rs chromatic number of a split graph")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--clique", required=True,
                   help="comma-separated 1-based clique side; the rest is independent")
    p.set_defaults(handler=_cmd_split_chi)

    p = sub.add_parser("cobip-convert", help="star colouring to ordered colouring")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--colouring", required=True)
    p.add_argument("--a", required=True,
                   help="comma-separated 1-based clique A; the rest is clique B")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=_cmd_cobip_convert)

    p = sub.add_parser("hess-compress", help="greedy rs grouping + compressed product")
    p.add_argument("-m", "--matrix", required=True, help="MatrixMarket file")
    p.add_argument("--order", choices=["natural", "ldf"], default="natural")
    p.add_argument("-o", "--out", required=True, help="compressed matrix CSV")
    p.add_argument("--groups", help="grouping output in colouring format")
    p.set_defaults(handler=_cmd_hess_compress)

    p = sub.add_parser("hess-recover", help="rebuild a matrix from its compressed product")
    p.add_argument("--compressed", required=True, help="compressed matrix CSV")
    p.add_argument("--pattern", required=True, help="MatrixMarket pattern file")
    p.add_argument("--groups", required=True, help="grouping in colouring format")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=_cmd_hess_recover)

    return parser


# parsing never mutates the parser, so one instance serves every run() in a process
_cached_parser = functools.cache(build_parser)


def run(argv: Sequence[str] | None = None) -> int:
    parser = _cached_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        _emit("ERROR", f"usage error: {exc}")
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        _emit("ERROR", str(exc))
        return EXIT_ERROR
    except RecursionError:  # the exact searches recurse once per vertex
        _emit("ERROR", "graph too large for exact search")
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

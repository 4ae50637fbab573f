"""Command-line entry point.

Every command prints a machine-readable first line "RESULT: <token>", and the
token alone sets the exit code (``_EXIT_CODES``): 0 = yes/valid/ok or a
number, 1 = no/invalid, 2 = usage or input error, 3 = budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import chordal3rs, colouring, constructions, graph, hessian, solver, tree3rs

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3

# RESULT token -> exit code; a decimal token (a chromatic number, an MIS size) answers, so 0
_EXIT_CODES = {"YES": EXIT_YES, "VALID": EXIT_YES, "OK": EXIT_YES, "NO": EXIT_NO,
               "INVALID": EXIT_NO, "ERROR": EXIT_ERROR, "BUDGET_EXCEEDED": EXIT_BUDGET}


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
    out: set[int] = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            v = graph.read_int(tok)
        except ValueError:
            raise graph.GraphError(f"{what}: non-integer vertex {tok!r}") from None
        if not (1 <= v <= n):
            raise graph.GraphError(f"{what}: vertex {v} outside 1..{n}")
        if v - 1 in out:
            raise graph.GraphError(f"{what}: vertex {v} listed twice")
        out.add(v - 1)
    return sorted(out)


def _emit(token: str, *details: str) -> int:
    """Print the RESULT block and return the exit code its token carries."""
    code = EXIT_YES if token.isdecimal() else _EXIT_CODES[token]
    print(f"RESULT: {token}")
    for line in details:
        print(line)
    return code


def _maybe_dot(g: graph.Graph, args) -> None:
    if getattr(args, "dot", None):
        graph.write_text(graph.to_dot(g), args.dot)


# -- command handlers ------------------------------------------------------------


def _cmd_verify(args) -> int:
    g = graph.read_graph_file(args.graph)
    c = colouring.read_colouring_file(args.colouring, g.n)
    _maybe_dot(g, args)
    if args.kind == "rs":
        witness = colouring.find_rs_violation(g, c)
        if witness is None:
            return _emit("VALID")
        what = "violating path" if len(witness) == 3 else "monochromatic edge"
        return _emit("INVALID", f"{what}: " + " ".join(str(v + 1) for v in witness))
    kinds = {
        "proper": colouring.is_proper,
        "star": colouring.is_star,
        "ordered": colouring.is_ordered,
        "distance-two": colouring.is_distance_two,
    }
    return _emit("VALID" if kinds[args.kind](g, c) else "INVALID")


def _cmd_solve(args) -> int:
    stray = [flag for flag, value in (("-k", args.colours), ("--precolouring", args.precolouring),
                                      ("--witness-out", args.witness_out)) if value is not None]
    if stray and args.task != "decide-rs":
        raise _UsageError(f"{stray[0]} applies to decide-rs only, not to {args.task}")
    g = graph.read_graph_file(args.graph)
    _maybe_dot(g, args)
    budget = _budget(args)
    try:
        if args.task == "decide-rs":
            if args.colours is None:
                raise _UsageError("decide-rs needs -k")
            if args.colours < 0:
                raise _UsageError(f"-k must be nonnegative, got {args.colours}")
            pre = None
            if args.precolouring:
                pre = colouring.read_partial_colouring_file(
                    args.precolouring, g.n, args.colours
                )
            result = solver.decide_k_rs(g, args.colours, pre=pre, budget=budget)
            # only a YES has a witness, and every YES has one: empty on the empty graph
            if args.witness_out and result.witness is not None:
                colouring.write_colouring_file(result.witness, args.witness_out)
            # the SolveStatus member names are the RESULT tokens
            return _emit(result.status.name, f"nodes: {result.nodes}")
        if args.task in ("chi-rs", "chi-star", "chi-ordered"):
            fn = {
                "chi-rs": solver.rs_chromatic_number,
                "chi-star": solver.star_chromatic_number,
                "chi-ordered": solver.ordered_chromatic_number,
            }[args.task]
            return _emit(str(fn(g, budget=budget)))
        if args.task == "mis":
            members = solver.max_independent_set(g, budget=budget)
            return _emit(str(len(members)), "members: " + " ".join(str(v + 1) for v in members))
        raise _UsageError(f"unknown task {args.task}")
    except solver.BudgetExceededError as exc:
        return _emit("BUDGET_EXCEEDED", str(exc))


def _cmd_tree3rs(args) -> int:
    g = graph.read_graph_file(args.graph)
    _maybe_dot(g, args)
    result = tree3rs.test_3rs_tree(g)
    if result.colourable:
        return _emit("YES")
    return _emit("NO", f"reason: {result.reason_text(base=1)}")  # graph files are 1-based


def _cmd_chordal3rs(args) -> int:
    g = graph.read_graph_file(args.graph)
    _maybe_dot(g, args)
    result = chordal3rs.test_3rs_chordal(g)
    if args.dump_tree:
        for idx, tree in enumerate(result.final_trees):
            path = args.dump_tree if len(result.final_trees) == 1 else f"{args.dump_tree}.{idx}"
            graph.write_graph_file(tree, path, comment=f"reduced tree {idx}")
    if result.colourable:
        return _emit("YES")
    return _emit("NO", f"reason: {result.reason}")


def _cmd_path_feasible(args) -> int:
    return _emit("YES" if tree3rs.path_3rs_feasible(args.n, args.i, args.j) else "NO")


def _cmd_gen_sat(args) -> int:
    f = constructions.read_cnf_file(args.formula)
    gg = constructions.sat_to_graph(f, variant=args.variant, s=args.s)
    graph.write_graph_file(gg.graph, args.out, comment=f"{args.variant} reduction gadget")
    if args.names:
        constructions.write_names_file(gg, args.names)
    _maybe_dot(gg.graph, args)
    return _emit("OK", f"vertices: {gg.graph.n}", f"edges: {gg.graph.m}")


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
    return _emit("OK", f"vertices: {bu.graph.n}", f"edges: {bu.graph.m}")


def _cmd_gplus(args) -> int:
    g = graph.read_graph_file(args.graph)
    plus = constructions.g_plus(g)
    graph.write_graph_file(plus, args.out, comment="pendant-padded graph")
    _maybe_dot(plus, args)
    return _emit("OK", f"vertices: {plus.n}", f"edges: {plus.m}")


def _cmd_split_chi(args) -> int:
    g = graph.read_graph_file(args.graph)
    clique = _parse_vertex_list(args.clique, g.n, "--clique")
    independent = sorted(set(range(g.n)) - set(clique))
    p = constructions.SplitPartition(tuple(sorted(clique)), tuple(independent))
    return _emit(str(constructions.split_rs_chromatic(g, p)))


def _cmd_cobip_convert(args) -> int:
    g = graph.read_graph_file(args.graph)
    sc = colouring.read_colouring_file(args.colouring, g.n)
    side_a = _parse_vertex_list(args.a, g.n, "--a")
    side_b = sorted(set(range(g.n)) - set(side_a))
    p = constructions.CoBipartitePartition(tuple(sorted(side_a)), tuple(side_b))
    try:
        ordered = constructions.star_to_ordered_cobipartite(g, p, sc)
    except colouring.ColouringError as exc:  # not a star colouring; a bad partition is an ERROR
        return _emit("INVALID", str(exc))
    colouring.write_colouring_file(ordered, args.out)
    return _emit("OK", f"colours: {ordered.k}")


def _cmd_hess_compress(args) -> int:
    matrix = hessian.read_matrix_market(args.matrix)
    pattern = hessian.SparsityPattern.from_coo(matrix)
    g = hessian.pattern_to_graph(pattern)
    order = "largest_degree_first" if args.order == "ldf" else args.order
    grouping_colouring = hessian.greedy_rs_colouring(g, order=order)
    # greedy_rs_colouring raises unless its result is rs
    grouping = hessian.SeedGrouping(grouping_colouring)
    compressed = hessian.compress(matrix, grouping, pattern)
    hessian.write_dense_csv(compressed, args.out)
    if args.groups:
        colouring.write_colouring_file(grouping_colouring, args.groups)
    return _emit("OK", f"colours: {grouping.k}",
                 f"shape: {compressed.shape[0]}x{compressed.shape[1]}")


def _cmd_hess_recover(args) -> int:
    compressed = hessian.read_dense_csv(args.compressed)
    pattern = hessian.SparsityPattern.from_coo(hessian.read_matrix_market(args.pattern))
    groups = colouring.read_colouring_file(args.groups, pattern.n)
    # recover_entries checks the rs property on the pattern graph
    recovered = hessian.recover_entries(compressed, pattern, hessian.SeedGrouping(groups))
    if args.out.endswith(".mtx"):
        hessian.write_matrix_market(recovered, args.out)
    else:
        hessian.write_dense_csv(recovered, args.out)
    return _emit("OK", f"shape: {recovered.n}x{recovered.n}")


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
    # kept so that existing command lines still parse: every solve is one search
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
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
    p.add_argument("-o", "--out", required=True,
                   help="recovered matrix: MatrixMarket if it ends in .mtx, dense CSV otherwise")
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
        return _emit("ERROR", f"usage error: {exc}")
    except (OSError, ValueError) as exc:
        return _emit("ERROR", str(exc))
    except RecursionError:  # only the treedepth DP of chi-ordered recurses, once per rank
        return _emit("ERROR", "graph too large for exact search")
    except (MemoryError, OverflowError):  # a declared size no array or list can hold
        return _emit("ERROR", "input too large")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()


import numpy as np
import pytest

import helpers
from rscol import cli
from rscol.colouring import (
    Colouring,
    is_rs,
    parse_colouring,
    write_colouring_file,
)
from rscol.graph import Graph, path_graph, read_graph_file, star_graph, write_graph_file
from rscol.hessian import read_dense_csv, read_matrix_market
from rscol.solver import SolveStatus, decide_k_rs


@pytest.fixture
def workdir(tmp_path):
    write_graph_file(helpers.dart(), str(tmp_path / "dart.gr"))
    write_colouring_file(helpers.dart_colouring(), str(tmp_path / "dart.col"))
    write_colouring_file(Colouring.of([1, 2, 1, 2, 2], k=3), str(tmp_path / "bad.col"))
    write_graph_file(helpers.worked_tree(), str(tmp_path / "worked.gr"))
    write_graph_file(star_graph(4), str(tmp_path / "star.gr"))
    from rscol.constructions import format_cnf

    (tmp_path / "unsat4.cnf").write_text(format_cnf(helpers.unsat_cubic_formula()))
    lines = ["%%MatrixMarket matrix coordinate real symmetric", "5 5 9"]
    lines += [f"{i} {i} {i}.0" for i in range(1, 6)]
    lines += [f"{i + 1} {i} 0.5" for i in range(1, 5)]
    (tmp_path / "h.mtx").write_text("\n".join(lines) + "\n")
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.run([str(a) for a in argv])
    out = capsys.readouterr().out
    first = out.splitlines()[0] if out else ""
    assert first.startswith("RESULT: ")
    return code, first.removeprefix("RESULT: "), out


class TestVerify:
    def test_valid(self, workdir, capsys):
        code, token, _ = run_cli(
            capsys, "verify", "--kind", "rs", "-g", workdir / "dart.gr", "-c", workdir / "dart.col"
        )
        assert (code, token) == (0, "VALID")

    def test_invalid_with_witness(self, workdir, capsys):
        code, token, out = run_cli(
            capsys, "verify", "--kind", "rs", "-g", workdir / "dart.gr", "-c", workdir / "bad.col"
        )
        assert (code, token) == (1, "INVALID")
        assert "violating path: 1 2 3" in out

    def test_improper_colouring_names_its_edge(self, tmp_path, capsys):
        write_graph_file(path_graph(3), str(tmp_path / "p3.gr"))
        (tmp_path / "mono.col").write_text("1 0\n2 1\n3 1\n")
        code, token, out = run_cli(
            capsys, "verify", "--kind", "rs", "-g", tmp_path / "p3.gr", "-c", tmp_path / "mono.col"
        )
        assert (code, token) == (1, "INVALID")
        assert out.splitlines()[1] == "monochromatic edge: 2 3"

    def test_library_agreement_on_all_kinds(self, workdir, capsys):
        from rscol import colouring as col

        g = helpers.dart()
        c = helpers.dart_colouring()
        checks = {
            "proper": col.is_proper,
            "rs": col.is_rs,
            "star": col.is_star,
            "ordered": col.is_ordered,
            "distance-two": col.is_distance_two,
        }
        for kind, fn in checks.items():
            code, token, _ = run_cli(
                capsys, "verify", "--kind", kind, "-g", workdir / "dart.gr", "-c", workdir / "dart.col"
            )
            assert (token == "VALID") == fn(g, c)
            assert code == (0 if fn(g, c) else 1)


class TestSolve:
    def test_decide_with_witness(self, workdir, capsys):
        witness = workdir / "w.col"
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "3",
            "--witness-out", witness,
        )
        assert (code, token) == (0, "YES")
        c = parse_colouring(witness.read_text(), 5)
        assert is_rs(helpers.dart(), Colouring.of(c.colours, k=3))

    def test_decide_no(self, workdir, capsys):
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "2"
        )
        assert (code, token) == (1, "NO")

    def test_chromatic_numbers(self, workdir, capsys):
        for task, expected in (("chi-rs", 3), ("chi-star", 3), ("chi-ordered", 3)):
            code, token, _ = run_cli(capsys, "solve", "--task", task, "-g", workdir / "dart.gr")
            assert (code, int(token)) == (0, expected)

    def test_mis(self, workdir, capsys):
        code, token, out = run_cli(capsys, "solve", "--task", "mis", "-g", workdir / "dart.gr")
        assert (code, int(token)) == (0, 3)

    def test_budget_exit_code(self, workdir, capsys):
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "worked.gr", "-k", "3",
            "--budget-nodes", "1",
        )
        assert (code, token) == (3, "BUDGET_EXCEEDED")

    def test_precolouring(self, workdir, capsys):
        pre = workdir / "pre.col"
        pre.write_text("1 0\n3 0\n")  # endpoints of a P3 through y both coloured 0
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "3",
            "--precolouring", pre,
        )
        assert (code, token) == (1, "NO")

    def test_threads_split_matches_sequential(self, workdir, capsys):
        code1, token1, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "3",
            "--threads", "2",
        )
        assert (code1, token1) == (0, "YES")
        code2, token2, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "worked.gr", "-k", "3",
            "--threads", "2",
        )
        assert (code2, token2) == (1, "NO")

    @pytest.mark.parametrize("name, argv, token, nodes", [
        ("dart.gr", ["-k", "3"], "YES", 5),
        ("worked.gr", ["-k", "3"], "NO", 8),
        # budgets below the search's count at which a split over the root's colours,
        # each part with the whole budget, would answer YES
        ("g16.gr", ["-k", "4", "--budget-nodes", "50"], "BUDGET_EXCEEDED", 51),
        ("g16.gr", ["-k", "4", "--budget-nodes", "83"], "BUDGET_EXCEEDED", 84),
        ("g16.gr", ["-k", "4", "--budget-nodes", "84"], "YES", 84),
        ("star3.gr", ["-k", "3", "--precolouring", "pre.col"], "YES", 4),
    ], ids=["dart-yes", "worked-no", "g16-budget-50", "g16-budget-83", "g16-budget-84",
            "star3-precoloured"])
    def test_threads_change_no_output(self, workdir, monkeypatch, capsys, name, argv, token,
                                      nodes):
        monkeypatch.chdir(workdir)
        g16 = Graph.from_edge_list(16, [
            (0, 7), (0, 12), (1, 3), (1, 8), (1, 15), (2, 5), (2, 12), (2, 15), (4, 5),
            (4, 11), (4, 13), (4, 14), (5, 12), (6, 8), (6, 12), (7, 13), (9, 14),
            (10, 13), (10, 14), (11, 15),
        ])
        write_graph_file(g16, "g16.gr")
        write_graph_file(star_graph(3), "star3.gr")
        (workdir / "pre.col").write_text("2 0\n")  # a leaf of the star coloured 0
        witness = workdir / "w.col"
        runs = []
        for threads in ([], ["--threads", "1"], ["--threads", "2"], ["--threads", "4"]):
            witness.unlink(missing_ok=True)
            code = cli.run(["solve", "--task", "decide-rs", "-g", name, *argv,
                            "--witness-out", "w.col", *threads])
            runs.append((code, capsys.readouterr().out,
                         witness.read_bytes() if witness.exists() else None))
        assert runs[1:] == runs[:1] * 3
        code, out, witness_bytes = runs[0]
        assert code == cli._EXIT_CODES[token]
        assert out == f"RESULT: {token}\nnodes: {nodes}\n"
        assert (witness_bytes is not None) == (token == "YES")
        if witness_bytes is not None:
            g = read_graph_file(name)
            assert is_rs(g, parse_colouring(witness_bytes.decode(), g.n))

    @pytest.mark.parametrize("k, threads", [("0", "1"), ("0", "2")])
    def test_no_colours_is_no_for_any_threads(self, tmp_path, capsys, threads, k):
        write_graph_file(path_graph(3), str(tmp_path / "p3.gr"))
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", tmp_path / "p3.gr", "-k", k,
            "--threads", threads,
        )
        assert (code, token) == (1, "NO")

    @pytest.mark.parametrize("n, k, code, token, detail", [
        (3, "-1", 2, "ERROR", "usage error: -k must be nonnegative, got -1"),
        (0, "-1", 2, "ERROR", "usage error: -k must be nonnegative, got -1"),
        (3, "0", 1, "NO", "nodes: 0"),
        (0, "0", 0, "YES", "nodes: 0"),
    ], ids=["-1", "-1-empty", "0", "0-empty"])
    def test_colour_count_at_and_below_zero(self, tmp_path, capsys, n, k, code, token, detail):
        write_graph_file(path_graph(n), str(tmp_path / "p.gr"))
        got = run_cli(capsys, "solve", "--task", "decide-rs", "-g", tmp_path / "p.gr", "-k", k)
        assert got[:2] == (code, token)
        assert got[2].splitlines()[1] == detail
        # the library keeps its answers: no colours is NO, and YES on the empty graph
        status = decide_k_rs(path_graph(n), int(k)).status
        assert status == (SolveStatus.YES if n == 0 else SolveStatus.NO)

    def test_zero_colour_yes_writes_the_empty_witness(self, tmp_path, capsys):
        (tmp_path / "empty.gr").write_text("p edge 0 0\n")
        out = tmp_path / "w.col"
        got = run_cli(capsys, "solve", "--task", "decide-rs", "-g", tmp_path / "empty.gr",
                      "-k", "0", "--witness-out", out)
        assert got == (0, "YES", "RESULT: YES\nnodes: 0\n")
        assert out.read_bytes() == b""
        assert parse_colouring(out.read_text(), 0) == Colouring((), 0)

    @pytest.mark.parametrize("flag, value", [
        ("--budget-nodes", "0"), ("--budget-secs", "0"), ("--budget-secs", "-1"),
        ("--budget-secs", "nan"),
    ])
    def test_non_positive_budget_is_an_error(self, workdir, capsys, flag, value):
        code, token, out = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "3",
            flag, value,
        )
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == "budget limits must be positive"

    @pytest.mark.parametrize("task", ["chi-rs", "chi-star", "chi-ordered", "mis"])
    @pytest.mark.parametrize("flag, value", [
        ("-k", "3"), ("-k", "-1"), ("--precolouring", "pre.col"), ("--witness-out", "w.col"),
    ])
    def test_decide_flags_refused_with_other_tasks(self, workdir, monkeypatch, capsys, task,
                                                   flag, value):
        monkeypatch.chdir(workdir)
        (workdir / "pre.col").write_text("1 0\n")
        code, token, out = run_cli(capsys, "solve", "--task", task, "-g", "dart.gr", flag, value)
        assert (code, token) == (2, "ERROR")
        detail = f"usage error: {flag} applies to decide-rs only, not to {task}"
        assert out.splitlines()[1] == detail
        assert not (workdir / "w.col").exists()

    @pytest.mark.parametrize("task, token", [
        ("decide-rs", "YES"), ("chi-rs", "3"), ("chi-star", "3"), ("chi-ordered", "3"),
        ("mis", "3"),
    ])
    def test_threads_accepted_with_every_task(self, workdir, capsys, task, token):
        k = ["-k", "3"] if task == "decide-rs" else []
        code, token_out, _ = run_cli(capsys, "solve", "--task", task, "-g", workdir / "dart.gr",
                                     *k, "--threads", "2")
        assert (code, token_out) == (0, token)

    def test_dot_export_flag(self, workdir, capsys):
        dot = workdir / "dart.dot"
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "3",
            "--dot", dot,
        )
        assert (code, token) == (0, "YES")
        assert dot.read_text().count("--") == 6


class TestDeepSearch:
    # the rs, star and MIS searches are loops, so a graph deeper than the
    # interpreter's recursion limit is limited by the budget alone; the
    # treedepth DP still recurses once per rank and reports ERROR, never a traceback
    @pytest.fixture
    def long_path(self, tmp_path):
        write_graph_file(path_graph(1500), str(tmp_path / "p1500.gr"))
        return tmp_path / "p1500.gr"

    def test_decide_rs_on_long_path(self, long_path, tmp_path, capsys):
        witness = tmp_path / "w.col"
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", long_path, "-k", "3",
            "--witness-out", witness,
        )
        assert (code, token) == (0, "YES")
        assert is_rs(path_graph(1500), parse_colouring(witness.read_text(), 1500))

    @pytest.mark.parametrize("task", ["chi-rs", "chi-star"])
    def test_chromatic_number_of_long_path(self, long_path, capsys, task):
        assert run_cli(capsys, "solve", "--task", task, "-g", long_path)[:2] == (0, "3")

    def test_mis_on_isolated_vertices(self, tmp_path, capsys):
        write_graph_file(Graph.from_edge_list(1500, []), str(tmp_path / "iso.gr"))
        code, token, out = run_cli(capsys, "solve", "--task", "mis", "-g", tmp_path / "iso.gr")
        assert (code, token) == (0, "1500")
        assert out.splitlines()[1] == "members: " + " ".join(map(str, range(1, 1501)))

    def test_chi_ordered_on_long_path(self, long_path, capsys):
        code, token, out = run_cli(capsys, "solve", "--task", "chi-ordered", "-g", long_path)
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == "graph too large for exact search"


class TestTreeAndChordal:
    def test_tree3rs_no_with_reason(self, workdir, capsys):
        code, token, out = run_cli(capsys, "tree3rs", "-g", workdir / "worked.gr")
        assert (code, token) == (1, "NO")
        # vertex 5 of the file, which the library names as 0-based vertex 4
        assert out.splitlines()[1] == "reason: class A branch at vertex 5"

    def test_chordal3rs_dump_tree(self, workdir, capsys):
        dump = workdir / "reduced.gr"
        code, token, _ = run_cli(
            capsys, "chordal3rs", "-g", workdir / "dart.gr", "--dump-tree", dump
        )
        assert (code, token) == (0, "YES")
        from rscol.graph import is_tree, read_graph_file

        assert is_tree(read_graph_file(str(dump)))

    def test_chordal3rs_no_reason_in_file_ids(self, workdir, capsys):
        # the worked tree on vertices 2..15 of the file, with an ear 1 on its
        # edge 9-10: the reduced tree's vertex 8 (0-based) is file vertex 10
        worked = helpers.worked_tree()
        edges = [(u + 1, v + 1) for u, v in worked.edges()] + [(0, 8), (0, 9)]
        write_graph_file(Graph.from_edge_list(15, edges), str(workdir / "eared.gr"))
        code, token, out = run_cli(capsys, "chordal3rs", "-g", workdir / "eared.gr")
        assert (code, token) == (1, "NO")
        assert out.splitlines()[1] == "reason: component at 1: class A branch at vertex 10"
        # an edge 1-6, then K4 on file vertices 2..5, whose first triangle is type I
        k4 = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
        write_graph_file(Graph.from_edge_list(6, [(0, 5), *k4]), str(workdir / "k4.gr"))
        code, token, out = run_cli(capsys, "chordal3rs", "-g", workdir / "k4.gr")
        assert (code, token) == (1, "NO")
        assert out.splitlines()[1] == "reason: type-I triangle (2, 3, 4) in component at 2"

    def test_chordal_rejects_non_chordal(self, workdir, capsys):
        from rscol.graph import cycle_graph

        write_graph_file(cycle_graph(4), str(workdir / "c4.gr"))
        code, token, _ = run_cli(capsys, "chordal3rs", "-g", workdir / "c4.gr")
        assert (code, token) == (2, "ERROR")


NON_CHORDAL = {
    # a 4-cycle with an ear on one edge: no type-I triangle, so the
    # elimination alone refuses it
    "eared_c4": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
    # K4 first, which alone would be NO, then a 4-cycle
    "k4_then_c4": (8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                   + [(4, 5), (5, 6), (6, 7), (7, 4)]),
    # one component: a triangle with a pendant at each corner (type I), and a
    # 5-cycle hanging from one pendant
    "type1_with_c5": (10, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5),
                           (5, 6), (6, 7), (7, 8), (8, 9), (9, 5)]),
}


@pytest.mark.parametrize("name", NON_CHORDAL)
def test_chordal3rs_refuses_non_chordal_file(workdir, capsys, monkeypatch, name):
    n, edges = NON_CHORDAL[name]
    path = workdir / f"{name}.gr"
    write_graph_file(Graph.from_edge_list(n, edges), str(path))
    monkeypatch.setattr("sys.argv", ["rscol", "chordal3rs", "-g", str(path)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr().out == "RESULT: ERROR\ninput graph is not chordal\n"


class TestPathFeasible:
    def test_infeasible_case(self, capsys):
        code, token, _ = run_cli(capsys, "path-feasible", "-n", 6, "-i", 0, "-j", 0)
        assert (code, token) == (1, "NO")

    def test_feasible_case(self, capsys):
        code, token, _ = run_cli(capsys, "path-feasible", "-n", 7, "-i", 0, "-j", 0)
        assert (code, token) == (0, "YES")


class TestGenerators:
    def test_gen_sat_writes_graph_and_names(self, workdir, capsys):
        out = workdir / "g.gr"
        names = workdir / "g.names"
        code, token, text = run_cli(
            capsys, "gen-sat", "-f", workdir / "unsat4.cnf", "-o", out, "--names", names
        )
        assert (code, token) == (0, "OK")
        assert "vertices: 40" in text
        from rscol.graph import read_graph_file

        g = read_graph_file(str(out))
        assert g.n == 40 and g.m == 48
        name_map = dict(line.split() for line in names.read_text().splitlines())
        assert "x1" in name_map and "b_4_3" in name_map

    # a repeated variable gets the message of a clause with four variables
    @pytest.mark.parametrize("clause", ["1 1 2 3 0", "1 2 3 3 0", "1 2 3 4 0"])
    def test_gen_sat_refuses_clause_without_three_distinct_variables(self, tmp_path, capsys,
                                                                     clause):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(f"p cnf 4 1\n{clause}\n")
        code, token, out = run_cli(capsys, "gen-sat", "-f", cnf, "-o", tmp_path / "g.gr")
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == f"{cnf}:2: clause needs exactly 3 distinct variables"
        assert not (tmp_path / "g.gr").exists()

    def test_gen_sat_girth_variant(self, workdir, capsys):
        out = workdir / "gg.gr"
        code, token, _ = run_cli(
            capsys, "gen-sat", "-f", workdir / "unsat4.cnf", "--variant", "girth", "--s", 2, "-o", out
        )
        assert (code, token) == (0, "OK")
        from rscol.graph import girth, read_graph_file

        assert girth(read_graph_file(str(out))) >= 16

    def test_gen_blowup(self, workdir, capsys):
        out = workdir / "bu.gr"
        code, token, _ = run_cli(capsys, "gen-blowup", "-g", workdir / "dart.gr", "-o", out)
        assert (code, token) == (0, "OK")
        from rscol.graph import read_graph_file

        g = read_graph_file(str(out))
        assert g.n == 5 + 5 * 6  # n + (max_degree + 1) * m

    def test_gplus(self, workdir, capsys):
        out = workdir / "plus.gr"
        code, token, _ = run_cli(capsys, "gplus", "-g", workdir / "dart.gr", "-o", out)
        assert (code, token) == (0, "OK")
        from rscol.graph import read_graph_file

        plus = read_graph_file(str(out))
        assert all(plus.degree(v) in (1, 5) for v in range(plus.n))

    def test_split_chi(self, workdir, capsys):
        code, token, _ = run_cli(capsys, "split-chi", "-g", workdir / "star.gr", "--clique", "1")
        assert (code, int(token)) == (0, 2)

    def test_cobip_convert(self, workdir, capsys):
        from rscol.graph import complete_graph

        write_graph_file(complete_graph(2), str(workdir / "k2.gr"))
        write_colouring_file(Colouring.of([0, 1], k=2), str(workdir / "k2.col"))
        out = workdir / "ordered.col"
        code, token, _ = run_cli(
            capsys, "cobip-convert", "-g", workdir / "k2.gr", "-c", workdir / "k2.col",
            "--a", "1", "-o", out,
        )
        assert (code, token) == (0, "OK")

    # the path 1-2-3-4: {1,3} is no clique, so neither split side is
    def test_split_chi_bad_clique_is_an_input_error(self, tmp_path, capsys):
        write_graph_file(path_graph(4), str(tmp_path / "p4.gr"))
        code, token, out = run_cli(capsys, "split-chi", "-g", tmp_path / "p4.gr", "--clique", "1,3")
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == "clique side misses edge (1,3)"

    def test_cobip_convert_bad_partition_is_an_input_error(self, tmp_path, capsys):
        write_graph_file(path_graph(4), str(tmp_path / "p4.gr"))
        write_colouring_file(Colouring.of([0, 1, 2, 3]), str(tmp_path / "p4.col"))
        code, token, out = run_cli(
            capsys, "cobip-convert", "-g", tmp_path / "p4.gr", "-c", tmp_path / "p4.col",
            "--a", "1,3", "-o", tmp_path / "out.col",
        )
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == "side is not a clique: missing (1,3)"
        assert not (tmp_path / "out.col").exists()

    def test_cobip_convert_non_star_colouring_is_invalid(self, tmp_path, capsys):
        # the 4-cycle 1-2-3-4 splits into the cliques {1,2} and {3,4}; 0,1,0,1 has a bicoloured P4
        from rscol.graph import cycle_graph

        write_graph_file(cycle_graph(4), str(tmp_path / "c4.gr"))
        write_colouring_file(Colouring.of([0, 1, 0, 1]), str(tmp_path / "c4.col"))
        code, token, out = run_cli(
            capsys, "cobip-convert", "-g", tmp_path / "c4.gr", "-c", tmp_path / "c4.col",
            "--a", "1,2", "-o", tmp_path / "out.col",
        )
        assert (code, token) == (1, "INVALID")
        assert out.splitlines()[1] == "input is not an accepted star colouring"


class TestHessianCommands:
    def test_compress_then_recover_roundtrip(self, workdir, capsys):
        b_csv = workdir / "b.csv"
        groups = workdir / "groups.col"
        code, token, _ = run_cli(
            capsys, "hess-compress", "-m", workdir / "h.mtx", "-o", b_csv, "--groups", groups
        )
        assert (code, token) == (0, "OK")
        rec = workdir / "rec.csv"
        code, token, _ = run_cli(
            capsys, "hess-recover", "--compressed", b_csv, "--pattern", workdir / "h.mtx",
            "--groups", groups, "-o", rec,
        )
        assert (code, token) == (0, "OK")
        original = read_matrix_market(str(workdir / "h.mtx")).toarray()
        assert np.abs(read_dense_csv(str(rec)) - original).max() <= 1e-12

    def test_compress_refuses_overflowing_cell(self, tmp_path, capsys):
        (tmp_path / "big.mtx").write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n"
                                          "1 1 1\n2 2 1\n3 3 1\n2 1 1e308\n3 1 1e308\n")
        b_csv = tmp_path / "b.csv"
        code, token, out = run_cli(capsys, "hess-compress", "-m", tmp_path / "big.mtx", "-o", b_csv)
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1].endswith("compressed cell (0,1) is not finite")
        assert not b_csv.exists()

    def test_recover_to_matrix_market(self, workdir, capsys):
        # a .mtx output is MatrixMarket; every other suffix is dense CSV
        b_csv, groups = workdir / "b.csv", workdir / "groups.col"
        run_cli(capsys, "hess-compress", "-m", workdir / "h.mtx", "-o", b_csv, "--groups", groups)
        for out in (workdir / "rec.mtx", workdir / "rec.csv"):
            code, token, text = run_cli(capsys, "hess-recover", "--compressed", b_csv, "--pattern",
                                        workdir / "h.mtx", "--groups", groups, "-o", out)
            assert (code, token, text.splitlines()[1]) == (0, "OK", "shape: 5x5")
        assert (workdir / "rec.mtx").read_text().startswith(
            "%%MatrixMarket matrix coordinate real symmetric\n5 5 9\n")
        back = read_matrix_market(str(workdir / "rec.mtx")).toarray()
        assert np.array_equal(back.view(np.int64), read_dense_csv(str(workdir / "rec.csv")).view(np.int64))
        assert np.array_equal(back, read_matrix_market(str(workdir / "h.mtx")).toarray())

    def test_recover_rejects_non_rs_groups(self, workdir, capsys):
        # on the path behind h.mtx, 1-0-1 is a bicoloured path with a low middle
        groups = workdir / "bad_groups.col"
        write_colouring_file(Colouring.of([1, 0, 1, 0, 1], k=2), str(groups))
        b_csv = workdir / "b.csv"
        b_csv.write_text("1.0,0.5\n" * 5)
        rec = workdir / "rec.csv"
        code, token, out = run_cli(
            capsys, "hess-recover", "--compressed", b_csv, "--pattern", workdir / "h.mtx",
            "--groups", groups, "-o", rec,
        )
        assert (code, token) == (2, "ERROR")
        assert " rs " in out.splitlines()[1]
        assert not rec.exists()

    def test_ldf_order(self, workdir, capsys):
        code, token, _ = run_cli(
            capsys, "hess-compress", "-m", workdir / "h.mtx", "--order", "ldf",
            "-o", workdir / "b2.csv",
        )
        assert (code, token) == (0, "OK")


class TestRepeatedRuns:
    def test_no_parsed_value_carries_over(self, workdir, capsys, monkeypatch):
        parsed = []
        parse_args = cli._Parser.parse_args

        def recording(self, *args, **kwargs):
            namespace = parse_args(self, *args, **kwargs)
            parsed.append(dict(vars(namespace)))
            return namespace

        monkeypatch.setattr(cli._Parser, "parse_args", recording)
        mtx, dart = workdir / "h.mtx", workdir / "dart.gr"
        runs = [
            ("hess-compress", "-m", mtx, "--order", "ldf", "-o", workdir / "b1.csv",
             "--groups", workdir / "g1.col"),
            ("hess-compress", "-m", mtx, "-o", workdir / "b2.csv"),
            ("solve", "--task", "decide-rs", "-g", dart, "-k", "3", "--budget-nodes", "99"),
            ("solve", "--task", "chi-rs", "-g", dart),
            ("verify", "--kind", "ordered", "-g", dart, "-c", workdir / "dart.col"),
            ("verify", "-g", dart, "-c", workdir / "dart.col"),
        ]
        tokens = [run_cli(capsys, *argv)[:2] for argv in runs]
        assert tokens == [(0, "OK"), (0, "OK"), (0, "YES"), (0, "3"), (1, "INVALID"), (0, "VALID")]
        assert (parsed[0]["order"], parsed[1]["order"]) == ("ldf", "natural")
        assert (parsed[0]["groups"], parsed[1]["groups"]) == (str(workdir / "g1.col"), None)
        assert (parsed[2]["colours"], parsed[3]["colours"]) == (3, None)
        assert (parsed[2]["budget_nodes"], parsed[3]["budget_nodes"]) == (99, 10_000_000)
        assert (parsed[4]["kind"], parsed[5]["kind"]) == ("ordered", "rs")
        assert "order" not in parsed[2] and "task" not in parsed[4]
        assert cli._cached_parser.cache_info().misses == 1


class TestExitCodes:
    @pytest.mark.parametrize("token, code", [
        ("YES", 0), ("VALID", 0), ("OK", 0), ("0", 0), ("17", 0),
        ("NO", 1), ("INVALID", 1), ("ERROR", 2), ("BUDGET_EXCEEDED", 3),
    ])
    def test_token_sets_the_code(self, capsys, token, code):
        assert cli._emit(token, "detail") == code
        assert capsys.readouterr().out == f"RESULT: {token}\ndetail\n"

    @pytest.mark.parametrize("token", ["MAYBE", "yes", "", "-1", "2.5"])
    def test_unknown_token_raises_before_printing(self, capsys, token):
        with pytest.raises(KeyError):
            cli._emit(token)
        assert capsys.readouterr().out == ""


class TestErrors:
    def test_usage_error(self, workdir, capsys):
        code, token, _ = run_cli(capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr")
        assert (code, token) == (2, "ERROR")

    def test_missing_file(self, capsys):
        code, token, _ = run_cli(capsys, "verify", "-g", "missing.gr", "-c", "missing.col")
        assert (code, token) == (2, "ERROR")

    def test_bad_subcommand(self, capsys):
        code, token, _ = run_cli(capsys, "frobnicate")
        assert (code, token) == (2, "ERROR")

    @pytest.mark.parametrize("csv, message", [
        ("1.0,0.5\n0.5,x\n", ":2: non-numeric field"),
        ("1.0,0.5\n\n0.5\n", ":3: expected 2 fields"),
    ])
    def test_malformed_compressed_csv_reports_line(self, workdir, capsys, csv, message):
        bad = workdir / "b.csv"
        bad.write_text(csv)
        code, token, out = run_cli(
            capsys, "hess-recover", "--compressed", bad, "--pattern", workdir / "h.mtx",
            "--groups", workdir / "dart.col", "-o", workdir / "rec.csv",
        )
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == f"{bad}{message}"

    def test_malformed_graph_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("p edge 2 1\ne 1 5\n")
        code, token, out = run_cli(capsys, "tree3rs", "-g", bad)
        assert (code, token) == (2, "ERROR")
        assert ":2" in out

    @pytest.mark.parametrize("command, flag", [("split-chi", "--clique"), ("cobip-convert", "--a")])
    def test_non_integer_vertex_names_its_flag(self, workdir, capsys, command, flag):
        extra = ()
        if command == "cobip-convert":
            extra = ("-c", workdir / "dart.col", "-o", workdir / "out.col")
        separated = "1_0,11" if command == "split-chi" else "1_1"  # int() reads 10 and 11
        for vertices, message in (("1, x", "non-integer vertex 'x'"),
                                  ("1,2,1", "vertex 1 listed twice"),
                                  (separated, f"non-integer vertex {separated.split(',')[0]!r}")):
            code, token, out = run_cli(capsys, command, "-g", workdir / "dart.gr", flag, vertices, *extra)
            assert (code, token) == (2, "ERROR")
            assert out.splitlines()[1] == f"{flag}: {message}"

    # each size fails at once: no list or array of the graph sizes fits in any address
    # space; the first matrix side needs more memory per row (hessian.ROW_BYTES) than
    # the machine has, and the second is past hessian.MAX_SIDE, where a cell key
    # i * n + j leaves int64
    @pytest.mark.parametrize("command, name, text", [
        ("tree3rs", "huge.gr", "p edge 100000000000000000000 0\n"),
        ("tree3rs", "huge.gr", "p edge 100000000000000000 0\n"),
        ("hess-compress", "huge.mtx",
         "%%MatrixMarket matrix coordinate real symmetric\n400000000 400000000 1\n1 1 1.0\n"),
        ("hess-compress", "huge.mtx",
         "%%MatrixMarket matrix coordinate real symmetric\n4000000000 4000000000 1\n1 1 1.0\n"),
    ], ids=["index-overflow", "list-memory", "array-memory", "key-overflow"])
    def test_oversized_input_is_an_error(self, tmp_path, capsys, command, name, text):
        (tmp_path / name).write_text(text)
        flag = "-g" if command == "tree3rs" else "-m"
        extra = () if command == "tree3rs" else ("-o", tmp_path / "out.csv")
        code, token, out = run_cli(capsys, command, flag, tmp_path / name, *extra)
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1:] == ["input too large"]

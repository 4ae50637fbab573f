import sys

import numpy as np
import pytest

import helpers
from rscol import cli
from rscol.colouring import Colouring, is_rs, parse_colouring, write_colouring_file
from rscol.graph import Graph, path_graph, star_graph, write_graph_file
from rscol.hessian import read_dense_csv, read_matrix_market


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
        with open(witness) as fh:
            c = parse_colouring(fh, 5)
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

    def test_threads_keep_a_parallel_yes(self, tmp_path, capsys):
        # 50 nodes are too few for the sequential solve, but enough for the
        # worker that colours the root vertex 2, so the split must answer YES
        edges = [
            (0, 7), (0, 12), (1, 3), (1, 8), (1, 15), (2, 5), (2, 12), (2, 15), (4, 5),
            (4, 11), (4, 13), (4, 14), (5, 12), (6, 8), (6, 12), (7, 13), (9, 14),
            (10, 13), (10, 14), (11, 15),
        ]
        g = Graph.from_edge_list(16, edges)
        write_graph_file(g, str(tmp_path / "g16.gr"))
        witness = tmp_path / "w.col"
        argv = ["solve", "--task", "decide-rs", "-g", tmp_path / "g16.gr", "-k", "4",
                "--budget-nodes", "50"]
        assert run_cli(capsys, *argv)[:2] == (3, "BUDGET_EXCEEDED")
        code, token, _ = run_cli(capsys, *argv, "--threads", "2", "--witness-out", witness)
        assert (code, token) == (0, "YES")
        with open(witness) as fh:
            c = parse_colouring(fh, 16)
        assert is_rs(g, Colouring.of(c.colours, k=4))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_no_colours_is_no_for_any_threads(self, tmp_path, capsys, threads, k):
        write_graph_file(path_graph(3), str(tmp_path / "p3.gr"))
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", tmp_path / "p3.gr", "-k", k,
            "--threads", threads,
        )
        assert (code, token) == (1, "NO")

    def test_dot_export_flag(self, workdir, capsys):
        dot = workdir / "dart.dot"
        code, token, _ = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", workdir / "dart.gr", "-k", "3",
            "--dot", dot,
        )
        assert (code, token) == (0, "YES")
        assert dot.read_text().count("--") == 6


class TestDeepSearch:
    # the rs, star and MIS searches recurse once per vertex, so a graph deeper
    # than the interpreter's recursion limit gets an ERROR, never a traceback
    def test_decide_rs_on_long_path(self, tmp_path, capsys):
        write_graph_file(path_graph(1500), str(tmp_path / "p1500.gr"))
        code, token, out = run_cli(
            capsys, "solve", "--task", "decide-rs", "-g", tmp_path / "p1500.gr", "-k", "3"
        )
        assert (code, token) == (2, "ERROR")
        assert out.splitlines()[1] == "graph too large for exact search"

    def test_mis_on_isolated_vertices(self, tmp_path, capsys):
        # each MIS node costs time quadratic in the candidates left, so the
        # limit is lowered to 250 frames above this test instead of giving
        # the search a graph of over 1000 vertices
        write_graph_file(Graph.from_edge_list(350, []), str(tmp_path / "iso.gr"))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 250)
        try:
            code = cli.run(["solve", "--task", "mis", "-g", str(tmp_path / "iso.gr")])
        finally:
            sys.setrecursionlimit(limit)
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == ["RESULT: ERROR", "graph too large for exact search"]


class TestTreeAndChordal:
    def test_tree3rs_no_with_reason(self, workdir, capsys):
        code, token, out = run_cli(capsys, "tree3rs", "-g", workdir / "worked.gr")
        assert (code, token) == (1, "NO")
        assert "reason: class" in out

    def test_chordal3rs_dump_tree(self, workdir, capsys):
        dump = workdir / "reduced.gr"
        code, token, _ = run_cli(
            capsys, "chordal3rs", "-g", workdir / "dart.gr", "--dump-tree", dump
        )
        assert (code, token) == (0, "YES")
        from rscol.graph import is_tree, read_graph_file

        assert is_tree(read_graph_file(str(dump)))

    def test_chordal_rejects_non_chordal(self, workdir, capsys):
        from rscol.graph import cycle_graph

        write_graph_file(cycle_graph(4), str(workdir / "c4.gr"))
        code, token, _ = run_cli(capsys, "chordal3rs", "-g", workdir / "c4.gr")
        assert (code, token) == (2, "ERROR")


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
        original = read_matrix_market(str(workdir / "h.mtx"))
        assert np.abs(read_dense_csv(str(rec)) - original).max() <= 1e-12

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

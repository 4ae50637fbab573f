"""Seeded inputs for the four workloads, each with its answer known from how it
was built.

A workload's ``build(seed, directory)`` writes its input files into
``directory`` and returns the commands of one pass.  Command arguments may hold
``{out}``, the per-pass directory for files rscol writes.  Every command
carries the exit code and RESULT token its input must produce, and a check of
the files and lines it printed, written against the construction and not
against rscol.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import (
    adjacency,
    find_rs_colouring,
    is_rs,
    is_tree,
    read_colouring,
    read_graph,
    treedepth,
    write_graph,
)

# Check of one finished command: (pass output directory, stdout) -> error or None.
Check = Callable[[str, str], "str | None"]


@dataclass
class Command:
    argv: list[str]
    group: str  # "a" or "b": the end-to-end group metric this command counts in
    exit_code: int
    token: str
    check: Check | None = None


@dataclass
class Workload:
    name: str
    why: str
    # (name, description) of what group_a_s and group_b_s measure here
    group_a: tuple[str, str]
    group_b: tuple[str, str]
    build: Callable[[int, str], list[Command]]


# -- trees ------------------------------------------------------------------------

# The paper's 14-vertex worked tree (labels A..N = 0..13); not 3-rs colourable.
WORKED_TREE_EDGES = [
    (0, 2), (1, 2), (2, 4), (3, 4), (4, 6), (5, 6), (6, 7),
    (7, 8), (8, 13), (9, 13), (13, 12), (10, 12), (12, 11),
]
# A triangle with one pendant per corner: every corner is 3-plus (type I).
TYPE1_GADGET_EDGES = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]


def random_recursive_tree(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Edges (parent, child) of a uniform random recursive tree on 0..n-1."""
    child = np.arange(1, n, dtype=np.int64)
    parent = (rng.random(n - 1) * child).astype(np.int64)
    return parent, child


def subdivided_tree(n0: int, rng: np.random.Generator):
    """A random tree on n0 base vertices with each edge replaced by a 3-edge
    path.  Returns (n, us, vs, colours) where colours is the construction
    witness 0, 2, 1, 0 along every path (base vertices get 0)."""
    parent, child = random_recursive_tree(n0, rng)
    m0 = n0 - 1
    flip = rng.random(m0) < 0.5  # which end the colour-2 vertex touches
    near = np.where(flip, child, parent)
    far = np.where(flip, parent, child)
    a = n0 + 2 * np.arange(m0, dtype=np.int64)
    b = a + 1
    us = np.concatenate([near, a, b])
    vs = np.concatenate([a, b, far])
    colours = np.zeros(n0 + 2 * m0, dtype=np.int64)
    colours[a] = 2
    colours[b] = 1
    return n0 + 2 * m0, us, vs, colours


def relabel(n: int, us, vs, rng: np.random.Generator):
    """Random vertex permutation and edge order; returns (perm, us, vs)."""
    perm = rng.permutation(n)
    order = rng.permutation(len(us))
    return perm, perm[np.asarray(us)[order]], perm[np.asarray(vs)[order]]


def plant(n: int, us, vs, gadget_edges, gadget_n: int, rng: np.random.Generator):
    """Append a gadget on fresh vertices n.. and join its vertex 0 to a random
    host vertex; returns (n, us, vs)."""
    gu = [n + u for u, _ in gadget_edges] + [n]
    gv = [n + v for _, v in gadget_edges] + [int(rng.integers(n))]
    return n + gadget_n, np.concatenate([us, gu]), np.concatenate([vs, gv])


def write_planted(path: str, n: int, us, vs, gadget_n: int, rng: np.random.Generator) -> None:
    """Relabel and write a graph whose last `gadget_n` vertices are a planted
    gadget; the gadget's new vertex ids go to ``path + ".gadget"``, a record for
    the benchmark's tests that rscol never reads."""
    perm, us, vs = relabel(n, us, vs, rng)
    write_graph(path, n, us.tolist(), vs.tolist())
    with open(path + ".gadget", "w") as fh:
        fh.write(" ".join(str(v + 1) for v in perm[n - gadget_n:].tolist()) + "\n")


def refute(edges, n: int, what: str) -> None:
    """Set-up check: the benchmark's own exact search finds no 3-rs colouring."""
    if find_rs_colouring(adjacency(n, edges), 3) is not None:
        raise RuntimeError(f"{what} is 3-rs colourable; the planted NO answer is wrong")


def witness_check(n: int, us, vs, colours, what: str) -> None:
    if not is_rs(adjacency(n, zip(us.tolist(), vs.tolist())), colours.tolist()):
        raise RuntimeError(f"construction witness of {what} is not an rs colouring")


TREE_N = 150_000  # vertices per tree; two trees per pass


def build_tree(seed: int, directory: str) -> list[Command]:
    rng = np.random.default_rng([seed, 1])
    refute(WORKED_TREE_EDGES, 14, "the worked tree")
    parent, child = random_recursive_tree(TREE_N - 14, rng)
    n, us, vs = plant(TREE_N - 14, parent, child, WORKED_TREE_EDGES, 14, rng)
    no_path = os.path.join(directory, "tree_no.gr")
    write_planted(no_path, n, us, vs, 14, rng)

    n, us, vs, colours = subdivided_tree((TREE_N + 2) // 3, rng)
    witness_check(n, us, vs, colours, "the subdivided tree")
    _, us, vs = relabel(n, us, vs, rng)
    yes_path = os.path.join(directory, "tree_yes.gr")
    write_graph(yes_path, n, us.tolist(), vs.tolist())
    return [
        Command(["tree3rs", "-g", no_path], "a", 1, "NO"),
        Command(["tree3rs", "-g", yes_path], "b", 0, "YES"),
    ]


# -- chordal ------------------------------------------------------------------------

EARED_SIZES = ((500, 60), (800, 90), (1100, 120))  # (vertices before ears, ears)
TRIANGLE_FREE_N = 4000


def eared_tree(n_target: int, ears: int, rng: np.random.Generator):
    """Subdivided tree plus `ears` ears, each a new vertex joined to both ends
    of a tree edge, added only where the witness extends to the ear with the
    third colour.  Returns (n, us, vs, colours)."""
    n, us, vs, colours = subdivided_tree((n_target + 2) // 3, rng)
    adj = adjacency(n, zip(us.tolist(), vs.tolist()))
    col = colours.tolist()
    eu, ev = [], []
    for i in rng.permutation(len(us)).tolist():
        if len(eu) // 2 == ears:
            break
        x, y = int(us[i]), int(vs[i])
        c = 3 - col[x] - col[y]
        if all(c > col[z] or all(col[w] != c for w in adj[z]) for z in (x, y)):
            w = len(col)
            col.append(c)
            adj.append([x, y])
            adj[x].append(w)
            adj[y].append(w)
            eu += [x, y]
            ev += [w, w]
    if len(eu) // 2 != ears:
        raise RuntimeError("not enough tree edges accept an ear")
    colours = np.array(col)
    us, vs = np.concatenate([us, eu]), np.concatenate([vs, ev])
    return len(col), us, vs, colours


def dumped_tree_check(path_template: str, n_expected: int) -> Check:
    def check(out: str, stdout: str) -> str | None:
        n, edges = read_graph(path_template.format(out=out))
        if n != n_expected or not is_tree(n, edges):
            return f"dumped graph has {n} vertices, expected a tree on {n_expected}"
        return None

    return check


def build_chordal(seed: int, directory: str) -> list[Command]:
    rng = np.random.default_rng([seed, 2])
    refute(TYPE1_GADGET_EDGES, 6, "the type-I triangle gadget")
    commands = []
    for idx, (size, ears) in enumerate(EARED_SIZES):
        n, us, vs, colours = eared_tree(size, ears, rng)
        witness_check(n, us, vs, colours, f"eared tree {idx}")
        _, ru, rv = relabel(n, us, vs, rng)
        path = os.path.join(directory, f"eared_{idx}.gr")
        write_graph(path, n, ru.tolist(), rv.tolist())
        dump = "{out}/" + f"reduced_{idx}.gr"
        commands.append(Command(
            ["chordal3rs", "-g", path, "--dump-tree", dump], "a", 0, "YES",
            dumped_tree_check(dump, n + 3 * ears),
        ))
        n, us, vs = plant(n, us, vs, TYPE1_GADGET_EDGES, 6, rng)
        path = os.path.join(directory, f"eared_no_{idx}.gr")
        write_planted(path, n, us, vs, 6, rng)
        commands.append(Command(["chordal3rs", "-g", path], "a", 1, "NO"))
    n, us, vs, colours = subdivided_tree((TRIANGLE_FREE_N + 2) // 3, rng)
    witness_check(n, us, vs, colours, "the triangle-free tree")
    _, us, vs = relabel(n, us, vs, rng)
    path = os.path.join(directory, "triangle_free.gr")
    write_graph(path, n, us.tolist(), vs.tolist())
    dump = "{out}/reduced_tree.gr"
    commands.append(Command(
        ["chordal3rs", "-g", path, "--dump-tree", dump], "b", 0, "YES",
        dumped_tree_check(dump, n),
    ))
    return commands


# -- exact solvers --------------------------------------------------------------------

C13_SEED = 1313  # generator seed of the co-bipartite acceptance set
# Graphs up to 9 vertices: ordered search takes ~4 s on them and ~40 s more on
# the ten-vertex ones.
C13_MAX_N = 9


def c13_graphs() -> list[tuple[int, list[tuple[int, int]]]]:
    """The acceptance co-bipartite set: two cliques with random cross edges,
    drawn exactly as the acceptance test draws them."""
    rng = random.Random(C13_SEED)
    out = []
    for _ in range(100):
        n = rng.randint(2, 10)
        na = rng.randint(1, n - 1)
        edges = [(u, v) for u in range(na) for v in range(u + 1, na)]
        edges += [(u, v) for u in range(na, n) for v in range(u + 1, n)]
        for u in range(na):
            for v in range(na, n):
                if rng.random() < 0.4:
                    edges.append((u, v))
        out.append((n, edges))
    return out


def planted_cnf(rng: random.Random, num_vars: int, num_clauses: int):
    """Positive 3-CNF with a planted exactly-one-true assignment and every
    variable in at most three clauses."""
    while True:
        truth = {x: rng.random() < 0.35 for x in range(1, num_vars + 1)}
        true_vars = [x for x, t in truth.items() if t]
        false_vars = [x for x, t in truth.items() if not t]
        if not true_vars or len(false_vars) < 2:
            continue
        occ = dict.fromkeys(truth, 0)
        clauses: set[tuple[int, ...]] = set()
        for _ in range(400):
            if len(clauses) == num_clauses:
                break
            clause = tuple(sorted([rng.choice(true_vars)] + rng.sample(false_vars, 2)))
            if clause in clauses or any(occ[x] >= 3 for x in clause):
                continue
            clauses.add(clause)
            for x in clause:
                occ[x] += 1
        if len(clauses) == num_clauses:
            return sorted(clauses), truth


# Four clauses over four variables: no exactly-one-true assignment exists.
UNSAT_CUBIC = (4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def basic_gadget(num_vars: int, clauses) -> tuple[int, list[tuple[int, int]]]:
    """Basic reduction graph: variables x_i = i-1, clause j's triangle corners
    next, incidence from slot k to the k-th smallest variable, then every edge
    subdivided (new vertices numbered in sorted edge order)."""
    edges = set()
    for j, clause in enumerate(clauses):
        c = [num_vars + 3 * j + k for k in range(3)]
        edges |= {(c[0], c[1]), (c[1], c[2]), (c[0], c[2])}
        edges |= {(x - 1, c[k]) for k, x in enumerate(sorted(clause))}
    n = num_vars + 3 * len(clauses)
    out = []
    for i, (u, v) in enumerate(sorted(edges)):
        out += [(u, n + i), (v, n + i)]
    return n + len(edges), sorted((min(e), max(e)) for e in out)


def gadget_size(num_vars: int, num_clauses: int, variant: str, s: int) -> tuple[int, int]:
    if variant == "basic":
        return num_vars + 9 * num_clauses, 12 * num_clauses
    return num_vars + 3 * num_clauses * (4 * s + 3), 3 * num_clauses * (4 * s + 4)


def bipartite_subcubic(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    if max(map(len, adj), default=0) > 3:
        return False
    side = [-1] * n
    for s in range(n):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def gadget_check(path_template: str, size, exact_edges=None) -> Check:
    n_expected, m_expected = size

    def check(out: str, stdout: str) -> str | None:
        n, edges = read_graph(path_template.format(out=out))
        if (n, len(edges)) != (n_expected, m_expected):
            return f"gadget has n={n} m={len(edges)}, expected n={n_expected} m={m_expected}"
        if f"vertices: {n}" not in stdout or f"edges: {len(edges)}" not in stdout:
            return "gen-sat printed counts that differ from its output file"
        if exact_edges is not None and sorted(edges) != exact_edges:
            return "gadget edges differ from the basic construction"
        if not bipartite_subcubic(n, edges):
            return "gadget is not bipartite with maximum degree 3"
        return None

    return check


def witness_file_check(graph_template: str, witness_template: str) -> Check:
    def check(out: str, stdout: str) -> str | None:
        n, edges = read_graph(graph_template.format(out=out))
        colours = read_colouring(witness_template.format(out=out), n)
        if max(colours) > 2 or not is_rs(adjacency(n, edges), colours):
            return "witness is not a 3-rs colouring of the gadget"
        return None

    return check


SEEDED_GADGETS = 6  # planted formulas drawn from the workload seed, basic variant
SEEDED_VARS, SEEDED_CLAUSES = 9, 5
# rs search on girth gadgets is heavy-tailed (one formula in the acceptance
# sequence takes 6 s, the first three 0.2 s together), so a seed-drawn girth
# set would swing the pass time by more than any bound.  The girth gadgets are
# the first formulas of the reduction acceptance sequence instead.
C10_SEED, C10_GIRTH_FORMULAS = 1010, 3


def c10_formulas(count: int):
    """The first formulas of the reduction acceptance sequence."""
    rng = random.Random(C10_SEED)
    out = []
    for _ in range(count):
        num_vars, num_clauses = rng.randint(6, 10), rng.randint(3, 6)
        out.append((num_vars, *planted_cnf(rng, num_vars, num_clauses)))
    return out


def build_exact(seed: int, directory: str) -> list[Command]:
    commands = []
    for idx, (n, edges) in enumerate(c13_graphs()):
        if n > C13_MAX_N:
            continue
        path = os.path.join(directory, f"c13_{idx}.gr")
        write_graph(path, n, [u for u, _ in edges], [v for _, v in edges])
        chi = str(treedepth(n, edges))  # chi_s = chi_rs = chi_o on co-bipartite graphs
        for task in ("chi-star", "chi-rs", "chi-ordered"):
            commands.append(Command(["solve", "--task", task, "-g", path], "a", 0, chi))

    rng = random.Random(seed)
    planted = [(SEEDED_VARS, *planted_cnf(rng, SEEDED_VARS, SEEDED_CLAUSES), "basic")
               for _ in range(SEEDED_GADGETS)]
    planted += [(*formula, "girth") for formula in c10_formulas(C10_GIRTH_FORMULAS)]
    formulas = []
    for num_vars, clauses, truth, variant in planted:
        if any(sum(truth[x] for x in cl) != 1 for cl in clauses):
            raise RuntimeError("planted assignment is not exactly-one-true")
        formulas.append((num_vars, clauses, variant, "YES"))
    num_vars, clauses = UNSAT_CUBIC
    n, edges = basic_gadget(num_vars, clauses)
    if find_rs_colouring(adjacency(n, edges), 3) is not None:
        raise RuntimeError("the unsatisfiable cubic gadget is 3-rs colourable")
    formulas.append((num_vars, clauses, "basic", "NO"))

    for idx, (num_vars, clauses, variant, answer) in enumerate(formulas):
        cnf = os.path.join(directory, f"formula_{idx}.cnf")
        with open(cnf, "w") as fh:
            fh.write(f"p cnf {num_vars} {len(clauses)}\n")
            fh.write("".join(f"{a} {b} {c} 0\n" for a, b, c in clauses))
        gadget = "{out}/" + f"gadget_{idx}_{variant}.gr"
        witness = "{out}/" + f"witness_{idx}_{variant}.col"
        exact = basic_gadget(num_vars, clauses)[1] if variant == "basic" else None
        size = gadget_size(num_vars, len(clauses), variant, 2)
        commands.append(Command(
            ["gen-sat", "-f", cnf, "--variant", variant, "--s", "2", "-o", gadget],
            "b", 0, "OK", gadget_check(gadget, size, exact),
        ))
        commands.append(Command(
            ["solve", "--task", "decide-rs", "-k", "3", "-g", gadget,
             "--witness-out", witness, "--threads", "1"],
            "b", 0 if answer == "YES" else 1, answer,
            witness_file_check(gadget, witness) if answer == "YES" else None,
        ))
    return commands


# -- Hessian compression ------------------------------------------------------------

GRID_SIDES = (15, 20, 30)  # 5-point stencil on side x side grids: n = 225, 400, 900
RANDOM_N, RANDOM_DEGREE = 1000, 6


def grid_pairs(side: int) -> list[tuple[int, int]]:
    pairs = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                pairs.append((v, v + 1))
            if r + 1 < side:
                pairs.append((v, v + side))
    return pairs


def random_pairs(n: int, degree: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Random symmetric pattern with about n * degree / 2 off-diagonal pairs."""
    u = rng.integers(0, n, size=n * degree // 2)
    v = rng.integers(0, n, size=n * degree // 2)
    return sorted({(int(min(a, b)), int(max(a, b))) for a, b in zip(u, v) if a != b})


def symmetric_matrix(n: int, pairs, rng: np.random.Generator) -> np.ndarray:
    """Dense symmetric matrix on the pattern; every stored value is nonzero."""
    h = np.zeros((n, n))
    values = rng.uniform(0.5, 2.0, size=n + len(pairs)) * rng.choice([-1.0, 1.0], n + len(pairs))
    h[np.arange(n), np.arange(n)] = values[:n]
    if pairs:
        i, j = np.array(pairs).T
        h[i, j] = values[n:]
        h[j, i] = values[n:]
    return h


def write_matrix_market(path: str, h: np.ndarray) -> None:
    i, j = np.nonzero(np.tril(h))
    entries = zip(i.tolist(), j.tolist(), h[i, j].tolist())
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{h.shape[0]} {h.shape[0]} {len(i)}\n")
        fh.write("".join(f"{a + 1} {b + 1} {x!r}\n" for a, b, x in entries))


def read_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = fh.read().split()
    return np.array([row.split(",") for row in rows], dtype=float)


def compress_check(h: np.ndarray, adj, csv: str, groups: str) -> Check:
    def check(out: str, stdout: str) -> str | None:
        colours = read_colouring(groups.format(out=out), len(adj))
        k = max(colours) + 1
        if f"colours: {k}" not in stdout or not is_rs(adj, colours):
            return "grouping is not an rs colouring with the printed number of colours"
        seed = np.zeros((len(adj), k))
        seed[np.arange(len(adj)), colours] = 1.0
        b = read_csv(csv.format(out=out))
        if b.shape != seed.shape or np.abs(b - h @ seed).max() > 1e-12:
            return "compressed matrix differs from H @ S"
        return None

    return check


def recover_check(h: np.ndarray, csv: str) -> Check:
    def check(out: str, stdout: str) -> str | None:
        r = read_csv(csv.format(out=out))
        if r.shape != h.shape or np.abs(r - h).max() > 1e-12:
            return "recovered matrix differs from H"
        return None

    return check


def build_hessian(seed: int, directory: str) -> list[Command]:
    rng = np.random.default_rng([seed, 4])
    problems = [(f"grid{side}", side * side, grid_pairs(side)) for side in GRID_SIDES]
    problems.append(("random", RANDOM_N, random_pairs(RANDOM_N, RANDOM_DEGREE, rng)))
    commands = []
    for label, n, pairs in problems:
        h = symmetric_matrix(n, pairs, rng)
        mtx = os.path.join(directory, f"{label}.mtx")
        write_matrix_market(mtx, h)
        adj = adjacency(n, pairs)
        for order in ("natural", "ldf"):
            stem = "{out}/" + f"{label}_{order}"
            csv, groups, rec = stem + "_b.csv", stem + ".col", stem + "_h.csv"
            commands.append(Command(
                ["hess-compress", "-m", mtx, "--order", order, "-o", csv, "--groups", groups],
                "a", 0, "OK", compress_check(h, adj, csv, groups),
            ))
            commands.append(Command(
                ["hess-recover", "--compressed", csv, "--pattern", mtx, "--groups", groups,
                 "-o", rec],
                "b", 0, "OK", recover_check(h, rec),
            ))
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tree-150k",
            "two 150k-vertex trees; graph ingest is ~90% of each command, and only the YES "
            "tree makes the tester walk every vertex",
            ("tree_no_s", "tree3rs on the random tree with the worked tree planted (NO)"),
            ("tree_yes_s", "tree3rs on the subdivided random tree (YES)"),
            build_tree,
        ),
        Workload(
            "chordal-eared",
            "many small graph rebuilds and triangle rescans in the elimination loop, the "
            "O(n^2) chordality test on a triangle-free tree, and the graph writer",
            ("eared_s",
             "chordal3rs on eared trees (YES, --dump-tree) and with a type-I gadget (NO)"),
            ("triangle_free_s", "chordal3rs --dump-tree on one triangle-free subdivided tree"),
            build_chordal,
        ),
        Workload(
            "exact-small",
            "search-bound: chi_s, chi_rs and chi_o of the co-bipartite acceptance graphs and "
            "3-rs decisions on 1-in-3 SAT gadgets; ingest is negligible",
            ("chi_s", "solve chi-star, chi-rs and chi-ordered on the co-bipartite set"),
            ("decide_rs_s", "gen-sat then solve decide-rs -k 3 on the SAT gadgets"),
            build_exact,
        ),
        Workload(
            "hessian-grid",
            "grouping, compress and recover with dense CSV I/O, graph layer barely used; "
            "compress writes what recover reads, so a trade between the two shows",
            ("hess_compress_s", "hess-compress with --order natural and ldf"),
            ("hess_recover_s", "hess-recover on the files hess-compress wrote"),
            build_hessian,
        ),
    )
}

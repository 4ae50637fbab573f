"""Desk-scale exact decision/optimization solvers for rs, star and ordered colourings.

These are the ground truth the fast testers are measured against; they favour
correctness and strong propagation over raw speed.  rs and star colourings are
decided by one backtracking engine, `_run`: up to roughly 40 vertices for 3-rs
decisions, ~10 vertices for their chromatic numbers.  Its star rule is checked
per edge: a proper colouring has a bicoloured P4 exactly when some edge xy has
two neighbours of x coloured c(y) and two of y coloured c(x).  Ordered
colourings are decided through treedepth by an exact DP over connected vertex
subsets held as int bitmasks: up to about 25 vertices on sparse graphs and
about 16 on dense ones, where budget nodes count DP subproblems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .colouring import Colouring, PartialColouring, is_ordered, is_rs, is_star
from .graph import Graph


class BudgetExceededError(RuntimeError):
    """A solve ran out of its node or wall-clock budget."""


@dataclass(frozen=True)
class SolveBudget:
    max_nodes: int = 10_000_000
    time_limit: float = 120.0  # seconds

    def __post_init__(self):
        if self.max_nodes <= 0 or self.time_limit <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = SolveBudget()


class SolveStatus(Enum):
    YES = "yes"
    NO = "no"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass
class SolveResult:
    status: SolveStatus
    witness: Colouring | None = None
    nodes: int = 0


class _BudgetHit(Exception):
    pass


class _Search:
    """Backtracking state: colours, per-vertex colour counts and the feasibility rules.

    Vertex selection is dynamic: most coloured neighbours first, then highest
    degree, then lowest index.  Both rules are checked incrementally via
    per-vertex counts of neighbours in each colour class.
    """

    def __init__(self, g: Graph, k: int, budget: SolveBudget):
        self.g = g
        self.k = k
        self.budget = budget
        self.adj = [list(g.neighbours(v)) for v in range(g.n)]
        self.colour = [-1] * g.n
        # cnt[v][c] = number of neighbours of v currently coloured c
        self.cnt = [[0] * k for _ in range(g.n)]
        self.satur = [0] * g.n  # number of coloured neighbours
        self.nodes = 0
        self.deadline = time.monotonic() + budget.time_limit

    def place(self, v: int, col: int) -> None:
        self.colour[v] = col
        for u in self.adj[v]:
            self.cnt[u][col] += 1
            self.satur[u] += 1
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise _BudgetHit
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _BudgetHit

    def unplace(self, v: int, col: int) -> None:
        self.colour[v] = -1
        for u in self.adj[v]:
            self.cnt[u][col] -= 1
            self.satur[u] -= 1

    def next_vertex(self) -> int:
        best, key = -1, (-1, -1, 0)
        for v in range(self.g.n):
            if self.colour[v] == -1:
                cand = (self.satur[v], len(self.adj[v]), -v)
                if cand > key:
                    best, key = v, cand
        return best

    def rs_feasible(self, v: int, col: int) -> bool:
        if col == self.k - 1 and len(self.adj[v]) >= self.k:
            return False  # top colour forces at most one neighbour per lower class
        cnt_v = self.cnt[v]
        if cnt_v[col]:
            return False  # monochromatic edge
        for i in range(col):
            if cnt_v[i] > 1:
                return False  # v would have two neighbours in a lower class
        colour = self.colour
        for u in self.adj[v]:
            cu = colour[u]
            if cu > col and self.cnt[u][col]:
                return False  # u would gain a second neighbour coloured col
        return True

    def star_feasible(self, v: int, col: int) -> bool:
        """Would v coloured col keep the colouring proper with no bicoloured P4
        through v?  Such a P4 has a middle edge xy with two neighbours of x
        coloured c(y) and two of y coloured c(x).  Colouring v raises only
        cnt[a][col] at its neighbours a, so that edge is v-a or a-b, where a is
        coloured and already has a neighbour b coloured col."""
        cnt, colour = self.cnt, self.colour
        cnt_v = cnt[v]
        if cnt_v[col]:
            return False  # monochromatic edge
        for a in self.adj[v]:
            ca = colour[a]
            if ca == -1 or not cnt[a][col]:
                continue
            if cnt_v[ca] > 1:
                return False  # bicoloured P4 with middle edge v-a
            for b in self.adj[a]:
                if colour[b] == col and cnt[b][ca] > 1:
                    return False  # bicoloured P4 with middle edge a-b
        return True


def _as_partial(g: Graph, k: int, pre: PartialColouring | None) -> list[tuple[int, int]]:
    if pre is None:
        return []
    if len(pre.colours) != g.n:
        raise ValueError(f"precolouring covers {len(pre.colours)} vertices, graph has {g.n}")
    if pre.k > k:
        raise ValueError(f"precolouring budget {pre.k} exceeds k={k}")
    return [(v, c) for v, c in enumerate(pre.colours) if c is not None]


def _run(
    g: Graph,
    k: int,
    kind: str,
    pre: PartialColouring | None,
    budget: SolveBudget,
    on_witness: Callable[[Colouring], bool],
) -> SolveResult:
    """The one engine of rs and star search; on_witness returns True to stop at
    this witness.  Star colour classes are unordered, so star search offers a
    vertex only the colours in use plus one new colour."""
    s = _Search(g, k, budget)
    feasible = s.rs_feasible if kind == "rs" else s.star_feasible
    unordered = kind == "star"
    try:
        fixed = _as_partial(g, k, pre)
        for v, c in fixed:
            if not feasible(v, c):
                return SolveResult(SolveStatus.NO, nodes=s.nodes)
            s.place(v, c)
        remaining = s.colour.count(-1)

        def search(depth: int, used: int) -> bool:
            if depth == remaining:
                return on_witness(Colouring(tuple(s.colour), k))
            v = s.next_vertex()
            for col in range(min(k, used + 1) if unordered else k):
                if feasible(v, col):
                    s.place(v, col)
                    if search(depth + 1, max(used, col + 1)):
                        return True
                    s.unplace(v, col)
            return False

        found = search(0, max((c + 1 for _, c in fixed), default=0))
    except _BudgetHit:
        return SolveResult(SolveStatus.BUDGET_EXCEEDED, nodes=s.nodes)
    if found:
        witness = Colouring(tuple(s.colour), k)
        if not (is_rs if kind == "rs" else is_star)(g, witness):
            raise RuntimeError(f"{kind} search produced a colouring that is not {kind}")
        if pre is not None and not pre.is_extended_by(witness):
            raise RuntimeError(f"{kind} search produced a colouring that drops the precolouring")
        return SolveResult(SolveStatus.YES, witness=witness, nodes=s.nodes)
    return SolveResult(SolveStatus.NO, nodes=s.nodes)


def decide_k_rs(
    g: Graph,
    k: int,
    pre: PartialColouring | None = None,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> SolveResult:
    """Is there a k-rs colouring of g extending `pre`?

    NO means exhaustive refutation; budget exhaustion is reported distinctly.
    """
    if k < 1:
        return SolveResult(SolveStatus.NO if g.n else SolveStatus.YES)
    return _run(g, k, "rs", pre, budget, on_witness=lambda w: True)


def enumerate_k_rs(
    g: Graph,
    k: int,
    pre: PartialColouring | None = None,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> Iterator[Colouring]:
    """Yield every k-rs colouring of g extending `pre` (desk scale only).

    Raises BudgetExceededError if the exhaustive walk runs out of budget.
    """
    found: list[Colouring] = []

    def collect(w: Colouring) -> bool:
        found.append(w)
        return False  # keep searching

    result = _run(g, k, "rs", pre, budget, on_witness=collect)
    if result.status is SolveStatus.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"enumeration exceeded budget after {result.nodes} nodes")
    yield from found


def _chromatic(
    g: Graph,
    decide: Callable[[int], SolveResult],
    verifier: Callable[[Graph, Colouring], bool],
) -> int:
    for k in range(1, g.n + 1):
        result = decide(k)
        if result.status is SolveStatus.BUDGET_EXCEEDED:
            raise BudgetExceededError(f"budget exhausted while deciding k={k}")
        if result.status is SolveStatus.YES:
            if result.witness is None or not verifier(g, result.witness):
                raise RuntimeError(f"decision at k={k} returned YES without a valid witness")
            return k
    return max(g.n, 1) if g.n else 0


def rs_chromatic_number(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> int:
    """Least k such that g is k-rs colourable (k = n always works)."""
    if g.n == 0:
        return 0
    return _chromatic(g, lambda k: decide_k_rs(g, k, budget=budget), is_rs)


def decide_k_star(g: Graph, k: int, budget: SolveBudget = DEFAULT_BUDGET) -> SolveResult:
    """Is there a k-star colouring of g?"""
    if k < 1:
        return SolveResult(SolveStatus.NO if g.n else SolveStatus.YES)
    return _run(g, k, "star", None, budget, on_witness=lambda w: True)


def star_chromatic_number(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> int:
    if g.n == 0:
        return 0
    return _chromatic(g, lambda k: decide_k_star(g, k, budget=budget), is_star)


# -- ordered colouring ----------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def decide_k_ordered(g: Graph, k: int, budget: SolveBudget = DEFAULT_BUDGET) -> SolveResult:
    """Is there a k-ordered colouring (vertex ranking with k ranks)?

    A minimum ordered colouring uses exactly td(g) colours, td being treedepth
    (Bodlaender et al., "Rankings of graphs", 1998), so this decides td(g) <= k
    by an exact DP over connected vertex subsets held as int bitmasks:
    td(S) = 1 + min over v of td(S - v) for connected S, and the maximum over
    components otherwise.  The witness ranks every connected part by the
    lowest-index v attaining that minimum: v gets the part's top rank and the
    components of the part minus v rank below it.  The witness is the same
    for every k >= td(g).

    `SolveResult.nodes` counts DP subproblems solved, and `budget.max_nodes`
    bounds them.  The memo holds one entry per connected subset reached, so
    time and memory limit this to about 25 vertices on sparse graphs and about
    16 on dense ones.
    """
    if k < 1:
        return SolveResult(SolveStatus.NO if g.n else SolveStatus.YES)
    nb = [sum(1 << u for u in g.neighbours(v)) for v in range(g.n)]
    depth: dict[int, int] = {}  # connected subset -> its treedepth
    root: dict[int, int] = {}  # connected subset -> lowest vertex attaining it
    floor: dict[int, int] = {}  # connected subset -> a proven lower bound
    deadline = time.monotonic() + budget.time_limit
    nodes = 0

    def components(mask: int) -> list[int]:
        out = []
        while mask:
            comp = frontier = mask & -mask
            while frontier and comp != mask:
                bit = frontier & -frontier
                frontier ^= bit
                new = nb[bit.bit_length() - 1] & mask & ~comp
                comp |= new
                frontier |= new
            out.append(comp)
            mask ^= comp
        return out

    def td(s: int, cap: int) -> int:
        """td(s) for connected, non-empty s if it is below cap, else a lower bound >= cap."""
        nonlocal nodes
        if not s & (s - 1):
            return 1
        known = depth.get(s)
        if known is not None:
            return known
        low = floor.get(s, 2)  # s is connected and holds an edge
        if low >= cap:
            return low
        nodes += 1
        if nodes > budget.max_nodes or (nodes % 4096 == 0 and time.monotonic() > deadline):
            raise _BudgetHit
        best, best_v = cap, -1
        for v in _bits(s):
            worst = 0
            for comp in components(s ^ (1 << v)):
                worst = max(worst, td(comp, best - 1))
                if worst + 1 >= best:
                    break
            else:
                best, best_v = worst + 1, v
                if best == low:
                    break
        if best_v < 0:
            floor[s] = cap
            return cap
        depth[s], root[s] = best, best_v
        return best

    try:
        parts = components((1 << g.n) - 1)
        if any(td(part, k + 1) > k for part in parts):
            return SolveResult(SolveStatus.NO, nodes=nodes)
    except _BudgetHit:
        return SolveResult(SolveStatus.BUDGET_EXCEEDED, nodes=nodes)
    colours = [0] * g.n
    while parts:
        s = parts.pop()
        if s & (s - 1):
            v = root[s]
            colours[v] = depth[s] - 1
            parts.extend(components(s ^ (1 << v)))
    witness = Colouring(tuple(colours), k)
    if not is_ordered(g, witness):
        raise RuntimeError("treedepth ranking is not an ordered colouring")
    return SolveResult(SolveStatus.YES, witness=witness, nodes=nodes)


def ordered_chromatic_number(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> int:
    """Treedepth of g: the fewest colours of an ordered colouring."""
    if g.n == 0:
        return 0
    result = decide_k_ordered(g, g.n, budget=budget)
    if result.status is SolveStatus.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"budget exhausted after {result.nodes} subproblems")
    return max(result.witness.colours) + 1


# -- maximum independent set ------------------------------------------------------


def max_independent_set(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> list[int]:
    """A maximum independent set, by branch and bound."""
    adj = [set(g.neighbours(v)) for v in range(g.n)]
    best: list[int] = []
    nodes = 0
    deadline = time.monotonic() + budget.time_limit

    def grow(chosen: list[int], candidates: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget.max_nodes or (nodes % 4096 == 0 and time.monotonic() > deadline):
            raise _BudgetHit
        if len(chosen) + len(candidates) <= len(best):
            return
        if not candidates:
            best = list(chosen)
            return
        v = max(candidates, key=lambda u: sum(1 for w in candidates if w in adj[u]))
        rest = [u for u in candidates if u != v]
        grow(chosen + [v], [u for u in rest if u not in adj[v]])
        grow(chosen, rest)

    try:
        grow([], list(range(g.n)))
    except _BudgetHit:
        raise BudgetExceededError(f"MIS search exceeded budget after {nodes} nodes") from None
    return sorted(best)

"""Desk-scale exact decision/optimization solvers for rs, star and ordered colourings.

These are the ground truth the fast testers are measured against; they favour
correctness and strong propagation over raw speed.  rs and star colourings are
decided by one backtracking engine, `_run`: up to roughly 40 vertices for 3-rs
decisions, ~10 vertices for their chromatic numbers.  It loops over depths and
picks depth d's vertex on the first visit to d: the uncoloured vertex with the
most coloured neighbours, then the highest degree, then the lowest index, a
maximum-cardinality-search order (Tarjan & Yannakakis, 1984), not DSATUR's
distinct-colour count (Brélaz, 1979).  A vertex's colour is the cursor to its
next colour.  `max_independent_set` loops over a stack of open nodes, so the
node and time budget (`_NodeCount`) is the only limit of both searches.  The
star rule is checked per edge: a proper colouring has a bicoloured P4 exactly
when some edge xy has two neighbours of x coloured c(y) and two of y coloured
c(x).  Ordered colourings are decided through treedepth by an exact DP over
connected vertex subsets held as int bitmasks: up to about 25 vertices when
sparse and 16 when dense, where budget nodes count DP subproblems.  The DP
recurses once per rank, so the recursion limit bounds it too.
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
        # not (x > 0) also refuses NaN, which compares False both ways
        if not (self.max_nodes > 0 and self.time_limit > 0):
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


class _NodeCount:
    """A search's node count and its one check of both budget limits."""

    def __init__(self, budget: SolveBudget):
        self.budget, self.nodes = budget, 0
        self.deadline = time.monotonic() + budget.time_limit

    def over_budget(self) -> bool:
        """Count one more node: is it past the node cap, or past the deadline (read every 4096)?"""
        self.nodes += 1
        return self.nodes > self.budget.max_nodes or (
            self.nodes % 4096 == 0 and time.monotonic() > self.deadline)


class _Search(_NodeCount):
    """Backtracking state: colours, per-vertex counts of neighbours in each colour
    class, and the rs and star rules checked against them; `_run` picks the order."""

    def __init__(self, g: Graph, k: int, budget: SolveBudget):
        super().__init__(budget)
        self.k = k
        self.adj = g.adjacency()
        self.colour = [-1] * g.n
        # cnt[v][c] = number of neighbours of v currently coloured c
        self.cnt = [[0] * k for _ in range(g.n)]

    def place(self, v: int, col: int) -> None:
        self.colour[v] = col
        for u in self.adj[v]:
            self.cnt[u][col] += 1
        if self.over_budget():
            raise _BudgetHit

    def unplace(self, v: int, col: int) -> None:
        self.colour[v] = -1
        for u in self.adj[v]:
            self.cnt[u][col] -= 1

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
            if colour[u] > col and self.cnt[u][col]:
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
    on_witness: Callable[[Colouring], object],
) -> SolveResult:
    """The one engine of rs and star search; on_witness returns a true value to
    stop at this witness.  Star colour classes are unordered, so star search
    offers a vertex only the colours in use (used[d] at depth d) plus one new colour."""
    s = _Search(g, k, budget)
    feasible = s.rs_feasible if kind == "rs" else s.star_feasible
    unordered = kind == "star"
    try:
        fixed = _as_partial(g, k, pre)
        satur = [0] * g.n
        for v, c in fixed:
            if not feasible(v, c):
                return SolveResult(SolveStatus.NO, nodes=s.nodes)
            s.place(v, c)
            for u in s.adj[v]:
                satur[u] += 1
        remaining = s.colour.count(-1)
        # The order rule counts coloured neighbours whatever their colours, and every node
        # at depth d has coloured the precoloured vertices and order[:d]: pick each once.
        order: list[int] = []
        used = [max((c + 1 for _, c in fixed), default=0)] * (remaining + 1)
        colour, place, unplace = s.colour, s.place, s.unplace
        depth = 0
        while depth >= 0:  # left only by a break at an accepted witness, or below depth 0
            if depth == remaining:
                if on_witness(Colouring(tuple(colour), k)):
                    break
                depth -= 1
                continue
            if depth == len(order):
                best, key = -1, (-1, -1, 0)
                for u in range(g.n):
                    if colour[u] == -1 and (satur[u], len(s.adj[u]), -u) > key:
                        best, key = u, (satur[u], len(s.adj[u]), -u)
                order.append(best)
                for u in s.adj[best]:
                    satur[u] += 1
            v = order[depth]
            start = colour[v] + 1
            if start:
                unplace(v, start - 1)
            for col in range(start, min(k, used[depth] + 1) if unordered else k):
                if feasible(v, col):
                    place(v, col)
                    depth += 1
                    if unordered:
                        used[depth] = max(used[depth - 1], col + 1)
                    break
            else:
                depth -= 1
    except _BudgetHit:
        return SolveResult(SolveStatus.BUDGET_EXCEEDED, nodes=s.nodes)
    if depth >= 0:
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
    # append returns None, a false value, so the walk goes on after every witness
    result = _run(g, k, "rs", pre, budget, on_witness=found.append)
    if result.status is SolveStatus.BUDGET_EXCEEDED:
        raise BudgetExceededError(f"enumeration exceeded budget after {result.nodes} nodes")
    yield from found


def _greedy_clique_size(g: Graph) -> int:
    """The size of a clique of `g`, at most its clique number ω and on small
    graphs mostly equal to it: the largest clique grown greedily from each
    vertex, each step adding the candidate (a common neighbour of the clique
    so far) with the most candidate neighbours, the least such on a tie.  A
    start whose degree cannot beat the best so far is skipped."""
    masks = [sum(1 << w for w in row) for row in g.adjacency()]
    best = 0
    for v in range(g.n):
        size, candidates = 1, masks[v]
        while size + candidates.bit_count() > best:
            if not candidates:
                best = size
                break
            u = max(_bits(candidates), key=lambda w: (masks[w] & candidates).bit_count())
            size, candidates = size + 1, candidates & masks[u]
    return best


def _chromatic(g: Graph, decide: Callable[[int], SolveResult],
               verifier: Callable[[Graph, Colouring], bool]) -> int:
    """The least k that `decide` answers YES, checked by `verifier`.  Every
    proper colouring needs a colour per vertex of a clique, so k starts at
    ``_greedy_clique_size``."""
    for k in range(max(_greedy_clique_size(g), 1), g.n + 1):
        result = decide(k)
        if result.status is SolveStatus.BUDGET_EXCEEDED:
            raise BudgetExceededError(f"budget exhausted while deciding k={k}")
        if result.status is SolveStatus.YES:
            if result.witness is None or not verifier(g, result.witness):
                raise RuntimeError(f"decision at k={k} returned YES without a valid witness")
            return k
    return g.n


def rs_chromatic_number(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> int:
    """Least k such that g is k-rs colourable (k = n always works)."""
    return _chromatic(g, lambda k: decide_k_rs(g, k, budget=budget), is_rs)


def decide_k_star(g: Graph, k: int, budget: SolveBudget = DEFAULT_BUDGET) -> SolveResult:
    """Is there a k-star colouring of g?"""
    if k < 1:
        return SolveResult(SolveStatus.NO if g.n else SolveStatus.YES)
    return _run(g, k, "star", None, budget, on_witness=lambda w: True)


def star_chromatic_number(g: Graph, budget: SolveBudget = DEFAULT_BUDGET) -> int:
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
    count = _NodeCount(budget)

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
        if not s & (s - 1):
            return 1
        known = depth.get(s)
        if known is not None:
            return known
        low = floor.get(s, 2)  # s is connected and holds an edge
        if low >= cap:
            return low
        if count.over_budget():
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
            return SolveResult(SolveStatus.NO, nodes=count.nodes)
    except _BudgetHit:
        return SolveResult(SolveStatus.BUDGET_EXCEEDED, nodes=count.nodes)
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
    return SolveResult(SolveStatus.YES, witness=witness, nodes=count.nodes)


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
    """A maximum independent set, by branch and bound over int bitmasks.

    Each node branches on the candidate with the most candidate neighbours
    (lowest index on ties), including it first; a node costs one popcount per
    candidate.
    """
    nb = [sum(1 << u for u in g.neighbours(v)) for v in range(g.n)]
    best = 0
    count = _NodeCount(budget)
    # open nodes as (chosen, candidates); the include branch is pushed last, so searched first
    stack = [(0, (1 << g.n) - 1)]
    while stack:
        chosen, cand = stack.pop()
        if count.over_budget():
            raise BudgetExceededError(f"MIS search exceeded budget after {count.nodes} nodes")
        if chosen.bit_count() + cand.bit_count() <= best.bit_count():
            continue
        if not cand:
            best = chosen
            continue
        v = max(_bits(cand), key=lambda u: (nb[u] & cand).bit_count())
        rest = cand ^ (1 << v)
        stack.append((chosen, rest))
        stack.append((chosen | 1 << v, rest & ~nb[v]))
    return list(_bits(best))

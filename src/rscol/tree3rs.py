"""Linear-time 3-rs-colourability tester for trees.

The tester classifies rooted subtrees (classes I..VII) and branches
(classes A..F) bottom-up.  Class A branches and class I subtrees certify
non-colourability; everything else combines via two lookup tables,
``_BRANCH_TABLE`` and ``subtree_class_from_state``.  Degree-2 chains are walked
iteratively so stack depth stays O(number of 3-plus vertices) even on
million-vertex paths.

The walk itself reads no Enum: each vertex holds one of seven small-int states
(its forced colour and what counts of its C/E branches matter), and flat tuples
computed from the two tables at import give the branch class of a finished
subtree and the state of its parent after that branch joins.  Leaf branches
are always class F and change no state, so a chain that ends at a leaf is only
counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import Graph, GraphError, RootedTree, is_tree


class BranchClass(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"


class SubtreeClass(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    VII = "VII"


def path_3rs_feasible(n: int, i: int, j: int) -> bool:
    """Can the n-vertex path be 3-rs coloured with colours i, j on its endpoints?

    False exactly for (n=2, i=j), (n=3, i=j=0), (n=4, i!=j), (n=6, i=j=0).
    """
    if n < 2:
        raise ValueError(f"path length must be at least 2 vertices, got {n}")
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("endpoint colours must be binary")
    if n == 2:
        return i != j
    if n == 3:
        return not (i == 0 and j == 0)
    if n == 4:
        return i == j
    if n == 6:
        return not (i == 0 and j == 0)
    return True


# Branch class by (class of the rooted subtree below, up-distance of the branch).
# Entries are constant for up-distance >= 10 (saturation); the whole table is
# pinned by the oracle-equivalence suites, including the deep rows.
_B = BranchClass
_BRANCH_TABLE: dict[SubtreeClass, tuple[BranchClass, ...]] = {
    # up-distance:     1     2     3     4     5     6     7     8     9   >=10
    SubtreeClass.II: (_B.C, _B.D, _B.B, _B.E, _B.D, _B.F, _B.E, _B.F, _B.F, _B.F),
    SubtreeClass.III: (_B.A, _B.B, _B.C, _B.D, _B.B, _B.E, _B.D, _B.F, _B.E, _B.F),
    SubtreeClass.IV: (_B.B, _B.E, _B.D, _B.F, _B.E, _B.F, _B.F, _B.F, _B.F, _B.F),
    SubtreeClass.V: (_B.C, _B.F, _B.E, _B.F, _B.F, _B.F, _B.F, _B.F, _B.F, _B.F),
    SubtreeClass.VI: (_B.E, _B.F, _B.F, _B.F, _B.F, _B.F, _B.F, _B.F, _B.F, _B.F),
    SubtreeClass.VII: (_B.F,) * 10,
}


def branch_class_lookup(subtree: SubtreeClass, distance: int) -> BranchClass:
    """Class of the branch made of a `subtree`-class rooted subtree and a path
    of length `distance` (its up-distance).  A class I subtree always yields a
    class A branch."""
    if distance < 1:
        raise ValueError("up-distance must be at least 1")
    if subtree is SubtreeClass.I:
        return BranchClass.A
    return _BRANCH_TABLE[subtree][min(distance, 10) - 1]


def subtree_class_from_state(colour_v: int, c_count: int, e_count: int) -> SubtreeClass:
    """Class of a rooted subtree from the forced colour at its root and the
    numbers of class C / class E branches below it.

    colour_v is 0 when some class B branch forced colour 0 (any C/D branch then
    conflicts before this is called), 1 when a C or D branch forced colour 1,
    and -1 when nothing did.  Returning SubtreeClass.I signals rejection: the
    containing tree is not 3-rs colourable.
    """
    if colour_v == 0:
        return SubtreeClass.II
    if colour_v == 1:
        ce = c_count + e_count
        if ce == 0:
            return SubtreeClass.IV
        if ce == 1:
            return SubtreeClass.III
        return SubtreeClass.I
    if e_count == 0:
        return SubtreeClass.VI
    if e_count == 1:
        return SubtreeClass.V
    return SubtreeClass.II


@dataclass
class TreeTestResult:
    colourable: bool
    reason: str | None = None  # "class_a_branch" | "class_i_subtree" | "colour_conflict"
    reason_vertex: int | None = None
    visited: int = 0

    def reason_text(self, base: int = 0) -> str | None:
        """The reason in words, with the vertex numbered from `base`."""
        if self.reason is None:
            return None
        label = {
            "class_a_branch": "class A branch at vertex",
            "class_i_subtree": "class I subtree at vertex",
            "colour_conflict": "colour conflict at vertex",
        }[self.reason]
        return f"{label} {self.reason_vertex + base}"


# -- the tables as small ints, for the walk ---------------------------------------
#
# While its branches are read, a vertex is in one of seven states, which keep of
# its forced colour and its C/E branch counts what decides its subtree class:
# 0-2: no forced colour and 0, 1, 2+ class E branches; 3: colour 0; 4-6: colour 1
# and 0, 1, 2+ class C or E branches.  The tables below are computed from
# _BRANCH_TABLE and subtree_class_from_state, which state the rules.

_BRANCHES = tuple(BranchClass)  # code of a branch class: its index here
_A = _BRANCHES.index(BranchClass.A)
# (colour, C count, E count) of one vertex in each state
_STATE_COUNTS = ((-1, 0, 0), (-1, 0, 1), (-1, 0, 2), (0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 0, 2))


def _state(colour: int, c_count: int, e_count: int) -> int:
    if colour == 0:
        return 3
    if colour == 1:
        return 4 + min(c_count + e_count, 2)
    return min(e_count, 2)


def _absorb(colour: int, c_count: int, e_count: int, bc: BranchClass) -> int:
    """State of a vertex after a `bc` branch joins it, or -1 for a colour
    conflict: B forces colour 0, C and D force colour 1; C and E are counted.
    A class A branch never joins (the walk rejects it first) and reads -1."""
    if bc is BranchClass.A:
        return -1
    if bc is BranchClass.E:
        e_count += 1
    elif bc is not BranchClass.F:
        col = 0 if bc is BranchClass.B else 1
        if colour not in (-1, col):
            return -1
        colour = col
        if bc is BranchClass.C:
            c_count += 1
    return _state(colour, c_count, e_count)


_NEXT_STATE = tuple(_absorb(*counts, bc) for counts in _STATE_COUNTS for bc in _BRANCHES)
"""_NEXT_STATE[6 * state + branch code]: the state after that branch joins."""

_STATE_CLASS = tuple(subtree_class_from_state(*counts) for counts in _STATE_COUNTS)
_CLASS_I_STATE = _STATE_CLASS.index(SubtreeClass.I)

_BRANCH_OF = tuple(
    _BRANCHES.index(branch_class_lookup(cls, d)) if d else -1
    for cls in _STATE_CLASS for d in range(11)
)
"""_BRANCH_OF[11 * state + min(d, 10)]: code of the branch made of a finished
subtree in that state and a path of up-distance d >= 1."""


def test_3rs_tree(t: Graph | RootedTree) -> TreeTestResult:
    """Decide 3-rs colourability of a tree.

    Accepts a Graph (must be a tree) or an already rooted tree.  Trees without
    a 3-plus vertex are paths and always colourable.  Decision-only: witnesses
    come from the exact solver.
    """
    g, root = (t.graph, t.root) if isinstance(t, RootedTree) else (t, None)
    if g.n < 1 or g.m != g.n - 1:
        raise GraphError("input graph is not a tree")
    off = g.offsets
    if root is None:
        root = next((v for v in range(g.n) if off[v + 1] - off[v] >= 3), None)
    if root is None or not (0 <= root < g.n and off[root + 1] - off[root] >= 3):
        if g.max_degree() >= 3:
            raise GraphError("rooted input must use a 3-plus root")
        if not is_tree(g):
            raise GraphError("input graph is not a tree")
        return TreeTestResult(True, visited=0)  # a path

    # Single post-order pass; frames carry their own parent so no BFS rooting
    # pass is needed.  m = n-1 was checked above, so visiting all n vertices
    # exactly once certifies tree-ness; a cycle would push `visited` past n.
    n = g.n
    tgt = g.targets
    state = [0] * n  # every vertex starts in state 0: no forced colour, no branch
    next_state, branch_of = _NEXT_STATE, _BRANCH_OF
    visited = 1  # the root

    # frame: [vertex, parent of vertex, min(up-distance, 10), next position in targets]
    frames: list[list[int]] = [[root, -1, 0, off[root]]]
    while frames:
        frame = frames[-1]
        v, pv, _, idx = frame
        end = off[v + 1]
        if idx < end and tgt[idx] == pv:
            idx += 1
        if idx < end:
            w = tgt[idx]
            frame[3] = idx + 1
            # walk the degree-2 chain below v until a leaf or 3-plus vertex
            p = v
            d = 1
            lo = off[w]
            while off[w + 1] - lo == 2:
                a = tgt[lo]
                p, w = w, (tgt[lo + 1] if a == p else a)
                d += 1
                lo = off[w]
            visited += d
            if visited > n:
                raise GraphError("input graph is not a tree")
            # a leaf is a class VII subtree, whose branches are all class F and
            # change no state; any other end of the chain is a 3-plus vertex
            if off[w + 1] - lo != 1:
                frames.append([w, p, d if d < 10 else 10, lo])
            continue
        s = state[v]
        if s == _CLASS_I_STATE:
            return TreeTestResult(False, "class_i_subtree", v, visited)
        frames.pop()
        if not frames:
            if visited != n:
                raise GraphError("input graph is not a tree")
            return TreeTestResult(True, visited=visited)
        bc = branch_of[11 * s + frame[2]]
        if bc == _A:
            return TreeTestResult(False, "class_a_branch", v, visited)
        u = frames[-1][0]
        s = next_state[6 * state[u] + bc]
        if s < 0:
            return TreeTestResult(False, "colour_conflict", u, visited)
        state[u] = s
    raise AssertionError("unreachable")

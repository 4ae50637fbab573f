"""Linear-time 3-rs-colourability tester for trees.

The tester classifies rooted subtrees (classes I..VII) and branches
(classes A..F) bottom-up.  Class A branches and class I subtrees certify
non-colourability; everything else combines via two lookup tables,
``_BRANCH_TABLE`` and ``subtree_class_from_state``.  Frames exist only for
3-plus vertices, so stack depth stays O(number of 3-plus vertices) even on
million-vertex paths.

The walk itself reads no Enum: each vertex holds one of seven small-int states
(its forced colour and what counts of its C/E branches matter), and flat tuples
computed from the two tables at import give the branch class of a finished
subtree and the state of its parent after that branch joins.  Leaf branches
are always class F and change no state, so a chain that ends at a leaf is only
counted.

The answer depends only on the 3-plus vertices and the chains between them.
``_walk`` steps through every degree-2 vertex in Python, which is the cheapest
way to an answer that comes early.  Once it has visited more than
n // FRONT_WALK_SHARE vertices of a tree larger than SMALL_TREE it gives up,
and ``_fold`` runs the same frames from the same root on the skeleton built by
``_skeleton``: numpy resolves every chain out of a 3-plus vertex at once
(``_chains``), and a chain that ends at a leaf becomes a vertex count.  Both
give the same result, ``visited`` included.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .graph import Graph, GraphError, RootedTree, _packed, _ranges, is_tree


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


FRONT_WALK_SHARE = 8
"""The vertex walk gives up once it has visited more than n // FRONT_WALK_SHARE
vertices, and the skeleton is built and walked from the root instead.

A NO answer often comes after a few dozen vertices, and the vertex walk gives
it at once; a YES answer needs every vertex.  On the 150k-vertex benchmark tree
(2-core Xeon, Python 3.11) the vertex walk costs about 0.4 µs per vertex, and
building and walking the skeleton about 0.15 µs per vertex of the tree.  The
walk a long tree does before it gives up is wasted: n/8 vertices at 0.4 µs is
0.05 µs per vertex of the tree, about a third of the skeleton's cost.  So a
tree that proves long pays at most about 1.35 times the skeleton alone, and a
tree that fails within n/8 vertices never builds it."""

SMALL_TREE = 1024
"""A tree of at most SMALL_TREE vertices is walked whole.  Building the
skeleton costs about 0.13 ms whatever the tree (some sixty numpy calls, and a
dozen more per round of ``_chains``), the vertex walk of some three hundred
vertices; on subdivided YES trees the skeleton starts to pay near 900
vertices, and on a small NO tree it would only add its fixed cost."""

SPLIT_EVERY = 32
"""About one degree-2 vertex in SPLIT_EVERY is a splitter of its chain, so
that a walker of ``_chains`` stops within a few times this many steps however
long its chain is, unless the vertex ids were chosen to dodge the hash."""

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2**64 / golden ratio, odd: a bijective hash
_SPLIT_BELOW = np.uint64(2**64 // SPLIT_EVERY)
_RAKE = np.array(_BRANCH_OF[:11])  # branch code of a finished subtree in state 0, by min(d, 10)


def test_3rs_tree(t: Graph | RootedTree) -> TreeTestResult:
    """Decide 3-rs colourability of a tree.

    Accepts a Graph (must be a tree) or an already rooted tree.  Trees without
    a 3-plus vertex are paths and always colourable.  Decision-only: witnesses
    come from the exact solver.

    The vertex walk runs first and answers while it has visited at most
    n // FRONT_WALK_SHARE vertices (all of them, on a tree of at most
    SMALL_TREE); past that, the skeleton of 3-plus vertices is built in numpy
    and walked from the same root, with the same result.
    """
    g, root = (t.graph, t.root) if isinstance(t, RootedTree) else (t, None)
    n = g.n
    if n < 1 or g.m != n - 1:
        raise GraphError("input graph is not a tree")
    deg = g.degrees()
    if root is None:
        root = int((deg >= 3).argmax())  # 0 when no vertex is 3-plus
    if not (0 <= root < n and deg[root] >= 3):
        if deg.max() >= 3:
            raise GraphError("rooted input must use a 3-plus root")
        if not is_tree(g):
            raise GraphError("input graph is not a tree")
        return TreeTestResult(True, visited=0)  # a path
    result = _walk(g, root, n if n <= SMALL_TREE else n // FRONT_WALK_SHARE)
    return _fold(_skeleton(g, deg), root, n) if result is None else result


def _walk(g: Graph, root: int, cap: int) -> TreeTestResult | None:
    """The tester walking every vertex, or None once it has visited more than
    `cap` vertices.

    Single post-order pass; frames carry their own parent so no BFS rooting
    pass is needed.  m = n-1 was checked, so visiting all n vertices exactly
    once certifies tree-ness; a cycle would push `visited` past n.
    """
    n = g.n
    off, tgt = g.offsets, g.targets
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
            room = cap - visited
            lo = off[w]
            while off[w + 1] - lo == 2:
                if d > room:
                    return None
                a = tgt[lo]
                p, w = w, (tgt[lo + 1] if a == p else a)
                d += 1
                lo = off[w]
            visited += d
            if visited > n:
                raise GraphError("input graph is not a tree")
            if visited > cap:
                return None
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


# -- the skeleton of 3-plus vertices -----------------------------------------------


def _chains(
    off: np.ndarray, tgt: np.ndarray, deg: np.ndarray, tail: np.ndarray, head: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Follow the chain of degree-2 vertices that starts with each arc
    ``tail -> head``, where `tail` does not have degree 2.  Returns per arc the
    first vertex from `head` on that does not have degree 2 (the chain's end),
    the vertex just before it, and the number of edges from tail to end.

    Each arc sends a walker, and each numpy round moves every walker one
    vertex on: after (prev, cur) comes ``both[cur] - prev``, where both[x] is
    the sum of x's two neighbours.  So that no walker goes far, about one
    degree-2 vertex in SPLIT_EVERY, picked by a multiplicative hash of its id,
    is a splitter: walkers stop there too, and it sends out two walkers of its
    own, one each way.  A walker that stops at a splitter carries on as the
    splitter's walker that leaves the other way; pointer doubling over these
    links (Wyllie 1979) adds up the lengths in log2(walkers) rounds.  A cycle
    of degree-2 vertices, which no arc from outside it reaches, can only link
    splitters in a ring; those walkers are left unfinished when the rounds run
    out.
    """
    k = tail.size
    d2 = np.flatnonzero(deg == 2)
    pos = off[d2]
    both = np.empty(deg.size, dtype=np.int64)  # read only at degree-2 vertices
    both[d2] = tgt[pos] + tgt[pos + 1]
    splitters = d2[d2.astype(np.uint64) * _GOLDEN < _SPLIT_BELOW]
    s = splitters.size
    stop = deg != 2
    stop[splitters] = True
    # walkers: one per arc, then each splitter's toward its first neighbour,
    # then each splitter's toward its second
    pos = off[splitters]
    prev = np.concatenate((tail, splitters, splitters))
    cur = np.concatenate((head, tgt[pos], tgt[pos + 1]))
    end, last, length = np.empty_like(cur), np.empty_like(cur), np.empty_like(cur)
    walker = np.arange(cur.size)
    steps = 1
    while True:
        done = stop[cur]
        who = walker[done]
        end[who], last[who], length[who] = cur[done], prev[done], steps
        on = ~done
        walker, cur, prev = walker[on], cur[on], prev[on]
        if not walker.size:
            break
        cur, prev = both[cur] - prev, cur
        steps += 1

    # a walker that stopped at a splitter carries on as the splitter's walker
    # that leaves it away from the walker's last vertex
    live = np.flatnonzero(deg[end] == 2)
    if live.size:
        at = end[live]
        link = np.full(end.size, -1, dtype=np.int64)
        link[live] = k + np.searchsorted(splitters, at) + s * (tgt[off[at]] == last[live])
        for _ in range(end.size.bit_length()):
            nxt = link[live]
            length[live] += length[nxt]
            end[live], last[live] = end[nxt], last[nxt]
            link[live] = link[nxt]
            live = live[link[live] >= 0]
            if not live.size:
                break
    return end[:k], last[:k], length[:k]


class _Skeleton(NamedTuple):
    """The 3-plus vertices of a graph and the chains between them, as packed
    int64 arrays for the fold, which reads them as ``_walk`` reads the CSR.

    Skeleton vertex i is the i-th 3-plus vertex, ``vertex[i]``.  Its arcs are
    ``offsets[i] .. offsets[i + 1] - 1`` in CSR order, one per chain that ends
    at a 3-plus vertex.  A chain that ends at a leaf is a class F branch and
    changes no state, so it is no arc here; only its vertices count, in
    ``before`` of the next arc of its row or in ``after`` of its row.  Per
    arc: ``first`` and ``last`` are the chain's vertices after its tail and
    before its end, ``far`` the end's skeleton vertex and ``cut``
    min(length, 10); ``step`` adds ``before`` and the chain's length.  When
    the far end has no other arc, its subtree stays in state 0, so ``rake``
    holds the branch it makes, and ``step`` adds the far end's leaf chains
    too; rake is -1 on every other arc."""

    vertex: array
    offsets: array
    after: array
    first: array
    last: array
    far: array
    cut: array
    before: array
    step: array
    rake: array


def _skeleton(g: Graph, deg: np.ndarray) -> _Skeleton:
    """The skeleton of `g` (see ``_Skeleton``), from the CSR and one
    ``_chains`` call over every arc out of a 3-plus vertex."""
    off = np.frombuffer(g.offsets, dtype=np.int64)
    tgt = np.frombuffer(g.targets, dtype=np.int64)
    plus = np.flatnonzero(deg >= 3)
    rows = plus.size
    size = deg[plus]
    row = np.repeat(np.arange(rows), size)
    first = tgt[_ranges(off[plus], size)]
    end, last, length = _chains(off, tgt, deg, plus[row], first)
    leaf = deg[end] == 1
    kept = ~leaf
    leaf_mass = np.where(leaf, length, 0)
    per_row = np.bincount(row[kept], minlength=rows)
    # add up the leaf chains of each row before each kept arc and after the last:
    # numbered in CSR order with one more number at the end of each row, each
    # arc's number is its own if kept, else that of the next kept arc or row end
    group = np.cumsum(kept) - kept + row
    mass = np.bincount(group, leaf_mass, kept.sum() + rows).astype(np.int64)
    before = mass[group[kept]]
    after = mass[np.cumsum(per_row + 1) - 1]
    sid = np.empty(deg.size, dtype=np.int64)  # read only at 3-plus vertices
    sid[plus] = np.arange(rows)
    far = sid[end[kept]]
    cut = np.minimum(length[kept], 10)
    alone = per_row[far] == 1
    row_mass = np.bincount(row, leaf_mass, rows).astype(np.int64)
    step = before + length[kept] + np.where(alone, row_mass[far], 0)
    rake = np.where(alone, _RAKE[cut], -1)
    offsets = np.concatenate(([0], np.cumsum(per_row)))
    return _Skeleton(*map(_packed, (
        plus, offsets, after, first[kept], last[kept], far, cut, before, step, rake)))


def _fold(sk: _Skeleton, root: int, n: int) -> TreeTestResult:
    """``_walk`` from `root` on the skeleton `sk` of an n-vertex graph: the
    same frames and the same result, with each chain read from its arc and
    the leaf chains counted by their vertices.  ``visited`` is exact at every
    return, as the vertex walk counts it."""
    vertex, off, after, first, last, far, cut, before, step, rake = sk
    state = [0] * len(vertex)
    next_state, branch_of = _NEXT_STATE, _BRANCH_OF
    visited = 1
    root = bisect_left(vertex, root)
    frames: list[list[int]] = [[root, -1, 0, off[root]]]
    while frames:
        frame = frames[-1]
        v, pv, _, idx = frame
        end = off[v + 1]
        if idx < end and first[idx] == pv:
            visited += before[idx]
            idx += 1
        if idx < end:
            frame[3] = idx + 1
            visited += step[idx]
            if visited > n:
                raise GraphError("input graph is not a tree")
            bc = rake[idx]
            if bc < 0:
                w = far[idx]
                frames.append([w, last[idx], cut[idx], off[w]])
                continue
            # the far end's own frame would only skip its way back and pop
            if bc == _A:
                return TreeTestResult(False, "class_a_branch", vertex[far[idx]], visited)
            s = next_state[6 * state[v] + bc]
            if s < 0:
                return TreeTestResult(False, "colour_conflict", vertex[v], visited)
            state[v] = s
            continue
        visited += after[v]
        if visited > n:
            raise GraphError("input graph is not a tree")
        s = state[v]
        if s == _CLASS_I_STATE:
            return TreeTestResult(False, "class_i_subtree", vertex[v], visited)
        frames.pop()
        if not frames:
            if visited != n:
                raise GraphError("input graph is not a tree")
            return TreeTestResult(True, visited=visited)
        bc = branch_of[11 * s + frame[2]]
        if bc == _A:
            return TreeTestResult(False, "class_a_branch", vertex[v], visited)
        u = frames[-1][0]
        s = next_state[6 * state[u] + bc]
        if s < 0:
            return TreeTestResult(False, "colour_conflict", vertex[u], visited)
        state[u] = s
    raise AssertionError("unreachable")

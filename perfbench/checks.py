"""Known-answer checks written from the definitions, independent of rscol.

Graphs here are plain adjacency lists (``list[list[int]]``) on 0-based
vertices; nothing in this module imports the package under test.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def is_rs(adj: list[list[int]], colours) -> bool:
    """Restricted star colouring, by definition: proper, and every vertex has
    at most one neighbour in each colour class lower than its own."""
    if len(colours) != len(adj):
        return False
    for v, nbrs in enumerate(adj):
        cv = colours[v]
        lower: set[int] = set()
        for w in nbrs:
            cw = colours[w]
            if cw == cv:
                return False
            if cw < cv:
                if cw in lower:
                    return False
                lower.add(cw)
    return True


def rs_extends(adj: list[list[int]], colours, v: int) -> bool:
    """Does coloured vertex v keep the rs conditions among coloured vertices?

    Checks v itself and each coloured neighbour above v's colour; uncoloured
    vertices hold -1 and are ignored.
    """
    cv = colours[v]
    lower: set[int] = set()
    for w in adj[v]:
        cw = colours[w]
        if cw < 0:
            continue
        if cw == cv:
            return False
        if cw < cv:
            if cw in lower:
                return False
            lower.add(cw)
        elif sum(1 for x in adj[w] if colours[x] == cv) > 1:
            return False
    return True


def find_rs_colouring(adj: list[list[int]], k: int) -> list[int] | None:
    """Exhaustive search for a k-rs colouring; None proves there is none.

    Vertices are coloured in BFS order so each new vertex has a coloured
    neighbour, which makes the partial checks prune early.  Desk scale only.
    """
    n = len(adj)
    order: list[int] = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        order.append(s)
        head = len(order) - 1
        while head < len(order):
            u = order[head]
            head += 1
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
    colours = [-1] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in range(k):
            colours[v] = c
            if rs_extends(adj, colours, v) and extend(i + 1):
                return True
        colours[v] = -1
        return False

    return list(colours) if extend(0) else None


def treedepth(n: int, edges) -> int:
    """Treedepth by its recursion: td of a connected graph is 1 + min over v
    of td(G - v); of a disconnected graph, the maximum over its components.

    Memoised over vertex subsets as bitmasks; intended for n <= 12.
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo: dict[int, int] = {0: 0}

    def components(mask: int) -> list[int]:
        out = []
        while mask:
            comp = frontier = mask & -mask
            while frontier:
                grow = 0
                f = frontier
                while f:
                    low = f & -f
                    grow |= nbr[low.bit_length() - 1]
                    f ^= low
                frontier = grow & mask & ~comp
                comp |= frontier
            out.append(comp)
            mask &= ~comp
        return out

    def td(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        comps = components(mask)
        if len(comps) > 1:
            value = max(td(c) for c in comps)
        else:
            best = n
            m = mask
            while m:
                low = m & -m
                best = min(best, td(mask & ~low))
                m ^= low
            value = 1 + best
        memo[mask] = value
        return value

    return td((1 << n) - 1)


def is_tree(n: int, edges) -> bool:
    if n < 1 or len(edges) != n - 1:
        return False
    adj = adjacency(n, edges)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n


def contains_subgraph(adj: list[list[int]], mapping, edges) -> bool:
    """Does the host graph contain `edges` under the vertex map `mapping`?"""
    return all(mapping[v] in adj[mapping[u]] for u, v in edges)


# -- file formats ---------------------------------------------------------------


def read_graph(path: str) -> tuple[int, list[tuple[int, int]]]:
    """Read the DIMACS-like graph format: ``p edge n m`` then ``e u v`` (1-based)."""
    n = -1
    edges: list[tuple[int, int]] = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0] == "c":
                continue
            if parts[0] == "p":
                n, m = int(parts[2]), int(parts[3])
            elif parts[0] == "e":
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
            else:
                raise ValueError(f"{path}: unexpected line {line!r}")
    if n < 0 or len(edges) != m:
        raise ValueError(f"{path}: malformed graph file")
    return n, edges


def write_graph(path: str, n: int, us, vs) -> None:
    """Write edges (0-based endpoint sequences) in the graph format."""
    with open(path, "w") as fh:
        fh.write(f"p edge {n} {len(us)}\n")
        fh.write("".join(f"e {u + 1} {v + 1}\n" for u, v in zip(us, vs)))


def read_colouring(path: str, n: int) -> list[int]:
    colours = [-1] * n
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts:
                v = int(parts[0])
                if not 1 <= v <= n:
                    raise ValueError(f"{path}: vertex {v} outside 1..{n}")
                colours[v - 1] = int(parts[1])
    if -1 in colours:
        raise ValueError(f"{path}: colouring does not cover all {n} vertices")
    return colours

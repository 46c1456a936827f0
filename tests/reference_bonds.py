"""A reference bond enumeration: the set-based scan that
`analysis.enumerate_bonds` replaced, kept to check that the neighbour-mask
scan returns the same bonds in the same order."""

from itertools import combinations

from dynbroadcast.analysis import Bond
from dynbroadcast.graph import Graph


def reference_bonds(g: Graph) -> list[Bond]:
    """All bonds, found by scanning connected bipartitions, with node 0 on
    side A, by the size of side A and then in `combinations` order."""
    n = g.node_count
    adjacency = g.adjacency()
    bonds = []
    rest = list(range(1, n))
    for r in range(0, n - 1):
        for extra in combinations(rest, r):
            side_a = frozenset((0,) + extra)
            side_b = frozenset(v for v in range(n) if v not in side_a)
            if not side_b:
                continue
            cut = frozenset((u, v) for (u, v) in g.edges if (u in side_a) != (v in side_a))
            if not cut:
                continue
            if _connected_within(side_a, adjacency) and _connected_within(side_b, adjacency):
                bonds.append(Bond(cut, side_a, side_b))
    return bonds


def _connected_within(nodes: frozenset[int], adjacency) -> bool:
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w in nodes and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)

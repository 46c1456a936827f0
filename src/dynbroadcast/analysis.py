"""Structural analysis: connectivity measures, bonds, and certified bounds on
the number of agents needed to broadcast against an adversary.

Lower-bound certificates:
  * a minimal edge cut of m pairwise non-adjacent edges lets the adversary
    confine the message to one side unless at least m-1 agents start ignorant;
  * in a 3-vertex-connected graph the adversary wins against up to
    (min degree - 2) ignorant agents by shielding one vertex.

Exact values are attached for recognized families (generalized theta graphs
with all path lengths >= 3, trees, complete graphs, rings, clique stars,
lollipops, and the equal-length theta density family).

Connectivity is computed with unit-capacity max flows found by BFS augmenting
paths. Edge connectivity takes n - 1 flows, from node 0 to every other node.
Vertex connectivity follows Esfahanian and Hakimi (1984) on the node-split
digraph of Even (1975): flows from a minimum-degree vertex v to each of its
non-neighbours, and between each non-adjacent pair of v's neighbours, which
is O(n + delta^2) flows. Every flow stops at the best value found so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import ceil

from .graph import Edge, Graph, theta_layout


def min_degree(g: Graph) -> int:
    return min(g.degree(v) for v in range(g.node_count))


def _flow(residual: list[dict[int, int]], s: int, t: int, cap: int) -> int:
    """Units of s-t flow, at most `cap`, pushed one BFS augmenting path at a
    time through the unit-capacity `residual` arcs, which it updates."""
    flow = 0
    while flow < cap:
        parent = {s: s}
        queue = [s]
        for u in queue:
            for w, c in residual[u].items():
                if c and w not in parent:
                    parent[w] = u
                    queue.append(w)
            if t in parent:
                break
        else:
            return flow
        w = t
        while w != s:
            u = parent[w]
            residual[u][w] -= 1
            residual[w][u] += 1
            w = u
        flow += 1
    return flow


def edge_connectivity(g: Graph) -> int:
    arcs = [dict.fromkeys(nbrs, 1) for nbrs in g.adjacency()]
    best = min_degree(g)
    for t in range(1, g.node_count):
        best = _flow([dict(a) for a in arcs], 0, t, best)
    return best


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity; n-1 for the complete graph by convention."""
    # Node u splits into 2u (in) and 2u+1 (out), joined by one unit arc.
    arcs: list[dict[int, int]] = []
    for u, nbrs in enumerate(g.adjacency()):
        arcs.append({2 * u + 1: 1} | dict.fromkeys((2 * w + 1 for w in nbrs), 0))
        arcs.append({2 * u: 0} | dict.fromkeys((2 * w for w in nbrs), 1))
    v = min(range(g.node_count), key=g.degree)
    nbrs = g.neighbors(v)
    pairs = [(v, w) for w in range(g.node_count) if w != v and w not in nbrs]
    pairs += [(x, y) for x, y in combinations(nbrs, 2) if not g.has_edge(x, y)]
    best = len(nbrs)
    for x, y in pairs:
        best = _flow([dict(a) for a in arcs], 2 * x + 1, 2 * y, best)
    return best


@dataclass(frozen=True)
class Bond:
    """A minimal edge cut: removing it disconnects the graph into exactly the
    two sides, and every proper subset leaves the graph connected."""

    edges: frozenset[Edge]
    side_a: frozenset[int]
    side_b: frozenset[int]

    @property
    def is_matching(self) -> bool:
        """No two cut edges share an endpoint."""
        seen: set[int] = set()
        for u, v in self.edges:
            if u in seen or v in seen:
                return False
            seen.update((u, v))
        return True


MAX_BOND_NODES = 16  # bond enumeration is exponential in n


def enumerate_bonds(g: Graph) -> list[Bond]:
    """All bonds, found by scanning connected bipartitions (exponential in n).

    Node 0 stays on side A, so no bipartition is scanned twice. Sides are bit
    masks: each side's connectivity is a walk over the neighbour masks, and
    the cut is built only for the bipartitions that are bonds.
    """
    n = g.node_count
    if n > MAX_BOND_NODES:
        raise ValueError(f"bond enumeration limited to {MAX_BOND_NODES} nodes")
    masks = g.neighbour_masks()
    every = (1 << n) - 1
    bonds = []
    rest = [1 << v for v in range(1, n)]
    for r in range(0, n - 1):
        for extra in combinations(rest, r):
            a = 1 + sum(extra)
            b = every ^ a
            if not (_mask_connected(a, masks) and _mask_connected(b, masks)):
                continue
            cut = frozenset((u, v) for (u, v) in g.edges if (a >> u & 1) != (a >> v & 1))
            if cut:
                side_a = frozenset(v for v in range(n) if a >> v & 1)
                bonds.append(Bond(cut, side_a, frozenset(range(n)) - side_a))
    return bonds


def largest_matching_bond(bonds: list[Bond]) -> Bond | None:
    """The matching bond with the most edges, the first found among equals."""
    return max((b for b in bonds if b.is_matching), key=lambda b: len(b.edges), default=None)


def _mask_connected(nodes: int, masks) -> bool:
    """Whether the nodes of the bit mask `nodes` (at least one) induce a
    connected subgraph: a walk over the neighbour masks, kept inside `nodes`."""
    frontier = seen = nodes & -nodes
    while frontier:
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        new = masks[v] & nodes & ~seen
        seen |= new
        frontier |= new
    return seen == nodes


def y_set_diameter(g: Graph, y: int) -> int:
    """Smallest diameter of an induced connected subgraph on y nodes, measured
    in the base graph; the best-case spread of y agents that must meet."""
    if not 1 <= y <= g.node_count:
        raise ValueError("y out of range")
    masks = g.neighbour_masks()
    best = None
    for nodes in combinations(range(g.node_count), y):
        if not _mask_connected(sum(1 << v for v in nodes), masks):
            continue
        diam = max(
            (g.distance(u, v) for u, v in combinations(nodes, 2)), default=0
        )
        if best is None or diam < best:
            best = diam
    if best is None:
        raise ValueError("no connected subset of that size")
    return best


@dataclass(frozen=True)
class TimingBounds:
    """Exact worst-case round counts on a path with x ignorant agents at one
    end and y sources at the other.

    Ceiling convention: the facing pair starts at graph distance n-x-y+1 (one
    more than the number of free nodes between the blocks), and agents meet by
    co-location, never by swapping along an edge, so the first conversion
    takes exactly ceil((n-x-y+1)/2) rounds."""

    first_new_source: int
    all_sources: int


def timing_bounds(n: int, x: int, y: int) -> TimingBounds:
    """Worst-case rounds for the first conversion and for full broadcast when
    x agents roam and y agents (including the source) hold a connected block."""
    if y < 1 or x < 0 or x + y > n:
        raise ValueError("invalid agent split")
    return TimingBounds(
        first_new_source=ceil((n - x - y + 1) / 2),
        all_sources=ceil((n - y) / 2),
    )


@dataclass(frozen=True)
class BoundEntry:
    kind: str
    bound_type: str  # "lower", "upper", or "exact"
    value: int
    certificate: tuple = ()
    note: str = ""


@dataclass
class BoundReport:
    graph: Graph
    entries: list[BoundEntry] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)  # empty above MAX_BOND_NODES nodes

    @property
    def best_lower(self) -> int:
        vals = [e.value for e in self.entries if e.bound_type in ("lower", "exact")]
        return max(vals, default=1)

    @property
    def exact(self) -> int | None:
        for e in self.entries:
            if e.bound_type == "exact":
                return e.value
        return None

    def by_kind(self, kind: str) -> BoundEntry | None:
        for e in self.entries:
            if e.kind == kind:
                return e
        return None


def _is_tree(g: Graph) -> bool:
    return len(g.edges) == g.node_count - 1


def _is_complete(g: Graph) -> bool:
    n = g.node_count
    return len(g.edges) == n * (n - 1) // 2


def _is_ring(g: Graph) -> bool:
    return len(g.edges) == g.node_count and all(
        g.degree(v) == 2 for v in range(g.node_count)
    )


def bound_report(g: Graph) -> BoundReport:
    """Certified bounds on the minimum number of ignorant agents the agents
    need so that broadcast is forced from every starting placement.

    `clique_star_exact` is n - 2λ + 1. The exact solver confirms it on
    clique_star(5,2) and (7,2). It disproves it for λ = 1, where the graph is
    K_n and k* = n - 2, and on windmills (blocks of 2 nodes) with λ >= 3,
    where k* = 3 on (7,3) and 4 on (9,4). The entry is left out on both. On
    the other instances, such as (9,2), the solver has not checked it.
    """
    report = BoundReport(g)
    entries = report.entries
    n = g.node_count

    # Exact values for recognized families.
    fam = g.family
    if _is_tree(g):
        entries.append(
            BoundEntry("tree_exact", "exact", 1, note="edges of a tree are unremovable")
        )
    elif _is_complete(g) and n >= 3:
        entries.append(BoundEntry("complete_exact", "exact", n - 2))
    elif _is_ring(g) and n >= 5:
        entries.append(BoundEntry("ring_exact", "exact", 2))
    else:
        layout = theta_layout(g)
        lengths = () if layout is None else tuple(len(p) for p in layout.paths)
        if len(lengths) >= 2 and all(d >= 3 for d in lengths):
            entries.append(
                BoundEntry(
                    "theta_exact",
                    "exact",
                    len(lengths),
                    certificate=lengths,
                    note="one agent per internal path",
                )
            )
            if fam is not None and fam.kind == "density_family":
                entries.append(
                    BoundEntry(
                        "density_family_exact",
                        "exact",
                        len(lengths),
                        certificate=tuple(fam.params),
                    )
                )
    if fam is not None and fam.kind == "clique_star":
        n_total, lam = fam.params
        windmill = (n - 1) // lam == 2
        if n_total == n and lam >= 2 and not (windmill and lam > 2):
            entries.append(
                BoundEntry(
                    "clique_star_exact", "exact", n - 2 * lam + 1, certificate=(lam,)
                )
            )
    if fam is not None and fam.kind == "lollipop":
        k, path_edges = fam.params
        entries.append(
            BoundEntry("lollipop_exact", "exact", k, certificate=(k, path_edges))
        )

    # Bond lower bound: a matching bond of m edges defeats m-2 ignorant agents,
    # so at least m-1 are needed.
    if n <= MAX_BOND_NODES:
        report.bonds = enumerate_bonds(g)
        best_bond = largest_matching_bond(report.bonds)
        if best_bond is not None and len(best_bond.edges) >= 2:
            entries.append(
                BoundEntry(
                    "bond_lower",
                    "lower",
                    len(best_bond.edges) - 1,
                    certificate=(best_bond,),
                )
            )

    # Degree shield lower bound in 3-vertex-connected graphs.
    if n >= 4 and vertex_connectivity(g) >= 3:
        delta = min_degree(g)
        if delta - 1 >= 1:
            entries.append(
                BoundEntry(
                    "vertex_conn_lower",
                    "lower",
                    delta - 1,
                    note="adversary shields a minimum-degree vertex",
                )
            )

    return report

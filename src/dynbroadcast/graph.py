"""Immutable undirected simple graphs and the graph families used throughout.

Nodes are dense integer ids 0..n-1. Constructed family graphs carry a
``FamilyInfo`` annotation with human-readable structure (poles, path node
sequences, clique membership, hub, grid coordinates) so that strategies can
be written against structure instead of raw ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, Mapping

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or invalid node/edge reference."""


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise GraphError(f"self-loop at node {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class FamilyInfo:
    """Family annotation: kind, integer parameters, structural labels."""

    kind: str
    params: tuple[int, ...]
    labels: Mapping[str, Any] = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Graph:
    """Undirected simple connected graph on nodes 0..node_count-1.

    ``adjacency()`` is memoised on the instance. That is safe because the
    graph is frozen; the memo takes no part in equality, hashing or repr.
    """

    node_count: int
    edges: frozenset[Edge]
    family: FamilyInfo | None = field(default=None, compare=False, hash=False)
    _adjacency: tuple[tuple[int, ...], ...] | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise GraphError("graph needs at least one node")
        for u, v in self.edges:
            if not (0 <= u < v < self.node_count):
                raise GraphError(f"bad edge ({u}, {v}) for node count {self.node_count}")

    # -- basic accessors -----------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(self.node_count)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = self._adjacency
        if adj is None:
            lists: list[list[int]] = [[] for _ in range(self.node_count)]
            for u, v in self.edges:
                lists[u].append(v)
                lists[v].append(u)
            adj = tuple(tuple(sorted(nbrs)) for nbrs in lists)
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency()[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    # -- connectivity and metrics --------------------------------------------

    def is_connected(self, removed: frozenset[Edge] | None = None) -> bool:
        if removed:
            return is_connected(self.node_count, self.edges - removed)
        return _spans(self.adjacency())

    def without(self, removed: Iterable[Edge]) -> "Graph":
        """Surviving graph after an edge removal; keeps the family annotation."""
        gone = frozenset(_norm_edge(u, v) for u, v in removed)
        missing = gone - self.edges
        if missing:
            raise GraphError(f"edges not in graph: {sorted(missing)}")
        return Graph(self.node_count, self.edges - gone, self.family)

    def distances_from(self, source: int) -> list[int]:
        """BFS distances; unreachable nodes get -1."""
        dist = [-1] * self.node_count
        dist[source] = 0
        adj = self.adjacency()
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def distance(self, u: int, v: int) -> int:
        d = self.distances_from(u)[v]
        if d < 0:
            raise GraphError(f"nodes {u} and {v} are disconnected")
        return d

    def bridges(self) -> frozenset[Edge]:
        """All cut-edges, by removal probing (desk scale)."""
        return frozenset(
            e for e in self.edges if not is_connected(self.node_count, self.edges - {e})
        )


def is_connected(node_count: int, edges: Iterable[Edge]) -> bool:
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return _spans(adj)


def _spans(adj) -> bool:
    """True iff a walk from node 0 over adjacency lists reaches every node."""
    node_count = len(adj)
    seen = [False] * node_count
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == node_count


def edge_density(g: Graph) -> Fraction:
    """Exact edge density m/n."""
    return Fraction(g.edge_count, g.node_count)


def _build(n: int, edges: Iterable[Edge], family: FamilyInfo | None = None) -> Graph:
    g = Graph(n, frozenset(_norm_edge(u, v) for u, v in edges), family)
    if not g.is_connected():
        raise GraphError("constructed graph is not connected")
    return g


# -- standard families --------------------------------------------------------


def make_path(n: int) -> Graph:
    if n < 2:
        raise GraphError("path needs n >= 2")
    return _build(n, [(i, i + 1) for i in range(n - 1)], FamilyInfo("path", (n,)))


def make_ring(n: int) -> Graph:
    if n < 3:
        raise GraphError("ring needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return _build(n, edges, FamilyInfo("ring", (n,)))


def make_complete(n: int) -> Graph:
    if n < 2:
        raise GraphError("complete graph needs n >= 2")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _build(n, edges, FamilyInfo("complete", (n,)))


def grid_node(rows: int, cols: int, r: int, c: int) -> int:
    return r * cols + c


def make_grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError("grid needs at least two nodes")
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((grid_node(rows, cols, r, c), grid_node(rows, cols, r, c + 1)))
            if r + 1 < rows:
                edges.append((grid_node(rows, cols, r, c), grid_node(rows, cols, r + 1, c)))
    fam = FamilyInfo("grid", (rows, cols), {"rows": rows, "cols": cols})
    return _build(rows * cols, edges, fam)


# -- paper families ------------------------------------------------------------


def make_theta(internal_lengths: list[int] | tuple[int, ...]) -> Graph:
    """Two poles N=0, S=1 joined by one internally disjoint path per entry.

    Entry i is the number of internal nodes of path i; zero would create a
    multi-edge between the poles, which simple graphs forbid.
    """
    ds = tuple(internal_lengths)
    if not ds:
        raise GraphError("theta needs at least one path")
    if any(d < 1 for d in ds):
        raise GraphError("every theta path needs at least one internal node")
    north, south = 0, 1
    edges: list[Edge] = []
    paths: list[list[int]] = []
    nxt = 2
    for d in ds:
        internal = list(range(nxt, nxt + d))
        nxt += d
        seq = [north] + internal + [south]
        paths.append(seq)
        edges.extend(zip(seq, seq[1:]))
    fam = FamilyInfo(
        "theta",
        ds,
        {"north": north, "south": south, "paths": [list(p) for p in paths]},
    )
    return _build(nxt, edges, fam)


def make_lollipop(k: int, path_edges: int) -> Graph:
    """Clique on k+2 nodes sharing exactly one node with a path of path_edges edges."""
    if k < 1 or path_edges < 1:
        raise GraphError("lollipop needs k >= 1 and path_edges >= 1")
    clique = list(range(k + 2))
    junction = k + 1
    path_nodes = [junction] + list(range(k + 2, k + 2 + path_edges))
    edges = [(i, j) for i in clique for j in clique if i < j]
    edges += list(zip(path_nodes, path_nodes[1:]))
    fam = FamilyInfo(
        "lollipop",
        (k, path_edges),
        {"clique": clique, "junction": junction, "path": path_nodes},
    )
    return _build(k + 2 + path_edges, edges, fam)


def make_clique_star(n: int, lam: int) -> Graph:
    """lam disjoint cliques on (n-1)/lam nodes plus a hub adjacent to everyone."""
    if lam < 1 or n < 3:
        raise GraphError("clique star needs n >= 3 and lambda >= 1")
    if (n - 1) % lam != 0:
        raise GraphError(f"lambda={lam} must divide n-1={n - 1}")
    block_size = (n - 1) // lam
    if block_size < 2:
        raise GraphError("each block needs at least 2 non-hub nodes")
    hub = 0
    blocks: list[list[int]] = []
    edges: list[Edge] = []
    nxt = 1
    for _ in range(lam):
        block = list(range(nxt, nxt + block_size))
        nxt += block_size
        blocks.append(block)
        edges += [(i, j) for i in block for j in block if i < j]
        edges += [(hub, i) for i in block]
    fam = FamilyInfo("clique_star", (n, lam), {"hub": hub, "blocks": blocks})
    return _build(n, edges, fam)


def make_density_family(n: int, f: int) -> Graph:
    """Theta graph with (n-2)/f paths of f internal nodes each: n nodes total."""
    if f < 1:
        raise GraphError("f must be >= 1")
    if n < 4 or (n - 2) % f != 0:
        raise GraphError(f"f={f} must divide n-2={n - 2} with n >= 4")
    ell = (n - 2) // f
    g = make_theta([f] * ell)
    fam = FamilyInfo("density_family", (n, f), dict(g.family.labels))
    return Graph(g.node_count, g.edges, fam)


# -- theta geometry --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ThetaLayout:
    """Pole/path coordinates of a generalized theta graph.

    Each path is addressed as a chain (north, v1..vd, south); coordinate 0 is
    north and d+1 is south. Pole nodes belong to every chain. Equality is
    identity, so a layout inside a policy memory hashes in O(1).
    """

    north: int
    south: int
    paths: tuple[tuple[int, ...], ...]
    chains: tuple[tuple[int, ...], ...] = field(init=False)
    where: dict[int, tuple[int, int]] = field(init=False)

    def __post_init__(self) -> None:
        chains = tuple((self.north,) + path + (self.south,) for path in self.paths)
        where = {
            v: (p_idx, i)
            for p_idx, chain in enumerate(chains)
            for i, v in enumerate(chain[1:-1], start=1)
        }
        object.__setattr__(self, "chains", chains)
        object.__setattr__(self, "where", where)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def is_pole(self, v: int) -> bool:
        return v == self.north or v == self.south

    def other_pole(self, pole: int) -> int:
        return self.south if pole == self.north else self.north

    def path_of(self, v: int) -> int | None:
        """Path index of an internal node; None for poles."""
        loc = self.where.get(v)
        return None if loc is None else loc[0]

    def coord(self, p_idx: int, v: int) -> int:
        return self.chains[p_idx].index(v)

    def step_toward(self, surviving: Graph, v: int, p_idx: int, pole: int) -> int:
        """Next node from v along chain p_idx toward the pole, staying if the
        edge is removed or v is already there."""
        chain = self.chains[p_idx]
        i = chain.index(v)
        j = i - 1 if pole == chain[0] else i + 1
        if j < 0 or j >= len(chain):
            return v
        nxt = chain[j]
        return nxt if surviving.has_edge(v, nxt) else v


def theta_layout(g: Graph) -> ThetaLayout | None:
    """The theta layout of g: two poles joined by internally disjoint paths,
    each with at least one internal node, that cover every node and edge.

    ``theta``/``density_family`` labels are used only when their chains are
    exactly the graph's edges. Otherwise the shape is detected from degrees:
    exactly two nodes of degree >= 3, or a path graph (a one-path theta). A
    cycle has no distinguished poles, so an unlabelled two-path theta is None.
    """
    fam = g.family
    if fam is not None and fam.kind in ("theta", "density_family"):
        layout = _labelled_theta(g, fam.labels)
        if layout is not None:
            return layout
    return _structural_theta(g)


def _labelled_theta(g: Graph, labels: Mapping[str, Any]) -> ThetaLayout | None:
    try:
        layout = ThetaLayout(
            labels["north"], labels["south"], tuple(tuple(p[1:-1]) for p in labels["paths"])
        )
        nodes = sorted([layout.north, layout.south, *(v for p in layout.paths for v in p)])
        if not all(layout.paths) or nodes != list(g.nodes):
            return None
        chain_edges = {_norm_edge(u, v) for c in layout.chains for u, v in zip(c, c[1:])}
    except (KeyError, TypeError):
        return None
    return layout if chain_edges == g.edges else None


def _structural_theta(g: Graph) -> ThetaLayout | None:
    adjacency = g.adjacency()
    degrees = [len(nbrs) for nbrs in adjacency]
    hubs = [v for v in g.nodes if degrees[v] >= 3]
    if len(hubs) == 2:
        north, south = hubs
    elif not hubs and len(g.edges) == g.node_count - 1:
        # Single-path theta: a path graph; poles are its endpoints.
        ends = [v for v in g.nodes if degrees[v] == 1]
        if len(ends) != 2:
            return None
        north, south = ends
    else:
        return None
    paths = []
    seen = {north, south}
    for start in adjacency[north]:
        if start in seen:
            return None
        path = [start]
        prev, cur = north, start
        while True:
            nxts = [w for w in adjacency[cur] if w != prev]
            if len(nxts) != 1:
                return None
            nxt = nxts[0]
            if nxt == south:
                break
            if nxt in seen:
                return None
            path.append(nxt)
            prev, cur = cur, nxt
        seen.update(path)
        paths.append(tuple(path))
    if len(seen) != g.node_count:
        return None
    return ThetaLayout(north, south, tuple(paths))


# -- surgery -------------------------------------------------------------------


def glue_at_vertex(g: Graph, v: int, h: Graph, u: int) -> Graph:
    """Disjoint union of g and h with v (in g) and u (in h) identified."""
    if not (0 <= v < g.node_count):
        raise GraphError(f"node {v} not in first graph")
    if not (0 <= u < h.node_count):
        raise GraphError(f"node {u} not in second graph")

    def relabel(w: int) -> int:
        if w == u:
            return v
        return g.node_count + w - (1 if w > u else 0)

    edges = set(g.edges)
    edges.update(_norm_edge(relabel(a), relabel(b)) for a, b in h.edges)
    fam = FamilyInfo("glued", (), {"shared_node": v})
    return _build(g.node_count + h.node_count - 1, edges, fam)


def contract_cut_edges(g: Graph) -> tuple[Graph, dict[int, int]]:
    """Contract every bridge; returns the result and the old->new node mapping."""
    if not g.is_connected():
        raise GraphError("graph must be connected")
    parent = list(range(g.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.bridges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)

    roots = sorted({find(x) for x in range(g.node_count)})
    new_id = {r: i for i, r in enumerate(roots)}
    mapping = {x: new_id[find(x)] for x in range(g.node_count)}
    edges = {
        _norm_edge(mapping[u], mapping[v]) for u, v in g.edges if mapping[u] != mapping[v]
    }
    fam = FamilyInfo("contracted", (), {"source_kind": g.family.kind if g.family else None})
    return Graph(len(roots), frozenset(edges), fam), mapping


# -- canonical JSON ------------------------------------------------------------


def sorted_edges(g: Graph) -> list[list[int]]:
    return [list(e) for e in sorted(g.edges)]


def graph_to_json(g: Graph) -> str:
    """Canonical byte-stable JSON: edges with u < v, sorted lexicographically."""
    doc: dict[str, Any] = {"nodes": g.node_count, "edges": sorted_edges(g)}
    if g.family is not None:
        doc["family"] = {
            "kind": g.family.kind,
            "params": list(g.family.params),
            "labels": g.family.labels,
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_json(text: str) -> Graph:
    doc = json.loads(text)
    fam = None
    if "family" in doc:
        fam = FamilyInfo(
            doc["family"]["kind"],
            tuple(doc["family"]["params"]),
            doc["family"].get("labels", {}),
        )
    edges = frozenset(_norm_edge(u, v) for u, v in doc["edges"])
    g = Graph(doc["nodes"], edges, fam)
    if not g.is_connected():
        raise GraphError("graph is not connected")
    if fam is not None:
        _check_label_nodes(g)
    return g


def _check_label_nodes(g: Graph) -> None:
    def walk(x: Any) -> Iterable[int]:
        if isinstance(x, bool):
            return
        if isinstance(x, int):
            yield x
        elif isinstance(x, (list, tuple)):
            for y in x:
                yield from walk(y)
        elif isinstance(x, dict):
            for y in x.values():
                yield from walk(y)

    assert g.family is not None
    for ref in walk(dict(g.family.labels)):
        if not (0 <= ref < g.node_count):
            raise GraphError(f"family label references invalid node {ref}")


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
from functools import cached_property
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

    ``adjacency()``, ``neighbour_masks()``, ``sorted_edges(g)``,
    ``automorphisms(g)`` and ``theta_layout(g)`` read cached properties of
    the instance. That is safe because the graph is frozen; the cached values
    take no part in equality, hashing or repr.
    """

    node_count: int
    edges: frozenset[Edge]
    family: FamilyInfo | None = field(default=None, compare=False, hash=False)

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
        """Sorted neighbour tuples, read off the neighbour masks."""
        return self._adjacency

    def neighbour_masks(self) -> tuple[int, ...]:
        """Bit w of masks[v] is set iff vw is an edge."""
        return self._masks

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        lists = []
        for mask in self._masks:
            nbrs = []
            while mask:
                low = mask & -mask
                nbrs.append(low.bit_length() - 1)
                mask ^= low
            lists.append(tuple(nbrs))
        return tuple(lists)

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        return tuple(_masks_of(self.node_count, self.edges))

    @cached_property
    def _sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        return _find_automorphisms(self)

    @cached_property
    def _theta_layout(self) -> ThetaLayout | None:
        fam = self.family
        if fam is not None and fam.kind in ("theta", "density_family"):
            layout = _labelled_theta(self, fam.labels)
            if layout is not None:
                return layout
        return _structural_theta(self)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency()[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    # -- connectivity and the surviving graph ----------------------------------

    def is_connected(self, removed: Iterable[Edge] = frozenset()) -> bool:
        """Whether the graph left by `removed` (checked as in `without`) is
        connected."""
        masks = self._survivor_masks(self._removal(removed))
        return _spans(masks, (1 << self.node_count) - 1)

    def without(self, removed: Iterable[Edge]) -> "Graph":
        """Surviving graph after an edge removal; keeps the family annotation.

        GraphError if `removed` names an edge the graph does not have. The
        survivor is not checked for connectivity; its ``is_connected()``
        is one bit-mask walk.
        """
        gone = self._removal(removed)
        if not gone:
            return self
        survivor = object.__new__(Graph)
        # Every kept edge was validated with this graph, so the survivor is
        # filled in directly rather than re-checked by `__post_init__`. Its
        # masks are seeded; every other view is computed on first use.
        vars(survivor).update(
            node_count=self.node_count,
            edges=self.edges - gone,
            family=self.family,
            _masks=tuple(self._survivor_masks(gone)),
        )
        return survivor

    def _removal(self, removed: Iterable[Edge]) -> frozenset[Edge]:
        """`removed` as a set of this graph's edges; GraphError for a
        self-loop or an edge the graph does not have."""
        if type(removed) is frozenset and removed <= self.edges:
            return removed
        gone = frozenset(_norm_edge(u, v) for u, v in removed)
        missing = gone - self.edges
        if missing:
            raise GraphError(f"edges not in graph: {sorted(missing)}")
        return gone

    def _survivor_masks(self, gone: frozenset[Edge]) -> list[int]:
        """Neighbour masks after removing `gone`, a subset of the edges.
        GraphError if an edge names a node by a float such as 1.0, which
        compares equal to the node but cannot index it."""
        masks = list(self.neighbour_masks())
        try:
            for u, v in gone:
                masks[u] ^= 1 << v
                masks[v] ^= 1 << u
        except TypeError:
            raise GraphError(f"removed edges must name nodes by int: {sorted(gone)}") from None
        return masks

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
        return frozenset(e for e in self.edges if not self.is_connected(frozenset((e,))))


def is_connected(node_count: int, edges: Iterable[Edge]) -> bool:
    return _spans(_masks_of(node_count, edges), (1 << node_count) - 1)


def _masks_of(node_count: int, edges: Iterable[Edge]) -> list[int]:
    masks = [0] * node_count
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _spans(masks, nodes: int) -> bool:
    """Whether the nodes of the bit mask `nodes` (at least one) induce a
    connected subgraph: a walk over the neighbour masks from the lowest of
    them that visits only them."""
    frontier = nodes & -nodes
    unseen = nodes ^ frontier
    while unseen:
        if not frontier:
            return False
        v = frontier.bit_length() - 1
        frontier ^= 1 << v
        new = masks[v] & unseen
        unseen ^= new
        frontier |= new
    return True


MAX_AUTOMORPHISMS = 5040  # 7!; the solver makes one pass over its states per element


def automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of g, as image tuples (sigma[v] is the image of v)
    in lexicographic order; empty when there are more than MAX_AUTOMORPHISMS.

    A backtracking search maps the nodes in BFS order. A node's image must
    have its degree, be a neighbour of its BFS parent's image, and agree on
    adjacency with every node mapped before it, which is checked on the two
    neighbourhoods alone. A cached property of g.
    """
    return g._automorphisms


def _find_automorphisms(g: Graph) -> tuple[tuple[int, ...], ...]:
    adj = g.adjacency()
    near = [frozenset(nbrs) for nbrs in adj]
    order: list[int] = []
    parent: dict[int, int | None] = {}
    for root in g.nodes:  # one BFS per component
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        order += queue
    image = [-1] * g.node_count
    taken: set[int] = set()  # the images given so far
    found: list[tuple[int, ...]] = []
    # Depth-first over an explicit stack, so that long graphs need no deep
    # recursion: tries[i] holds the images of order[i] not yet tried.
    tries = [iter(g.nodes)]
    while tries:
        i = len(tries) - 1
        v = order[i]
        if image[v] >= 0:  # back at this node: release its last image
            taken.remove(image[v])
            image[v] = -1
        # The nodes mapped so far are order[:i]; w agrees with them on
        # adjacency iff its taken neighbours are the images of v's mapped ones.
        mapped = {image[u] for u in adj[v] if image[u] >= 0}
        for w in tries[i]:
            if w not in taken and len(adj[w]) == len(adj[v]) and near[w] & taken == mapped:
                break
        else:
            tries.pop()
            continue
        image[v] = w
        taken.add(w)
        if i + 1 == len(order):
            found.append(tuple(image))
            if len(found) > MAX_AUTOMORPHISMS:
                return ()
        else:
            p = parent[order[i + 1]]
            tries.append(iter(g.nodes if p is None else adj[image[p]]))
    return tuple(sorted(found))


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

    @cached_property
    def chains(self) -> tuple[tuple[int, ...], ...]:
        return tuple((self.north,) + path + (self.south,) for path in self.paths)

    @cached_property
    def where(self) -> dict[int, tuple[int, int]]:
        """Internal node -> (path index, coordinate)."""
        return {
            v: (p_idx, i)
            for p_idx, chain in enumerate(self.chains)
            for i, v in enumerate(chain[1:-1], start=1)
        }

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
        """Next node from v along chain p_idx toward the pole, or v if that
        edge is removed. v must not be the pole itself."""
        chain = self.chains[p_idx]
        nxt = chain[chain.index(v) + (-1 if pole == chain[0] else 1)]
        edge = (v, nxt) if v < nxt else (nxt, v)  # `has_edge` less its self-loop check
        return nxt if edge in surviving.edges else v


def theta_layout(g: Graph) -> ThetaLayout | None:
    """The theta layout of g: two poles joined by internally disjoint paths,
    each with at least one internal node, that cover every node and edge.

    ``theta``/``density_family`` labels are used only when their chains are
    exactly the graph's edges. Otherwise the shape is detected from degrees:
    exactly two nodes of degree >= 3, or a path graph (a one-path theta). A
    cycle has no distinguished poles, so an unlabelled two-path theta is None.
    A cached property of g, so the layouts of one graph are one object and
    policy memories holding them compare equal.
    """
    return g._theta_layout


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


def sorted_edges(g: Graph) -> tuple[Edge, ...]:
    """The edges in lexicographic order; a cached property of g."""
    return g._sorted_edges


def graph_to_doc(g: Graph) -> dict[str, Any]:
    """The JSON document of g: edges with u < v, sorted lexicographically."""
    doc: dict[str, Any] = {"nodes": g.node_count, "edges": sorted_edges(g)}
    if g.family is not None:
        doc["family"] = {
            "kind": g.family.kind,
            "params": g.family.params,
            "labels": g.family.labels,
        }
    return doc


def graph_to_json(g: Graph) -> str:
    """Canonical byte-stable JSON of `graph_to_doc(g)`."""
    return json.dumps(graph_to_doc(g), sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_doc(doc: Any) -> Graph:
    """The connected graph a parsed JSON document describes; GraphError if it
    is disconnected or a family label names a missing node."""
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


def graph_from_json(text: str) -> Graph:
    return graph_from_doc(json.loads(text))


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


"""Graph constructors, metadata, serialization, and surgery operations."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbroadcast.graph import (
    Graph,
    GraphError,
    contract_cut_edges,
    edge_density,
    glue_at_vertex,
    graph_from_json,
    graph_to_json,
    grid_node,
    is_connected,
    make_clique_star,
    make_complete,
    make_density_family,
    make_grid,
    make_lollipop,
    make_path,
    make_ring,
    make_theta,
)


def comb(n, k):
    import math

    return math.comb(n, k)


class TestConstructorCounts:
    def test_theta_counts_sweep(self):
        for length in range(1, 4):
            for ds in itertools.product(range(1, 5), repeat=length):
                g = make_theta(list(ds))
                assert g.node_count == sum(ds) + 2
                assert g.edge_count == sum(d + 1 for d in ds)

    def test_theta_frozen_examples(self):
        g = make_theta([7, 4, 2, 3, 4, 3, 1, 7])
        assert (g.node_count, g.edge_count) == (33, 39)
        g = make_theta([1])
        assert (g.node_count, g.edge_count) == (3, 2)
        g = make_theta([3, 3, 3])
        assert (g.node_count, g.edge_count) == (11, 12)

    def test_lollipop_counts_sweep(self):
        for k in range(1, 6):
            for p in range(1, 9):
                g = make_lollipop(k, p)
                assert g.node_count == p + k + 2
                assert g.edge_count == p + comb(k + 2, 2)

    def test_lollipop_frozen_examples(self):
        assert (make_lollipop(2, 8).node_count, make_lollipop(2, 8).edge_count) == (12, 14)
        assert (make_lollipop(1, 1).node_count, make_lollipop(1, 1).edge_count) == (4, 4)
        assert (make_lollipop(3, 5).node_count, make_lollipop(3, 5).edge_count) == (10, 15)

    def test_clique_star_counts_sweep(self):
        for lam in range(1, 5):
            for block in range(2, 6):
                n = lam * block + 1
                g = make_clique_star(n, lam)
                assert g.node_count == n
                assert g.edge_count == lam * comb(block + 1, 2)

    def test_clique_star_frozen_examples(self):
        g = make_clique_star(9, 2)
        assert (g.node_count, g.edge_count) == (9, 20)
        # lambda = 1, block size 2: hub + 2 nodes all mutually adjacent.
        g = make_clique_star(3, 1)
        assert g.edges == make_complete(3).edges

    def test_density_family_examples(self):
        g = make_density_family(18, 4)
        assert g.node_count == 18
        assert g.edge_count == 20
        g = make_density_family(4, 1)
        # A 4-cycle: connected, four nodes, every degree 2.
        assert g.node_count == 4 and g.is_connected()
        assert all(g.degree(v) == 2 for v in g.nodes)

    def test_path_ring_complete_grid(self):
        assert make_path(6).edge_count == 5
        assert make_ring(7).edge_count == 7
        assert make_complete(5).edge_count == 10
        g = make_grid(3, 4)
        assert g.node_count == 12
        assert g.edge_count == 3 * 3 + 2 * 4  # horizontal + vertical


class TestFamilyMetadata:
    def test_theta_labels(self):
        g = make_theta([2, 3])
        lab = g.family.labels
        assert lab["north"] == 0 and lab["south"] == 1
        for d, path in zip((2, 3), lab["paths"]):
            assert path[0] == 0 and path[-1] == 1
            assert len(path) == d + 2
            for u, v in zip(path, path[1:]):
                assert g.has_edge(u, v)

    def test_lollipop_labels(self):
        g = make_lollipop(2, 3)
        lab = g.family.labels
        clique = lab["clique"]
        assert len(clique) == 4
        for u, v in itertools.combinations(clique, 2):
            assert g.has_edge(u, v)
        assert lab["junction"] in clique
        path = lab["path"]
        assert path[0] == lab["junction"]
        assert len(path) == 4

    def test_clique_star_hub(self):
        g = make_clique_star(7, 2)
        hub = g.family.labels["hub"]
        assert g.degree(hub) == 6

    def test_grid_node_row_major(self):
        assert grid_node(3, 4, 0, 0) == 0
        assert grid_node(3, 4, 1, 2) == 6
        assert grid_node(3, 4, 2, 3) == 11


class TestValidationErrors:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, frozenset()).without([(1, 1)])

    def test_bad_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, frozenset({(0, 5)}))

    def test_constructor_parameter_errors(self):
        with pytest.raises(GraphError):
            make_path(1)
        with pytest.raises(GraphError):
            make_ring(2)
        with pytest.raises(GraphError):
            make_theta([])
        with pytest.raises(GraphError):
            make_lollipop(0, 3)
        with pytest.raises(GraphError):
            make_clique_star(8, 2)  # lambda must divide n-1
        with pytest.raises(GraphError):
            make_density_family(9, 4)  # f must divide n-2

    def test_single_internal_path_theta_needs_second_path(self):
        # Two poles joined by one length-1 path is a bare path, still valid.
        g = make_theta([2])
        assert g.node_count == 4


class TestMetricsAgainstOracles:
    def small_graphs(self):
        import networkx as nx

        for ga in nx.graph_atlas_g()[1:]:
            if ga.number_of_nodes() < 2 or ga.number_of_nodes() > 5:
                continue
            if not nx.is_connected(ga):
                continue
            yield Graph(ga.number_of_nodes(), frozenset(tuple(sorted(e)) for e in ga.edges()))

    def test_distances_match_networkx(self):
        import networkx as nx

        for g in self.small_graphs():
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.node_count))
            for s in g.nodes:
                want = nx.single_source_shortest_path_length(h, s)
                got = g.distances_from(s)
                for v in g.nodes:
                    assert got[v] == want[v]

    def test_bridges_match_networkx(self):
        import networkx as nx

        for g in self.small_graphs():
            h = nx.Graph(list(g.edges))
            h.add_nodes_from(range(g.node_count))
            want = frozenset(tuple(sorted(e)) for e in nx.bridges(h))
            assert g.bridges() == want

    def test_is_connected_matches_brute_force(self):
        for g in self.small_graphs():
            for r in range(1, min(3, g.edge_count) + 1):
                for gone in itertools.combinations(sorted(g.edges), r):
                    import networkx as nx

                    h = nx.Graph(list(g.edges - set(gone)))
                    h.add_nodes_from(range(g.node_count))
                    assert is_connected(g.node_count, g.edges - set(gone)) == nx.is_connected(h)


class TestDensity:
    def test_density_exact_fraction(self):
        assert edge_density(make_grid(2, 3)) == Fraction(7, 6)
        assert edge_density(make_ring(5)) == Fraction(1, 1)
        assert edge_density(make_lollipop(2, 8)) == Fraction(7, 6)
        assert edge_density(make_lollipop(3, 5)) == Fraction(3, 2)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        for g in (make_theta([3, 3, 3]), make_grid(3, 3), make_lollipop(2, 4)):
            text = graph_to_json(g)
            back = graph_from_json(text)
            assert back.node_count == g.node_count
            assert back.edges == g.edges
            assert back.family.kind == g.family.kind
            assert tuple(back.family.params) == tuple(g.family.params)

    def test_canonical_bytes_are_stable(self):
        a = graph_to_json(make_theta([3, 3, 3]))
        b = graph_to_json(make_theta([3, 3, 3]))
        assert a == b
        doc = json.loads(a)
        assert doc["edges"] == sorted(doc["edges"])

    @given(st.integers(2, 8))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_paths(self, n):
        g = make_path(n)
        assert graph_from_json(graph_to_json(g)).edges == g.edges


class TestSurgery:
    def test_glue_at_vertex(self):
        g = make_theta([3, 3])
        h = make_path(4)
        glued = glue_at_vertex(g, g.family.labels["south"], h, 0)
        assert glued.node_count == g.node_count + h.node_count - 1
        assert glued.edge_count == g.edge_count + h.edge_count
        assert glued.is_connected()

    def test_contract_cut_edges_lollipop(self):
        g = make_lollipop(2, 3)
        contracted, mapping = contract_cut_edges(g)
        # The path's 3 bridges collapse; the clique (no bridges) survives.
        assert contracted.node_count == g.node_count - 3
        assert contracted.bridges() == frozenset()
        assert set(mapping) == set(g.nodes)

    def test_contract_tree_collapses_to_point(self):
        g = make_path(5)
        contracted, _ = contract_cut_edges(g)
        assert contracted.node_count == 1
        assert contracted.edge_count == 0


class TestAdjacencyMemo:
    def test_repeat_call_returns_same_object(self):
        g = make_theta([3, 3, 3])
        assert g.adjacency() is g.adjacency()

    def test_survivor_adjacency_matches_fresh_rebuild(self):
        g = make_grid(3, 3)
        g.adjacency()  # a memo on the base graph must not leak into survivors
        for r in range(3):
            for gone in itertools.combinations(sorted(g.edges), r):
                surviving = g.without(gone)
                fresh = [[] for _ in g.nodes]
                for u, v in surviving.edges:
                    fresh[u].append(v)
                    fresh[v].append(u)
                assert surviving.adjacency() == tuple(tuple(sorted(n)) for n in fresh)
                assert surviving.is_connected() == is_connected(
                    g.node_count, surviving.edges
                )

    def test_equality_hash_and_repr_ignore_memo(self):
        g = make_ring(6)
        twin = Graph(g.node_count, g.edges, g.family)
        before = repr(g)
        g.adjacency()
        assert g == twin
        assert hash(g) == hash(twin)
        assert repr(g) == before == repr(twin)
        assert {g: 1}[twin] == 1


class TestGraphFromJson:
    def test_disconnected_graph_rejected(self):
        with pytest.raises(GraphError, match="graph is not connected"):
            graph_from_json(json.dumps({"nodes": 4, "edges": [[0, 1], [2, 3]]}))

"""Graph constructors, metadata, serialization, and surgery operations."""

import itertools
import json
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbroadcast.engine import RuleViolation, _surviving_graph, validate_removal
from dynbroadcast.graph import (
    MAX_AUTOMORPHISMS,
    Graph,
    GraphError,
    automorphisms,
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
    theta_layout,
)
from dynbroadcast import graph as graph_module


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


class TestAutomorphisms:
    def test_equal_networkx_on_the_atlas(self):
        import networkx as nx
        from networkx.algorithms.isomorphism import GraphMatcher

        checked = 0
        for ga in nx.graph_atlas_g()[1:]:
            n = ga.number_of_nodes()
            if n > 6 or not nx.is_connected(ga):
                continue
            g = Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))
            want = {tuple(m[v] for v in range(n)) for m in GraphMatcher(ga, ga).isomorphisms_iter()}
            got = automorphisms(g)
            assert len(got) == len(set(got)) and set(got) == want, sorted(g.edges)
            checked += 1
        assert checked == 143  # connected graphs with 1 to 6 nodes

    @pytest.mark.parametrize(
        "g, order",
        [
            (make_clique_star(7, 2), 72),
            (make_theta([3, 3, 3, 3]), 48),
            (make_theta([3, 3, 3]), 12),
            (make_grid(4, 4), 8),
            (make_grid(3, 4), 4),
            (make_complete(5), 120),
            (make_complete(7), MAX_AUTOMORPHISMS),
        ],
        ids=lambda x: getattr(x, "family", None) and f"{x.family.kind}{x.family.params}",
    )
    def test_group_orders(self, g, order):
        group = automorphisms(g)
        assert len(group) == order
        assert tuple(g.nodes) in group
        for sigma in group:
            assert {tuple(sorted((sigma[u], sigma[v]))) for u, v in g.edges} == g.edges

    def test_groups_over_the_cap_are_empty(self):
        # complete(8) has 8! automorphisms; the search stops after 7! + 1.
        assert automorphisms(make_complete(8)) == ()

    def test_memoised_and_ignored_by_equality(self):
        g = make_theta([3, 3, 3])
        twin = Graph(g.node_count, g.edges, g.family)
        assert automorphisms(g) is automorphisms(g)
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)


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


@st.composite
def graphs_with_removals(draw):
    """A connected graph on at most 7 nodes (a random tree plus random extra
    edges) and a random subset of its edges."""
    n = draw(st.integers(2, 7))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, frozenset(tree | draw(st.sets(st.sampled_from(pairs)))))
    return g, frozenset(draw(st.sets(st.sampled_from(sorted(g.edges)))))


class TestSurvivor:
    @given(graphs_with_removals())
    @settings(max_examples=300, deadline=None)
    def test_survivor_matches_networkx_and_a_fresh_graph(self, case):
        g, removed = case
        h = nx.Graph(list(g.edges - removed))
        h.add_nodes_from(g.nodes)
        connected = nx.is_connected(h)
        assert g.is_connected(removed) == connected
        assert validate_removal(g, removed) == connected
        survivor = g.without(removed)
        fresh = Graph(g.node_count, g.edges - removed)
        assert survivor == fresh
        assert survivor.adjacency() == fresh.adjacency()
        assert survivor.neighbour_masks() == fresh.neighbour_masks()
        assert survivor.is_connected() == connected
        # Either orientation names the same edge, as a list or a frozenset.
        flipped = [(v, u) for u, v in removed]
        assert g.without(flipped) == g.without(frozenset(flipped)) == survivor
        assert g.is_connected(flipped) == connected
        if connected:
            assert _surviving_graph(g, flipped) == survivor
        else:
            with pytest.raises(RuleViolation, match="disconnects"):
                _surviving_graph(g, removed)

    @given(graphs_with_removals(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_missing_edge_or_self_loop_is_a_graph_error(self, case, data):
        g, removed = case
        strangers = [(u, v) for u in g.nodes for v in g.nodes if u != v]
        strangers = [(u, v) for u, v in strangers if (min(u, v), max(u, v)) not in g.edges]
        bad = data.draw(st.sampled_from(strangers + [(v, v) for v in g.nodes]))
        for form in (removed | {bad}, [*removed, bad]):
            with pytest.raises(GraphError):
                g.without(form)
            with pytest.raises(GraphError):
                g.is_connected(form)
            with pytest.raises(GraphError):
                _surviving_graph(g, form)


    @pytest.mark.parametrize("form", [frozenset, list])
    def test_float_endpoint_is_a_graph_error(self, form):
        # (1.0, 2) == (1, 2), so it passes the subset test, but 1.0 cannot
        # index the neighbour masks.
        g = make_path(4)
        with pytest.raises(GraphError, match="must name nodes by int"):
            g.without(form([(1.0, 2)]))
        with pytest.raises(GraphError, match="must name nodes by int"):
            g.is_connected(form([(1.0, 2)]))


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


class TestThetaLayoutMemo:
    def test_repeat_call_returns_same_object(self):
        labelled = make_theta([3, 3, 3])
        unlabelled = Graph(labelled.node_count, labelled.edges)
        for g in (labelled, unlabelled):
            assert theta_layout(g) is not None
            assert theta_layout(g) is theta_layout(g)

    def test_no_layout_is_memoised_too(self, monkeypatch):
        g = make_grid(3, 3)
        assert theta_layout(g) is None
        calls = []
        monkeypatch.setattr(graph_module, "_structural_theta", lambda g: calls.append(g))
        assert theta_layout(g) is None
        assert calls == []


class TestGraphFromJson:
    def test_disconnected_graph_rejected(self):
        with pytest.raises(GraphError, match="graph is not connected"):
            graph_from_json(json.dumps({"nodes": 4, "edges": [[0, 1], [2, 3]]}))

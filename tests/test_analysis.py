"""Connectivity metrics, bond enumeration, timing formulas, and bound reports."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynbroadcast
from dynbroadcast.analysis import (
    Bond,
    bound_report,
    edge_connectivity,
    enumerate_bonds,
    min_degree,
    timing_bounds,
    vertex_connectivity,
    y_set_diameter,
)
from dynbroadcast.engine import initial_state
from dynbroadcast.graph import (
    FamilyInfo,
    Graph,
    GraphError,
    edge_density,
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
from dynbroadcast.policies import ThetaBroadcastPolicy
from dynbroadcast.solver import min_agents

from reference_bonds import reference_bonds


def mislabelled_theta() -> Graph:
    """theta(3,3,3) with edge (3,4) moved to (3,6), keeping the theta labels.

    Node and edge counts and the pole degrees still match the labels, but
    node 6 now has degree 3 and node 4 degree 1, so it is not a theta."""
    g = make_theta([3, 3, 3])
    return Graph(g.node_count, (g.edges - {(3, 4)}) | {(3, 6)}, g.family)


def atlas_graphs(max_nodes=5, min_nodes=2):
    for ga in nx.graph_atlas_g()[1:]:
        n = ga.number_of_nodes()
        if n < min_nodes or n > max_nodes or not nx.is_connected(ga):
            continue
        yield Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))


@st.composite
def connected_graphs(draw, max_nodes=12):
    """A random spanning tree plus each other edge with probability 1/2."""
    n = draw(st.integers(1, max_nodes))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = sorted({(u, v) for v in range(n) for u in range(v)} - tree)
    keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    return Graph(n, frozenset(tree) | {e for e, k in zip(others, keep) if k})


def assert_connectivity_matches_networkx(g: Graph) -> None:
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    assert edge_connectivity(g) == nx.edge_connectivity(h)
    assert vertex_connectivity(g) == nx.node_connectivity(h)


class TestConnectivity:
    def test_matches_networkx_on_the_atlas(self):
        graphs = list(atlas_graphs(max_nodes=7, min_nodes=1))
        assert len(graphs) == 996
        for g in graphs:
            assert_connectivity_matches_networkx(g)

    @given(connected_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_networkx_on_random_graphs(self, g):
        assert_connectivity_matches_networkx(g)

    @pytest.mark.parametrize(
        "g",
        [
            make_grid(10, 10),
            make_theta([8] * 6),
            make_complete(12),
            make_clique_star(9, 4),
            make_lollipop(3, 3),
        ],
        ids=["grid(10,10)", "theta(8x6)", "complete(12)", "clique_star(9,4)", "lollipop(3,3)"],
    )
    def test_matches_networkx_on_families(self, g):
        assert_connectivity_matches_networkx(g)

    def test_import_does_not_load_networkx(self):
        script = (
            "import contextlib, io, sys\n"
            "import dynbroadcast, dynbroadcast.cli\n"
            "dynbroadcast.bound_report(dynbroadcast.make_complete(5))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert dynbroadcast.cli.main(['analyze', 'grid:4,4']) == 0\n"
            "print('networkx' in sys.modules)\n"
        )
        src = str(Path(dynbroadcast.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert proc.stdout == "False\n"

    def test_connectivity_against_brute_force(self):
        """Edge connectivity equals the smallest disconnecting edge subset,
        checked by direct enumeration (independent of networkx)."""
        for g in atlas_graphs():
            want = None
            for r in range(0, g.edge_count + 1):
                if any(
                    not g.is_connected(frozenset(sub))
                    for sub in itertools.combinations(sorted(g.edges), r)
                ):
                    want = r
                    break
            assert edge_connectivity(g) == want

    def test_vertex_connectivity_examples(self):
        assert vertex_connectivity(make_complete(5)) == 4
        assert vertex_connectivity(make_theta([3, 3, 3])) == 2
        assert vertex_connectivity(make_path(5)) == 1

    def test_clique_star_edge_connectivity(self):
        # Hub family: edge connectivity (n-1)/lambda.
        g = make_clique_star(9, 2)
        assert edge_connectivity(g) == 4
        g = make_clique_star(7, 2)
        assert edge_connectivity(g) == 3

    def test_min_degree(self):
        assert min_degree(make_theta([3, 3, 3])) == 2
        assert min_degree(make_complete(4)) == 3


class TestBonds:
    def test_bonds_are_minimal_disconnecting_sets(self):
        for g in atlas_graphs(max_nodes=5, min_nodes=3):
            for bond in enumerate_bonds(g):
                assert not g.is_connected(bond.edges)
                for e in bond.edges:
                    assert g.is_connected(bond.edges - {e})

    def test_bond_sides_partition_nodes(self):
        g = make_theta([3, 3, 3])
        for bond in enumerate_bonds(g):
            assert bond.side_a | bond.side_b == frozenset(g.nodes)
            assert not (bond.side_a & bond.side_b)

    def test_matching_flag(self):
        # Two triangles joined by a perfect matching of 3 edges.
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        g = Graph(6, frozenset(edges))
        matching = [b for b in enumerate_bonds(g) if b.is_matching]
        assert max(len(b.edges) for b in matching) == 3

    def test_theta_matching_bond_size(self):
        g = make_theta([3, 3, 3])
        matching = [b for b in enumerate_bonds(g) if b.is_matching]
        assert max(len(b.edges) for b in matching) == 3

    def test_bond_count_oracle(self):
        """Every minimal edge cut between a connected bipartition appears
        exactly once."""
        g = make_ring(5)
        bonds = enumerate_bonds(g)
        # On a ring every bond is a pair of edges: C(5,2) = 10.
        assert len(bonds) == 10
        assert all(len(b.edges) == 2 for b in bonds)

    def test_bonds_equal_the_reference_scan_in_order(self):
        # Same bonds, equal by value, in the same order as the set-based scan.
        graphs = list(atlas_graphs(max_nodes=6, min_nodes=1))
        graphs += [make_grid(3, 4), make_theta([3, 3, 3]), make_clique_star(7, 2)]
        for g in graphs:
            assert enumerate_bonds(g) == reference_bonds(g), sorted(g.edges)


class TestTiming:
    def test_formulas(self):
        for n in range(2, 12):
            for x in (1, 2):
                for y in (1, 2):
                    if x + y > n:
                        continue
                    tb = timing_bounds(n, x, y)
                    assert tb.first_new_source == ceil((n - x - y + 1) / 2)
                    assert tb.all_sources == ceil((n - y) / 2)

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            timing_bounds(3, 3, 1)

    def test_y_set_diameter(self):
        g = make_path(6)
        assert y_set_diameter(g, 1) == 0
        assert y_set_diameter(g, 3) == 2


class TestBoundReport:
    def test_theta_exact(self):
        rep = bound_report(make_theta([3, 3, 3]))
        assert rep.exact == 3
        assert rep.best_lower == 3

    def test_tree_rule(self):
        rep = bound_report(make_path(6))
        assert rep.exact == 1

    def test_complete_rule(self):
        rep = bound_report(make_complete(5))
        assert rep.exact == 3
        entry = rep.by_kind("vertex_conn_lower")
        assert entry is not None and entry.value == 3

    def test_ring_rule(self):
        assert bound_report(make_ring(6)).exact == 2

    def test_clique_star_rule(self):
        rep = bound_report(make_clique_star(9, 2))
        assert rep.exact == 9 - 2 * 2 + 1  # n - 2*lambda + 1 = 6
        rep = bound_report(make_clique_star(7, 2))
        assert rep.exact == 4

    def test_entries_agree_with_solver_on_small_graphs(self):
        """Every bound on every connected graph with 3-6 nodes is consistent
        with the solver's k*."""
        graphs = list(atlas_graphs(max_nodes=6, min_nodes=3))
        assert len(graphs) == 141
        for g in graphs:
            k_star = min_agents(g, g.node_count - 1)
            assert k_star is not None, g.edges
            for e in bound_report(g).entries:
                assert {
                    "exact": e.value == k_star,
                    "lower": e.value <= k_star,
                    "upper": e.value >= k_star,
                }[e.bound_type], (g.edges, e, k_star)

    @pytest.mark.parametrize("n, lam", [(3, 1), (4, 1), (5, 1), (5, 2), (7, 2), (7, 3)])
    def test_clique_star_entries_agree_with_solver(self, n, lam):
        # The closed form fails on K_n (lam = 1) and on windmills with lam >= 3.
        g = make_clique_star(n, lam)
        k_star = min_agents(g, 4)
        rep = bound_report(g)
        assert all(e.value == k_star for e in rep.entries if e.bound_type == "exact")
        assert rep.best_lower <= k_star
        if (n, lam) == (7, 3):
            assert k_star == 3
            assert rep.by_kind("clique_star_exact") is None

    def test_density_family_rule(self):
        rep = bound_report(make_density_family(11, 3))  # 3 paths of 3 internal nodes
        assert rep.by_kind("theta_exact").value == 3
        assert rep.by_kind("density_family_exact").value == 3

    def test_lollipop_rule(self):
        assert bound_report(make_lollipop(2, 5)).exact == 2
        assert bound_report(make_lollipop(3, 2)).exact == 3

    def test_bond_lower_bound_present(self):
        rep = bound_report(make_theta([3, 3, 3]))
        entry = rep.by_kind("bond_lower")
        assert entry is not None
        assert entry.value == 2  # largest matching bond 3 -> m-1

    def test_unlabeled_theta_recognized_structurally(self):
        # Same theta without family metadata: structural detection still fires.
        g0 = make_theta([3, 3, 3])
        g = Graph(g0.node_count, g0.edges)
        assert bound_report(g).exact == 3
        # Labels and structure give the same layout. A two-path theta is a
        # cycle, whose poles only the labels can name.
        shapes = [ds for n in range(1, 5) for ds in itertools.product(range(1, 6), repeat=n)]
        graphs = [make_theta(ds) for ds in shapes] + [
            make_density_family(n, f) for n, f in ((6, 1), (8, 3), (10, 2), (11, 3), (14, 4))
        ]
        for g0 in graphs:
            labelled = theta_layout(g0)
            stripped = theta_layout(Graph(g0.node_count, g0.edges))
            assert labelled is not None, g0.family
            if labelled.n_paths == 2:
                assert stripped is None, g0.family
                continue
            assert stripped is not None, g0.family
            assert (stripped.north, stripped.south, stripped.paths) == (
                labelled.north,
                labelled.south,
                labelled.paths,
            ), g0.family

    def test_malformed_theta_labels_fall_back_to_structure(self):
        g0 = make_theta([3, 3, 3])
        for labels in (
            {},
            {"north": 0, "south": 1, "paths": 7},
            {"north": 0, "south": 1, "paths": [[0, [2], 1]]},
            dict(g0.family.labels, north=2),
        ):
            g = Graph(g0.node_count, g0.edges, FamilyInfo("theta", (3, 3, 3), labels))
            layout = theta_layout(g)
            assert layout is not None, labels
            assert (layout.north, layout.south, layout.paths) == (
                0,
                1,
                ((2, 3, 4), (5, 6, 7), (8, 9, 10)),
            ), labels

    def test_mislabelled_theta_is_not_a_theta(self):
        g0, g = make_theta([3, 3, 3]), mislabelled_theta()
        assert g.is_connected()
        assert (g.node_count, g.edge_count) == (g0.node_count, g0.edge_count)
        assert (g.degree(0), g.degree(1)) == (3, 3)
        assert theta_layout(g) is None
        assert bound_report(g).by_kind("theta_exact") is None
        with pytest.raises(GraphError):
            ThetaBroadcastPolicy().initial_memory(g, initial_state([2, 5, 8], [0]))


class TestDensityFormulas:
    def test_uniform_theta_closed_form(self):
        for ell in range(2, 9):
            for d in range(3, 9):
                if ell * d + 2 > 200:
                    continue
                g = make_theta([d] * ell)
                assert edge_density(g) == 1 + Fraction(ell - 2, ell * d + 2)

    def test_density_family_closed_form(self):
        for n in range(4, 201):
            for f in range(1, 8):
                if (n - 2) % f or (n - 2) // f < 2:
                    continue
                ell = (n - 2) // f
                g = make_density_family(n, f)
                assert edge_density(g) == 1 + Fraction(ell - 2, n)

    def test_lollipop_density_bounded(self):
        # k=2 blocks stay at or below density 3/2 for every path length.
        for p in range(1, 190):
            assert edge_density(make_lollipop(2, p)) <= Fraction(3, 2)

    def test_clique_star_density(self):
        from math import comb

        for lam in range(1, 6):
            for block in range(2, 8):
                n = lam * block + 1
                if n > 200:
                    continue
                g = make_clique_star(n, lam)
                assert edge_density(g) == Fraction(lam * comb(block + 1, 2), n)

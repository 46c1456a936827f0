"""Acceptance suite: ten end-to-end checks covering the solver, the strategy
library, the density formulas, the structural property suites, and
reproducibility. Each test emits one pass/fail line via pytest."""

import hashlib
import time
from fractions import Fraction
from math import ceil, comb

import networkx as nx
import pytest

from dynbroadcast.cli import main as cli_main
from dynbroadcast.engine import Configuration, initial_state, simulate
from dynbroadcast.graph import (
    Graph,
    contract_cut_edges,
    edge_density,
    make_clique_star,
    make_complete,
    make_density_family,
    make_grid,
    make_lollipop,
    make_path,
    make_ring,
    make_theta,
)
from dynbroadcast.policies import (
    BondBlocker,
    GreedyPathPolicy,
    GridFlipflopAdversary,
    IsolationTreeAdversary,
    RandomTreeAdversary,
    ThetaBlocker,
    ThetaBroadcastPolicy,
)
from dynbroadcast.analysis import enumerate_bonds
from dynbroadcast.engine import trace_from_json, trace_to_json
from dynbroadcast.solver import compute_attractor, game_value, min_agents, model_check_policy


def theta_start(ds, k=None):
    g = make_theta(ds)
    lab = g.family.labels
    mids = [p[1 + (len(p) - 2) // 2] for p in lab["paths"]]
    k = k if k is not None else len(ds)
    return g, initial_state(mids[:k], [lab["north"]])


def atlas_graphs(max_nodes, min_nodes=2):
    for ga in nx.graph_atlas_g()[1:]:
        n = ga.number_of_nodes()
        if n < min_nodes or n > max_nodes or not nx.is_connected(ga):
            continue
        yield Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))


def test_01_theta_333_needs_exactly_three_agents():
    started = time.monotonic()
    assert min_agents(make_theta([3, 3, 3]), 4) == 3
    assert time.monotonic() - started < 300


def test_02_theta_broadcast_soundness():
    # Against the optimal adversary on the two small thetas: the winner, the
    # round count and the nodes explored are pinned.
    for ds, rounds, states in (([3, 3], 12, 251), ([3, 3, 3], 28, 12_451)):
        g, state = theta_start(ds)
        result = model_check_policy(g, state, ThetaBroadcastPolicy(k=len(ds)))
        assert (result.winner, result.optimal_rounds, result.states_explored) == (
            "agents", rounds, states
        ), ds
    # Against 50 independently seeded random spanning-tree adversaries. The
    # digest of their trace JSON pins every move of every game.
    g, state = theta_start([4, 4, 4, 4])
    digest = hashlib.sha256()
    for seed in range(50):
        trace = simulate(
            g, state, ThetaBroadcastPolicy(k=4), RandomTreeAdversary(seed=seed),
            max_rounds=500,
        )
        assert trace.outcome.kind == "solved", seed
        digest.update(trace_to_json(trace).encode())
    assert digest.hexdigest() == (
        "d1002c9b92317145cf66a7a082e6c655c313ad1c427bf5861f4306badf02e4fa"
    )


def test_03_lower_bound_adversaries_win_model_check():
    # Theta blocker holds off one-fewer-than-paths agents.
    for ds in ([3, 3], [3, 3, 3]):
        g = make_theta(ds)
        adv = ThetaBlocker()
        state = adv.place(g, len(ds) - 1, 1)
        assert model_check_policy(g, state, adv).winner == "adversary", ds
    # Bond blocker on two triangles joined by a 3-edge matching (m = 3,
    # one agent on each side).
    g = Graph(6, frozenset(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    ))
    bond = max(
        (b for b in enumerate_bonds(g) if b.is_matching), key=lambda b: len(b.edges)
    )
    adv = BondBlocker(bond)
    state = adv.place(g, 1, 1)
    assert model_check_policy(g, state, adv).winner == "adversary"
    # Isolation tree with min-degree-minus-two agents on small cliques.
    for n in (4, 5):
        g = make_complete(n)
        adv = IsolationTreeAdversary()
        state = adv.place(g, n - 3, 1)
        assert model_check_policy(g, state, adv).winner == "adversary", n


def test_04_grid_flipflop_starves_greedy_agents():
    started = time.monotonic()
    g = make_grid(3, 3)
    adv = GridFlipflopAdversary(3, 3)
    state = adv.place(g, 5, 1)
    trace = simulate(g, state, GreedyPathPolicy(), adv, max_rounds=10)
    assert trace.outcome.kind == "adversary_cycle"
    assert trace.outcome.period == 2
    assert sum(len(r.conversions) for r in trace.rounds) == 0
    assert time.monotonic() - started < 1


def test_05_known_benchmarks():
    assert min_agents(make_ring(5), 3) == 2
    assert min_agents(make_ring(6), 3) == 2
    for n in range(2, 9):
        assert min_agents(make_path(n), 2) == 1, n
    assert min_agents(make_complete(4), 3) == 2
    assert min_agents(make_complete(5), 4) == 3


def test_06_timing_values_on_paths_and_trees():
    # Opposite-end path placements, both objectives, under the documented
    # ceiling convention (first conversion is by co-location, never mid-edge).
    for n in range(3, 11):
        for x in (1, 2):
            for y in (1, 2):
                if x + y > n:
                    continue
                g = make_path(n)
                config = Configuration(tuple(range(x)), tuple(range(n - y, n)))
                assert game_value(g, config, "first_new_source") == ceil(
                    (n - x - y + 1) / 2
                )
                assert game_value(g, config, "all_sources") == ceil((n - y) / 2)
    # Trees of diameter <= 8, agents at diameter endpoints, meet-in-the-middle.
    trees = [nx.path_graph(d + 1) for d in range(1, 9)]
    trees += [nx.star_graph(4), nx.balanced_tree(2, 2), nx.balanced_tree(3, 2)]
    for t in trees:
        g = Graph(t.number_of_nodes(), frozenset(tuple(sorted(e)) for e in t.edges()))
        ecc = nx.eccentricity(t)
        d = max(ecc.values())
        u = min(v for v, e in ecc.items() if e == d)
        dist = nx.single_source_shortest_path_length(t, u)
        w = min(v for v, e in dist.items() if e == d)
        assert game_value(g, Configuration((u,), (w,)), "all_sources") == ceil(d / 2)


def test_07_density_closed_forms():
    # Uniform thetas: density 1 + (l-2)/(l*d+2).
    for ell in range(2, 9):
        for d in range(1, 30):
            if ell * d + 2 > 200:
                continue
            assert edge_density(make_theta([d] * ell)) == 1 + Fraction(ell - 2, ell * d + 2)
    # Density family: (n-2)/f paths of f internal nodes, density 1 + (l-2)/n
    # where l = (n-2)/f counts the paths.
    for n in range(4, 201):
        for f in range(1, 8):
            if (n - 2) % f or (n - 2) // f < 2:
                continue
            ell = (n - 2) // f
            assert edge_density(make_density_family(n, f)) == 1 + Fraction(ell - 2, n)
    # Lollipops: n + k + 2 nodes, n + C(k+2, 2) edges; k = 2 stays below 3/2.
    for k in range(1, 6):
        for p in range(1, 60):
            g = make_lollipop(k, p)
            if g.node_count > 200:
                continue
            assert edge_density(g) == Fraction(p + comb(k + 2, 2), p + k + 2)
    for p in range(1, 190):
        assert edge_density(make_lollipop(2, p)) <= Fraction(3, 2)
    # Clique-stars: lambda blocks of (n-1)/lambda nodes around a hub.
    for lam in range(1, 6):
        for block in range(2, 10):
            n = lam * block + 1
            if n > 200:
                continue
            assert edge_density(make_clique_star(n, lam)) == Fraction(
                lam * comb(block + 1, 2), n
            )
    # Printed values: the 2-by-3 grid has density 7/6; the fractional-path
    # formula case (d = 4, n = 100) evaluates to exactly 49/40 = 1.225;
    # the lollipop instance (k = 2, path 8) also lands on 7/6 <= 3/2.
    assert edge_density(make_grid(2, 3)) == Fraction(7, 6)
    n, d = 100, 4
    assert 1 + Fraction(n - 2 - 2 * d, n * d) == Fraction(49, 40) == Fraction(1225, 1000)
    assert edge_density(make_lollipop(2, 8)) == Fraction(7, 6) <= Fraction(3, 2)


def test_08_family_agent_counts():
    assert min_agents(make_clique_star(7, 2), 4) == 4
    assert min_agents(make_lollipop(2, 2), 3) == 2


def test_09a_spanning_trees_equal_all_subsets():
    for g in atlas_graphs(max_nodes=5):
        for k in (1, 2, 3):
            if k + 1 > g.node_count:
                continue
            reduced = compute_attractor(g, k + 1).rank
            assert reduced == compute_attractor(g, k + 1, "all_subsets").rank, (g.edges, k)


def test_09b_single_edge_monotonicity():
    # Adding one edge never lets fewer agents win; chains of single-edge
    # extensions cover every same-vertex-set subgraph pair by transitivity.
    for g in atlas_graphs(max_nodes=5):
        base = min_agents(g, g.node_count - 1)
        nodes = range(g.node_count)
        for u in nodes:
            for v in nodes:
                if u < v and (u, v) not in g.edges:
                    h = Graph(g.node_count, g.edges | {(u, v)})
                    assert min_agents(h, h.node_count - 1) >= base, (g.edges, (u, v))


def test_09c_contraction_invariance_on_bridged_graphs():
    checked = 0
    for g in atlas_graphs(max_nodes=6):
        contracted, _ = contract_cut_edges(g)
        if contracted.node_count == g.node_count:
            continue  # no bridges to contract
        checked += 1
        if contracted.node_count == 1:
            # Trees contract to a point; one agent always suffices there.
            assert min_agents(g, 2) == 1
        else:
            assert min_agents(g, 4) == min_agents(contracted, 4), g.edges
    assert checked > 50


def test_09d_distance_contraction_over_suite_traces(tmp_path, capsys):
    # Re-run the full verify suite, then independently re-assert on every
    # stored round that no agent pair closed distance by more than two.
    assert cli_main(["verify", "all", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    traces = sorted(tmp_path.glob("*.trace.json"))
    assert traces
    rounds_checked = 0
    for path in traces:
        trace = trace_from_json(path.read_text())
        for rec in trace.rounds:
            surviving = trace.graph.without(rec.removed_edges)
            before = [m[0] for m in rec.moves]
            after = [m[1] for m in rec.moves]
            for i in range(len(before)):
                for j in range(i + 1, len(before)):
                    d0 = surviving.distance(before[i], before[j])
                    d1 = surviving.distance(after[i], after[j])
                    assert d1 >= d0 - 2, (path.name, rec.round_index, i, j)
                    rounds_checked += 1
    assert rounds_checked > 0


def test_10_verify_suite_reruns_are_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["verify", "all", "--output", str(d1)]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(["verify", "all", "--output", str(d2)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    names = sorted(p.name for p in d1.iterdir())
    assert names and names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

"""Agent and adversary strategies: legality, placements, and outcomes."""

import itertools

import networkx as nx
import pytest

from dynbroadcast.engine import RuleViolation, initial_state, simulate, validate_removal
from dynbroadcast.graph import (
    Graph,
    grid_node,
    make_complete,
    make_grid,
    make_lollipop,
    make_path,
    make_ring,
    make_theta,
)
from dynbroadcast.policies import (
    BondBlocker,
    CliquePolicy,
    GreedyPathPolicy,
    GridFlipflopAdversary,
    IsolationTreeAdversary,
    LollipopPolicy,
    PassiveAdversary,
    RandomTreeAdversary,
    ThetaBlocker,
    ThetaBroadcastPolicy,
    TowardSourcePolicy,
    make_policy,
)


def theta_start(ds, k=None):
    g = make_theta(ds)
    lab = g.family.labels
    mids = [p[1 : -1][len(p[1:-1]) // 2] for p in lab["paths"]]
    k = k if k is not None else len(ds)
    return g, initial_state(mids[:k], [lab["north"]])


class TestAdversaryLegality:
    def test_random_tree_always_connected_and_deterministic(self):
        g = make_theta([3, 3, 3])
        adv1, adv2 = RandomTreeAdversary(seed=9), RandomTreeAdversary(seed=9)
        m1, m2 = adv1.initial_memory(g, None), adv2.initial_memory(g, None)
        state = initial_state([3], [0])
        for _ in range(20):
            r1, m1 = adv1.decide(g, state, m1)
            r2, m2 = adv2.decide(g, state, m2)
            assert r1 == r2
            assert validate_removal(g, r1)

    def test_theta_blocker_removals_stay_connected(self):
        g, state = theta_start([3, 3, 3])
        adv = ThetaBlocker()
        mem = adv.initial_memory(g, state)
        removed, _ = adv.decide(g, state, mem)
        assert validate_removal(g, removed)

    def test_isolation_tree_keeps_spanning_tree(self):
        g = make_complete(5)
        adv = IsolationTreeAdversary()
        state = adv.place(g, 2, 1)
        removed, _ = adv.decide(g, state, adv.initial_memory(g, state))
        survivor = g.without(removed)
        assert survivor.is_connected()
        assert survivor.edge_count == g.node_count - 1

    def test_isolation_tree_rejects_thin_graphs(self):
        g = make_ring(5)  # not 3-vertex-connected
        adv = IsolationTreeAdversary()
        state = initial_state([1], [0])
        with pytest.raises(ValueError):
            adv.decide(g, state, adv.initial_memory(g, state))


class TestThetaBroadcast:
    def test_beats_blocker_small_thetas(self):
        for ds in ([3, 3], [3, 3, 3], [4, 4, 4]):
            g, state = theta_start(ds)
            trace = simulate(
                g, state, ThetaBroadcastPolicy(k=len(ds)), ThetaBlocker(), max_rounds=500
            )
            assert trace.outcome.kind == "solved", ds

    def test_beats_random_trees(self):
        g, state = theta_start([4, 4, 4, 4])
        for seed in range(10):
            trace = simulate(
                g,
                state,
                ThetaBroadcastPolicy(k=4),
                RandomTreeAdversary(seed=seed),
                max_rounds=500,
            )
            assert trace.outcome.kind == "solved", seed

    def test_rejects_wrong_agent_count(self):
        g, state = theta_start([3, 3, 3], k=2)
        with pytest.raises(ValueError):
            simulate(g, state, ThetaBroadcastPolicy(k=3), PassiveAdversary(), max_rounds=5)

    def test_rejects_non_theta(self):
        g = make_grid(3, 3)
        state = initial_state([1], [0])
        pol = ThetaBroadcastPolicy(k=1)
        with pytest.raises((ValueError, Exception)):
            simulate(g, state, pol, PassiveAdversary(), max_rounds=5)


class TestThetaBlocker:
    def test_placement_needs_spare_path(self):
        g = make_theta([3, 3, 3])
        adv = ThetaBlocker()
        state = adv.place(g, 2, 1)
        assert len(state.positions) == 3
        with pytest.raises(ValueError):
            adv.place(g, 3, 1)  # k + k_source must leave a free path

    def test_holds_off_heuristic_agents(self):
        g = make_theta([3, 3, 3])
        adv = ThetaBlocker()
        state = adv.place(g, 2, 1)
        trace = simulate(g, state, TowardSourcePolicy(), adv, max_rounds=200)
        assert trace.outcome.kind != "solved"


class TestPolicyReuse:
    @pytest.mark.parametrize(
        "make",
        [ThetaBlocker, lambda: ThetaBroadcastPolicy(k=3)],
        ids=["theta_blocker", "theta_broadcast"],
    )
    def test_second_game_does_not_change_the_first(self, make):
        # Starting a game on another theta must not change a decision in
        # a game already under way on the same instance.
        g1, s1 = theta_start([3, 3, 3])
        g2, s2 = theta_start([5, 4, 6])
        reused = make()
        m1 = reused.initial_memory(g1, s1)
        reused.initial_memory(g2, s2)
        fresh = make()
        got, got_mem = reused.decide(g1, s1, m1)
        want, want_mem = fresh.decide(g1, s1, fresh.initial_memory(g1, s1))
        # Memory starts with the theta layout, which compares by identity.
        assert got == want
        assert got_mem[1:] == want_mem[1:]


class TestGridFlipflop:
    def test_three_by_three_orbit(self):
        g = make_grid(3, 3)
        adv = GridFlipflopAdversary(3, 3)
        state = adv.place(g, 5, 1)
        trace = simulate(g, state, GreedyPathPolicy(), adv, max_rounds=10)
        assert trace.outcome.kind == "adversary_cycle"
        assert trace.outcome.period == 2
        assert sum(len(r.conversions) for r in trace.rounds) == 0

    def test_placement_is_proof_shape(self):
        adv = GridFlipflopAdversary(3, 3)
        g = make_grid(3, 3)
        state = adv.place(g, 5, 1)
        # One source, five ignorant agents, all on distinct nodes.
        assert sum(state.is_source) == 1
        assert len(set(state.positions)) == 6

    def test_non_grid_rejected(self):
        with pytest.raises(ValueError):
            GridFlipflopAdversary(1, 3)


class TestBondBlocker:
    def make_bond_graph(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        return Graph(6, frozenset(edges))

    def test_keeps_graph_connected(self):
        g = self.make_bond_graph()
        adv = make_policy("bond_blocker", g)
        state = adv.place(g, 1, 1)
        removed, _ = adv.decide(g, state, adv.initial_memory(g, state))
        assert validate_removal(g, removed)

    def test_blocks_heuristic_agents(self):
        g = self.make_bond_graph()
        adv = make_policy("bond_blocker", g)
        state = adv.place(g, 1, 1)
        trace = simulate(g, state, TowardSourcePolicy(), adv, max_rounds=100)
        assert trace.outcome.kind != "solved"


def networkx_greedy_targets(g, state):
    """GreedyPathPolicy's moves with the path picked by networkx, as the
    policy originally did: the lexicographically smallest shortest path."""
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(sorted(g.edges))
    source = next(p for p, s in zip(state.positions, state.is_source) if s)
    ignorant = sorted({p for p, s in zip(state.positions, state.is_source) if not s})
    best = None
    for a in ignorant:
        path = min(tuple(p) for p in nx.all_shortest_paths(h, a, source))
        cand = (-sum(1 for v in path if v in ignorant), a, path)
        if best is None or cand < best:
            best = cand
    path = best[2]
    step_to = dict(zip(path, path[1:]))
    return tuple(
        (path[-2] if p == source and len(path) > 1 else p) if s else step_to.get(p, p)
        for p, s in zip(state.positions, state.is_source)
    )


class TestGreedyPath:
    def test_matches_networkx_on_small_connected_graphs(self):
        """Every connected atlas graph with at most 6 nodes, every source node
        and every nonempty ignorant set."""
        policy = GreedyPathPolicy()
        checked = 0
        for ga in nx.graph_atlas_g()[1:]:
            n = ga.number_of_nodes()
            if n < 2 or n > 6 or not nx.is_connected(ga):
                continue
            g = Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))
            for source in g.nodes:
                others = [v for v in g.nodes if v != source]
                for r in range(1, len(others) + 1):
                    for ignorant in itertools.combinations(others, r):
                        state = initial_state(ignorant, [source])
                        targets, _ = policy.decide(g, state, None)
                        assert targets == networkx_greedy_targets(g, state)
                        checked += 1
        assert checked == 22595


class TestCliqueAndLollipop:
    def test_clique_policy_wins_k4(self):
        g = make_complete(4)
        pol = CliquePolicy()
        state = initial_state([1, 2], [0])
        adv = RandomTreeAdversary(seed=3)
        trace = simulate(g, state, pol, adv, max_rounds=100)
        assert trace.outcome.kind == "solved"

    def test_lollipop_policy_marches_path_agents_in(self):
        g = make_lollipop(2, 3)
        lab = g.family.labels
        pol = LollipopPolicy()
        path_nodes = [v for v in lab["path"][1:]]
        state = initial_state(path_nodes[-2:], [lab["junction"]])
        trace = simulate(g, state, pol, PassiveAdversary(), max_rounds=100)
        assert trace.outcome.kind == "solved"


class TestMakePolicy:
    def test_known_names(self):
        g = make_grid(3, 3)
        for spec in (
            "passive",
            "random_tree:seed=4",
            "toward_source",
            "greedy_path",
            "theta_broadcast:k=2",
            "theta_blocker",
            "isolation_tree",
            "clique_policy",
            "lollipop_policy",
            "grid_flipflop:3x3",
        ):
            pol = make_policy(spec, g)
            assert pol.role in ("agents", "adversary")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("does_not_exist")

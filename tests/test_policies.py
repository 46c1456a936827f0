"""Agent and adversary strategies: legality, placements, and outcomes."""

import copy
import itertools
import random
import re

import networkx as nx
import pytest

from dynbroadcast import policies, solver
from dynbroadcast.engine import AgentState, RuleViolation, initial_state, simulate, validate_removal
from dynbroadcast.graph import (
    Graph,
    GraphError,
    grid_node,
    make_complete,
    make_grid,
    make_lollipop,
    make_path,
    make_ring,
    make_theta,
    theta_layout,
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
from dynbroadcast.solver import (
    SolvedAgentPolicy,
    SolverResult,
    compute_attractor,
    connected_removals,
    model_check_policy,
)


def theta_start(ds, k=None):
    g = make_theta(ds)
    lab = g.family.labels
    mids = [p[1 : -1][len(p[1:-1]) // 2] for p in lab["paths"]]
    k = k if k is not None else len(ds)
    return g, initial_state(mids[:k], [lab["north"]])


def non_local(policy):
    """A copy of `policy` whose class is a `local = False` subclass of its
    own: the model checker then asks it once per connected removal."""
    twin = copy.copy(policy)
    cls = type(policy)
    twin.__class__ = type(f"NonLocal{cls.__name__}", (cls,), {"local": False})
    return twin


def check_summary(res):
    return res.winner, res.optimal_rounds, res.states_explored


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

    @pytest.mark.parametrize(
        "ds, rounds, states",
        [([3, 3], 12, 251), ([4, 4], 16, 427), ([5, 5], 18, 543), ([6, 6], 22, 805),
         ([2, 2, 2], 21, 6_641)],
    )
    def test_model_check_is_pinned(self, ds, rounds, states):
        # Winner, minimax rounds and nodes explored against every connected
        # removal; any change to a decision or to the removals moves them.
        # They are equal whether the policy is asked once per distinct menu
        # (local) or once per removal (its non-local twin).
        g, state = theta_start(ds)
        res = model_check_policy(g, state, ThetaBroadcastPolicy(k=len(ds)))
        ref = model_check_policy(g, state, non_local(ThetaBroadcastPolicy(k=len(ds))))
        assert check_summary(res) == check_summary(ref) == ("agents", rounds, states)
        assert res.decide_calls < ref.decide_calls

    @pytest.mark.parametrize(
        "ds, starts, rounds",
        [
            ([1, 1], 12, 7),
            ([1, 2], 30, 11),
            ([1, 3], 60, 14),
            ([2, 2], 60, 12),
            ([2, 3], 105, 15),
            ([3, 3], 168, 18),
            ([1, 1, 1], 20, 12),
        ],
        ids=["theta11", "theta12", "theta13", "theta22", "theta23", "theta33", "theta111"],
    )
    def test_wins_from_every_start(self, ds, starts, rounds):
        # One ignorant agent per path and one source on any distinct nodes,
        # against the optimal adversary: the agents win from every start,
        # within `rounds`. Paths of one internal node and uneven paths put
        # agents next to a pole more often than theta(2,2) and theta(3,3) do.
        g = make_theta(ds)
        results = []
        for source in range(g.node_count):
            others = [v for v in range(g.node_count) if v != source]
            for ignorant in itertools.combinations(others, len(ds)):
                state = initial_state(ignorant, [source])
                results.append(model_check_policy(g, state, ThetaBroadcastPolicy(k=len(ds))))
        assert len(results) == starts
        assert {r.winner for r in results} == {"agents"}
        assert max(r.optimal_rounds for r in results) == rounds

    def test_phase4_splits_a_crowded_path_before_descending(self, monkeypatch):
        # Three ignorant agents on path 0 of theta(4,4,4) behind the source:
        # the first conversion leaves two of them on path 0 when phase 4
        # starts, with too few sources to descend every empty path, so
        # clean-up 1 splits path 0. Clean-up 2 splits only when no source is
        # sandwiched between the x pole and an ignorant agent, so a split
        # made while one is comes from clean-up 1.
        splits = []
        split_crowded = ThetaBroadcastPolicy._split_crowded

        def spy(self, surviving, ctx, exclude_pole):
            moves = split_crowded(self, surviving, ctx, exclude_pole)
            if moves:
                splits.append(self._sandwiched_exists(ctx, exclude_pole))
            return moves

        monkeypatch.setattr(ThetaBroadcastPolicy, "_split_crowded", spy)
        g = make_theta([4, 4, 4])
        path0 = g.family.labels["paths"][0]  # north, then coordinates 1..4, south
        state = initial_state(path0[2:5], [path0[1]])
        trace = simulate(g, state, ThetaBroadcastPolicy(k=3), PassiveAdversary(), max_rounds=50)
        assert (trace.outcome.kind, trace.outcome.round) == ("solved", 14)
        assert True in splits

    def test_phase4_squeezes_an_ignorant_agent(self, monkeypatch):
        # On theta(1,1,5), from one source and two ignorant agents on the long
        # path and one on the south pole, random tree 3 lets phase 4 find an
        # ignorant agent between the x pole and an internal source:
        # `_squeeze` closes in on it from both sides.
        squeezes = []
        squeeze = ThetaBroadcastPolicy._squeeze

        def spy(self, surviving, ctx, x):
            moves = squeeze(self, surviving, ctx, x)
            squeezes.append(moves)
            return moves

        monkeypatch.setattr(ThetaBroadcastPolicy, "_squeeze", spy)
        g = make_theta([1, 1, 5])
        lab = g.family.labels
        long_path = lab["paths"][2]
        state = initial_state([lab["south"], long_path[3], long_path[4]], [long_path[1]])
        trace = simulate(
            g, state, ThetaBroadcastPolicy(k=3), RandomTreeAdversary(seed=3), max_rounds=50
        )
        assert (trace.outcome.kind, trace.outcome.round) == ("solved", 17)
        assert any(squeezes)

    def test_phase4_descenders_can_miss_an_empty_path(self, monkeypatch):
        # Clean-up 1 counts each source on an empty path as a crosser, but the
        # descender loop sends one per path. On theta(1,2,4,1) (paths 0-2-1,
        # 0-3-4-1, 0-5-6-7-8-1 and 0-9-1), six removals lead to a round-7
        # phase-4 state with one source on the north pole and two on node 4
        # of empty path 1: path 1 keeps one of them and path 0 gets the pole
        # source, so empty path 3 gets no descender (`elif pool` is false).
        script = [[(1, 8)], [(1, 8)], [], [(0, 9)], [(0, 5), (0, 9), (3, 4)], [(0, 3)]]

        class Script:
            role = "adversary"
            name = "script"

            def initial_memory(self, base, state):
                return 0

            def decide(self, base, state, memory):
                removed = script[memory] if memory < len(script) else []
                return frozenset(removed), memory + 1

        missed = []
        run_phase4 = ThetaBroadcastPolicy._run_phase4

        def spy(self, surviving, ctx, data):
            empty = ctx.empty_paths()
            targets, (x, descenders) = run_phase4(self, surviving, ctx, data)
            if descenders and not (data and data[1]):  # descenders chosen this round
                missed.append(sorted(set(empty) - {p for _, p in descenders}))
            return targets, (x, descenders)

        monkeypatch.setitem(ThetaBroadcastPolicy._HANDLERS, policies._P4, spy)
        g = make_theta([1, 2, 4, 1])
        state = initial_state([8, 0, 7, 1], [5])
        trace = simulate(g, state, ThetaBroadcastPolicy(k=4), Script(), max_rounds=50)
        assert (trace.outcome.kind, trace.outcome.round) == ("solved", 8)
        assert tuple(before for before, _ in trace.rounds[6].moves) == (6, 4, 0, 4, 5)
        assert missed == [[], [3]]

    @pytest.mark.parametrize(
        "ignorant, sources", [(3, 1), (2, 2)], ids=["extra_ignorant", "two_sources"]
    )
    def test_rejects_other_counts(self, ignorant, sources):
        # With these counts on theta(3,3) the strategy loses from some starts
        # (272 of 280, and 260 of 420) that the agents win.
        g = make_theta([3, 3])
        state = initial_state(range(ignorant), range(ignorant, ignorant + sources))
        with pytest.raises(ValueError, match="one ignorant agent per path"):
            ThetaBroadcastPolicy(k=ignorant).initial_memory(g, state)

    def test_initial_memories_on_one_graph_are_equal(self):
        # The layout in the memory is memoised on the graph, so two starts
        # of one game share their memory.
        g, state = theta_start([3, 3, 3])
        first = ThetaBroadcastPolicy(k=3).initial_memory(g, state)
        assert first == ThetaBroadcastPolicy(k=3).initial_memory(g, state)
        assert first[0] is theta_layout(g)

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


def reference_theta_blocker_decide(base, state, memory):
    """`ThetaBlocker.decide` as it was before its connectivity walk was
    replaced by the theta argument: the reference the rewrite must match."""
    layout = memory[0]
    sources = sorted(
        {p for p, s in zip(state.positions, state.is_source) if s}
    )
    ignorant = sorted(
        {p for p, s in zip(state.positions, state.is_source) if not s}
    )
    if not sources or not ignorant:
        return frozenset(), memory

    src_dist = [base.distances_from(s) for s in sources]

    def dist_to_source(v):
        return min(d[v] for d in src_dist)

    cuts = {}  # path index -> removed edge

    def norm(u, v):
        return (u, v) if u < v else (v, u)

    for a in sorted(ignorant, key=lambda v: (dist_to_source(v), v)):
        if dist_to_source(a) > 2:
            continue
        nxt = min(
            (w for w in base.neighbors(a) if dist_to_source(w) < dist_to_source(a)),
            default=None,
        )
        if nxt is None:
            continue
        p_idx = layout.path_of(a)
        if p_idx is None:
            p_idx = layout.path_of(nxt)
        if p_idx is None:
            continue
        if p_idx not in cuts:
            cuts[p_idx] = norm(a, nxt)

    for p_idx, chain in enumerate(layout.chains):
        if p_idx in cuts:
            continue
        coords = sorted(
            layout.coord(p_idx, a)
            for a in ignorant
            if layout.path_of(a) == p_idx
        )
        if not coords:
            continue
        last = len(chain) - 1
        i = min(coords, key=lambda c: (min(c, last - c), c))
        if i <= last - i:
            cuts[p_idx] = norm(chain[i - 1], chain[i])
        else:
            cuts[p_idx] = norm(chain[i], chain[i + 1])

    while cuts and not base.is_connected(frozenset(cuts.values())):
        cuts.pop(max(cuts))
    return frozenset(cuts.values()), memory


def small_multisets(nodes):
    """Every multiset of one or two nodes, each as a sorted tuple."""
    return [c for r in (1, 2) for c in itertools.combinations_with_replacement(nodes, r)]


class TestThetaBlocker:
    def test_decide_matches_reference(self):
        # Every state with 1-2 ignorant agents and 1-2 sources, co-located
        # agents and ignorant agents on a source included.
        adv, checked = ThetaBlocker(), 0
        for ds in ([1, 2, 3], [2, 3, 4], [3, 3, 3], [2, 2, 2, 2]):
            g = make_theta(ds)
            layout = theta_layout(g)
            groups = small_multisets(g.nodes)
            for ig in groups:
                for src in groups:
                    state = AgentState(ig + src, (False,) * len(ig) + (True,) * len(src))
                    mem = adv.initial_memory(g, state)
                    got = adv.decide(g, state, mem)
                    assert got == reference_theta_blocker_decide(g, state, mem), (ds, state)
                    removed = got[0]
                    assert g.is_connected(removed), (ds, state)
                    # Every edge has an internal endpoint, which names its path.
                    paths = [(layout.where.get(u) or layout.where[v])[0] for u, v in removed]
                    assert len(set(paths)) == len(paths), (ds, state)
                    checked += 1
        assert checked == 18019

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


LOLLIPOP_SECOND = (make_lollipop(3, 1), [0, 1, 5], [2])


def shuffled_tree_removal(g, seed, round_index):
    """RandomTreeAdversary's removal with its edge order drawn by
    `random.shuffle`: the seeded sorted edges, shuffled, then Kruskal."""
    rng = random.Random(seed * 2654435761 + round_index)
    edges = sorted(g.edges)
    rng.shuffle(edges)
    parent = list(range(g.node_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    removed = set()
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            removed.add((u, v))
        else:
            parent[ru] = rv
    return frozenset(removed)


class TestRandomTreeShuffle:
    # The adversary runs Durstenfeld's shuffle inline on getrandbits; it
    # must give the permutation random.shuffle gives for every seed.
    @pytest.mark.parametrize(
        "g",
        [make_grid(5, 5), make_theta([8] * 6), make_complete(6), make_ring(7), make_path(5)],
        ids=["grid5x5", "theta8x6", "complete6", "ring7", "path5"],
    )
    def test_decide_equals_random_shuffle_reference(self, g):
        state = initial_state([1], [0])
        for seed in range(50):
            adv = RandomTreeAdversary(seed)
            for round_index in range(21):
                removed, mem = adv.decide(g, state, round_index)
                assert mem == round_index + 1
                assert removed == shuffled_tree_removal(g, seed, round_index)
                assert len(g.edges) - len(removed) == g.node_count - 1


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
        # theta_layout is memoised on the graph, so the memories are equal.
        assert got == want
        assert got_mem == want_mem

    @pytest.mark.parametrize(
        "make, first, second",
        [
            (CliquePolicy, (make_complete(4), [1, 2], [0]), (make_complete(5), [1, 2, 3], [0])),
            (LollipopPolicy, (make_lollipop(2, 2), [0, 5], [1]), LOLLIPOP_SECOND),
            (LollipopPolicy, (make_lollipop(2, 2), [0, 2], [1]), LOLLIPOP_SECOND),
        ],
        ids=["clique_policy", "lollipop_policy_path", "lollipop_policy_clique"],
    )
    def test_solver_backed_policy_keeps_its_game(self, make, first, second):
        # The attractor travels in memory, so a second game started on the
        # same instance leaves the first game's decisions and trace alone.
        (g1, ig1, src1), (g2, ig2, src2) = first, second
        s1, s2 = initial_state(ig1, src1), initial_state(ig2, src2)
        reused = make()
        m1 = reused.initial_memory(g1, s1)
        reused.initial_memory(g2, s2)
        fresh = make()
        surviving = g1.without(frozenset({min(g1.edges)}))
        assert reused.decide(surviving, s1, m1) == fresh.decide(
            surviving, s1, fresh.initial_memory(g1, s1)
        )
        adversary = RandomTreeAdversary(3)
        want = simulate(g1, s1, make(), adversary, max_rounds=50)
        got = simulate(g1, s1, reused, adversary, max_rounds=50)
        assert got.rounds == want.rounds and got.outcome == want.outcome


    def test_grid_flipflop_replays_its_game(self):
        # The two removals are fixed at construction and kept on the
        # instance, so a second game on the same instance, with another grid's
        # adversary built in between, replays the first trace exactly.
        g = make_grid(3, 3)
        reused = GridFlipflopAdversary(3, 3)
        first = simulate(g, reused.place(g, 5, 1), GreedyPathPolicy(), reused, max_rounds=10)
        GridFlipflopAdversary(3, 4)
        second = simulate(g, reused.place(g, 5, 1), GreedyPathPolicy(), reused, max_rounds=10)
        fresh = GridFlipflopAdversary(3, 3)
        third = simulate(g, fresh.place(g, 5, 1), GreedyPathPolicy(), fresh, max_rounds=10)
        for trace in (second, third):
            assert trace.rounds == first.rounds and trace.outcome == first.outcome


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

    @staticmethod
    def play(rows, cols):
        g = make_grid(rows, cols)
        adv = GridFlipflopAdversary(rows, cols)
        k = rows + (cols - 2) * (rows - 1)
        return simulate(g, adv.place(g, k, 1), GreedyPathPolicy(), adv, max_rounds=10)

    @staticmethod
    def assert_flipflop(trace):
        assert trace.outcome.kind == "adversary_cycle"
        assert trace.outcome.period == 2
        assert sum(len(r.conversions) for r in trace.rounds) == 0

    def test_four_by_four_cycles(self):
        self.assert_flipflop(self.play(4, 4))

    @pytest.mark.parametrize("rows,cols", [(3, 5), (5, 5)])
    def test_odd_grid_beyond_three_by_three_rejected(self, rows, cols):
        with pytest.raises(GraphError, match=f"even node count: the {rows}x{cols} grid"):
            GridFlipflopAdversary(rows, cols)

    def test_every_even_grid_up_to_ten_by_ten_cycles(self):
        sizes = [
            (rows, cols)
            for rows in range(2, 11)
            for cols in range(2, 11)
            if rows * cols % 2 == 0 and rows * cols >= 6
        ]
        assert len(sizes) == 64
        for rows, cols in sizes:
            self.assert_flipflop(self.play(rows, cols))

    # Removals of memory 0 and memory 1, as the Hamiltonian-path search that
    # built this adversary before the closed form chose them; the placement
    # is the same on every grid (ignorant agents in the docstring's pattern,
    # the source at node 0).
    SEARCHED_REMOVALS = {
        (2, 3): ({(0, 3), (1, 4)}, {(1, 2), (1, 4)}),
        (2, 4): ({(0, 4), (1, 5), (2, 6)}, {(1, 2), (1, 5), (2, 6)}),
        (2, 5): ({(0, 5), (1, 6), (2, 7), (3, 8)}, {(1, 2), (1, 6), (2, 7), (3, 8)}),
        (2, 6): (
            {(0, 6), (1, 7), (2, 8), (3, 9), (4, 10)},
            {(1, 2), (1, 7), (2, 8), (3, 9), (4, 10)},
        ),
        (3, 2): ({(0, 1), (2, 3)}, {(2, 3), (2, 4)}),
        (3, 4): (
            {(0, 4), (1, 5), (2, 6), (4, 5), (6, 7), (9, 10)},
            {(1, 2), (1, 5), (2, 6), (4, 5), (6, 7), (9, 10)},
        ),
        (4, 2): ({(0, 1), (2, 3), (4, 5)}, {(2, 3), (2, 4), (4, 5)}),
        (5, 2): ({(0, 1), (2, 3), (4, 5), (6, 7)}, {(2, 3), (2, 4), (4, 5), (6, 7)}),
        (6, 2): (
            {(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)},
            {(2, 3), (2, 4), (4, 5), (6, 7), (8, 9)},
        ),
        (3, 3): ({(1, 4), (3, 6), (4, 5), (4, 7)}, {(1, 2), (3, 4), (4, 5), (4, 7)}),
    }
    SEARCHED_IGNORANT = {
        (2, 3): [1, 4, 5],
        (2, 4): [1, 3, 5, 6],
        (2, 5): [1, 3, 6, 7, 9],
        (2, 6): [1, 3, 5, 7, 8, 10],
        (3, 2): [1, 3, 5],
        (3, 4): [1, 3, 5, 6, 7, 9, 10],
        (4, 2): [1, 3, 5, 7],
        (5, 2): [1, 3, 5, 7, 9],
        (6, 2): [1, 3, 5, 7, 9, 11],
        (3, 3): [1, 4, 5, 7, 8],
    }

    @pytest.mark.parametrize("size", sorted(SEARCHED_REMOVALS))
    def test_matches_the_searched_construction(self, size):
        rows, cols = size
        g = make_grid(rows, cols)
        adv = GridFlipflopAdversary(rows, cols)
        state = adv.place(g, len(self.SEARCHED_IGNORANT[size]), 1)
        assert state == initial_state(self.SEARCHED_IGNORANT[size], [0])
        memory = adv.initial_memory(g, state)
        for want in self.SEARCHED_REMOVALS[size]:
            removed, memory = adv.decide(g, state, memory)
            assert removed == want

    @pytest.mark.parametrize("cols", range(6, 13))
    def test_one_row_swaps_forever(self, cols):
        g = make_grid(1, cols)
        adv = GridFlipflopAdversary(1, cols)
        state = adv.place(g, 1, 1)
        assert state == initial_state([1], [0])
        memory = adv.initial_memory(g, state)
        for _ in range(2):
            removed, memory = adv.decide(g, state, memory)
            assert removed == frozenset()
        trace = simulate(g, state, GreedyPathPolicy(), adv, max_rounds=10)
        self.assert_flipflop(trace)
        assert trace.rounds[0].moves == ((1, 0), (0, 1))  # a swap, no meeting


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


    @pytest.mark.parametrize(
        "g", [make_grid(5, 5), make_grid(3, 4), make_theta([3, 3, 3])],
        ids=["grid5x5", "grid3x4", "theta333"],
    )
    def test_matches_networkx_on_random_tree_survivors(self, g):
        """Random spanning trees of g, and the same trees plus one removed
        edge put back: every source and a seeded sample of ignorant sets."""
        policy = GreedyPathPolicy()
        rng = random.Random(2024)
        checked = 0
        for seed in range(8):
            removed, _ = RandomTreeAdversary(seed).decide(g, None, 0)
            extra = rng.choice(sorted(removed))
            for survivor in (g.without(removed), g.without(removed - {extra})):
                assert survivor.is_connected()
                for source in survivor.nodes:
                    others = [v for v in survivor.nodes if v != source]
                    for _ in range(6):
                        ignorant = rng.sample(others, rng.randint(1, 6))
                        state = initial_state(ignorant, [source])
                        targets, _ = policy.decide(survivor, state, None)
                        assert targets == networkx_greedy_targets(survivor, state)
                        checked += 1
        assert checked == 16 * 6 * g.node_count


class TestCliqueAndLollipop:
    def test_clique_policy_wins_k4(self):
        g = make_complete(4)
        pol = CliquePolicy()
        state = initial_state([1, 2], [0])
        adv = RandomTreeAdversary(seed=3)
        trace = simulate(g, state, pol, adv, max_rounds=100)
        assert trace.outcome.kind == "solved"

    def test_cliques_over_six_nodes_are_rejected_before_solving(self):
        state = initial_state([1, 2], [0])
        with pytest.raises(ValueError, match="larger than 6"):
            CliquePolicy().initial_memory(make_complete(7), state)
        with pytest.raises(ValueError, match="larger than 6"):
            LollipopPolicy().initial_memory(make_lollipop(5, 2), state)

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

    def test_grid_flipflop_size_spec(self):
        assert make_policy("grid_flipflop:3,4").name == "grid_flipflop:3x4"
        for spec in ("grid_flipflop", "grid_flipflop:3", "grid_flipflop:3x3x3", "grid_flipflop:x3"):
            with pytest.raises(ValueError, match="grid_flipflop:RxC"):
                make_policy(spec)

    def test_integer_parameters(self):
        assert make_policy("random_tree:7").name == make_policy("random_tree:seed=7").name
        assert make_policy("random_tree").name == "random_tree:seed=0"
        assert make_policy("theta_broadcast:k=3").k == 3
        assert make_policy("theta_broadcast").k is None
        random_tree = "an integer seed, random_tree:seed=N or random_tree:N, not "
        theta = "an integer agent count, theta_broadcast:k=N, not "
        for spec, form in (
            ("random_tree:seed=x", random_tree),
            ("random_tree:speed=3", random_tree),
            ("random_tree:seed=4,speed=3", random_tree),
            ("theta_broadcast:k=two", theta),
            ("theta_broadcast:n=3", theta),
            ("theta_broadcast:3", theta),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{form}{spec!r}")):
                make_policy(spec)


def menu_of(surviving, positions):
    adj = surviving.adjacency()
    return tuple(adj[p] for p in sorted(set(positions)))


def expanded_nodes(g, start, policy):
    """The (state, memory) nodes at which the model check calls `decide`."""
    nodes = set()
    decide = policy.decide

    def record(surviving, state, memory):
        nodes.add((state, memory))
        return decide(surviving, state, memory)

    policy.decide = record
    try:
        model_check_policy(g, start, policy)
    finally:
        del policy.decide
    return nodes


def menu_splits(g, start, policy):
    """The states of the expanded nodes at which two connected removals with
    equal menus get unequal replies (targets, memory) from `policy`."""
    survivors = [g.without(r) for r in connected_removals(g)]
    splits = []
    for state, memory in expanded_nodes(g, start, policy):
        replies = {}
        for surviving in survivors:
            reply = policy.decide(surviving, state, memory)
            if replies.setdefault(menu_of(surviving, state.positions), reply) != reply:
                splits.append(state)
                break
    return splits


def _solved_agent_theta44():
    g, state = theta_start([4, 4])
    return g, state, SolvedAgentPolicy(compute_attractor(g, 3))


def _clique_policy_complete4():
    return make_complete(4), initial_state([1, 2], [0]), CliquePolicy()


def _lollipop_policy_lollipop22():
    return make_lollipop(2, 2), initial_state([0, 3], [1]), LollipopPolicy()


LOCALITY_CASES = [
    pytest.param(lambda: (*theta_start([3, 3]), ThetaBroadcastPolicy(k=2)), id="theta33"),
    pytest.param(lambda: (*theta_start([4, 4]), ThetaBroadcastPolicy(k=2)), id="theta44"),
    pytest.param(lambda: (*theta_start([2, 2, 2]), ThetaBroadcastPolicy(k=3)), id="theta222"),
    pytest.param(_solved_agent_theta44, id="solved_agent-theta44"),
    pytest.param(_clique_policy_complete4, id="clique_policy-complete4"),
    pytest.param(_lollipop_policy_lollipop22, id="lollipop_policy-lollipop22"),
    pytest.param(
        lambda: (make_lollipop(3, 2), initial_state([0, 4], [1]), LollipopPolicy()),
        id="lollipop_policy-lollipop32",
    ),
    pytest.param(
        # An agent on the path: the walk toward the junction.
        lambda: (make_lollipop(2, 2), initial_state([0, 5], [1]), LollipopPolicy()),
        id="lollipop_policy-lollipop22-walk",
    ),
    pytest.param(
        lambda: (*theta_start([3, 3], k=1), TowardSourcePolicy()), id="toward_source-theta33"
    ),
]

# The local policy classes that LOCALITY_CASES covers.
LOCAL_POLICIES = {ThetaBroadcastPolicy, SolvedAgentPolicy, CliquePolicy, LollipopPolicy}


class TestLocality:
    @pytest.mark.parametrize("case", LOCALITY_CASES)
    def test_equal_menus_give_equal_replies(self, case):
        # At every node the model check expands, a local policy's reply over
        # every connected removal depends only on the menu. A non-local
        # policy must show a node where it does not, or it could be local.
        g, start, policy = case()
        splits = menu_splits(g, start, policy)
        if getattr(policy, "local", False):
            assert splits == []
        else:
            assert splits

    def test_every_local_policy_is_covered(self):
        declared = {
            cls
            for module in (policies, solver)
            for cls in vars(module).values()
            if isinstance(cls, type) and getattr(cls, "local", False)
        }
        assert declared == LOCAL_POLICIES

    @pytest.mark.parametrize(
        "case, calls",
        [
            (_solved_agent_theta44, (10, 122, 439, 792)),
            (_clique_policy_complete4, (3, 32, 362, 418)),
            (_lollipop_policy_lollipop22, (3, 37, 400, 456)),
        ],
        ids=["solved_agent-theta44", "clique_policy-complete4", "lollipop_policy-lollipop22"],
    )
    def test_local_check_equals_its_non_local_twin(self, case, calls):
        # Same answers; the local check asks once per distinct menu, and each
        # call is one branch.
        g, start, policy = case()
        rounds, states, local_calls, removal_calls = calls
        assert model_check_policy(g, start, policy) == SolverResult(
            "agents", rounds, states, local_calls, local_calls
        )
        assert model_check_policy(g, start, non_local(policy)) == SolverResult(
            "agents", rounds, states, removal_calls, removal_calls
        )

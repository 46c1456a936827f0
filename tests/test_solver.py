"""Exact game solver: attractor computation, known optima, game values,
extracted policies, and the fixed-policy model checker."""

import hashlib
import itertools
import json
from math import ceil

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from dynbroadcast.engine import Configuration, RuleViolation, initial_state, simulate
from dynbroadcast.graph import (
    Graph,
    automorphisms,
    contract_cut_edges,
    make_clique_star,
    make_complete,
    make_lollipop,
    make_path,
    make_ring,
    make_theta,
)
from dynbroadcast.policies import (
    IsolationTreeAdversary,
    PassiveAdversary,
    ThetaBlocker,
    ThetaBroadcastPolicy,
    TowardSourcePolicy,
)
from dynbroadcast import solver
from dynbroadcast.solver import (
    BudgetExceeded,
    CanonicalState,
    SolvedAdversaryPolicy,
    SolvedAgentPolicy,
    SolverResult,
    _canonical_graph,
    _initial_states,
    _minimal_menu_survivors,
    _placement_ids,
    canonical_after_conversion,
    compute_attractor,
    connected_removals,
    game_value,
    min_agents,
    model_check_policy,
    solvable,
    spanning_trees,
)

from test_engine import _FixedRemoval
from test_policies import menu_of, non_local, theta_start


def atlas_graphs(max_nodes=5, min_nodes=2):
    for ga in nx.graph_atlas_g()[1:]:
        n = ga.number_of_nodes()
        if n < min_nodes or n > max_nodes or not nx.is_connected(ga):
            continue
        yield Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))


@st.composite
def connected_graphs(draw, max_nodes=7, max_edges=12):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(2, max_nodes))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = sorted({(u, v) for v in range(n) for u in range(v)} - tree)
    extra = set()
    if others:
        extra = draw(st.sets(st.sampled_from(others), max_size=max_edges - len(tree)))
    return Graph(n, frozenset(tree | extra))


class TestBranching:
    def test_spanning_trees_count(self):
        # Cayley: K4 has 16 spanning trees; ring(5) has 5.
        assert len(spanning_trees(make_complete(4))) == 16
        assert len(spanning_trees(make_ring(5))) == 5

    def test_connected_removals_include_empty_and_trees(self):
        g = make_ring(4)
        removals = connected_removals(g)
        assert frozenset() in removals
        # Ring(4): keep all 4 edges, or drop any single edge: 5 options.
        assert len(removals) == 5

    def test_every_removal_keeps_graph_connected(self):
        for g in atlas_graphs(max_nodes=4):
            for removed in connected_removals(g):
                assert g.is_connected(removed)

    def test_connected_removals_equal_a_brute_force(self):
        # Every subset of every size, in the same order: the size bound only
        # skips subsets that cannot leave the graph connected.
        for g in atlas_graphs(max_nodes=6, min_nodes=1):
            edges = sorted(g.edges)
            brute = [
                frozenset(combo)
                for r in range(len(edges) + 1)
                for combo in itertools.combinations(edges, r)
                if g.is_connected(frozenset(combo))
            ]
            assert connected_removals(g) == brute, sorted(g.edges)

    def test_removal_budget_counts_the_subsets_tested(self):
        # A path has one removal (none) however long it is, and ring(22) has
        # 23: both are cheap, though they have more than 20 edges.
        assert connected_removals(make_path(25)) == [frozenset()]
        assert len(connected_removals(make_ring(22))) == 23
        res = model_check_policy(make_path(25), initial_state([0], [24]), TowardSourcePolicy())
        assert (res.winner, res.optimal_rounds) == ("agents", 12)
        # complete(7): sum of C(21, r) for r <= 15 is about 2.07 M.
        k7 = make_complete(7)
        with pytest.raises(BudgetExceeded):
            connected_removals(k7)
        with pytest.raises(BudgetExceeded):
            model_check_policy(k7, initial_state([1], [0]), TowardSourcePolicy())

    @given(connected_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_minimal_menu_survivors_give_the_minimal_menus(self, g, data):
        occupied = frozenset(data.draw(st.sets(st.sampled_from(list(g.nodes)), min_size=1)))

        def menu(survivor):
            return frozenset(e for e in survivor if not occupied.isdisjoint(e))

        menus = {menu(g.edges - removed) for removed in connected_removals(g)}
        minimal = {m for m in menus if not any(other < m for other in menus)}
        survivors = _minimal_menu_survivors(g, occupied)
        assert all(g.is_connected(g.edges - s) for s in survivors)
        got = [menu(s) for s in survivors]
        assert len(set(got)) == len(got)
        assert set(got) == minimal


def image(sigma, s):
    """State s with every position relabelled by sigma."""
    return CanonicalState(*(tuple(sorted(sigma[v] for v in ms)) for ms in s))


def orbit_rep(g):
    """x -> the state of least id in the orbit of x under `automorphisms(g)`.

    Ids order states by ignorant count, then by the two sorted tuples, so a
    plain tuple key recomputes that order without the solver's ranking.
    """
    group = automorphisms(g) or (tuple(g.nodes),)
    return lambda x: min(
        (image(sigma, x) for sigma in group), key=lambda y: (len(y.ignorant), y)
    )


def kernel_branches(g, total, rep):
    """(state, survivor, stored successor states) for every branch of the
    canonical game graph, with the representatives (`rep(s) == s`) and their
    survivors recomputed in build order."""
    space, graph = _canonical_graph(g, total, "spanning_trees", 10**6, range(1, total))
    states = [s for n_ig in range(total) for s in space.ranking.states(n_ig)]
    branches = (
        (s, survivor)
        for n_ig in range(1, total)
        for s in space.ranking.states(n_ig)
        if rep(s) == s
        for survivor in _minimal_menu_survivors(g, frozenset(s.ignorant + s.source))
    )
    count = 0
    for b, (s, survivor) in enumerate(branches):
        assert states[graph.owner[b]] == s
        lo, hi = graph.offsets[graph.set_of[b]], graph.offsets[graph.set_of[b] + 1]
        yield s, survivor, [states[v] for v in graph.values[lo:hi]]
        count += 1
    assert count == len(graph.owner)


def naive_successors(g, s, survivor):
    """Canonical states after conversion over the labelled move product."""
    adj = Graph(g.node_count, survivor).adjacency()
    k = len(s.ignorant)
    return {
        canonical_after_conversion(t[:k], t[k:])
        for t in itertools.product(*((p,) + adj[p] for p in s.ignorant + s.source))
    }


class TestSuccessorKernel:
    """The kernel's stored successor sets against a naive labelled product,
    mapped to orbit representatives.

    Sets are compared as lists without repeats, not through ranks: a kernel
    that skipped the deduplication of colliding entries would leave every
    rank unchanged.
    """

    @pytest.mark.parametrize("agents", [2, 3])
    @pytest.mark.parametrize(
        "g", list(atlas_graphs(max_nodes=5)), ids=lambda g: f"{g.node_count}n{sorted(g.edges)}"
    )
    def test_sets_match_labelled_product(self, g, agents):
        # Every representative, co-located agents included, at every branch.
        rep = orbit_rep(g)
        for s, survivor, stored in kernel_branches(g, agents, rep):
            assert len(stored) == len(set(stored)), (s, survivor)
            want = {rep(x) for x in naive_successors(g, s, survivor)}
            assert set(stored) == want, (s, survivor)

    @given(connected_graphs(max_nodes=4, max_edges=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_colliding_conversions_are_merged(self, g, data):
        # A pendant p on x: the bridge (x, p) survives every removal. From
        # ignorant (p,) and sources (x, p, p), the moves "ignorant to x" and
        # "one source p -> x" both convert to sources (x, x, p, p).
        # An automorphism keeps the pendant on x, so the start's
        # representative collides in the same way.
        x = data.draw(st.sampled_from(list(g.nodes)))
        p = g.node_count
        g = Graph(p + 1, g.edges | {(x, p)})
        rep = orbit_rep(g)
        start = rep(CanonicalState((p,), (x, p, p)))
        checked = 0
        for s, survivor, stored in kernel_branches(g, 4, rep):
            if s != start:
                continue
            assert len(stored) == len(set(stored))
            assert set(stored) == {rep(y) for y in naive_successors(g, s, survivor)}
            assert stored.count(rep(canonical_after_conversion((), (x, x, p, p)))) == 1
            checked += 1
        assert checked

    def test_attractor_counts_match_a_recount(self):
        # The counts are those of the quotient game: branches only at
        # representatives, successors mapped to their representatives, and
        # one stored set per distinct pair of class target lists. Distinct
        # pairs can give equal sets once mapped to representatives.
        g = make_theta([3, 3, 3])
        att = compute_attractor(g, 3)
        rep = orbit_rep(g)

        def targets(ms, adj):
            moves = itertools.product(*((p,) + adj[p] for p in ms))
            return frozenset(tuple(sorted(t)) for t in moves)

        sets, pairs = [], set()
        for s in att.states:
            if not s.ignorant or rep(s) != s:
                continue
            for survivor in _minimal_menu_survivors(g, frozenset(s.ignorant + s.source)):
                sets.append(frozenset(rep(x) for x in naive_successors(g, s, survivor)))
                adj = Graph(g.node_count, survivor).adjacency()
                pairs.add((targets(s.ignorant, adj), targets(s.source, adj)))
        assert att.branches == len(sets)
        assert att.successor_entries == sum(map(len, sets))
        assert att.distinct_sets == len(pairs) >= len(set(sets))


def rank_digest(att):
    """sha256 of the sorted rank items, each as a plain JSON list
    [ignorant, source, rank]."""
    items = sorted((list(s.ignorant), list(s.source), r) for s, r in att.rank.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


FAMILIES = {
    "theta": lambda p: make_theta(list(p)),
    "clique_star": lambda p: make_clique_star(*p),
    "complete": lambda p: make_complete(*p),
    "lollipop": lambda p: make_lollipop(*p),
    "ring": lambda p: make_ring(*p),
    "path": lambda p: make_path(*p),
}

# (family, params, total agents, rank digest, (branches, successor_entries,
# distinct_sets)). The perfbench `kstar` attractors (1 .. k* or k_max
# ignorant agents, plus one source), then clique_star(7,2) and complete(6)
# with 5 agents. Recorded from the per-state orbit and conversion loops and
# the survivor-graph branch rows, before those were built in numpy blocks.
EXACT_PINS = [
    ("theta", (3, 3, 3), 2, "339852ea2e3419a7e36fba009a5b18dc5bd34c0f856ff028b126122a25927223", (87, 434, 71)),
    ("theta", (3, 3, 3), 3, "5da7f61af3535cc1c7e51fe11729b97ae1615445340afe268749b0f5070bc2ae", (1478, 18602, 1204)),
    ("clique_star", (7, 2), 2, "ed0e616462315d451386db06d505ef7f873a019cb6cc30fa8accd4c726fa6c60", (77, 317, 77)),
    ("clique_star", (7, 2), 3, "c8f8cb3f053259e8b688244e8b7a505ec662f7b4a82d01f84338187e5d821b4a", (860, 6760, 840)),
    ("complete", (5,), 2, "8f89e8b1ea69a3364c5bd45b5b887638ce71cc107cfd81307cc3e240cbeb2c06", (19, 32, 19)),
    ("complete", (5,), 3, "9bdf9673e93ed11ec7260373be579b38c870ad05549899e594f6025ea43ef381", (168, 512, 160)),
    ("complete", (5,), 4, "b789042c41f2cc81a1807a1801732da9d41d230f45ed5aabad783a5d42df9092", (887, 4983, 845)),
    ("lollipop", (3, 2), 2, "b3daf6fa9df82c2f0efa29f78eaa76b0b06f064238cd3ab3263ae92c74f5e0f7", (89, 417, 89)),
    ("lollipop", (3, 2), 3, "23913c9beaeebbf59adc273be1304223c4bc0a20ac06cd5c7e198f2b9a30a24e", (984, 8760, 956)),
    ("lollipop", (2, 2), 2, "5467f8ed0b5ea0d05e42ae3409725763efcadca3e9ebfc21d4d1fe3342a209bc", (58, 294, 58)),
    ("lollipop", (2, 2), 3, "9453393921c7dc849e21da38cc4850b3757de60befd07a5fc9697d8de648b03a", (508, 5176, 496)),
    ("theta", (4, 4), 2, "bd052a395a073392b6fd1e0dd32aacc7e5102fed4f07a226740cec66d0166e9a", (21, 71, 18)),
    ("theta", (4, 4), 3, "26cf63c2359188f14a95437021102d5205e9c05040dfdf41d21766c068f80b72", (294, 3000, 257)),
    ("ring", (10,), 2, "bd052a395a073392b6fd1e0dd32aacc7e5102fed4f07a226740cec66d0166e9a", (21, 71, 18)),
    ("ring", (10,), 3, "62cd6c5f794490aa1bcf0f5901ee3278f716296923e7b9cf5c13f4e55f870f73", (294, 3000, 255)),
    ("ring", (6,), 2, "878526d25985ed2de64ca1d97a766486e847b48156ba9bb3453b1fc23a5f4dd9", (13, 39, 12)),
    ("ring", (6,), 3, "3ea9b9bbde41c87868d5b3825acc1b224934cd1fc67ec7b7d626c513953cd9ad", (106, 832, 101)),
    ("theta", (3, 3), 2, "ce4a7404641da6bd7163c110d77b973a8b83e7d4aa9517295dd76b3f59c9dd60", (17, 55, 15)),
    ("theta", (3, 3), 3, "43e374ef5e6dd8ec7780d7a492d5d087c36fae71d274622830bfac125ef5ce08", (188, 1750, 171)),
    ("path", (8,), 2, "386b3f9fd1fdb351560b3f935edce3b5c56b776b0ad06ce6a4c826dd7e6cec54", (32, 238, 32)),
    ("clique_star", (7, 2), 5, "d18fc29f314b35ec12e118270de98b9676e3b5e0bcc19921ba07e7ef8aeba9f8", (24402, 684868, 23394)),
    ("complete", (6,), 5, "dcbf56ce5cb97872279772cdac1badbd44b7711d36b333a9aa87a674d20ab5a3", (12116, 104825, 11430)),
]


class TestExactnessPins:
    @pytest.mark.parametrize(
        "family, params, total, digest, counts",
        EXACT_PINS,
        ids=[f"{f}{p}/{t}" for f, p, t, *_ in EXACT_PINS],
    )
    def test_ranks_and_counts_are_pinned(self, monkeypatch, family, params, total, digest, counts):
        monkeypatch.setattr(solver, "_ATTRACTOR_CACHE", {})  # build, do not read a cached result
        att = compute_attractor(FAMILIES[family](params), total)
        assert rank_digest(att) == digest
        assert (att.branches, att.successor_entries, att.distinct_sets) == counts


class TestSetupTables:
    """The orbit table `rep` and the conversion table `conv`, state by state,
    against the per-state orbit minimum and `canonical_after_conversion`."""

    @pytest.mark.parametrize(
        "g, total",
        [
            (make_complete(5), 4),
            (make_clique_star(7, 2), 3),
            (make_theta([3, 3, 3]), 3),
            (make_path(70), 2),  # more nodes than a 64-bit mask holds
        ],
        ids=["complete(5)/4", "clique_star(7,2)/3", "theta(3,3,3)/3", "path(70)/2"],
    )
    def test_tables_match_per_state_recomputation(self, g, total):
        space, _ = _canonical_graph(g, total, "spanning_trees", 10**6, range(1, total))
        rep = orbit_rep(g)
        for i in range(space.layer[-1]):
            st = space.ranking.state(i)
            assert space.ranking.state(int(space.rep[i])) == rep(st), st
            after = space.ranking.id(canonical_after_conversion(st.ignorant, st.source))
            assert space.conv[i] == space.rep[after], st


class TestRankArrays:
    """An attractor answers from one rank per state id; the `states` list and
    the `rank` dict are views of it, built on first use."""

    @pytest.mark.parametrize(
        "g, total",
        [(make_theta([3, 3, 3]), 3), (make_clique_star(7, 2), 3), (make_complete(5), 4)],
        ids=["theta(3,3,3)/3", "clique_star(7,2)/3", "complete(5)/4"],
    )
    def test_rank_of_equals_the_rank_dict(self, g, total):
        att = compute_attractor(g, total)
        n = g.node_count
        malformed = [
            CanonicalState((1, 0), (2,) * (total - 2)),  # a class out of order
            CanonicalState((), (0,) * (total - 1) + (n,)),  # a node out of range
            CanonicalState((0,) * (total - 1) + (-1,), (0,)),
            CanonicalState((), (0,) * (total + 1)),  # the wrong agent count
            CanonicalState((0,), (1,) * (total - 2)),
            CanonicalState(tuple(range(total)), ()),  # no source
        ]
        for s in att.states + malformed:
            assert att.rank_of(s) == att.rank.get(s), s
            assert att.rank_of(tuple(s)) == att.rank.get(tuple(s)), s  # plain tuples too
        assert all(att.rank_of(s) is None for s in malformed)
        assert len(att.rank) == int((att.ranks >= 0).sum()) > 0

    def test_placements_equal_the_per_state_loop(self):
        for g in atlas_graphs(5):
            for k_source in (1, 2):
                for k in range(g.node_count - k_source + 1):
                    att = compute_attractor(g, k + k_source)
                    initials = _initial_states(g, k, k_source)
                    ids = _placement_ids(att.ranking, k, k_source)
                    assert ids.tolist() == sorted(att.ranking.id(s) for s in initials)
                    wins = [s in att.rank for s in initials]
                    where = (g.edges, k, k_source)
                    assert solvable(g, k, "adversarial", k_source) == all(wins), where
                    assert solvable(g, k, "agents_choose", k_source) == any(wins), where

    def test_min_agents_builds_no_views(self, monkeypatch):
        monkeypatch.setattr(solver, "_ATTRACTOR_CACHE", {})
        min_agents(make_theta([3, 3, 3]), 2)
        assert solver._ATTRACTOR_CACHE
        for att in solver._ATTRACTOR_CACHE.values():
            assert "states" not in vars(att) and "rank" not in vars(att)

    def test_unknown_placement_is_refused_before_any_build(self):
        g = make_theta([3, 3])
        with pytest.raises(ValueError, match="unknown placement"):
            solvable(g, 2, "nonsense", budget_states=0)
        with pytest.raises(BudgetExceeded):
            solvable(g, 2, "adversarial", budget_states=0)

    @pytest.mark.parametrize(
        "k_max, placement", [(0, "adversarial"), (-1, "adversarial"), (2, "nonsense"), (0, "nonsense")]
    )
    def test_min_agents_refuses_what_it_cannot_scan(self, k_max, placement):
        with pytest.raises(ValueError):
            min_agents(make_theta([3, 3]), k_max, placement)


class TestSymmetry:
    @given(connected_graphs(max_nodes=5, max_edges=7), st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_ranks_are_automorphism_invariant(self, g, total):
        # The group comes from networkx, not from `automorphisms`. The
        # unreduced game is the premise of the reduction; the default game
        # must keep it.
        nxg = nx.Graph(list(g.edges))
        nxg.add_nodes_from(g.nodes)
        group = [tuple(m[v] for v in g.nodes) for m in GraphMatcher(nxg, nxg).isomorphisms_iter()]
        for mode in ("all_subsets", "spanning_trees"):
            rank = compute_attractor(g, total, mode).rank
            for s, r in rank.items():
                for sigma in group:
                    assert rank[image(sigma, s)] == r, (mode, s, sigma)

    def test_trivial_group_when_unreduced_or_over_the_cap(self):
        # complete(8) has 8! automorphisms, more than MAX_AUTOMORPHISMS = 7!,
        # and all_subsets is the unreduced reference: every state is its own
        # representative in both.
        for g, mode in ((make_complete(8), "spanning_trees"), (make_complete(4), "all_subsets")):
            space, _ = _canonical_graph(g, 3, mode, 10**6, range(1, 3))
            assert space.rep.tolist() == list(range(len(space.rep)))


class TestKnownOptima:
    def test_rings_need_two(self):
        assert min_agents(make_ring(5), 3) == 2
        assert min_agents(make_ring(6), 3) == 2

    def test_paths_need_one(self):
        for n in range(2, 9):
            assert min_agents(make_path(n), 2) == 1

    def test_cliques_need_n_minus_two(self):
        assert min_agents(make_complete(4), 3) == 2
        assert min_agents(make_complete(5), 4) == 3

    def test_theta_families(self):
        assert min_agents(make_theta([2, 2]), 3) == 2
        assert min_agents(make_theta([3, 3]), 3) == 2

    def test_lollipop(self):
        assert min_agents(make_lollipop(2, 2), 3) == 2

    def test_placement_modes_differ(self):
        # One agent wins the lollipop from a chosen start but not from all:
        # starting deep in the clique loses, starting on the path wins.
        g = make_lollipop(2, 2)
        assert solvable(g, 1, placement="agents_choose")
        assert not solvable(g, 1, placement="adversarial")

    def test_explicit_configuration_placement(self):
        g = make_path(5)
        assert solvable(g, 1, placement=Configuration((0,), (4,)))
        assert not solvable(make_ring(5), 1, placement=Configuration((2,), (0,)))

    def test_single_ring_agent_loses_even_adjacent(self):
        # The adversary cuts the connecting edge and keeps the surviving
        # distance at 3 or more forever, so adjacency does not help.
        g = make_ring(5)
        assert not solvable(g, 1, placement=Configuration((1,), (0,)))


class TestGameValue:
    def test_path_timing_values(self):
        for n in range(3, 11):
            for x in (1, 2):
                for y in (1, 2):
                    if x + y > n:
                        continue
                    ig = tuple(range(x))
                    src = tuple(range(n - y, n))
                    config = Configuration(ig, src)
                    g = make_path(n)
                    assert game_value(g, config, "first_new_source") == ceil(
                        (n - x - y + 1) / 2
                    )
                    assert game_value(g, config, "all_sources") == ceil((n - y) / 2)

    def test_tree_meeting_value(self):
        # Trees of diameter <= 8, one agent of each class at diameter endpoints.
        trees = [nx.path_graph(d + 1) for d in range(1, 9)]
        trees.append(nx.star_graph(4))
        trees.append(nx.balanced_tree(2, 2))
        for t in trees:
            n = t.number_of_nodes()
            g = Graph(n, frozenset(tuple(sorted(e)) for e in t.edges()))
            ecc = nx.eccentricity(t)
            d = max(ecc.values())
            u = min(v for v, e in ecc.items() if e == d)
            dist = nx.single_source_shortest_path_length(t, u)
            w = min(v for v, e in dist.items() if e == d)
            config = Configuration((u,), (w,))
            assert game_value(g, config, "all_sources") == ceil(d / 2)

    def test_adversary_win_is_infinite(self):
        g = make_complete(4)
        config = Configuration((1,), (0,))
        assert game_value(g, config) == float("inf")

    def test_no_source_is_infinite(self):
        config = Configuration((0,), ())
        for objective in ("all_sources", "first_new_source"):
            assert game_value(make_path(5), config, objective) == float("inf")


class TestExtractedPolicies:
    def test_solved_agents_beat_solved_adversary(self):
        g = make_theta([3, 3])
        att = compute_attractor(g, 3)
        adv = SolvedAdversaryPolicy(att)
        agents = SolvedAgentPolicy(att)
        state = initial_state([3, 6], [0])
        trace = simulate(g, state, agents, adv, max_rounds=100)
        assert trace.outcome.kind == "solved"

    def test_solved_adversary_holds_when_winning(self):
        # One agent on a ring from an adversarial start never converts.
        g = make_ring(5)
        adv = SolvedAdversaryPolicy(compute_attractor(g, 2))
        state = adv.place(g, 1, 1)
        trace = simulate(g, state, TowardSourcePolicy(), adv, max_rounds=60)
        assert trace.outcome.kind != "solved"


class TestModelChecker:
    def test_fixed_agents_requires_role(self):
        g = make_path(3)
        with pytest.raises(ValueError):
            model_check_policy(g, initial_state([0], [2]), object())

    def test_toward_source_wins_on_path(self):
        g = make_path(5)
        res = model_check_policy(g, initial_state([0], [4]), TowardSourcePolicy())
        assert res.winner == "agents"
        assert res.optimal_rounds == 2

    def test_passive_adversary_loses(self):
        g = make_ring(5)
        res = model_check_policy(g, initial_state([1], [0]), PassiveAdversary())
        assert res.winner == "agents"

    def test_counters_match_a_recount(self):
        # Against a non-local fixed agent policy, every expanded node calls
        # decide once per removal, and each call is one edge of the game graph.
        g, start = theta_start([4, 4])
        removals = connected_removals(g)
        calls = []

        class CountingTheta(ThetaBroadcastPolicy):
            local = False

            def decide(self, surviving, state, memory):
                calls.append((state, memory))
                return super().decide(surviving, state, memory)

        res = model_check_policy(g, start, CountingTheta(k=2))
        assert (res.winner, res.optimal_rounds, res.states_explored) == ("agents", 16, 427)
        expanded = set(calls)
        assert res.decide_calls == len(calls) == len(expanded) * len(removals) == 3003
        assert res.branches == len(calls)

        # A local policy is called once per distinct menu at each expanded
        # node, over the same nodes.
        calls.clear()
        CountingTheta.local = True
        res = model_check_policy(g, start, CountingTheta(k=2))
        assert (res.winner, res.optimal_rounds, res.states_explored) == ("agents", 16, 427)
        assert set(calls) == expanded
        menus = sum(
            len({menu_of(g.without(r), state.positions) for r in removals})
            for state, _ in expanded
        )
        assert res.decide_calls == len(calls) == menus == 1655
        assert res.branches == len(calls)

        # Against a fixed adversary, each expanded node calls decide once and
        # has one edge per joint move.
        calls.clear()

        class CountingPassive(PassiveAdversary):
            def decide(self, base, state, memory):
                calls.append(state)
                return super().decide(base, state, memory)

        g = make_ring(6)
        res = model_check_policy(g, initial_state([3], [0]), CountingPassive())
        assert res.decide_calls == len(calls) == len(set(calls)) > 1
        assert res.branches == sum(3 ** len(state.positions) for state in calls)

    def test_fixed_adversary_on_many_edges(self):
        # complete(7) has 21 edges, more than connected_removals enumerates;
        # a fixed adversary never needs that list.
        res = model_check_policy(make_complete(7), initial_state([1], [0]), PassiveAdversary())
        assert (res.winner, res.optimal_rounds) == ("agents", 1)

    def test_fixed_adversary_disconnecting_removal_is_rejected(self):
        # Every edge of a path is a bridge: the model check rejects the
        # removal exactly as `simulate` does.
        g = make_path(4)
        with pytest.raises(RuleViolation, match="disconnects"):
            model_check_policy(g, initial_state([0], [3]), _FixedRemoval([(1, 2)]))

    def test_passive_adversary_rounds_on_paths(self):
        # Every path edge is a bridge, so removing nothing is optimal and the
        # fixed-adversary round count equals the game value ceil((n-1)/2).
        for n in range(3, 10):
            g = make_path(n)
            res = model_check_policy(g, initial_state([0], [n - 1]), PassiveAdversary())
            assert res.optimal_rounds == game_value(g, Configuration((0,), (n - 1,)))
            assert res.optimal_rounds == ceil((n - 1) / 2)

    def test_every_reply_is_checked_when_its_targets_repeat(self):
        # The same targets are moved once per node, but checked per removal:
        # 0 -> 1 is legal over the first survivor (nothing removed) and
        # illegal once (0, 1) is removed.
        g = make_ring(4)
        assert connected_removals(g)[0] == frozenset()
        with pytest.raises(RuleViolation, match="not stay-or-adjacent"):
            model_check_policy(g, initial_state([0], [2]), _FixedTargets((1, 2)))

    def test_disconnecting_removal_after_a_connected_one_is_rejected(self):
        # A triangle with a pendant edge: removing (0, 1) keeps it connected,
        # removing the bridge (2, 3) of the same size does not. The connected
        # removal's survivor must not stand in for the later one.
        g = Graph(4, frozenset([(0, 1), (0, 2), (1, 2), (2, 3)]))
        start = initial_state([0], [3])
        adv = _RemovalByState({start: [(0, 1)]}, [(2, 3)])
        with pytest.raises(RuleViolation, match="disconnects"):
            model_check_policy(g, start, adv)

    @pytest.mark.parametrize(
        "g, adv, k_ignorant, want",
        [
            (make_theta([3, 3, 3]), ThetaBlocker(), 2, (1040, 15110, 1040)),
            (make_theta([4, 4, 4]), ThetaBlocker(), 2, (2246, 32918, 2246)),
            (make_complete(6), IsolationTreeAdversary(), 3, (128, 2048, 128)),
        ],
        ids=["theta_blocker-theta333", "theta_blocker-theta444", "isolation_tree-complete6"],
    )
    def test_fixed_adversary_result_is_pinned(self, g, adv, k_ignorant, want):
        # Nodes, branches and decide calls, as before successors were
        # deduplicated.
        res = model_check_policy(g, adv.place(g, k_ignorant, 1), adv)
        assert res == SolverResult("adversary", float("inf"), *want)

    def test_theta_blocker_loses_where_the_solver_says_adversary(self):
        # The blocker is not a lower-bound witness on every theta: the agents
        # cannot force broadcast from its own placement on theta(1,2,2) with
        # 2 ignorant agents, yet they beat the blocker, converting on the way.
        g = make_theta([1, 2, 2])
        adv = ThetaBlocker()
        start = adv.place(g, 2, 1)
        assert solvable(g, 2, start.config()) is False
        assert model_check_policy(g, start, adv) == SolverResult("agents", 5, 874, 13320, 754)

    def test_theta_strategy_result_is_pinned(self):
        # One call and one branch per connected removal on the non-local
        # path, per distinct menu on the local one.
        g, start = theta_start([6, 6])
        res = model_check_policy(g, start, non_local(ThetaBroadcastPolicy(k=2)))
        assert res == SolverResult("agents", 22, 805, 8295, 8295)
        res = model_check_policy(g, start, ThetaBroadcastPolicy(k=2))
        assert res == SolverResult("agents", 22, 805, 3477, 3477)


class _FixedTargets:
    """Agent policy that names the same targets over every survivor."""

    role = "agents"
    name = "fixed_targets"

    def __init__(self, targets):
        self.targets = targets

    def initial_memory(self, base, state):
        return None

    def decide(self, surviving, state, memory):
        return self.targets, None


class _RemovalByState:
    """Adversary that removes by_state[state], or `otherwise` elsewhere."""

    role = "adversary"
    name = "removal_by_state"

    def __init__(self, by_state, otherwise):
        self.by_state = {s: frozenset(r) for s, r in by_state.items()}
        self.otherwise = frozenset(otherwise)

    def initial_memory(self, base, state):
        return None

    def decide(self, base, state, memory):
        return self.by_state.get(state, self.otherwise), None


class TestStructuralProperties:
    def k_star(self, g, k_max=4):
        return min_agents(g, k_max)

    def test_spanning_tree_vs_all_subsets_equivalence_sample(self):
        # Spot-check here; the full <=5-node census runs in the acceptance suite.
        for g in (make_ring(5), make_theta([2, 2]), make_complete(4)):
            for k in (1, 2, 3):
                reduced = compute_attractor(g, k + 1).rank
                assert reduced == compute_attractor(g, k + 1, "all_subsets").rank

    def test_single_edge_monotonicity_sample(self):
        # Adding one edge never reduces the adversary's power.
        g = make_ring(5)
        ks = self.k_star(g)
        for extra in (((0, 2),), ((0, 2), (1, 3))):
            h = Graph(5, g.edges | frozenset(extra))
            assert self.k_star(h) >= ks

    def test_contraction_invariance_sample(self):
        g = make_lollipop(2, 3)
        contracted, _ = contract_cut_edges(g)
        assert self.k_star(g) == self.k_star(contracted)

    def test_budget_exceeded_raises(self):
        g = make_complete(5)
        with pytest.raises(BudgetExceeded):
            min_agents(g, 4, budget_states=10)

    def test_attractor_cache_hit_returns_same_object(self):
        g = make_ring(5)
        assert compute_attractor(g, 3) is compute_attractor(g, 3)

    def test_budget_exceeded_raises_after_cache_hit(self):
        g = make_complete(4)
        att = compute_attractor(g, 3)
        with pytest.raises(BudgetExceeded):
            compute_attractor(g, 3, budget_states=len(att.ranks) - 1)
        assert compute_attractor(g, 3, budget_states=len(att.ranks)) is att

    def test_agent_counts_out_of_range_are_rejected(self):
        g = make_theta([3, 3])
        with pytest.raises(ValueError):
            compute_attractor(g, 0)
        for k, k_source in ((-1, 1), (1, 0), (0, 0)):
            with pytest.raises(ValueError):
                solvable(g, k, k_source=k_source)
        assert solvable(g, 0)
        # A Configuration must hold exactly k ignorant agents and k_source sources.
        for k, k_source in ((3, 1), (0, 1), (1, 2)):
            with pytest.raises(ValueError, match=f"not k={k} and k_source={k_source}"):
                solvable(make_path(5), k, Configuration((0,), (4,)), k_source=k_source)

    def test_positions_off_the_graph_are_rejected(self):
        g = make_path(5)
        for config, bad in ((Configuration((9,), (0,)), 9), (Configuration((0,), (-1,)), -1)):
            with pytest.raises(ValueError, match=f"position {bad} is not a node"):
                solvable(g, 1, config)
            for objective in ("all_sources", "first_new_source"):
                with pytest.raises(ValueError, match=f"position {bad} is not a node"):
                    game_value(g, config, objective)
            # -1 must not index the last node, nor 9 raise IndexError.
            start = initial_state(config.ignorant, config.source)
            for fixed in (TowardSourcePolicy(), PassiveAdversary()):
                with pytest.raises(ValueError, match=f"position {bad} is not a node"):
                    model_check_policy(g, start, fixed)

    def test_one_configuration_type(self):
        assert Configuration is CanonicalState

    def test_unsorted_configuration_answers_as_sorted(self):
        # Configuration keeps the order it is given, so the entry points sort.
        g = make_path(6)
        unsorted, ordered = Configuration((3, 0), (5,)), Configuration((0, 3), (5,))
        for objective, want in (("all_sources", 3), ("first_new_source", 1)):
            assert game_value(g, unsorted, objective) == want
            assert game_value(g, ordered, objective) == want
        assert solvable(g, 2, unsorted) and solvable(g, 2, ordered)

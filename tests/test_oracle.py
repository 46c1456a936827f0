"""The solver against the naive minimax in `oracle.py`: game values on every
connected graph with at most 4 nodes, attractor ranks of every labelled
state on 5-node graphs, the moves `SolvedAgentPolicy` picks and the removals
`SolvedAdversaryPolicy` picks."""

from itertools import combinations

import networkx as nx
import pytest

from dynbroadcast.engine import AgentState, Configuration, initial_state, simulate
from dynbroadcast.graph import Graph, make_complete, make_grid, make_theta
from dynbroadcast.policies import (
    IsolationTreeAdversary,
    PassiveAdversary,
    ThetaBlocker,
    TowardSourcePolicy,
)
from dynbroadcast.solver import (
    INFINITE,
    SolvedAdversaryPolicy,
    SolvedAgentPolicy,
    canonical_after_conversion,
    compute_attractor,
    connected_removals,
    game_value,
    model_check_policy,
)

from test_policies import check_summary, non_local

from oracle import (
    fixed_adversary_value,
    ignorant_count,
    joint_moves,
    solved_agent_targets,
    values,
)


def connected_atlas(min_nodes: int, max_nodes: int):
    for ga in nx.graph_atlas_g()[1:]:
        n = ga.number_of_nodes()
        if min_nodes <= n <= max_nodes and nx.is_connected(ga):
            yield Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))


def cases():
    """(graph, k) for every connected atlas graph with at most 4 nodes and
    k = 1, 2 ignorant agents plus one source, all on distinct nodes."""
    for g in connected_atlas(1, 4):
        n = g.node_count
        for k in (1, 2):
            if k + 1 <= n:
                yield pytest.param(g, k, id=f"{n}n{sorted(g.edges)}-k{k}")


def all_sources(state) -> bool:
    return all(state[1])


@pytest.mark.parametrize("g, k", list(cases()))
def test_solver_matches_oracle(g, k):
    removals = connected_removals(g)
    broadcast = values(g, k + 1, all_sources, removals)
    first_new = values(g, k + 1, lambda s: ignorant_count(s) < k, removals)
    passive = values(g, k + 1, all_sources, [frozenset()])
    for nodes in combinations(g.nodes, k + 1):
        for src in nodes:
            ig = tuple(v for v in nodes if v != src)
            start = (ig + (src,), (False,) * k + (True,))
            config = Configuration(ig, (src,))
            assert game_value(g, config, "all_sources") == broadcast[start]
            assert game_value(g, config, "first_new_source") == first_new[start]
            checked = model_check_policy(g, initial_state(ig, [src]), PassiveAdversary())
            assert checked.optimal_rounds == passive[start]


def attractor_cases():
    """(graph, agents) for every connected 5-node atlas graph with 2 agents,
    and for those with at most 6 edges with 3 agents."""
    for g in connected_atlas(5, 5):
        yield pytest.param(g, 2, id=f"{sorted(g.edges)}-a2")
        if g.edge_count <= 6:
            yield pytest.param(g, 3, id=f"{sorted(g.edges)}-a3")


@pytest.mark.parametrize("g, agents", list(attractor_cases()))
def test_attractor_ranks_match_oracle(g, agents):
    # Every labelled state, co-located agents included, not only the starts.
    rank = compute_attractor(g, agents).rank
    for (positions, is_source), value in values(
        g, agents, all_sources, connected_removals(g)
    ).items():
        state = canonical_after_conversion(
            [p for p, s in zip(positions, is_source) if not s],
            [p for p, s in zip(positions, is_source) if s],
        )
        assert rank.get(state, INFINITE) == value, (positions, is_source)


def solved_agent_cases():
    """(graph, agents) for every connected atlas graph with at most 5 nodes
    and 2 or 3 agents."""
    for g in connected_atlas(1, 5):
        for agents in (2, 3):
            yield pytest.param(g, agents, id=f"{g.node_count}n{sorted(g.edges)}-a{agents}")


@pytest.mark.parametrize("g, agents", list(solved_agent_cases()))
def test_solved_agent_decide_matches_labelled_product(g, agents):
    # Every attractor state that play can hand to `decide` (converted, not
    # yet solved; co-located agents included), with every choice of which
    # labels are ignorant, against every connected survivor. `decide` reads a
    # survivor only through the neighbours of the occupied nodes, so survivors
    # that agree there are the same input and are checked once.
    att = compute_attractor(g, agents)
    policy = SolvedAgentPolicy(att)
    survivors = [g.without(r) for r in connected_removals(g)]
    for st in att.states:
        if not st.ignorant or not set(st.ignorant).isdisjoint(st.source):
            continue
        occupied = sorted(set(st.ignorant + st.source))
        menus = {}
        for s in survivors:
            adj = s.adjacency()
            menus.setdefault(tuple(adj[v] for v in occupied), s)
        for ig_labels in combinations(range(agents), len(st.ignorant)):
            src_labels = [a for a in range(agents) if a not in ig_labels]
            positions = [0] * agents
            for labels, nodes in ((ig_labels, st.ignorant), (src_labels, st.source)):
                for a, v in zip(labels, nodes):
                    positions[a] = v
            is_source = tuple(a not in ig_labels for a in range(agents))
            state = AgentState(tuple(positions), is_source)
            for s in menus.values():
                want = solved_agent_targets(att.rank, s, (state.positions, is_source))
                assert policy.decide(s, state, None) == (want, None), (st, ig_labels)


def played_states(att):
    """Every attractor state that play can hand to a policy's `decide`
    (converted, not yet solved; co-located agents included), as an
    `AgentState` with the ignorant agents first."""
    for st in att.states:
        if st.ignorant and set(st.ignorant).isdisjoint(st.source):
            positions = st.ignorant + st.source
            is_source = (False,) * len(st.ignorant) + (True,) * len(st.source)
            yield st, AgentState(positions, is_source)


def canonical_of(state) -> tuple:
    """An oracle state as (sorted ignorant nodes, sorted source nodes)."""
    positions, is_source = state
    return (
        tuple(sorted(p for p, s in zip(positions, is_source) if not s)),
        tuple(sorted(p for p, s in zip(positions, is_source) if s)),
    )


@pytest.mark.parametrize("g, agents", list(solved_agent_cases()))
def test_solved_adversary_removal_blocks_every_joint_move(g, agents):
    # A winning state gets no removal. A losing state gets a removal that
    # keeps the graph connected and after which every labelled joint move
    # lands outside the attractor.
    att = compute_attractor(g, agents)
    policy = SolvedAdversaryPolicy(att)
    for st, state in played_states(att):
        removed, _ = policy.decide(g, state, None)
        if st in att.rank:
            assert removed == frozenset(), st
            continue
        assert removed <= g.edges and g.is_connected(removed), (st, removed)
        for nxt in joint_moves(g, removed, (state.positions, state.is_source)):
            assert canonical_of(nxt) not in att.rank, (st, removed, nxt)


def distinct_starts(g, k_ignorant):
    """Every placement of k_ignorant ignorant agents and one source on
    distinct nodes."""
    for nodes in combinations(g.nodes, k_ignorant + 1):
        for src in nodes:
            yield tuple(v for v in nodes if v != src), (src,)


def test_solved_adversary_wins_every_losing_start():
    # Model-checked against every joint move, not only the agents' best.
    checked = 0
    for g in connected_atlas(1, 5):
        for k in (1, 2):
            att = compute_attractor(g, k + 1)
            policy = SolvedAdversaryPolicy(att)
            for ig, src in distinct_starts(g, k):
                if (ig, src) in att.rank:
                    continue
                res = model_check_policy(g, initial_state(ig, src), policy)
                assert res.winner == "adversary", (sorted(g.edges), ig, src)
                checked += 1
    assert checked == 258


def test_solved_adversary_on_a_grid_beyond_global_tree_enumeration():
    # grid(4, 5) has 31 edges and 20 nodes: C(31, 19) edge subsets are too
    # many to enumerate its spanning trees, but each state's minimal menus
    # are few.
    g = make_grid(4, 5)
    adv = SolvedAdversaryPolicy(compute_attractor(g, 2))
    start = adv.place(g, 1, 1)
    trace = simulate(g, start, TowardSourcePolicy(), adv, max_rounds=60)
    assert trace.outcome.kind != "solved"
    assert model_check_policy(g, start, adv).winner == "adversary"


def solved_agent_start_cases():
    """(graph, ignorant agents) for every connected atlas graph with at most
    5 nodes and one ignorant agent, and for those with at most 6 edges with
    two, each with one source."""
    for g in connected_atlas(1, 5):
        for k in (1, 2):
            if k + 1 <= g.node_count and (k == 1 or g.edge_count <= 6):
                yield pytest.param(g, k, id=f"{g.node_count}n{sorted(g.edges)}-k{k}")


@pytest.mark.parametrize("g, k", list(solved_agent_start_cases()))
def test_solved_agent_model_check_equals_attractor_rank(g, k):
    # Against every connected removal, the extracted policy wins from every
    # winning start in exactly the attractor's minimax round count, and asked
    # once per distinct menu it gives the answers of its non-local twin.
    att = compute_attractor(g, k + 1)
    policy = SolvedAgentPolicy(att)
    twin = non_local(policy)
    for ig, src in distinct_starts(g, k):
        rank = att.rank.get((ig, src))
        if rank is not None:
            res = model_check_policy(g, initial_state(ig, src), policy)
            assert res.optimal_rounds == rank, (ig, src)
            ref = model_check_policy(g, initial_state(ig, src), twin)
            assert check_summary(res) == check_summary(ref), (ig, src)


def fixed_adversary_cases():
    """(graph, adversary, start): the passive adversary on every connected
    atlas graph with at most 5 nodes from every distinct-node start with one
    ignorant agent and one source; `ThetaBlocker` and `IsolationTreeAdversary`
    from their own placements."""
    for g in connected_atlas(1, 5):
        for ig, src in distinct_starts(g, 1):
            yield g, PassiveAdversary(), initial_state(ig, src)
    for lengths in ([2, 2], [1, 2, 2]):
        g, adv = make_theta(lengths), ThetaBlocker()
        yield g, adv, adv.place(g, len(lengths) - 1, 1)
    for n in (4, 5):
        g, adv = make_complete(n), IsolationTreeAdversary()
        yield g, adv, adv.place(g, n - 3, 1)


def test_fixed_adversary_model_check_matches_oracle():
    winners = []
    for g, adv, start in fixed_adversary_cases():
        want = fixed_adversary_value(g, (start.positions, start.is_source), adv)
        res = model_check_policy(g, start, adv)
        assert (res.optimal_rounds, res.winner) == (
            want, "adversary" if want == INFINITE else "agents"
        ), (sorted(g.edges), adv.name, start)
        winners.append(res.winner)
    assert (len(winners), winners.count("adversary")) == (510, 3)

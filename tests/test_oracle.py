"""The solver against the naive minimax in `oracle.py`: game values on every
connected graph with at most 4 nodes, attractor ranks of every labelled
state on 5-node graphs, and the moves `SolvedAgentPolicy` picks."""

from itertools import combinations

import networkx as nx
import pytest

from dynbroadcast.engine import AgentState, Configuration, initial_state
from dynbroadcast.graph import Graph
from dynbroadcast.policies import PassiveAdversary
from dynbroadcast.solver import (
    INFINITE,
    SolvedAgentPolicy,
    canonical_after_conversion,
    compute_attractor,
    connected_removals,
    game_value,
    model_check_policy,
)

from oracle import ignorant_count, solved_agent_targets, values


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

"""The solver against the naive minimax in `oracle.py`: game values on every
connected graph with at most 4 nodes, and attractor ranks of every labelled
state on 5-node graphs."""

from itertools import combinations

import networkx as nx
import pytest

from dynbroadcast.engine import Configuration, initial_state
from dynbroadcast.graph import Graph
from dynbroadcast.policies import PassiveAdversary
from dynbroadcast.solver import (
    INFINITE,
    canonical_after_conversion,
    compute_attractor,
    connected_removals,
    game_value,
    model_check_policy,
)

from oracle import ignorant_count, values


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

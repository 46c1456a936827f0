"""The solver against the naive minimax in `oracle.py`, on every connected
graph with at most 4 nodes."""

from itertools import combinations

import networkx as nx
import pytest

from dynbroadcast.engine import Configuration, initial_state
from dynbroadcast.graph import Graph
from dynbroadcast.policies import PassiveAdversary
from dynbroadcast.solver import connected_removals, game_value, model_check_policy

from oracle import ignorant_count, values


def cases():
    """(graph, k) for every connected atlas graph with at most 4 nodes and
    k = 1, 2 ignorant agents plus one source, all on distinct nodes."""
    for ga in nx.graph_atlas_g()[1:]:
        n = ga.number_of_nodes()
        if n <= 4 and nx.is_connected(ga):
            g = Graph(n, frozenset(tuple(sorted(e)) for e in ga.edges()))
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

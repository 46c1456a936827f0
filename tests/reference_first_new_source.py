"""A reference first-new-source computation: the layer-restricted build that
`solver.game_value` made before both objectives came from one build, kept to
check that the second fixpoint of that build gives the same values."""

from array import array
from functools import lru_cache

import numpy as np

from dynbroadcast.engine import Configuration
from dynbroadcast.graph import Graph, automorphisms
from dynbroadcast.solver import (
    INFINITE,
    _GameGraph,
    _minimal_menus,
    _Ranking,
    _solve,
    _StateSpace,
    canonical_after_conversion,
)


def _layer_graph(g: Graph, total: int, n_ig: int) -> tuple[_StateSpace, _GameGraph]:
    """The canonical states with `total` agents, and the game graph with the
    minimal-menu branches at every orbit representative with n_ig ignorant
    agents only."""
    space = _StateSpace(_Ranking(g.node_count, total, 10**6), automorphisms(g))
    by_occupied, by_class = {}, {}
    ig_lists, src_lists, counts = array("i"), array("i"), array("i")
    ids = np.arange(space.layer[n_ig], space.layer[n_ig + 1], dtype=np.int32)
    reps = ids[space.rep[ids] == ids]
    for st in map(space.ranking.state, reps.tolist()):
        occupied = frozenset(st.ignorant + st.source)
        got = by_occupied.get(occupied)
        if got is None:
            occ = tuple(sorted(occupied))
            menus = _minimal_menus(g, occupied)[1]
            got = by_occupied[occupied] = (occ, space.menu_codes(occ, menus))
        occ, codes = got
        for ms, out in ((st.ignorant, ig_lists), (st.source, src_lists)):
            tids = by_class.get((ms, occupied))
            if tids is None:
                tids = by_class[(ms, occupied)] = space.class_lists(ms, occ, codes)
            out.extend(tids)
        counts.append(len(codes) // len(occ))
    owner = np.repeat(reps, np.frombuffer(counts, dtype=np.int32))
    n_lists = len(space._list_sizes) or 1
    pairs = np.frombuffer(ig_lists, dtype=np.int32).astype(np.int64) * n_lists
    pairs += np.frombuffer(src_lists, dtype=np.int32)
    order = np.argsort(pairs, kind="stable")
    first = np.diff(pairs[order], prepend=-1) != 0
    set_of = np.empty(len(pairs), dtype=np.int32)
    set_of[order] = np.cumsum(first) - 1
    keys = pairs[order][first]
    values, offsets = space.successor_sets(keys // n_lists, keys % n_lists)
    return space, _GameGraph(owner, set_of, values, offsets)


@lru_cache(maxsize=None)
def _layer_ranks(g: Graph, total: int, n_ig: int) -> tuple[_Ranking, np.ndarray]:
    """The ranking, and the rank of every state id's representative in the
    game whose goal is fewer than n_ig ignorant agents."""
    space, graph = _layer_graph(g, total, n_ig)
    rank = _solve(np.arange(space.layer[-1]) < space.layer[n_ig], graph)
    return space.ranking, rank[space.rep]


def reference_first_new_source(g: Graph, state: Configuration) -> int | float:
    """Minimax rounds until an ignorant agent of `state` converts; inf if the
    adversary prevents it. Play stays in the layer of `state`'s ignorant
    count until the goal, so only that layer is built and solved."""
    state = canonical_after_conversion(state.ignorant, state.source)
    if not state.ignorant:
        return 0
    if not state.source:
        return INFINITE
    total = len(state.ignorant) + len(state.source)
    ranking, rank = _layer_ranks(g, total, len(state.ignorant))
    r = int(rank[ranking.id(state)])
    return INFINITE if r < 0 else r

"""Exhaustive game solving on small instances.

Every exact answer here comes from one game graph and one fixpoint. A node is
a position of the game; its branches are the adversary's choices there, and
each branch offers a set of successor nodes the agents choose between. The
graph is stored as flat arrays (`_GameGraph`): the owner node and the
successor-set id of every branch, and the int32 node ids of every set,
delimited by offsets. Many branches share a set, and each set is stored once.

`_solve(goal, graph)` computes the attractor of the goal nodes in a
reachability game (Grädel, Thomas & Wilke, *Automata, Logics, and Infinite
Games*, ch. 2) in synchronous numpy waves. Invariant: the rank of a node is
its minimax round count,

    rank = 0                                              on goal nodes,
    rank = max over branches of (1 + min over successors of rank)  otherwise,

and -1 where the agents cannot force the goal. Wave w decides exactly the
nodes of rank w, so no rank is ever revised.

Three questions are asked of such graphs:

- `compute_attractor`: the nodes are canonical states (positions up to
  permutation of same-class agents), the branches are adversary removals, and
  the goal is "no ignorant agent";
- `game_value(..., "first_new_source")`: the same graph, with the goal "fewer
  ignorant agents than at the start". Both objectives come from one build:
  every build runs a second fixpoint on the same graph, in which a
  successor set that holds a state with fewer ignorant agents than its
  owner is won from the start. That ranks every state at once.
  Conversion never raises the ignorant count, so from a state with i
  ignorant agents play stays among states with i ignorant agents until the
  goal, and the sets of their branches hold only such states and lower
  ones. All owners of one set have the same ignorant count, since the
  set's ignorant target list has that many agents. So a state's rank in
  the second fixpoint is its rank in the game whose goal is fewer than i
  ignorant agents;
- `model_check_policy`: the nodes are reached from the start. A fixed agent
  policy gives one single-successor branch per call of its `decide`; a
  fixed adversary gives one branch holding every move of the agents, and
  its removal must leave the graph connected, as in `simulate`. Nodes are
  flat (positions, is_source, memory) tuples, except against an adversary
  that declares `anonymous = True` (see `policies`): it reads a state only
  through its configuration, so the nodes are configurations with memory,
  (sorted ignorant positions, sorted sources, memory), and the successors
  of a node are one per distinct pair of class target multisets
  (`_class_moves`), after canonical conversion. Two labelled nodes with
  equal configurations and memory get equal removals, and their joint moves
  reach the same configurations, so they have equal ranks: the quotient is
  exact, as with symmetry below, and it is counter abstraction (Pnueli, Xu &
  Zuck, "Liveness with (0,1,ω)-counter abstraction", CAV 2002). Any other
  adversary is checked on labelled nodes. A fixed-agent check's time is set
  by the calls of its policy's `decide`, not by the fixpoint. A policy that
  declares `local = True` reads the
  survivor only through its menu at the occupied nodes (see below and
  `policies`): equal menus give equal replies, hence equal successors, so it
  is called once per distinct menu, and the adversary's set of distinct
  successors at every node is unchanged. The removals are grouped by menu once
  per distinct occupied set. Any other policy is called once per removal.
  Every reply is checked for legality over the survivor it was given. Against
  a fixed adversary, the surviving adjacency of each connected removal is
  built once per check; a removal that disconnects the graph is never stored,
  so it always raises. An agent's options are its node and its surviving
  neighbours, and an ignorant agent converts only on a node a source moves to.
  So on labelled nodes, when no ignorant agent's options meet any source's
  options, no joint move converts anyone: every successor keeps the classes
  `state.is_source`, and the conversion rule is not run per move. Otherwise
  each joint move goes through `_convert`. Either way the successors and
  their order are the same.
  Against a fixed agent policy the removals are always every connected
  removal (`connected_removals`): the spanning-tree reduction below is
  unsound against a fixed agent policy, which may react to the exact
  surviving graph. A connected survivor keeps at least n - 1 of the m
  edges, so only subsets of at most m - n + 1 edges are tested, and the
  enumeration raises `BudgetExceeded` when their number, the sum over
  r <= m - n + 1 of C(m, r), exceeds 2^20.

Adversary branching. The agents at a state see a surviving edge set only
through its menu: the surviving edges with an endpoint in the occupied set O.
A smaller menu shrinks every agent's options, so it never helps the agents,
and only the inclusion-minimal menus of connected survivors need to be
branches. In the default mode, `spanning_trees`, the branches of a state are
exactly those, built from O alone and memoised by O:

- keep every edge with no endpoint in O, and contract those edges
  (union-find); each node of O stays a class of its own;
- every spanning tree of the contracted multigraph, whose edges are the
  O-incident edges, gives one branch: the kept edges plus the tree's edges.

Why these are the minimal menus: a menu M is realised by a connected survivor
iff the kept edges plus M connect the graph, i.e. iff M connects the
contracted multigraph, so every connected survivor's menu contains a spanning
tree of it. Two distinct trees have equal size, so their menus are
incomparable. Every minimal menu is also the menu of a global spanning tree,
so ranks equal those of branching over every spanning tree of the graph.
`SolvedAdversaryPolicy` plays these same branches: at a losing state, the
first survivor of `_minimal_menu_survivors` after which every successor loses.
`compute_attractor(g, total_agents, "all_subsets")` branches over every
connected removal, unreduced; it is the reference the reduction is tested
against, and no other entry point selects it.

Storage of the canonical game graph (`_StateSpace`):

- Ranked ids (`_Ranking`). A multiset of m nodes is ranked by its position in
  `combinations_with_replacement(range(n), m)`. Layer i holds the states
  with i ignorant agents, and a state's id is
  layer[i] + rank(ignorant) * width[total - i] + rank(source), where
  width[m] is the number of m-multisets. One int32 array `conv` maps the id
  of every (ignorant, source) pair to the representative (below) of its
  state after conversion.
- Tables in numpy blocks. Each m-multiset is a sorted row whose base-n code
  grows with its rank, so any row is ranked by sorting it (a compare-exchange
  network on its columns) and a `searchsorted` of its code. `rep` (below)
  takes the minimum over a block of automorphisms at a time, one reduction
  per layer. `conv` is built per layer: a boolean node-presence matrix finds
  the pairs that share a node, and each such pair's converted rows are
  ranked in the same way.
- Menu codes. An agent at v over a surviving edge set stays or crosses a
  surviving edge at v, so the target list of a class at multiset M depends
  only on M and on the surviving neighbourhoods of M's nodes. Each menu of
  an occupied set O holds every surviving edge at O, so it gives each node
  of O its surviving neighbourhood, interned as an int code (equal codes,
  equal neighbourhoods). The codes of O's menus are one flat int array per
  O, menus x nodes of O. A class's list is keyed by M and the codes of M's
  distinct nodes: equal keys give every agent the same options, hence equal
  target lists. Lists are resolved once per (M, O), for all of O's menus
  together, and once per distinct key. `all_subsets` feeds every connected
  survivor through the same codes.
- Interned sets. Over one surviving edge set, a class of agents at multiset
  M can move to a list of distinct target multisets, stored as their sorted
  ranks and interned by content. A branch's successor set is fixed by its
  pair of target lists (the ignorant class's and the source class's), so
  branches with equal pairs share one stored set.
- The kernel. The set of lists (A, C) with i ignorant agents holds the
  distinct conv[layer[i] + a * width[total - i] + c] over a in A and c in C.
  It is built in numpy, over chunks of about CHUNK_ENTRIES product entries.
  Every entry is deduplicated: distinct (a, c) can reach one representative,
  through conversion or as two states of one orbit.

Symmetry (Emerson & Sistla, "Symmetry and model checking", 1996; Ip & Dill,
"Better verification through symmetry", 1996). An automorphism sigma of g
maps edges to edges; it acts on a state by relabelling every position.
Ranks are invariant: rank(sigma(s)) = rank(s).

- sigma maps a surviving edge set S to sigma(S), which is connected iff S
  is, so it permutes the connected survivors. It maps the occupied set O to
  sigma(O) and the menu of S at O to the menu of sigma(S) at sigma(O), and it
  preserves inclusion, so it maps the minimal menus of s onto those of
  sigma(s).
- An agent at v over S stays or crosses an edge (v, w) of S; its image stays
  at sigma(v) or crosses (sigma(v), sigma(w)) of sigma(S). So the joint moves
  from s over S map one to one onto those from sigma(s) over sigma(S).
- Conversion asks only which nodes hold a source, so it commutes with sigma,
  and sigma keeps the number of ignorant agents, so it fixes the goal.

So sigma is an automorphism of the game graph, and by induction on the wave,
s is decided at wave w iff sigma(s) is.

`_StateSpace` keeps rep[id], the least id of sigma(state) over the identity
and every sigma in the group G = `automorphisms(g)`. G is a group, so this
is the least id in the state's orbit: rep is constant on orbits and fixes
one state per orbit, its representative. Branches are built only at
representatives, and every successor x is stored as rep(x). The quotient
fixpoint gives each representative t its full rank. By induction on w: a
goal t has rank 0 in both. Otherwise t has the same branches in both games,
and it is decided by wave w in the quotient iff every branch has a successor
x with rep(x) decided before wave w, iff (induction) rank(rep(x)) < w, iff
rank(x) < w, since rep(x) lies in the orbit of x. That is the full game's
condition. Every other state reads its rank at rep(state). Any subset of
Aut(g) keeps rank(rep(x)) = rank(x); closure is what makes rep fix its own
values, so that every rep(x) has branches. When Aut(g) has more than
`MAX_AUTOMORPHISMS` elements, `automorphisms` returns none, and the group is
the identity alone; so it is for `all_subsets`, the unreduced reference.

Answers. An `Attractor` keeps the `_Ranking` of its states and one int32
rank per state id, -1 where the adversary wins, and none of the build's
tables. Every answer about a state is read through its id: `rank_of` and
`wins` look one state up, and `solvable` ranks every distinct-node placement
at once in numpy. The `states` list and the `rank` dict are views with the
same contents and order, built on first use; the extracted policies read
`rank`, one lookup per pair of target multisets.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Hashable, Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .engine import (
    AgentState,
    Configuration,
    _check_moves,
    _check_positions,
    _convert,
    _surviving_graph,
    initial_state,
)
from .graph import Edge, Graph, automorphisms, is_connected

DEFAULT_BUDGET_STATES = 300_000

Mode = Literal["spanning_trees", "all_subsets"]
Placement = Literal["adversarial", "agents_choose"]

INFINITE = float("inf")


class BudgetExceeded(RuntimeError):
    """State space outgrew the configured budget; result is undecided, never guessed."""


CanonicalState = Configuration  # a canonical state is a sorted, converted Configuration


def canonical_after_conversion(ignorant: Iterable[int], source: Iterable[int]) -> Configuration:
    """The canonical state: convert every ignorant agent on a source's node,
    then sort both classes."""
    src = tuple(source)
    src_set = set(src)
    stay = [p for p in ignorant if p not in src_set]
    conv = [p for p in ignorant if p in src_set]
    return Configuration(tuple(sorted(stay)), tuple(sorted(list(src) + conv)))


# -- adversary branching ---------------------------------------------------------


def spanning_trees(g: Graph) -> list[frozenset[Edge]]:
    """All spanning trees, as edge sets, in deterministic order."""
    n, edges = g.node_count, sorted(g.edges)
    if comb(len(edges), n - 1) > 2_000_000:
        raise BudgetExceeded("too many edge subsets for spanning tree enumeration")
    trees = []
    for combo in combinations(edges, n - 1):
        if is_connected(n, combo):
            trees.append(frozenset(combo))
    return trees


REMOVAL_SUBSETS_BUDGET = 1 << 20


def connected_removals(g: Graph) -> list[frozenset[Edge]]:
    """Every edge subset whose removal leaves the graph connected, by size,
    then in `combinations` order.

    A connected survivor keeps at least n - 1 edges, so only subsets of at most
    m - n + 1 edges are tested.
    """
    edges = sorted(g.edges)
    most = len(edges) - g.node_count + 1
    tested = sum(comb(len(edges), r) for r in range(most + 1))
    if tested > REMOVAL_SUBSETS_BUDGET:
        raise BudgetExceeded(
            f"too many edge subsets for removal enumeration ({tested} > {REMOVAL_SUBSETS_BUDGET})"
        )
    out = []
    for r in range(most + 1):
        for combo in combinations(edges, r):
            removed = frozenset(combo)
            if g.is_connected(removed):
                out.append(removed)
    return out


def _minimal_menus(
    g: Graph, occupied: frozenset[int]
) -> tuple[frozenset[Edge], list[tuple[Edge, ...]]]:
    """The edges with no endpoint in `occupied`, and every inclusion-minimal
    menu of the occupied nodes, as a tuple of edges.

    A menu is one spanning tree of the multigraph left by contracting the
    kept edges, each tree edge read as one of the parallel occupied-incident
    edges it stands for (see the module docstring).
    """
    kept = frozenset(e for e in g.edges if occupied.isdisjoint(e))
    parent = list(g.nodes)

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in kept:
        parent[find(u)] = find(v)
    label = {r: i for i, r in enumerate(sorted({find(v) for v in g.nodes}))}
    # Quotient edge -> the parallel occupied-incident edges it stands for. An
    # occupied node is alone in its class, so no quotient edge is a loop.
    parallel: dict[Edge, list[Edge]] = {}
    for u, v in sorted(g.edges - kept):
        a, b = sorted((label[find(u)], label[find(v)]))
        parallel.setdefault((a, b), []).append((u, v))
    quotient = Graph(len(label), frozenset(parallel))
    return kept, [
        choice
        for tree in spanning_trees(quotient)
        for choice in product(*(parallel[q] for q in sorted(tree)))
    ]


def _minimal_menu_survivors(g: Graph, occupied: frozenset[int]) -> list[frozenset[Edge]]:
    """One surviving edge set per inclusion-minimal menu of the occupied
    nodes: the edges with no endpoint in `occupied`, plus the menu."""
    kept, menus = _minimal_menus(g, occupied)
    return [kept.union(menu) for menu in menus]


def _class_moves(positions: Sequence[int], adj) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each sorted target multiset of a class of agents at `positions`, every
    agent staying or crossing one edge of a survivor with adjacency `adj`,
    mapped to the least labelled target tuple that reaches it. `product` over
    sorted options runs in lexicographic order, so the first tuple seen for a
    multiset is the least."""
    moves: dict[tuple[int, ...], tuple[int, ...]] = {}
    for targets in product(*(sorted((p,) + adj[p]) for p in positions)):
        moves.setdefault(tuple(sorted(targets)), targets)
    return moves


# -- the game graph and its one fixpoint -----------------------------------------

CHUNK_ENTRIES = 8192  # product entries per kernel pass; larger chunks raise peak RSS
REP_BLOCK_ROWS = 1 << 14  # multisets ranked per pass of _representatives


class _GameGraph(NamedTuple):
    """Branch b belongs to node owner[b] and offers successor set set_of[b];
    set s holds the node ids values[offsets[s]:offsets[s + 1]].

    Every set needs at least one successor (the agents may always stay put);
    `_solve` reads an empty set as its neighbour's first successor.
    """

    owner: np.ndarray  # int32, per branch
    set_of: np.ndarray  # per branch
    values: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more than there are sets


def _solve(
    goal: np.ndarray, graph: _GameGraph, won_sets: np.ndarray | None = None
) -> np.ndarray:
    """Minimax rank of every node (see the module docstring); -1 if lost.

    A node that is not a goal and has no branch is lost. A set marked in
    `won_sets` counts as won from the start, as if it held a goal node.
    """
    owner, starts = graph.owner, graph.offsets[:-1]
    win = goal.copy()
    rank = np.where(win, 0, -1).astype(np.int32)
    undecided = np.zeros(len(goal), dtype=bool)
    undecided[owner] = True
    undecided &= ~win
    wave = 0
    while undecided.any():
        wave += 1
        # A branch blocks its owner this wave if no successor in its set is won yet.
        set_won = np.logical_or.reduceat(win[graph.values], starts)
        if won_sets is not None:
            set_won |= won_sets
        newly = undecided.copy()
        newly[owner[~set_won[graph.set_of]]] = False
        if not newly.any():
            break
        win |= newly
        rank[newly] = wave
        undecided &= ~newly
    return rank


# -- the canonical game graph -------------------------------------------------------


@dataclass(eq=False)  # hashed by identity: solver-backed policies carry it in memory
class Attractor:
    graph: Graph
    total_agents: int
    ranking: _Ranking  # state <-> id
    ranks: np.ndarray  # int32 per state id: minimax rounds to goal; -1 where the adversary wins
    # Counts of the game graph over orbit representatives (module docstring):
    branches: int  # (representative, adversary branch) pairs
    successor_entries: int  # summed over branches: successor representatives per branch
    distinct_sets: int  # successor sets stored, one per distinct pair of target lists
    # int32 per state id: minimax rounds until some ignorant agent converts;
    # -1 where the adversary prevents it.
    first_new_source: np.ndarray

    def rank_of(self, state: Configuration) -> int | None:
        """The rank of `state`, or None if the adversary wins there or it is
        not a state of this game."""
        i = self.ranking.id(state)
        if i is None:
            return None
        r = int(self.ranks[i])
        return r if r >= 0 else None

    def wins(self, state: Configuration) -> bool:
        return self.rank_of(state) is not None

    @cached_property
    def states(self) -> list[Configuration]:
        """Every state, in id order; built on first use."""
        return [st for n_ig in range(self.total_agents) for st in self.ranking.states(n_ig)]

    @cached_property
    def rank(self) -> dict[Configuration, int]:
        """Winning state -> rank, in id order; built on first use."""
        won = np.flatnonzero(self.ranks >= 0)
        return dict(zip(map(self.ranking.state, won.tolist()), self.ranks[won].tolist()))


_ATTRACTOR_CACHE: dict[tuple[Graph, int, Mode], Attractor] = {}


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """arange(s, s + n) for every pair (s, n), concatenated."""
    firsts = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - firsts, lengths)


class _Ranking:
    """The ranked ids of the canonical states with `total` agents on n nodes
    (see the module docstring): the one map between states and ids, held by
    the state space that builds a game graph and by the attractor solved on
    it. Raises BudgetExceeded, before any table is built, when there are
    more than `budget_states` states."""

    def __init__(self, n: int, total: int, budget_states: int):
        self.width = [comb(n + m - 1, m) for m in range(total + 1)]
        self.layer = [0]  # layer[i]: id of the first state with i ignorant agents
        for n_ig in range(total):  # at least one source
            self.layer.append(self.layer[-1] + self.width[n_ig] * self.width[total - n_ig])
        if self.layer[-1] > budget_states:
            raise BudgetExceeded(
                f"undecided: budget ({self.layer[-1]} states > {budget_states})"
            )
        self.n, self.total = n, total
        self.multisets = [
            list(combinations_with_replacement(range(n), m)) for m in range(total + 1)
        ]
        # index[m][ms]: the rank of the m-multiset ms, a sorted tuple.
        self.index = [{ms: r for r, ms in enumerate(mss)} for mss in self.multisets]

    def rows(self, m: int) -> np.ndarray:
        """The m-multisets as sorted rows, in rank order."""
        mss = self.multisets[m]
        return np.array(mss, dtype=np.int64).reshape(len(mss), m)

    def states(self, n_ig: int) -> Iterator[Configuration]:
        """The states with n_ig ignorant agents, in id order."""
        for ig in self.multisets[n_ig]:
            for src in self.multisets[self.total - n_ig]:
                yield Configuration(ig, src)

    def id(self, st: tuple[tuple[int, ...], tuple[int, ...]]) -> int | None:
        """The id of the state (ignorant, source), or None if it is not one:
        a class out of order, a node out of range, the wrong agent count, or
        no source."""
        ig, src = st
        n_ig = len(ig)
        if n_ig >= self.total or n_ig + len(src) != self.total:
            return None
        a, c = self.index[n_ig].get(ig), self.index[len(src)].get(src)
        if a is None or c is None:
            return None
        return self.layer[n_ig] + a * self.width[len(src)] + c

    def state(self, i: int) -> Configuration:
        """The state with id i."""
        n_ig = bisect_right(self.layer, i) - 1
        ig, src = divmod(i - self.layer[n_ig], self.width[self.total - n_ig])
        return Configuration(self.multisets[n_ig][ig], self.multisets[self.total - n_ig][src])


class _StateSpace:
    """The canonical states that `ranking` ranks, and the successor sets of
    their branches (see the module docstring)."""

    def __init__(self, ranking: _Ranking, group: Iterable[tuple[int, ...]]):
        self.ranking = ranking
        n, total = self.n, self.total = ranking.n, ranking.total
        self.width, self.layer = self.ranking.width, self.ranking.layer
        self.multisets = self.ranking.multisets
        # Each m-multiset as a sorted row, and its base-n code, which grows
        # with its rank, so that sorted rows are ranked by searchsorted.
        self._rows = [self.ranking.rows(m) for m in range(total + 1)]
        self._codes = [
            rows @ n ** np.arange(m - 1, -1, -1, dtype=np.int64)
            for m, rows in enumerate(self._rows)
        ]
        self.rep = self._representatives(group)
        # conv[id of an (ignorant, source) pair] = rep of its state after conversion.
        self.conv = self.rep[self._conversions()]
        # Interned surviving neighbourhoods: neighbour bit mask -> code, and
        # the sorted neighbours of each code.
        self._nbr_codes: dict[int, int] = {}
        self._nbrs: list[tuple[int, ...]] = []
        # Target-list ids of a class, by its multiset, then by the codes of its
        # distinct nodes, so menus that agree around the class share one.
        self._target_ids: dict[tuple[int, ...], dict] = {}
        self._power = [(total + 1) ** v for v in range(n)]
        self._code_ranks: dict[int, dict[int, int]] = {}
        # Interned target lists: the sorted ranks of the distinct multisets a
        # class can move to, stored flat, with the class size of each list.
        self._lists: dict[tuple[int, tuple[int, ...]], int] = {}
        self._list_values = array("i")
        self._list_starts = array("q", [0])
        self._list_sizes = array("i")

    def _ranks(self, m: int, rows: np.ndarray) -> np.ndarray:
        """The ranks of the m-multisets held, in any order, by the last axis of
        `rows`."""
        # Sorted by an odd-even transposition network on the columns (m rounds
        # of compare-exchange), which stands in for np.sort, as in the kernel.
        cols = [rows[..., j] for j in range(m)]
        for r in range(m):
            for j in range(r % 2, m - 1, 2):
                lo, hi = cols[j], cols[j + 1]
                cols[j], cols[j + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
        code = np.zeros(rows.shape[:-1], dtype=np.int64)
        for col in cols:
            code = code * self.n + col
        return np.searchsorted(self._codes[m], code)

    def _representatives(self, group: Iterable[tuple[int, ...]]) -> np.ndarray:
        """rep[id] = the least id of sigma(state) over the identity and every
        sigma in `group`: a running minimum, so that peak memory stays
        O(states). The ranks of the image multisets are found for a block of
        sigmas at a time, REP_BLOCK_ROWS rows per multiset size, and each
        layer takes the minimum over as many of them at once as fill
        REP_BLOCK_ROWS image ids."""
        perms = np.array(group, dtype=np.int64).reshape(-1, self.n)
        step = max(1, REP_BLOCK_ROWS // max(map(len, self._rows)))
        rep = np.arange(self.layer[-1], dtype=np.int32)
        for lo in range(0, len(perms), step):
            # ranks[m][j, r]: rank of the image of m-multiset r under sigma j
            ranks = [
                self._ranks(m, perms[lo : lo + step, rows]) for m, rows in enumerate(self._rows)
            ]
            for n_ig in range(self.total):
                n_src = self.total - n_ig
                here = rep[self.layer[n_ig] : self.layer[n_ig + 1]]
                r_ig, r_src = ranks[n_ig][:, :, None], ranks[n_src][:, None, :]
                per = max(1, REP_BLOCK_ROWS // len(here))
                for j in range(0, len(r_ig), per):
                    image = r_ig[j : j + per] * self.width[n_src] + r_src[j : j + per]
                    image += self.layer[n_ig]
                    np.minimum(here, image.reshape(len(image), -1).min(axis=0), out=here)
        return rep

    def _conversions(self) -> np.ndarray:
        """conv[id before conversion] = id after conversion, one layer at a time."""
        conv = np.arange(self.layer[-1], dtype=np.int32)
        for n_ig in range(1, self.total):
            n_src = self.total - n_ig
            ig, src = self._rows[n_ig], self._rows[n_src]
            # Node presence, not bit masks: a graph may have more than 63 nodes.
            on_ig = np.zeros((len(ig), self.n), dtype=bool)
            on_ig[np.arange(len(ig))[:, None], ig] = True
            on_src = np.zeros((len(src), self.n), dtype=bool)
            on_src[np.arange(len(src))[:, None], src] = True
            # The (ignorant, source) pairs that share a node, by pair id.
            pre = np.flatnonzero(on_ig @ on_src.T)
            a, c = np.divmod(pre, len(src))
            ig_rows, src_rows = ig[a], src[c]
            hit = on_src[c[:, None], ig_rows]  # an ignorant agent on a source's node
            n_hit = hit.sum(axis=1)
            for h in range(1, n_ig + 1):  # h agents convert
                sel = n_hit == h
                k = int(sel.sum())
                if not k:
                    continue
                stay = ig_rows[sel][~hit[sel]].reshape(k, n_ig - h)
                moved = ig_rows[sel][hit[sel]].reshape(k, h)
                new_src = np.concatenate((src_rows[sel], moved), axis=1)
                conv[self.layer[n_ig] + pre[sel]] = (
                    self.layer[n_ig - h]
                    + self._ranks(n_ig - h, stay) * self.width[n_src + h]
                    + self._ranks(n_src + h, new_src)
                )
        return conv

    def menu_codes(self, occupied: tuple[int, ...], menus: Iterable[Iterable[Edge]]) -> array:
        """Row i, of len(occupied) codes: the interned surviving neighbourhood
        of each occupied node in menu i, which holds every surviving edge at
        the occupied nodes (other edges are skipped). Flat, row after row."""
        col = {v: j for j, v in enumerate(occupied)}
        codes, nbrs_of = self._nbr_codes, self._nbrs
        out = array("i")
        for menu in menus:
            nbrs = [0] * len(occupied)
            for u, v in menu:
                j = col.get(u)
                if j is not None:
                    nbrs[j] |= 1 << v
                j = col.get(v)
                if j is not None:
                    nbrs[j] |= 1 << u
            for mask in nbrs:
                c = codes.get(mask)
                if c is None:
                    c = codes[mask] = len(nbrs_of)
                    nbrs_of.append(tuple(w for w in range(self.n) if mask >> w & 1))
                out.append(c)
        return out

    def class_lists(
        self, ms: tuple[int, ...], occupied: tuple[int, ...], codes: array
    ) -> Sequence[int]:
        """Ids of the interned target lists of a class at `ms` over each menu
        of `codes` (from `menu_codes(occupied, ...)`). A menu's key is the
        codes of the class's distinct nodes, and each distinct key of `ms` is
        resolved once."""
        known = self._target_ids.setdefault(ms, {})
        nodes = ms[:1] if ms[0] == ms[-1] else tuple(dict.fromkeys(ms))
        width = len(occupied)
        if len(codes) == width:  # one menu, as on trees: one key
            if len(nodes) == 1:
                key = codes[occupied.index(ms[0])]
            else:
                key = tuple([codes[occupied.index(v)] for v in nodes])
            tid = known.get(key)
            if tid is None:
                tid = known[key] = self._target_list(ms, nodes, key)
            return (tid,)
        if len(nodes) == 1:
            keys = codes[occupied.index(ms[0]) :: width]
        else:
            keys = zip(*[codes[occupied.index(v) :: width] for v in nodes])
        tids = array("i")
        for key in keys:
            tid = known.get(key)
            if tid is None:
                tid = known[key] = self._target_list(ms, nodes, key)
            tids.append(tid)
        return tids

    def _code_rank(self, m: int) -> dict[int, int]:
        """Code (see `_target_list`) -> rank, over the m-multisets; built on
        first use."""
        got = self._code_ranks.get(m)
        if got is None:
            power = self._power
            got = self._code_ranks[m] = {
                sum([power[v] for v in ms]): r for r, ms in enumerate(self.multisets[m])
            }
        return got

    def _target_list(self, ms: tuple[int, ...], nodes: tuple[int, ...], key) -> int:
        """Id of the interned target list of a class at `ms` whose distinct
        nodes have the neighbourhood codes `key` (one code if one node): the
        sorted ranks of the distinct multisets the class can move to."""
        nbrs = map(self._nbrs.__getitem__, (key,) if len(nodes) == 1 else key)
        # Each distinct node's options: itself and its neighbours, sorted.
        options = {v: sorted((v,) + vn) for v, vn in zip(nodes, nbrs)}
        if len(ms) == 1:  # a 1-multiset's rank is its node
            ranks = options[ms[0]]
        else:
            # A multiset's code is its sum of power[v] = (total + 1) ** v over
            # its nodes, with multiplicity; no node is held more than total
            # times, so codes are distinct. Moves add one option per agent.
            power, reach = self._power, {0}
            for v in ms:
                reach = {r + power[t] for r in reach for t in options[v]}
            rank = self._code_rank(len(ms))
            ranks = sorted(map(rank.__getitem__, reach))
        content = (len(ms), tuple(ranks))
        tid = self._lists.get(content)
        if tid is None:
            tid = self._lists[content] = len(self._list_sizes)
            self._list_values.extend(content[1])
            self._list_starts.append(len(self._list_values))
            self._list_sizes.append(len(ms))
        return tid

    def successor_sets(
        self, ig_lists: np.ndarray, src_lists: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Values and offsets of the successor sets (ig_lists[s], src_lists[s]).

        Set s holds the distinct conv[layer + a * width + c] over the ranks a
        of target list ig_lists[s] and c of src_lists[s], in increasing order,
        built in chunks of about CHUNK_ENTRIES product entries.
        """
        lists = np.frombuffer(self._list_values, dtype=np.int32)
        starts = np.frombuffer(self._list_starts, dtype=np.int64)
        n_ig = np.frombuffer(self._list_sizes, dtype=np.int32)[ig_lists]
        # Ids are int32 (as in conv), and so is every partial sum of one.
        base = np.array(self.layer, dtype=np.int32)[n_ig]
        mult = np.array(self.width, dtype=np.int32)[self.total - n_ig]
        a_start, c_start = starts[ig_lists], starts[src_lists]
        a_len, c_len = starts[ig_lists + 1] - a_start, starts[src_lists + 1] - c_start
        n_sets, n_states = len(ig_lists), self.layer[-1]
        sizes = np.zeros(n_sets, dtype=np.int64)

        def chunk(lo: int, hi: int) -> np.ndarray:
            """The values of sets lo..hi-1, set after set; their sizes go to `sizes`.
            A function, so that a chunk's arrays are freed before the next one."""
            # One row per (set, ignorant target), then one entry per source target.
            row_set = np.repeat(np.arange(lo, hi, dtype=np.int32), a_len[lo:hi])
            row_id = base[row_set] + lists[_ranges(a_start[lo:hi], a_len[lo:hi])] * mult[row_set]
            row_len = c_len[row_set]
            pre = np.repeat(row_id, row_len) + lists[_ranges(c_start[row_set], row_len)]
            # (chunk-local set, representative) of each entry, sorted and
            # deduplicated: distinct entries may reach one representative.
            # A stable argsort and a mask stand in for np.unique, which imports
            # numpy.ma, and for np.sort: each would map more of numpy (1.8 and
            # 0.4 MiB of peak RSS on a run that solves only small graphs).
            merged = np.repeat(row_set - lo, row_len).astype(np.int64) * n_states
            merged += self.conv[pre]
            merged = merged[np.argsort(merged, kind="stable")]
            merged = merged[np.diff(merged, prepend=-1) != 0]
            sizes[lo:hi] = np.bincount(merged // n_states, minlength=hi - lo)
            return (merged % n_states).astype(np.int32)

        # bounds[s]: product entries of the sets before set s. A chunk takes
        # sets while they fit in CHUNK_ENTRIES entries, and at least one.
        bounds = np.concatenate(([0], np.cumsum(a_len * c_len)))
        values = array("i")
        lo = 0
        while lo < n_sets:
            hi = int(np.searchsorted(bounds, bounds[lo] + CHUNK_ENTRIES, "right")) - 1
            hi = max(hi, lo + 1)
            values.frombytes(chunk(lo, hi).tobytes())
            lo = hi
        return np.frombuffer(values, dtype=np.int32), np.concatenate(([0], np.cumsum(sizes)))


def _canonical_graph(
    g: Graph,
    total_agents: int,
    mode: Mode,
    budget_states: int,
) -> tuple[_StateSpace, _GameGraph]:
    """The canonical states, and the game graph with the adversary branches of
    `mode` at every orbit representative with an ignorant agent.
    `all_subsets` uses the trivial group, so every state represents itself."""
    # The budget is checked before the group search, which is slow on a
    # large graph.
    ranking = _Ranking(g.node_count, total_agents, budget_states)
    space = _StateSpace(ranking, automorphisms(g) if mode == "spanning_trees" else ())
    if mode == "spanning_trees":
        def menus(occupied: tuple[int, ...]) -> array:
            return space.menu_codes(occupied, _minimal_menus(g, frozenset(occupied))[1])

    else:
        survivors = [g.edges - r for r in connected_removals(g)]

        def menus(occupied: tuple[int, ...]) -> array:
            return space.menu_codes(occupied, survivors)

    # Menu codes of each occupied set, and the target-list ids of a class at
    # each menu, memoised by the class multiset and the occupied set.
    by_occupied: dict[frozenset[int], tuple[tuple[int, ...], array]] = {}
    by_class: dict[tuple[tuple[int, ...], frozenset[int]], Sequence[int]] = {}
    ig_lists, src_lists, counts = array("i"), array("i"), array("i")
    ids = np.arange(space.layer[1], space.layer[-1], dtype=np.int32)
    reps = ids[space.rep[ids] == ids]
    for st in map(space.ranking.state, reps.tolist()):
        occupied = frozenset(st.ignorant + st.source)
        got = by_occupied.get(occupied)
        if got is None:
            occ = tuple(sorted(occupied))
            got = by_occupied[occupied] = (occ, menus(occ))
        occ, codes = got
        for ms, out in ((st.ignorant, ig_lists), (st.source, src_lists)):
            tids = by_class.get((ms, occupied))
            if tids is None:
                tids = by_class[(ms, occupied)] = space.class_lists(ms, occ, codes)
            out.extend(tids)
        counts.append(len(codes) // len(occ))
    owner = np.repeat(reps, np.frombuffer(counts, dtype=np.int32))
    # Interned sets: one per distinct pair of target lists.
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


def compute_attractor(
    g: Graph,
    total_agents: int,
    mode: Mode = "spanning_trees",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> Attractor:
    """The cached attractor of the game on `g` with `total_agents` agents,
    built on a miss with the ranks of both objectives (module docstring)."""
    if mode not in ("spanning_trees", "all_subsets"):
        raise ValueError(f"unknown mode {mode!r}")
    if total_agents < 1:
        raise ValueError("the game needs at least one agent")
    key = (g, total_agents, mode)
    cached = _ATTRACTOR_CACHE.get(key)
    # A smaller budget than the cached build must still raise BudgetExceeded.
    if cached is not None and len(cached.ranks) <= budget_states:
        return cached
    space, graph = _canonical_graph(g, total_agents, mode, budget_states)
    goal = np.arange(space.layer[-1]) < space.layer[1]
    # A set is won from the start of the first-new-source fixpoint if it holds
    # a state with fewer ignorant agents than its owner: the id of its least
    # state (sets are sorted) lies below the first id of the owner's layer.
    layer = np.array(space.layer)
    owner_floor = layer[np.searchsorted(layer, graph.owner, "right") - 1]
    set_floor = np.empty(len(graph.offsets) - 1, dtype=np.int64)
    set_floor[graph.set_of] = owner_floor
    lowered = graph.values[graph.offsets[:-1]] < set_floor
    set_sizes = np.diff(graph.offsets)
    result = _ATTRACTOR_CACHE[key] = Attractor(
        g,
        total_agents,
        space.ranking,
        _solve(goal, graph)[space.rep],
        branches=len(graph.owner),
        successor_entries=int(set_sizes[graph.set_of].sum()),
        distinct_sets=len(set_sizes),
        first_new_source=_solve(goal, graph, lowered)[space.rep],
    )
    return result


# -- public solver operations ------------------------------------------------------


def _initial_states(g: Graph, k_ignorant: int, k_source: int) -> list[Configuration]:
    """All placements on distinct nodes, up to same-class permutation."""
    out = []
    for nodes in combinations(range(g.node_count), k_ignorant + k_source):
        for src in combinations(nodes, k_source):
            ig = tuple(v for v in nodes if v not in src)
            out.append(Configuration(ig, src))
    return out


def _placement_ids(ranking: _Ranking, k_ignorant: int, k_source: int) -> np.ndarray:
    """The ids, in increasing order, of every placement on distinct nodes:
    the states of `_initial_states`."""

    def distinct(m: int) -> tuple[np.ndarray, np.ndarray]:
        """The ranks of the m-multisets with distinct nodes, and their node
        presence (not bit masks: a graph may have more than 63 nodes)."""
        rows = ranking.rows(m)
        keep = np.flatnonzero((np.diff(rows, axis=1) > 0).all(axis=1))
        on = np.zeros((len(keep), ranking.n), dtype=bool)
        on[np.arange(len(keep))[:, None], rows[keep]] = True
        return keep, on

    (a, on_ig), (c, on_src) = distinct(k_ignorant), distinct(k_source)
    ia, ic = np.nonzero(~(on_ig @ on_src.T))  # the pairs that share no node
    return ranking.layer[k_ignorant] + a[ia] * ranking.width[k_source] + c[ic]


def solvable(
    g: Graph,
    k: int,
    placement: Placement | Configuration = "adversarial",
    k_source: int = 1,
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> bool:
    """Whether the agents can force broadcast with k ignorant agents and
    k_source sources.

    adversarial: the agents must win from every distinct-node placement;
    agents_choose: from some placement; a Configuration: from that one, which
    must hold k ignorant agents and k_source sources.
    """
    if k < 0 or k_source < 1:
        raise ValueError("need k >= 0 ignorant agents and k_source >= 1 sources")
    if isinstance(placement, Configuration):
        counts = (len(placement.ignorant), len(placement.source))
        if counts != (k, k_source):
            raise ValueError(
                f"configuration has {counts[0]} ignorant and {counts[1]} source "
                f"agents, not k={k} and k_source={k_source}"
            )
        state = canonical_after_conversion(placement.ignorant, placement.source)
        _check_positions(g, state.ignorant + state.source)
        att = compute_attractor(g, k + k_source, budget_states=budget_states)
        return att.wins(state)
    if placement not in ("adversarial", "agents_choose"):
        raise ValueError(f"unknown placement {placement!r}")
    if k + k_source > g.node_count:
        raise ValueError("more agents than nodes")
    att = compute_attractor(g, k + k_source, budget_states=budget_states)
    won = att.ranks[_placement_ids(att.ranking, k, k_source)] >= 0
    return bool(won.all() if placement == "adversarial" else won.any())


def min_agents(
    g: Graph,
    k_max: int,
    placement: Placement = "adversarial",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> int | None:
    """Smallest k with solvable(g, k), or None if every k <= k_max fails.

    Solvability is monotone in k (extra agents can shadow existing ones), so
    the scan stops at the first success. A budget overrun surfaces as
    BudgetExceeded, annotated with the last k that was decided.
    """
    if k_max < 1:  # an unknown placement is refused by the first solvable call
        raise ValueError(f"need k_max >= 1, not {k_max}")
    last_decided = 0
    for k in range(1, k_max + 1):
        try:
            if solvable(g, k, placement, budget_states=budget_states):
                return k
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                f"{exc}; undecided at k={k}, last decided k={last_decided}"
            ) from exc
        last_decided = k
    return None


Objective = Literal["first_new_source", "all_sources"]


def game_value(
    g: Graph,
    state: Configuration,
    objective: Objective = "all_sources",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> int | float:
    """Minimax round count until the objective event; inf if the adversary wins.

    Both objectives are read off one attractor, built once per (graph,
    agent count) with the ranks of both (see the module docstring)."""
    state = canonical_after_conversion(state.ignorant, state.source)
    _check_positions(g, state.ignorant + state.source)
    if objective not in ("all_sources", "first_new_source"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "first_new_source":
        if not state.ignorant:
            return 0
        if not state.source:
            return INFINITE  # nobody can ever convert
    total = len(state.ignorant) + len(state.source)
    att = compute_attractor(g, total, "spanning_trees", budget_states)
    ranks = att.ranks if objective == "all_sources" else att.first_new_source
    i = att.ranking.id(state)  # None without a source
    r = -1 if i is None else int(ranks[i])
    return INFINITE if r < 0 else r


# -- extracted policies --------------------------------------------------------------


class SolvedAgentPolicy:
    """Winning joint-move policy read off an attractor.

    Each round it picks, among the legal joint moves in the surviving graph,
    the one whose successor has the smallest winning rank, ties broken by the
    smallest target tuple; the menu of any connected survivor contains a
    minimal menu, so a rank-decreasing move always exists from a winning state.

    The successor depends only on the two target multisets, so the moves are
    split by class (`_class_moves`), and ranks are looked up once per pair of
    multisets. Each class keeps only its least labelled tuple per multiset,
    and that suffices: the classes hold disjoint agent ids, so two full tuples
    for one pair of multisets first differ at an agent whose own class's
    tuples first differ there too. Hence the least full tuple for a pair joins
    each class's least tuple, and the reply is the least such join over the
    pairs of least rank. It reads the survivor only through the edges at
    occupied nodes, so it is local.
    """

    role = "agents"
    name = "solved_agents"
    local = True

    def __init__(self, attractor: Attractor):
        self.attractor = attractor

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        adj, positions = surviving.adjacency(), state.positions
        ig_ids = [a for a, s in enumerate(state.is_source) if not s]
        src_ids = [a for a, s in enumerate(state.is_source) if s]
        ig_moves = _class_moves([positions[a] for a in ig_ids], adj)
        src_moves = _class_moves([positions[a] for a in src_ids], adj)
        rank, best_r, best = self.attractor.rank, None, []
        for src, src_t in src_moves.items():
            here = set(src)
            for ig, ig_t in ig_moves.items():
                # A Configuration hashes and compares as its plain tuple.
                if here.isdisjoint(ig):
                    r = rank.get((ig, src))
                else:  # ignorant agents on a source's target convert
                    stay = tuple([t for t in ig if t not in here])
                    conv = tuple([t for t in ig if t in here])
                    r = rank.get((stay, tuple(sorted(src + conv))))
                if r is None or (best_r is not None and r > best_r):
                    continue
                if r != best_r:
                    best_r, best = r, []
                best.append(src_t + ig_t)
        if best_r is None:
            return positions, None  # not a winning state; stand still
        # Agent a's target sits at slot[a] of a source tuple joined to an
        # ignorant one.
        slot = sorted(range(len(positions)), key=(src_ids + ig_ids).__getitem__)
        return min(tuple(map(t.__getitem__, slot)) for t in best), None


class SolvedAdversaryPolicy:
    """Removal policy that keeps the play inside the agent-losing region: at a
    losing state it keeps the first of the attractor's own branches
    (`_minimal_menu_survivors`) after which no joint move reaches a winning
    state, and removes every other edge."""

    role = "adversary"
    anonymous = True
    name = "solved_adversary"

    def __init__(self, attractor: Attractor):
        self.attractor = attractor

    def place(self, base: Graph, k_ignorant: int, k_source: int) -> AgentState:
        att = self.attractor
        for s in _initial_states(base, k_ignorant, k_source):
            if not att.wins(s):
                return initial_state(s.ignorant, s.source)
        raise ValueError("no adversary-winning placement exists")

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, base: Graph, state: AgentState, memory: Hashable):
        config, rank = state.config(), self.attractor.rank
        if canonical_after_conversion(config.ignorant, config.source) in rank:
            return frozenset(), None  # agent-winning state; nothing to defend
        for survivor in _minimal_menu_survivors(base, frozenset(state.positions)):
            adj = Graph(base.node_count, survivor).adjacency()
            sources = _class_moves(config.source, adj)
            if not any(
                canonical_after_conversion(a, c) in rank
                for a in _class_moves(config.ignorant, adj)
                for c in sources
            ):
                return base.edges - survivor, None
        raise AssertionError(f"no minimal menu blocks the losing state {config}")


# -- model checking a fixed policy ----------------------------------------------------


@dataclass
class SolverResult:
    """Outcome of `model_check_policy`.

    `states_explored` counts the nodes reached. `branches` counts the edges
    of the game graph, (node, successor) pairs: against a fixed agent policy
    one per call of its `decide`, which is one per distinct menu at an
    expanded node for a local policy and one per connected removal
    otherwise; against a fixed adversary one per joint move on labelled
    nodes. Against an anonymous adversary the nodes are configurations with
    memory, and there is one edge per distinct pair of class target
    multisets; two pairs that convert to one configuration give two edges.
    `decide_calls` counts the calls to the fixed policy's `decide`, one per
    expanded node against a fixed adversary.
    """

    winner: Literal["agents", "adversary"]
    optimal_rounds: int | float  # inf iff winner == "adversary"
    states_explored: int
    branches: int  # edges of the model-check game graph
    decide_calls: int  # calls to the fixed policy's decide


def _declares(policy, attribute: str) -> bool:
    """Whether `policy`'s class sets `attribute` true no higher in its MRO
    than the classes that define its `decide` and `initial_memory`. A
    subclass that overrides either method does not inherit the promise: it
    must declare the attribute again."""
    mro = type(policy).__mro__

    def defined_at(name: str) -> int:
        return next((i for i, cls in enumerate(mro) if name in vars(cls)), len(mro))

    return bool(getattr(policy, attribute, False)) and defined_at(attribute) <= min(
        defined_at("decide"), defined_at("initial_memory")
    )


def model_check_policy(
    g: Graph,
    initial: AgentState,
    fixed,
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> SolverResult:
    """Play one side with `fixed` and the other side optimally (exhaustively).

    A fixed agent policy faces every connectivity-preserving removal, and a
    local one (`local = True`) is asked once per distinct menu among them; a
    fixed adversary's removal raises `RuleViolation` if it disconnects the
    graph. See `SolverResult` for the counts.

    A node is the flat tuple (positions, is_source, memory): the labelled
    agents' nodes and classes after conversion, and the fixed policy's
    memory. Against an anonymous adversary (`anonymous = True`) it is
    (ignorant, source, memory), the configuration after conversion. Each
    side's `expand` returns a node's successor nodes, and one `AgentState`
    is built per expanded node. Against a fixed agent policy each reply is
    its own branch; against a fixed adversary all moves form one branch.
    """
    if getattr(fixed, "role", None) not in ("agents", "adversary"):
        raise ValueError("fixed policy must declare role 'agents' or 'adversary'")
    _check_positions(g, initial.positions)
    new_cls, _ = _convert(initial.positions, initial.is_source)
    initial = AgentState(initial.positions, new_cls)
    # An anonymous adversary is checked on configuration nodes.
    configurations = fixed.role == "adversary" and _declares(fixed, "anonymous")

    if fixed.role == "agents":
        survivors = [g.without(r) for r in connected_removals(g)]
        local = _declares(fixed, "local")
        by_occupied: dict[tuple[int, ...], list[Graph]] = {}

        def representatives(positions: tuple[int, ...]) -> list[Graph]:
            # One survivor per distinct menu at the occupied nodes for a local
            # policy, every survivor otherwise.
            if not local:
                return survivors
            occupied = tuple(sorted(set(positions)))
            reps = by_occupied.get(occupied)
            if reps is None:
                by_menu: dict[tuple, Graph] = {}
                for surviving in survivors:
                    adj = surviving.adjacency()
                    by_menu.setdefault(tuple([adj[p] for p in occupied]), surviving)
                reps = by_occupied[occupied] = list(by_menu.values())
            return reps

        def expand(node: tuple) -> list[tuple]:
            # The policy's reply over each representative survivor; every
            # reply is checked.
            positions, is_source, mem = node
            state, out = AgentState(positions, is_source), []
            for surviving in representatives(positions):
                targets, mem2 = fixed.decide(surviving, state, mem)
                _check_moves(surviving.neighbour_masks(), positions, targets)
                out.append((targets, _convert(targets, is_source)[0], mem2))
            return out

    else:
        adjacency: dict[frozenset[Edge], tuple] = {}  # connected removals seen

        def removal(state: AgentState, mem: Hashable) -> tuple[tuple, Hashable]:
            # The policy's removal, as the surviving adjacency, and its memory.
            removed, mem2 = fixed.decide(g, state, mem)
            adj = adjacency.get(removed)
            if adj is None:  # a disconnecting removal raises here, each time
                adj = adjacency[removed] = _surviving_graph(g, removed).adjacency()
            return adj, mem2

        if configurations:

            def expand(node: tuple) -> list[tuple]:
                # Every distinct pair of class target multisets, converted.
                ig, src, mem = node
                state = AgentState(ig + src, (False,) * len(ig) + (True,) * len(src))
                adj, mem2 = removal(state, mem)
                igs, out = _class_moves(ig, adj), []
                for c in _class_moves(src, adj):
                    on = set(c)
                    for a in igs:
                        if on.isdisjoint(a):
                            out.append((a, c, mem2))
                        else:  # ignorant agents on a source's target convert
                            out.append((*canonical_after_conversion(a, c), mem2))
                return out

        else:

            def expand(node: tuple) -> list[tuple]:
                # Every joint move against the policy's removal.
                positions, cls, mem = node
                adj, mem2 = removal(AgentState(positions, cls), mem)
                options = [(p,) + adj[p] for p in positions]
                reach = {t for opts, s in zip(options, cls) if s for t in opts}
                moves = product(*options)
                if all(reach.isdisjoint(opts) for opts, s in zip(options, cls) if not s):
                    return [(t, cls, mem2) for t in moves]  # nobody converts
                return [(t, _convert(t, cls)[0], mem2) for t in moves]

    # Depth-first exploration of flat nodes, numbered on discovery.
    # A configuration node is (ignorant, source, memory), solved when it has
    # no ignorant agent; a labelled one is solved when every agent is a source.
    memory = fixed.initial_memory(g, initial)
    if configurations:
        start = (*initial.config(), memory)
    else:
        start = (initial.positions, initial.is_source, memory)
    solved_at = (lambda node: not node[0]) if configurations else (lambda node: all(node[1]))
    ids = {start: 0}
    solved: list[int] = []
    owner, values, offsets = array("i"), array("i"), array("q", [0])
    stack = [start]
    while stack:
        node = stack.pop()
        here = ids[node]
        if solved_at(node):
            solved.append(here)
            continue
        if len(ids) > budget_states:
            raise BudgetExceeded("undecided: budget (model check exploration)")
        succ = expand(node)
        new = len(ids)
        for nxt in succ:
            t = ids.setdefault(nxt, new)
            if t == new:
                stack.append(nxt)
                new += 1
            values.append(t)
        if fixed.role == "agents":  # each reply is its own branch
            owner.extend([here] * len(succ))
            offsets.extend(range(len(values) - len(succ) + 1, len(values) + 1))
        else:  # every joint move in one branch
            owner.append(here)
            offsets.append(len(values))

    goal = np.zeros(len(ids), dtype=bool)
    goal[solved] = True
    graph = _GameGraph(
        np.frombuffer(owner, dtype=np.int32),
        np.arange(len(owner), dtype=np.int32),
        np.frombuffer(values, dtype=np.int32),
        np.frombuffer(offsets, dtype=np.int64),
    )
    r = int(_solve(goal, graph)[0])
    # Each call to `fixed.decide` gives exactly one branch.
    counts = (len(ids), len(values), len(owner))
    if r >= 0:
        return SolverResult("agents", r, *counts)
    return SolverResult("adversary", INFINITE, *counts)

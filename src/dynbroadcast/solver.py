"""Exhaustive game solving on small instances.

Every exact answer here comes from one game graph and one fixpoint. A node is
a position of the game; its branches are the adversary's choices there, and
each branch lists the successor nodes the agents choose between. The graph is
stored as flat arrays (`_GameGraph`): the owner node of every branch, and the
int32 successor ids of every branch, delimited by offsets.

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
  ignorant agents than at the start";
- `model_check_policy`: the nodes are (agent state, policy memory) pairs
  reached from the start. A fixed agent policy gives one single-successor
  branch per removal; a fixed adversary gives one branch holding every joint
  move.

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
`SolvedAdversaryPolicy` still plays global spanning trees, in a fixed order.
The `all_subsets` mode branches over every connected removal, unreduced; it
is the reference the reduction is tested against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Callable, Hashable, Iterable, Literal, NamedTuple

import numpy as np

from .engine import AgentState, Configuration, _convert, _move, initial_state
from .graph import Edge, Graph, is_connected

DEFAULT_BUDGET_STATES = 300_000

Mode = Literal["spanning_trees", "all_subsets"]
Placement = Literal["adversarial", "agents_choose"]

INFINITE = float("inf")


class BudgetExceeded(RuntimeError):
    """State space outgrew the configured budget; result is undecided, never guessed."""


class CanonicalState(NamedTuple):
    """Positions up to permutation of same-class agents."""

    ignorant: tuple[int, ...]
    source: tuple[int, ...]


def canonical(config: Configuration) -> CanonicalState:
    return CanonicalState(tuple(sorted(config.ignorant)), tuple(sorted(config.source)))


def canonical_after_conversion(ignorant: Iterable[int], source: Iterable[int]) -> CanonicalState:
    src = tuple(source)
    src_set = set(src)
    stay = [p for p in ignorant if p not in src_set]
    conv = [p for p in ignorant if p in src_set]
    return CanonicalState(tuple(sorted(stay)), tuple(sorted(list(src) + conv)))


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


def connected_removals(g: Graph) -> list[frozenset[Edge]]:
    """Every edge subset whose removal leaves the graph connected."""
    edges = sorted(g.edges)
    if len(edges) > 20:
        raise BudgetExceeded("too many edges for removal-subset enumeration")
    out = []
    for r in range(len(edges) + 1):
        for combo in combinations(edges, r):
            if is_connected(g.node_count, g.edges - frozenset(combo)):
                out.append(frozenset(combo))
    return out


def _branch_removals(g: Graph, mode: Mode) -> list[frozenset[Edge]]:
    if mode == "spanning_trees":
        return [g.edges - t for t in spanning_trees(g)]
    if mode == "all_subsets":
        return connected_removals(g)
    raise ValueError(f"unknown mode {mode!r}")


def _minimal_menu_survivors(g: Graph, occupied: frozenset[int]) -> list[frozenset[Edge]]:
    """One surviving edge set per inclusion-minimal menu of the occupied nodes.

    Each is every edge with no endpoint in `occupied`, plus one spanning tree
    of the multigraph left by contracting those edges (see the module
    docstring).
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
    return [
        kept.union(choice)
        for tree in spanning_trees(quotient)
        for choice in product(*(parallel[q] for q in sorted(tree)))
    ]


# -- the game graph and its one fixpoint -----------------------------------------


class _GameGraph:
    """Branches in any order: the owner node of each, and its successor ids.

    Every branch needs at least one successor (the agents may always stay
    put); `_solve` reads an empty branch as its neighbour's first successor.
    """

    def __init__(self) -> None:
        self.owner = array("i")
        self.offsets = array("q", [0])  # branch b's successors: succ[offsets[b]:offsets[b+1]]
        self.succ = array("i")

    def add_branch(self, node: int, successors: Iterable[int]) -> None:
        self.owner.append(node)
        self.succ.extend(successors)
        self.offsets.append(len(self.succ))


def _solve(goal: np.ndarray, graph: _GameGraph) -> np.ndarray:
    """Minimax rank of every node (see the module docstring); -1 if lost.

    A node that is not a goal and has no branch is lost.
    """
    owner = np.frombuffer(graph.owner, dtype=np.int32)
    starts = np.frombuffer(graph.offsets, dtype=np.int64)[:-1]
    succ = np.frombuffer(graph.succ, dtype=np.int32)
    win = goal.copy()
    rank = np.where(win, 0, -1)
    undecided = np.zeros(len(goal), dtype=bool)
    undecided[owner] = True
    undecided &= ~win
    wave = 0
    while undecided.any():
        wave += 1
        # A branch blocks its owner this wave if no successor is won yet.
        blocked = ~np.logical_or.reduceat(win[succ], starts)
        newly = undecided.copy()
        newly[owner[blocked]] = False
        if not newly.any():
            break
        win |= newly
        rank[newly] = wave
        undecided &= ~newly
    return rank


# -- the canonical game graph -------------------------------------------------------


@dataclass
class Attractor:
    graph: Graph
    total_agents: int
    mode: Mode
    index: dict[CanonicalState, int]
    states: list[CanonicalState]
    rank: dict[CanonicalState, int]  # winning states only; rank = minimax rounds to goal
    states_explored: int

    def wins(self, state: CanonicalState) -> bool:
        return state in self.rank


_ATTRACTOR_CACHE: dict[tuple[Graph, int, Mode], Attractor] = {}


def _enumerate_states(n: int, total: int) -> list[CanonicalState]:
    states = []
    for n_ig in range(total):  # at least one source
        n_src = total - n_ig
        for ig in combinations_with_replacement(range(n), n_ig):
            for src in combinations_with_replacement(range(n), n_src):
                states.append(CanonicalState(ig, src))
    return states


def _successor_builder(
    g: Graph, index: dict[CanonicalState, int]
) -> tuple[Callable[[frozenset[Edge]], int], Callable[[CanonicalState, int], tuple[int, ...]]]:
    """intern(survivor): the id of a surviving edge set in this builder's
    table, and successors(state, id): the ids of the canonical states (after
    conversion) the agents can reach from `state` over those edges."""
    n = g.node_count
    survivor_ids: dict[frozenset[Edge], int] = {}
    # Per-survivor move options per node (stay or cross a surviving edge).
    opts_per_survivor: list[list[tuple[int, ...]]] = []

    def intern(survivor: frozenset[Edge]) -> int:
        sid = survivor_ids.get(survivor)
        if sid is None:
            sid = survivor_ids[survivor] = len(opts_per_survivor)
            adj = Graph(n, survivor).adjacency()
            opts_per_survivor.append([(v,) + adj[v] for v in range(n)])
        return sid

    # Distinct target multisets for a class multiset under a survivor.
    multiset_memo: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], ...]] = {}

    def class_targets(ms: tuple[int, ...], sid: int) -> tuple[tuple[int, ...], ...]:
        got = multiset_memo.get((ms, sid))
        if got is not None:
            return got
        opts = opts_per_survivor[sid]
        results: set[tuple[int, ...]] = {()}
        for v in ms:
            results = {
                tuple(sorted(rest + (t,))) for rest in results for t in opts[v]
            }
        out = tuple(sorted(results))
        multiset_memo[(ms, sid)] = out
        return out

    # Post-conversion state index for a (ignorant, source) target multiset pair.
    conv_memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def converted_index(ig_ms: tuple[int, ...], src_ms: tuple[int, ...]) -> int:
        sset = set(src_ms)
        if sset.isdisjoint(ig_ms):
            return index[CanonicalState(ig_ms, src_ms)]
        stay = tuple(p for p in ig_ms if p not in sset)
        conv = tuple(p for p in ig_ms if p in sset)
        return index[CanonicalState(stay, tuple(sorted(src_ms + conv)))]

    # Whole successor sets, keyed by the two target-multiset menus (identical
    # menus arise under many removals of a symmetric graph).
    set_memo: dict[tuple, tuple[int, ...]] = {}

    def successors(st: CanonicalState, sid: int) -> tuple[int, ...]:
        ig_targets = class_targets(st.ignorant, sid)
        src_targets = class_targets(st.source, sid)
        set_key = (ig_targets, src_targets)
        cached_set = set_memo.get(set_key)
        if cached_set is None:
            succs: set[int] = set()
            add = succs.add
            get = conv_memo.get
            for src_ms in src_targets:
                for ig_ms in ig_targets:
                    pair = (ig_ms, src_ms)
                    t = get(pair)
                    if t is None:
                        t = converted_index(ig_ms, src_ms)
                        conv_memo[pair] = t
                    add(t)
            cached_set = tuple(succs)
            set_memo[set_key] = cached_set
        return cached_set

    return intern, successors


def _canonical_graph(
    g: Graph,
    total_agents: int,
    mode: Mode,
    budget_states: int,
    expand: Callable[[CanonicalState], bool],
) -> tuple[list[CanonicalState], dict[CanonicalState, int], _GameGraph]:
    """All canonical states, their ids, and the game graph with the adversary
    branches of `mode` at every state `expand` selects."""
    states = _enumerate_states(g.node_count, total_agents)
    if len(states) > budget_states:
        raise BudgetExceeded(
            f"undecided: budget ({len(states)} states > {budget_states})"
        )
    index = {s: i for i, s in enumerate(states)}
    intern, successors = _successor_builder(g, index)
    if mode == "spanning_trees":
        by_occupied: dict[frozenset[int], list[int]] = {}

        def branches(st: CanonicalState) -> list[int]:
            occupied = frozenset(st.ignorant + st.source)
            got = by_occupied.get(occupied)
            if got is None:
                got = by_occupied[occupied] = [
                    intern(s) for s in _minimal_menu_survivors(g, occupied)
                ]
            return got

    else:
        every = [intern(g.edges - r) for r in _branch_removals(g, mode)]

        def branches(st: CanonicalState) -> list[int]:
            return every

    graph = _GameGraph()
    for s_idx, st in enumerate(states):
        if expand(st):
            for sid in branches(st):
                graph.add_branch(s_idx, successors(st, sid))
    return states, index, graph


def compute_attractor(
    g: Graph,
    total_agents: int,
    mode: Mode = "spanning_trees",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> Attractor:
    key = (g, total_agents, mode)
    cached = _ATTRACTOR_CACHE.get(key)
    # A smaller budget than the cached build must still raise BudgetExceeded.
    if cached is not None and len(cached.states) <= budget_states:
        return cached
    states, index, graph = _canonical_graph(
        g, total_agents, mode, budget_states, lambda st: bool(st.ignorant)
    )
    goal = np.fromiter((not s.ignorant for s in states), dtype=bool, count=len(states))
    rank_arr = _solve(goal, graph)
    rank = {states[i]: int(rank_arr[i]) for i in np.flatnonzero(rank_arr >= 0)}
    result = Attractor(g, total_agents, mode, index, states, rank, len(states))
    _ATTRACTOR_CACHE[key] = result
    return result


# -- public solver operations ------------------------------------------------------


def agents_can_win(
    g: Graph,
    state: CanonicalState | Configuration,
    mode: Mode = "spanning_trees",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> bool:
    if isinstance(state, Configuration):
        state = canonical(state)
    state = canonical_after_conversion(state.ignorant, state.source)
    att = compute_attractor(g, len(state.ignorant) + len(state.source), mode, budget_states)
    return att.wins(state)


def _initial_states(g: Graph, k_ignorant: int, k_source: int) -> list[CanonicalState]:
    """All placements on distinct nodes, up to same-class permutation."""
    out = []
    for nodes in combinations(range(g.node_count), k_ignorant + k_source):
        for src in combinations(nodes, k_source):
            ig = tuple(v for v in nodes if v not in src)
            out.append(CanonicalState(ig, src))
    return out


def solvable(
    g: Graph,
    k: int,
    placement: Placement | Configuration = "adversarial",
    k_source: int = 1,
    mode: Mode = "spanning_trees",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> bool:
    """Whether the agents can force broadcast with k ignorant agents.

    adversarial: the agents must win from every distinct-node placement;
    agents_choose: from some placement; a Configuration: from that one.
    """
    if isinstance(placement, Configuration):
        return agents_can_win(g, placement, mode, budget_states)
    if k + k_source > g.node_count:
        raise ValueError("more agents than nodes")
    att = compute_attractor(g, k + k_source, mode, budget_states)
    initials = _initial_states(g, k, k_source)
    if placement == "adversarial":
        return all(att.wins(s) for s in initials)
    if placement == "agents_choose":
        return any(att.wins(s) for s in initials)
    raise ValueError(f"unknown placement {placement!r}")


def min_agents(
    g: Graph,
    k_max: int,
    placement: Placement = "adversarial",
    mode: Mode = "spanning_trees",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> int | None:
    """Smallest k with solvable(g, k), or None if every k <= k_max fails.

    Solvability is monotone in k (extra agents can shadow existing ones), so
    the scan stops at the first success. A budget overrun surfaces as
    BudgetExceeded, annotated with the last k that was decided.
    """
    last_decided = 0
    for k in range(1, k_max + 1):
        try:
            if solvable(g, k, placement, mode=mode, budget_states=budget_states):
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
    state: CanonicalState | Configuration,
    objective: Objective = "all_sources",
    mode: Mode = "spanning_trees",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> int | float:
    """Minimax round count until the objective event; inf if the adversary wins."""
    if isinstance(state, Configuration):
        state = canonical(state)
    state = canonical_after_conversion(state.ignorant, state.source)
    total = len(state.ignorant) + len(state.source)
    if objective == "all_sources":
        r = compute_attractor(g, total, mode, budget_states).rank.get(state)
        return INFINITE if r is None else r
    if objective != "first_new_source":
        raise ValueError(f"unknown objective {objective!r}")
    if not state.ignorant:
        return 0
    if not state.source:
        return INFINITE  # nobody can ever convert
    i0 = len(state.ignorant)
    # Play stays in the layer with i0 ignorant agents until the goal.
    states, index, graph = _canonical_graph(
        g, total, mode, budget_states, lambda st: len(st.ignorant) == i0
    )
    goal = np.fromiter((len(s.ignorant) < i0 for s in states), dtype=bool, count=len(states))
    r = int(_solve(goal, graph)[index[state]])
    return INFINITE if r < 0 else r


# -- extracted policies --------------------------------------------------------------


class SolvedAgentPolicy:
    """Winning joint-move policy read off an attractor.

    Each round it enumerates legal joint moves in the surviving graph and picks
    the one whose successor has the smallest winning rank; the menu of any
    connected survivor contains a minimal menu, so a rank-decreasing move
    always exists from a winning state.
    """

    role = "agents"

    def __init__(self, attractor: Attractor, name: str = "solved_agents"):
        self.attractor = attractor
        self.name = name

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        adj = surviving.adjacency()
        opts = [(p,) + adj[p] for p in state.positions]
        rank = self.attractor.rank
        best: tuple[int, tuple[int, ...]] | None = None
        for targets in product(*opts):
            ig = [t for t, s in zip(targets, state.is_source) if not s]
            src = [t for t, s in zip(targets, state.is_source) if s]
            nxt = canonical_after_conversion(ig, src)
            r = rank.get(nxt)
            if r is None:
                continue
            cand = (r, targets)
            if best is None or cand < best:
                best = cand
        if best is None:
            return state.positions, None  # not a winning state; stand still
        return best[1], None


class SolvedAdversaryPolicy:
    """Removal policy that keeps the play inside the agent-losing region."""

    role = "adversary"

    def __init__(self, attractor: Attractor, name: str = "solved_adversary"):
        self.attractor = attractor
        self.name = name
        g = attractor.graph
        intern, self._successors = _successor_builder(g, attractor.index)
        # (removal, survivor id) for every removal of the mode, in order.
        self._branches = [(r, intern(g.edges - r)) for r in _branch_removals(g, attractor.mode)]

    def place(self, base: Graph, k_ignorant: int, k_source: int) -> AgentState:
        att = self.attractor
        for s in _initial_states(base, k_ignorant, k_source):
            if not att.wins(s):
                return initial_state(s.ignorant, s.source)
        raise ValueError("no adversary-winning placement exists")

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, base: Graph, state: AgentState, memory: Hashable):
        here = canonical(state.config())
        states, rank = self.attractor.states, self.attractor.rank
        for removed, sid in self._branches:
            if not any(states[t] in rank for t in self._successors(here, sid)):
                return removed, None
        return frozenset(), None  # agent-winning state; nothing to defend


# -- model checking a fixed policy ----------------------------------------------------


@dataclass
class SolverResult:
    winner: Literal["agents", "adversary"]
    optimal_rounds: int | float  # inf iff winner == "adversary"
    states_explored: int
    extracted_policy: object | None = None


def model_check_policy(
    g: Graph,
    initial: AgentState,
    fixed,
    mode: Mode = "all_subsets",
    budget_states: int = DEFAULT_BUDGET_STATES,
) -> SolverResult:
    """Play one side with `fixed` and the other side optimally (exhaustively).

    A fixed agent policy faces every connectivity-preserving removal by
    default (the spanning-tree reduction is not sound against a fixed agent
    policy, which may react to the exact surviving graph).
    """
    if getattr(fixed, "role", None) not in ("agents", "adversary"):
        raise ValueError("fixed policy must declare role 'agents' or 'adversary'")
    new_cls, _ = _convert(initial.positions, initial.is_source)
    initial = AgentState(initial.positions, new_cls)

    if fixed.role == "agents":
        survivors = [g.without(r) for r in _branch_removals(g, mode)]

        def expand(state: AgentState, mem: Hashable) -> list[list[tuple]]:
            # One branch per removal, holding the policy's single reply.
            out = []
            for surviving in survivors:
                targets, mem2 = fixed.decide(surviving, state, mem)
                out.append([(_move(surviving, state, targets)[0], mem2)])
            return out

    else:

        def expand(state: AgentState, mem: Hashable) -> list[list[tuple]]:
            # One branch, holding every joint move against the policy's removal.
            removed, mem2 = fixed.decide(g, state, mem)
            adj = g.without(removed).adjacency()
            moves = product(*((p,) + adj[p] for p in state.positions))
            return [[(AgentState(t, _convert(t, state.is_source)[0]), mem2) for t in moves]]

    # Depth-first exploration of (state, memory) nodes, numbered on discovery.
    start = (initial, fixed.initial_memory(g, initial))
    ids = {start: 0}
    solved: list[int] = []
    graph = _GameGraph()
    stack = [start]
    while stack:
        node = stack.pop()
        state, mem = node
        if state.config().is_solved():
            solved.append(ids[node])
            continue
        if len(ids) > budget_states:
            raise BudgetExceeded("undecided: budget (model check exploration)")
        here = ids[node]
        for branch in expand(state, mem):
            succ_ids = []
            for nxt in branch:
                t = ids.get(nxt)
                if t is None:
                    t = ids[nxt] = len(ids)
                    stack.append(nxt)
                succ_ids.append(t)
            graph.add_branch(here, succ_ids)

    goal = np.zeros(len(ids), dtype=bool)
    goal[solved] = True
    r = int(_solve(goal, graph)[0])
    if r >= 0:
        return SolverResult("agents", r, len(ids))
    return SolverResult("adversary", INFINITE, len(ids))

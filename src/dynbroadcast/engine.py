"""Round-based game semantics.

A round runs in order: the adversary removes a connectivity-preserving edge
set, agents compute with full visibility of the surviving graph, agents move
simultaneously, then every ignorant agent co-located with a source agent
becomes a source. Message transfer happens only on node co-location after the
movement step; two agents swapping along the same edge do not meet.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, NamedTuple, Protocol

from .graph import Edge, Graph, GraphError, _norm_edge, _spans, graph_from_doc, graph_to_doc


class RuleViolation(ValueError):
    """A removal or move breaks the round rules."""


class Configuration(NamedTuple):
    """Positions up to permutation of same-class agents: the anonymous view.

    A named tuple, so it hashes and compares equal to the plain tuple
    ``(ignorant, source)``. It keeps the order it is given; the solver's
    entry points sort and convert it with ``canonical_after_conversion``.
    """

    ignorant: tuple[int, ...]
    source: tuple[int, ...]


class AgentState(NamedTuple):
    """Agents with persistent ids: agent i sits at positions[i].

    A named tuple, so it hashes and compares equal to the plain tuple
    ``(positions, is_source)``.
    """

    positions: tuple[int, ...]
    is_source: tuple[bool, ...]

    def config(self) -> Configuration:
        """The positions of each class, sorted."""
        ig = sorted(p for p, s in zip(self.positions, self.is_source) if not s)
        src = sorted(p for p, s in zip(self.positions, self.is_source) if s)
        return Configuration(tuple(ig), tuple(src))

    @property
    def total(self) -> int:
        return len(self.positions)


def initial_state(ignorant_nodes: Iterable[int], source_nodes: Iterable[int]) -> AgentState:
    """Initial placement; ignorant agents get the low ids. Nodes must be distinct."""
    ig = list(ignorant_nodes)
    src = list(source_nodes)
    nodes = ig + src
    if len(set(nodes)) != len(nodes):
        raise RuleViolation("initial placement must use distinct nodes")
    return AgentState(tuple(nodes), tuple([False] * len(ig) + [True] * len(src)))


class AgentPolicy(Protocol):
    name: str

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable: ...

    def decide(
        self, surviving: Graph, state: AgentState, memory: Hashable
    ) -> tuple[tuple[int, ...], Hashable]:
        """Return the target node of every agent (same index order) and new memory."""
        ...


class AdversaryPolicy(Protocol):
    name: str

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable: ...

    def decide(
        self, base: Graph, state: AgentState, memory: Hashable
    ) -> tuple[frozenset[Edge], Hashable]: ...


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    removed_edges: frozenset[Edge]
    moves: tuple[tuple[int, int], ...]  # (position before, position after) per agent id
    conversions: tuple[int, ...]  # nodes where ignorant agents became source


@dataclass(frozen=True)
class Outcome:
    kind: str  # solved | adversary_cycle | round_limit_reached
    round: int | None = None
    period: int | None = None


@dataclass
class Trace:
    graph: Graph
    initial: AgentState
    rounds: list[RoundRecord] = field(default_factory=list)
    outcome: Outcome | None = None


# -- round primitives ----------------------------------------------------------


def validate_removal(g: Graph, removed: Iterable[Edge]) -> bool:
    """True iff the removal keeps the graph connected; GraphError if it names
    an edge the graph does not have."""
    return g.is_connected(removed)


def _check_positions(g: Graph, positions: Iterable[int]) -> None:
    """ValueError unless every position is a node of g: an `int` (not a bool
    or a float equal to one) in range."""
    n = g.node_count
    for p in positions:
        if type(p) is not int or not 0 <= p < n:
            raise ValueError(f"position {p} is not a node of the graph (0..{n - 1})")


def _convert(positions: tuple[int, ...], is_source: tuple[bool, ...]) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """Every ignorant agent on a node that holds a source becomes a source.
    Returns the new classes, `is_source` itself when nobody converts, and the
    sorted conversion nodes."""
    sources = {p for p, s in zip(positions, is_source) if s}
    conversions = [p for p, s in zip(positions, is_source) if not s and p in sources]
    if not conversions:
        return is_source, ()
    conversions.sort()
    return tuple([s or p in sources for p, s in zip(positions, is_source)]), tuple(conversions)


def _surviving_graph(g: Graph, removed: Iterable[Edge]) -> Graph:
    """The graph left by a removal; RuleViolation if it is disconnected."""
    surviving = g.without(removed)
    if not surviving.is_connected():
        raise RuleViolation("removal disconnects the graph")
    return surviving


def step(
    g: Graph,
    state: AgentState,
    removed: frozenset[Edge],
    targets: tuple[int, ...],
) -> tuple[AgentState, tuple[int, ...]]:
    """Apply one round (after the removal was validated). Returns state and conversion nodes."""
    return _move(g.without(removed), state, targets)


def _move(
    surviving: Graph, state: AgentState, targets: tuple[int, ...]
) -> tuple[AgentState, tuple[int, ...]]:
    """Check every move is stay-or-adjacent in the surviving graph, then move
    and convert."""
    _check_moves(surviving.neighbour_masks(), state.positions, targets)
    targets = tuple(targets)
    new_cls, conversions = _convert(targets, state.is_source)
    return AgentState(targets, new_cls), conversions


def _check_moves(masks, positions: tuple[int, ...], targets: tuple[int, ...]) -> None:
    """RuleViolation unless targets gives the agents at `positions` each a
    stay or a step along a surviving edge, read from the survivor's neighbour
    masks; a target must be an `int`, so 1.0 is not node 1."""
    if len(targets) != len(positions):
        raise RuleViolation(
            f"move count {len(targets)} does not cover the {len(positions)} agents"
        )
    for i, (src, dst) in enumerate(zip(positions, targets)):
        if type(dst) is not int:
            raise RuleViolation(f"agent {i} target {dst!r} is not a node")
        if dst != src and (dst < 0 or not masks[src] >> dst & 1):
            raise RuleViolation(f"agent {i} move {src}->{dst} is not stay-or-adjacent")


# -- simulation ----------------------------------------------------------------


def _pairwise_contraction_check(
    surviving: Graph, before: tuple[int, ...], after: tuple[int, ...]
) -> None:
    # Distance between two specific agents decreases by at most 2 per round,
    # measured in that round's surviving graph. The round rule implies it:
    # `_move` lets each agent cross at most one surviving edge, so `simulate`
    # does not call this; tests check traces with it.
    n = len(before)
    dist = {p: surviving.distances_from(p) for p in set(before) | set(after)}
    for i in range(n):
        for j in range(i + 1, n):
            d0 = dist[before[i]][before[j]]
            d1 = dist[after[i]][after[j]]
            if d1 < d0 - 2:
                raise AssertionError(
                    f"distance between agents {i},{j} contracted by more than 2"
                )


def simulate(
    g: Graph,
    initial: AgentState,
    agents: AgentPolicy,
    adversary: AdversaryPolicy,
    max_rounds: int,
) -> Trace:
    """Run rounds until solved, a repeated (state, memories) pair, or max_rounds."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    _check_positions(g, initial.positions)
    if len(set(initial.positions)) != initial.total:
        raise RuleViolation("initial configuration must use distinct nodes")

    trace = Trace(g, initial)
    state = initial
    # Conversion is evaluated on the initial configuration too (vacuous under
    # the distinct-start rule, relevant when replaying mid-game states).
    new_cls, _ = _convert(state.positions, state.is_source)
    state = AgentState(state.positions, new_cls)

    agent_mem = agents.initial_memory(g, state)
    adv_mem = adversary.initial_memory(g, state)
    seen: dict[Hashable, int] = {}

    if all(state.is_source):
        trace.outcome = Outcome("solved", round=0)
        return trace

    for round_index in range(1, max_rounds + 1):
        key = (state, agent_mem, adv_mem)
        if key in seen:
            trace.outcome = Outcome("adversary_cycle", period=round_index - 1 - seen[key])
            return trace
        seen[key] = round_index - 1

        removed, adv_mem = adversary.decide(g, state, adv_mem)
        try:
            surviving = _surviving_graph(g, removed)
            targets, agent_mem = agents.decide(surviving, state, agent_mem)
            new_state, conversions = _move(surviving, state, targets)
        except RuleViolation as exc:
            raise RuleViolation(f"round {round_index}: {exc}") from exc
        trace.rounds.append(
            RoundRecord(
                round_index,
                removed,
                tuple(zip(state.positions, new_state.positions)),
                conversions,
            )
        )
        state = new_state
        if all(state.is_source):
            trace.outcome = Outcome("solved", round=round_index)
            return trace

    trace.outcome = Outcome("round_limit_reached", round=max_rounds)
    return trace


def check_trace(trace: Trace) -> None:
    """Independently re-validate every stored round and the outcome.

    Each round is checked on its own, on the survivor's neighbour masks
    re-derived from the recorded removal: the removal names edges of the
    graph and leaves it connected, the moves start where the agents stand
    and pass the move rule `simulate` uses (`_check_moves`), and the
    recorded conversions are the ones the moves make. The bookkeeping must
    be what `simulate` writes: rounds labelled 1..R, play that stops once
    every agent is a source, and an outcome that agrees with the rounds.
    """
    g = trace.graph
    state = trace.initial
    _check_positions(g, state.positions)
    if len(state.is_source) != state.total or any(type(s) is not bool for s in state.is_source):
        raise ValueError(f"is_source {list(state.is_source)!r} must hold one bool per agent")
    states = [state]
    solved = all(state.is_source)
    for i, rec in enumerate(trace.rounds, start=1):
        if solved:
            raise RuleViolation(f"every agent is a source after round {i - 1}, but play goes on")
        if type(rec.round_index) is not int or rec.round_index != i:
            raise RuleViolation(f"round {i} is labelled {rec.round_index!r}")
        targets = tuple(t for _, t in rec.moves)
        _check_positions(g, targets)  # reported as a position, like the start
        try:
            masks = g._survivor_masks(g._removal(rec.removed_edges))
            if not _spans(masks, (1 << g.node_count) - 1):
                raise RuleViolation("removal disconnects the graph")
            origins = tuple(f for f, _ in rec.moves)
            if origins != state.positions:
                raise RuleViolation("moves do not match positions")
            for a, f in enumerate(origins):
                if type(f) is not int:
                    raise RuleViolation(f"agent {a} origin {f!r} is not a node")
            _check_moves(masks, state.positions, targets)
            new_cls, conversions = _convert(targets, state.is_source)
            if conversions != rec.conversions or any(type(c) is not int for c in rec.conversions):
                raise RuleViolation("conversion record mismatch")
        except RuleViolation as exc:
            raise RuleViolation(f"round {i}: {exc}") from exc
        state = AgentState(targets, new_cls)
        states.append(state)
        if conversions:
            solved = all(new_cls)
    if trace.outcome is not None:
        _check_outcome(trace.outcome, states)


def _check_outcome(outcome: Outcome, states: list[AgentState]) -> None:
    """RuleViolation unless `outcome` is the one `simulate` gives after play
    that passed through `states` (the start, then the state after each round)."""
    kind, r = outcome.kind, len(states) - 1
    solved = all(states[-1].is_source)
    if kind not in ("solved", "adversary_cycle", "round_limit_reached"):
        raise RuleViolation(f"unknown outcome kind {kind!r}")
    if kind == "solved" and not solved:
        raise RuleViolation("outcome says solved but ignorant agents remain")
    if kind != "solved" and solved:
        raise RuleViolation(f"outcome says {kind} but every agent is a source")
    if kind == "adversary_cycle":
        p = outcome.period
        if outcome.round is not None:
            raise RuleViolation(f"adversary_cycle outcome has round {outcome.round!r}, not null")
        if type(p) is not int or not 1 <= p <= r:
            raise RuleViolation(f"adversary_cycle period {p!r} is not in 1..{r}")
        if states[r] != states[r - p]:
            raise RuleViolation(
                f"adversary_cycle period {p}: the state after round {r} is not the one after round {r - p}"
            )
    elif type(outcome.round) is not int or outcome.round != r or outcome.period is not None:
        raise RuleViolation(
            f"{kind} outcome (round {outcome.round!r}, period {outcome.period!r})"
            f" does not match a trace of {r} rounds"
        )


# -- trace JSON ------------------------------------------------------------------


def trace_to_json(trace: Trace) -> str:
    # json.dumps writes tuples as arrays, so the record's tuples go in as they are.
    doc: dict[str, Any] = {
        "graph": graph_to_doc(trace.graph),
        "initial": {
            "positions": trace.initial.positions,
            "is_source": trace.initial.is_source,
        },
        "rounds": [
            {
                "round": rec.round_index,
                "removed": sorted(rec.removed_edges),
                "moves": rec.moves,
                "conversions": rec.conversions,
            }
            for rec in trace.rounds
        ],
        "outcome": {
            "kind": trace.outcome.kind,
            "round": trace.outcome.round,
            "period": trace.outcome.period,
        }
        if trace.outcome
        else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def trace_from_json(text: str) -> Trace:
    doc = json.loads(text)
    g = graph_from_doc(doc["graph"])
    initial = AgentState(tuple(doc["initial"]["positions"]), tuple(doc["initial"]["is_source"]))
    trace = Trace(g, initial)
    for rec in doc["rounds"]:
        pairs = rec["removed"]
        # False and True equal nodes 0 and 1 and index the neighbour masks as
        # them, so the round would validate as a removal it does not name.
        # (A float such as 1.0 is refused when the removal is applied.)
        removed = [
            _norm_edge(u, v) for u, v in pairs if type(u) is not bool and type(v) is not bool
        ]
        if len(removed) != len(pairs):
            raise GraphError(f"removed edges must name nodes by int: {pairs}")
        trace.rounds.append(
            RoundRecord(
                rec["round"],
                frozenset(removed),
                tuple((a, b) for a, b in rec["moves"]),
                tuple(rec["conversions"]),
            )
        )
    if doc["outcome"]:
        trace.outcome = Outcome(
            doc["outcome"]["kind"], doc["outcome"]["round"], doc["outcome"]["period"]
        )
    return trace

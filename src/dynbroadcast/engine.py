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
from typing import Any, Hashable, Iterable, Protocol

from .graph import Edge, Graph, _norm_edge, graph_from_json, graph_to_json


class RuleViolation(ValueError):
    """A removal or move breaks the round rules."""


@dataclass(frozen=True)
class Configuration:
    """Multisets of node positions, the anonymous view of the agents."""

    ignorant: tuple[int, ...]
    source: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ignorant", tuple(sorted(self.ignorant)))
        object.__setattr__(self, "source", tuple(sorted(self.source)))

    @property
    def total(self) -> int:
        return len(self.ignorant) + len(self.source)

    def is_solved(self) -> bool:
        return not self.ignorant


@dataclass(frozen=True)
class AgentState:
    """Agents with persistent ids: agent i sits at positions[i]."""

    positions: tuple[int, ...]
    is_source: tuple[bool, ...]

    def config(self) -> Configuration:
        ig = [p for p, s in zip(self.positions, self.is_source) if not s]
        src = [p for p, s in zip(self.positions, self.is_source) if s]
        return Configuration(tuple(ig), tuple(src))

    @property
    def total(self) -> int:
        return len(self.positions)

    def source_nodes(self) -> frozenset[int]:
        return frozenset(p for p, s in zip(self.positions, self.is_source) if s)

    def ignorant_ids(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.is_source) if not s)

    def source_ids(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.is_source) if s)


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
    return g.without(removed).is_connected()


def legal_targets(surviving: Graph, node: int) -> tuple[int, ...]:
    """Stay or one step along a surviving edge."""
    return (node,) + surviving.neighbors(node)


def _convert(positions: tuple[int, ...], is_source: tuple[bool, ...]) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    source_nodes = {p for p, s in zip(positions, is_source) if s}
    conversions = []
    new_cls = list(is_source)
    for i, (p, s) in enumerate(zip(positions, is_source)):
        if not s and p in source_nodes:
            new_cls[i] = True
            conversions.append(p)
    return tuple(new_cls), tuple(sorted(conversions))


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
    if len(targets) != state.total:
        raise RuleViolation(
            f"move count {len(targets)} does not cover the {state.total} agents"
        )
    adj = surviving.adjacency()
    for i, (src, dst) in enumerate(zip(state.positions, targets)):
        if dst != src and dst not in adj[src]:
            raise RuleViolation(f"agent {i} move {src}->{dst} is not stay-or-adjacent")
    new_cls, conversions = _convert(targets, state.is_source)
    return AgentState(tuple(targets), new_cls), conversions


def apply_round(
    g: Graph,
    config: Configuration,
    removed: frozenset[Edge],
    moves: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]],
) -> tuple[Configuration, tuple[int, ...]]:
    """Anonymous-multiset round: moves = (ignorant (from, to) pairs, source pairs).

    The multiset of 'from' nodes per class must equal the configuration, so
    every agent moves exactly once.
    """
    surviving = g.without(removed)
    if not surviving.is_connected():
        raise RuleViolation("removal disconnects the graph")
    ig_moves, src_moves = moves
    if tuple(sorted(f for f, _ in ig_moves)) != config.ignorant:
        raise RuleViolation("ignorant moves do not cover the ignorant multiset")
    if tuple(sorted(f for f, _ in src_moves)) != config.source:
        raise RuleViolation("source moves do not cover the source multiset")
    state = AgentState(
        tuple(f for f, _ in ig_moves) + tuple(f for f, _ in src_moves),
        tuple([False] * len(ig_moves) + [True] * len(src_moves)),
    )
    targets = tuple(t for _, t in ig_moves) + tuple(t for _, t in src_moves)
    new_state, conversions = _move(surviving, state, targets)
    return new_state.config(), conversions


# -- simulation ----------------------------------------------------------------


def _pairwise_contraction_check(
    surviving: Graph, before: tuple[int, ...], after: tuple[int, ...]
) -> None:
    # Distance between two specific agents decreases by at most 2 per round,
    # measured in that round's surviving graph.
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
    check_contraction: bool = True,
) -> Trace:
    """Run rounds until solved, a repeated (state, memories) pair, or max_rounds."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
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

    if state.config().is_solved():
        trace.outcome = Outcome("solved", round=0)
        return trace

    for round_index in range(1, max_rounds + 1):
        key = (state, agent_mem, adv_mem)
        if key in seen:
            trace.outcome = Outcome("adversary_cycle", period=round_index - 1 - seen[key])
            return trace
        seen[key] = round_index - 1

        removed, adv_mem = adversary.decide(g, state, adv_mem)
        surviving = g.without(removed)
        if not surviving.is_connected():
            raise RuleViolation(
                f"adversary {adversary.name} removal disconnects graph at round {round_index}"
            )
        try:
            targets, agent_mem = agents.decide(surviving, state, agent_mem)
            new_state, conversions = _move(surviving, state, targets)
        except RuleViolation as exc:
            raise RuleViolation(f"round {round_index}: {exc}") from exc
        if check_contraction:
            _pairwise_contraction_check(surviving, state.positions, new_state.positions)
        if len(new_state.source_ids()) < len(state.source_ids()):
            raise AssertionError("source multiset shrank")
        trace.rounds.append(
            RoundRecord(
                round_index,
                removed,
                tuple(zip(state.positions, new_state.positions)),
                conversions,
            )
        )
        state = new_state
        if state.config().is_solved():
            trace.outcome = Outcome("solved", round=round_index)
            return trace

    trace.outcome = Outcome("round_limit_reached", round=max_rounds)
    return trace


def replay_state(trace: Trace, upto: int | None = None) -> AgentState:
    """Recompute the agent state after the first `upto` rounds (default: all)."""
    state = trace.initial
    for rec in trace.rounds[: upto if upto is not None else len(trace.rounds)]:
        state, _ = step(trace.graph, state, rec.removed_edges, tuple(t for _, t in rec.moves))
    return state


def check_trace(trace: Trace) -> None:
    """Independently re-validate every stored round (removal + move legality)."""
    state = trace.initial
    for rec in trace.rounds:
        surviving = trace.graph.without(rec.removed_edges)
        if not surviving.is_connected():
            raise RuleViolation(f"round {rec.round_index}: removal disconnects")
        before = tuple(f for f, _ in rec.moves)
        if before != state.positions:
            raise RuleViolation(f"round {rec.round_index}: moves do not match positions")
        state, conversions = _move(surviving, state, tuple(t for _, t in rec.moves))
        if conversions != rec.conversions:
            raise RuleViolation(f"round {rec.round_index}: conversion record mismatch")
    if trace.outcome is not None and trace.outcome.kind == "solved":
        if not state.config().is_solved():
            raise RuleViolation("outcome says solved but ignorant agents remain")


# -- trace JSON ------------------------------------------------------------------


def trace_to_json(trace: Trace) -> str:
    doc: dict[str, Any] = {
        "graph": json.loads(graph_to_json(trace.graph)),
        "initial": {
            "positions": list(trace.initial.positions),
            "is_source": list(trace.initial.is_source),
        },
        "rounds": [
            {
                "round": rec.round_index,
                "removed": [list(e) for e in sorted(rec.removed_edges)],
                "moves": [list(m) for m in rec.moves],
                "conversions": list(rec.conversions),
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
    g = graph_from_json(json.dumps(doc["graph"]))
    initial = AgentState(
        tuple(doc["initial"]["positions"]), tuple(bool(b) for b in doc["initial"]["is_source"])
    )
    trace = Trace(g, initial)
    for rec in doc["rounds"]:
        trace.rounds.append(
            RoundRecord(
                rec["round"],
                frozenset(_norm_edge(u, v) for u, v in rec["removed"]),
                tuple((a, b) for a, b in rec["moves"]),
                tuple(rec["conversions"]),
            )
        )
    if doc["outcome"]:
        trace.outcome = Outcome(
            doc["outcome"]["kind"], doc["outcome"]["round"], doc["outcome"]["period"]
        )
    return trace

"""A deliberately naive minimax for the broadcast game, to check the solver.

It shares no solver code beyond `connected_removals`. Agents keep their
labels (no canonical states), the adversary plays every connectivity-keeping
removal (no spanning-tree reduction), the agents play every product of
per-agent moves, and no successor is ever memoised: each round of the
backward induction recomputes every move from scratch.

`solved_agent_targets` is the reference for `SolvedAgentPolicy.decide`: the
same choice made over the labelled product of every agent's moves.

`fixed_adversary_value` is the reference for `model_check_policy` against a
fixed adversary: labelled nodes that carry the adversary's memory, the
removal asked of the adversary afresh at every visit, and the same backward
induction over every joint move.
"""

from itertools import product

from dynbroadcast.engine import AgentState
from dynbroadcast.graph import Graph

INFINITE = float("inf")

# A state is (positions, is_source) of labelled agents, conversion applied.
State = tuple[tuple[int, ...], tuple[bool, ...]]


def converted(positions: tuple[int, ...], is_source: tuple[bool, ...]) -> State:
    sources = {p for p, s in zip(positions, is_source) if s}
    return positions, tuple(s or p in sources for p, s in zip(positions, is_source))


def all_states(g: Graph, agents: int) -> list[State]:
    """Every labelled placement with at least one source, after conversion."""
    out = set()
    for positions in product(g.nodes, repeat=agents):
        for is_source in product((False, True), repeat=agents):
            if any(is_source):
                out.add(converted(positions, is_source))
    return sorted(out)


def joint_moves(g: Graph, removed, state: State):
    adj = g.without(removed).adjacency()
    positions, is_source = state
    for targets in product(*((p,) + adj[p] for p in positions)):
        yield converted(targets, is_source)


def values(g: Graph, agents: int, goal, removals) -> dict[State, int | float]:
    """Minimax rounds until `goal(state)` holds, from every state; inf if the
    adversary, choosing from `removals` each round, can avoid it forever.

    won[t] is the set of states the agents win within t rounds:
    won[t+1] = goal states plus the states where every removal leaves some
    joint move into won[t].
    """
    states = all_states(g, agents)
    value: dict[State, int | float] = {s: 0 for s in states if goal(s)}
    t = 0
    while True:
        t += 1
        won = set(value)
        newly = [
            s
            for s in states
            if s not in won
            and all(any(nxt in won for nxt in joint_moves(g, r, s)) for r in removals)
        ]
        if not newly:
            break
        value.update((s, t) for s in newly)
    return {s: value.get(s, INFINITE) for s in states}


def ignorant_count(state: State) -> int:
    return state[1].count(False)


def solved_agent_targets(rank, surviving: Graph, state: State) -> tuple[int, ...]:
    """The joint move `SolvedAgentPolicy` must pick: the lexicographic minimum
    of (rank of the successor, targets) over every labelled joint move whose
    successor has a rank, or the positions if none has one.

    `rank` maps (sorted ignorant nodes, sorted source nodes) to a round count.
    """
    adj = surviving.adjacency()
    positions, is_source = state
    best = None
    for targets in product(*((p,) + adj[p] for p in positions)):
        sources = {t for t, s in zip(targets, is_source) if s}
        ig = tuple(sorted(t for t in targets if t not in sources))
        src = tuple(sorted(t for t in targets if t in sources))
        r = rank.get((ig, src))
        if r is not None and (best is None or (r, targets) < best):
            best = (r, targets)
    return positions if best is None else best[1]


def fixed_adversary_value(g: Graph, start: State, adversary) -> int | float:
    """Rounds the agents need, playing every labelled joint move, until no
    agent is ignorant, when `adversary` removes edges by its own rule from
    `start`; inf if they can never force it.

    A node is (positions, is_source, memory). Play stops at a node with no
    ignorant agent, so the adversary is never asked there. Each removal must
    leave the graph connected.
    """

    def successors(node):
        positions, is_source, memory = node
        removed, after = adversary.decide(g, AgentState(positions, is_source), memory)
        assert g.is_connected(removed), removed
        return [nxt + (after,) for nxt in joint_moves(g, removed, (positions, is_source))]

    state = converted(*start)
    first = state + (adversary.initial_memory(g, AgentState(*state)),)
    nodes, frontier = {first}, {first}
    while frontier:
        frontier = {
            nxt for node in frontier if not all(node[1]) for nxt in successors(node)
        } - nodes
        nodes |= frontier
    value: dict[tuple, int] = {node: 0 for node in nodes if all(node[1])}
    t = 0
    while first not in value:
        t += 1
        newly = [
            node
            for node in nodes
            if node not in value and any(nxt in value for nxt in successors(node))
        ]
        if not newly:
            return INFINITE
        value.update((node, t) for node in newly)
    return value[first]

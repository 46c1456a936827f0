"""A deliberately naive minimax for the broadcast game, to check the solver.

It shares no solver code beyond `connected_removals`. Agents keep their
labels (no canonical states), the adversary plays every connectivity-keeping
removal (no spanning-tree reduction), the agents play every product of
per-agent moves, and no successor is ever memoised: each round of the
backward induction recomputes every move from scratch.

`solved_agent_targets` is the reference for `SolvedAgentPolicy.decide`: the
same choice made over the labelled product of every agent's moves.
"""

from itertools import product

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

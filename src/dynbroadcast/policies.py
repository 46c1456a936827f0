"""Agent and adversary policies.

Every policy is a deterministic decision procedure against the engine's
interface: agent policies map (surviving graph, agent state, memory) to a
target node per agent; adversary policies map (base graph, agent state,
memory) to a connectivity-preserving removal set. All "arbitrary" choices are
resolved lowest-id-first so traces are reproducible and cycle detection works.

Locality. In a round every agent stays or crosses one surviving edge at its
own node, so the edges at the occupied nodes, the menu
`tuple(surviving.adjacency()[p] for p in sorted(set(state.positions)))`,
are all a move can use. An agent policy whose reply (targets and memory)
depends on the surviving graph only through that menu declares the class
attribute `local = True`; `solver.model_check_policy` then calls it once per
distinct menu rather than once per connected removal. The theta strategy,
`solver.SolvedAgentPolicy`, `CliquePolicy` and `LollipopPolicy` are local.
`TowardSourcePolicy` and `GreedyPathPolicy` read distances over the whole
survivor, so they are not; a policy without the attribute is not local.
The attribute holds for the class that declares it and for subclasses that
keep its `decide` and `initial_memory`: a subclass that overrides either
must declare it again, or `model_check_policy` treats it as undeclared.

Anonymity. An adversary whose `decide` and `initial_memory` read the state
only through `state.config()`, the sorted positions of each class, declares
the class attribute `anonymous = True`: relabelling the agents within their
classes changes neither its removal nor its memory. `model_check_policy`
then explores configurations with memory rather than labelled states, one
node per configuration where the labelled check has one per ordering of
same-class agents. Every adversary here is anonymous: the passive, random
tree and flip-flop adversaries never read the state, and the blockers,
`IsolationTreeAdversary` and `solver.SolvedAdversaryPolicy` read only which
nodes hold which class. An adversary without the attribute is checked on
labelled states, and so is a subclass that overrides `decide` or
`initial_memory` without declaring it again, as for `local`.

The theta strategy plays exactly one ignorant agent per internal path and
one source, the count of the paper's constructive upper bound; it is
model-checked from every distinct-node start on theta(1,1), (1,2), (1,3),
(2,2), (2,3), (3,3) and (1,1,1), and refuses other counts.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from typing import Hashable

from . import solver
from .analysis import Bond, enumerate_bonds, largest_matching_bond, min_degree, vertex_connectivity
from .engine import AgentState, initial_state
from .graph import (
    Edge,
    Graph,
    GraphError,
    ThetaLayout,
    _norm_edge,
    grid_node,
    make_complete,
    make_grid,
    sorted_edges,
    theta_layout,
)

# Solver names are read through the module, not imported by name: perfbench's
# tracer wraps `decide` on every policy class in this module and in `solver`,
# so SolvedAgentPolicy imported here would be wrapped and counted twice.


def _require_theta(g: Graph) -> ThetaLayout:
    layout = theta_layout(g)
    if layout is None:
        raise GraphError("not a generalized theta graph")
    return layout


# -- trivial policies --------------------------------------------------------------


class PassiveAdversary:
    """Removes nothing, ever."""

    role = "adversary"
    anonymous = True
    name = "passive"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, base: Graph, state: AgentState, memory: Hashable):
        return frozenset(), None


class RandomTreeAdversary:
    """Keeps a random spanning tree each round (random-order Kruskal), with
    the generator re-derived from (seed, round) so traces are reproducible.

    The order is Durstenfeld's shuffle of the sorted edges, run inline on
    `getrandbits` with the draws `random.shuffle` makes (for i+1 elements,
    `(i + 1).bit_length()` bits, redrawn while at least i+1), so it is the
    permutation `random.shuffle` gives; a test pins the two together."""

    role = "adversary"
    anonymous = True

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"random_tree:seed={seed}"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return 0

    def decide(self, base: Graph, state: AgentState, memory: int):
        getrandbits = random.Random(self.seed * 2654435761 + memory).getrandbits
        edges = list(sorted_edges(base))
        for i in range(len(edges) - 1, 0, -1):
            n = i + 1
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            edges[i], edges[j] = edges[j], edges[i]
        # Kruskal with an inline union-find (path halving): an edge joining
        # two components is kept, every other edge is removed.
        parent = list(range(base.node_count))
        removed = []
        for e in edges:
            u, v = e
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u == v:
                removed.append(e)
            else:
                parent[u] = v
        return frozenset(removed), memory + 1


class TowardSourcePolicy:
    """Every ignorant agent steps along a shortest surviving path to the
    nearest source; every source steps toward the nearest ignorant agent.
    Ties break to the lowest node id."""

    role = "agents"
    name = "toward_source"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        sources = sorted(
            {p for p, s in zip(state.positions, state.is_source) if s}
        )
        ignorant = sorted(
            {p for p, s in zip(state.positions, state.is_source) if not s}
        )
        targets = []
        for pos, is_src in zip(state.positions, state.is_source):
            goals = ignorant if is_src else sources
            if not goals:
                targets.append(pos)
                continue
            dist = surviving.distances_from(pos)
            goal = min(goals, key=lambda v: (dist[v], v))
            if dist[goal] == 0:
                targets.append(pos)
                continue
            # At odd distance two approaching agents would swap along an edge
            # instead of meeting; the source waits one round to fix parity.
            if is_src and dist[goal] % 2 == 1:
                targets.append(pos)
                continue
            dist_goal = surviving.distances_from(goal)
            nxt = min(
                (w for w in surviving.neighbors(pos) if dist_goal[w] < dist_goal[pos]),
                default=pos,
            )
            targets.append(nxt)
        return tuple(targets), None


# -- greedy path policy -------------------------------------------------------------


class GreedyPathPolicy:
    """Single-source heuristic: pick the ignorant agent whose shortest path to
    the source carries the most ignorant agents (ties: lowest agent node id,
    then lexicographically smallest path); everyone on that path steps one
    edge toward the source, the source steps one edge toward them.

    The survivor is read through its neighbour masks: a BFS from the source
    builds its distance layers as bit masks, and from a node at distance d
    the smallest next step is the lowest set bit of its neighbours in
    layer d - 1."""

    role = "agents"
    name = "greedy_path"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        sources = [p for p, s in zip(state.positions, state.is_source) if s]
        if len(set(sources)) != 1:
            raise ValueError("greedy path policy requires exactly one source node")
        source = sources[0]
        ignorant_nodes = sorted(
            {p for p, s in zip(state.positions, state.is_source) if not s}
        )
        if not ignorant_nodes:
            return state.positions, None
        masks = surviving.neighbour_masks()
        ig_mask = sum(1 << a for a in ignorant_nodes)
        # BFS layers from the source, until every ignorant node is reached.
        layers = [1 << source]
        seen = frontier = 1 << source
        while ig_mask & ~seen:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                raise ValueError("greedy path policy needs a connected survivor")
            seen |= frontier
            layers.append(frontier)
        best_count, path = 0, None
        for a in ignorant_nodes:  # in node order, so a tie keeps the lower node
            # Lexicographically smallest shortest path: from every node, the
            # smallest neighbour one step closer to the source.
            d = 0
            while not layers[d] >> a & 1:
                d += 1
            walk, on_path, v = [a], 1 << a, a
            for layer in reversed(layers[:d]):
                step = masks[v] & layer
                step &= -step
                v = step.bit_length() - 1
                walk.append(v)
                on_path |= step
            count = (on_path & ig_mask).bit_count()
            if count > best_count:
                best_count, path = count, walk
        nxt_toward_source = {path[i]: path[i + 1] for i in range(len(path) - 1)}
        targets = []
        for pos, is_src in zip(state.positions, state.is_source):
            if is_src:
                targets.append(path[-2] if pos == source and len(path) > 1 else pos)
            else:
                targets.append(nxt_toward_source.get(pos, pos))
        return tuple(targets), None


# -- lower-bound adversaries ---------------------------------------------------------


class ThetaBlocker:
    """Theta-graph adversary for fewer ignorant agents than paths: keeps every
    ignorant agent either boxed away from the poles or cut off from any source
    within striking distance, spending at most one edge per path.

    It is a lower-bound witness only where model-checked. From its own
    `place`, wherever `solver.solvable` is False, it wins on every 2-path
    theta and on every 3-path theta whose paths all have at least 2 internal
    nodes (path lengths up to 4). Outside those it can lose where `solvable`
    is False: to 1 ignorant agent on theta(1,1,2), to 2 on theta(1,2,2) and
    to 3 on theta(2,2,2,2). The solver carries the theta lower bound.

    The removal keeps the graph connected without walking it. Every cut is a
    chain edge: the conversion guard cuts the edge from an ignorant agent
    toward a nearer source, which lies on the agent's path, or on the
    neighbour's path when the agent is at a pole (every path has an internal
    node, so no edge joins the poles); the pole guard cuts along a chain. So
    `cuts` holds at most one chain edge per path. A theta minus such cuts is
    connected iff some path is uncut: an uncut path joins the poles and each
    cut path's two halves hang off one pole each, while with every path cut
    no path joins the poles. So when every path is cut, dropping the cut of
    the highest path index reconnects the graph.
    """

    role = "adversary"
    anonymous = True
    name = "theta_blocker"

    def place(self, base: Graph, k_ignorant: int, k_source: int = 1) -> AgentState:
        layout = _require_theta(base)
        if k_ignorant + k_source > layout.n_paths:
            raise ValueError("more agents than paths; blocker inapplicable")
        spots = []
        for p_idx in range(k_ignorant + k_source):
            chain = layout.chains[p_idx]
            spots.append(chain[(len(chain) - 1) // 2])
        return initial_state(spots[:k_ignorant], spots[k_ignorant:])

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return (_require_theta(base),)

    def decide(self, base: Graph, state: AgentState, memory: tuple[ThetaLayout]):
        layout = memory[0]
        sources = {p for p, s in zip(state.positions, state.is_source) if s}
        ignorant = {p for p, s in zip(state.positions, state.is_source) if not s}
        if not sources or not ignorant:
            return frozenset(), memory

        dist = None  # distance of every node to its nearest source
        for s in sources:
            d = base.distances_from(s)
            dist = d if dist is None else [min(x, y) for x, y in zip(dist, d)]
        where = layout.where
        cuts: dict[int, Edge] = {}  # path index -> removed edge

        def norm(u: int, v: int) -> Edge:
            return (u, v) if u < v else (v, u)

        # Conversion guard: any ignorant agent within distance 2 of a source
        # gets the edge toward that source removed.
        for a in sorted(ignorant, key=lambda v: (dist[v], v)):
            d = dist[a]
            if d > 2:
                break
            nxt = min((w for w in base.neighbors(a) if dist[w] < d), default=None)
            if nxt is None:  # the agent is on a source
                continue
            p_idx = (where.get(a) or where[nxt])[0]
            if p_idx not in cuts:
                cuts[p_idx] = norm(a, nxt)

        # Pole guard: on paths without a cut, box the ignorant agent nearest a
        # pole by removing the edge between it and that pole's side.
        coords: dict[int, list[int]] = {}
        for a in ignorant:
            loc = where.get(a)
            if loc is not None and loc[0] not in cuts:
                coords.setdefault(loc[0], []).append(loc[1])
        for p_idx, cs in coords.items():
            chain = layout.chains[p_idx]
            last = len(chain) - 1
            i = min(cs, key=lambda c: (min(c, last - c), c))
            if i <= last - i:
                cuts[p_idx] = norm(chain[i - 1], chain[i])
            else:
                cuts[p_idx] = norm(chain[i], chain[i + 1])

        # Keep at least one path fully intact (see the class docstring).
        if len(cuts) == layout.n_paths:
            cuts.pop(max(cuts))
        return frozenset(cuts.values()), memory


class BondBlocker:
    """Confines agents to their side of a matching bond by removing every cut
    edge that has an agent on an endpoint (at most m-1 of the m edges)."""

    role = "adversary"
    anonymous = True

    def __init__(self, bond: Bond):
        if not bond.is_matching:
            raise ValueError("bond blocker requires a matching bond")
        self.bond = bond
        self.name = "bond_blocker"

    def place(self, base: Graph, k_ignorant: int, k_source: int = 1) -> AgentState:
        m = len(self.bond.edges)
        if k_ignorant + k_source > m - 1:
            raise ValueError("bond blocker needs k1 + k2 <= m - 1 agents")
        side_a = sorted(self.bond.side_a)
        side_b = sorted(self.bond.side_b)
        return initial_state(side_a[:k_ignorant], side_b[:k_source])

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, base: Graph, state: AgentState, memory: Hashable):
        occupied = set(state.positions)
        removed = frozenset(
            e for e in self.bond.edges if e[0] in occupied or e[1] in occupied
        )
        if len(removed) == len(self.bond.edges):
            removed = frozenset(sorted(removed)[:-1])
        return removed, memory


class IsolationTreeAdversary:
    """In a 3-vertex-connected graph with minimum degree d and at most d-2
    ignorant agents, shields the source behind a two-edge stub: survivor is
    source-u, u-r plus a spanning tree of the rest, with u and r unoccupied,
    so no ignorant agent is ever within reach."""

    role = "adversary"
    anonymous = True
    name = "isolation_tree"

    def _check(self, base: Graph, k_ignorant: int) -> None:
        if vertex_connectivity(base) < 3:
            raise ValueError("isolation adversary needs 3-vertex-connectivity")
        if k_ignorant > min_degree(base) - 2:
            raise ValueError(
                "strategy inapplicable: more than (min degree - 2) ignorant agents"
            )

    def place(self, base: Graph, k_ignorant: int, k_source: int = 1) -> AgentState:
        if k_source != 1:
            raise ValueError("isolation adversary assumes a single source")
        self._check(base, k_ignorant)
        n = base.node_count
        ignorant = list(range(n - 1, n - 1 - k_ignorant, -1))
        return initial_state(sorted(ignorant), [0])

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        self._check(base, sum(1 for s in state.is_source if not s))
        return None

    def decide(self, base: Graph, state: AgentState, memory: Hashable):
        sources = sorted(
            {p for p, s in zip(state.positions, state.is_source) if s}
        )
        s = sources[0]
        occupied = set(state.positions)
        u = min(v for v in base.neighbors(s) if v not in occupied)
        r = min(v for v in base.neighbors(u) if v not in occupied and v != s)
        keep = {(min(s, u), max(s, u)), (min(u, r), max(u, r))}
        # Deterministic BFS spanning tree of the graph without s and u.
        banned = {s, u}
        seen = {r}
        frontier = [r]
        while frontier:
            nxt = []
            for v in frontier:
                for w in base.neighbors(v):  # sorted by `adjacency`
                    if w not in banned and w not in seen:
                        seen.add(w)
                        keep.add((min(v, w), max(v, w)))
                        nxt.append(w)
            frontier = nxt
        return base.edges - frozenset(keep), memory


# -- grid flip-flop adversary ---------------------------------------------------------


class GridFlipflopAdversary:
    """Alternates between two Hamiltonian paths of a grid, one Hamiltonian
    cycle C minus one of two cuts, so that the greedy path policy shuttles
    the agents back and forth forever with no conversion.

    Construction, in a frame: the grid itself when it has 2 rows or an even
    column count of at least 4, otherwise its transpose (which then passes
    that test, as the node count is even). In frame coordinates (row, column)
    with R rows and m columns, C runs along row 0 from (0,0) to (0,m-1),
    snakes through columns m-1 down to 1 over rows 1..R-1 (column m-1
    downward, the next upward, and so on; column 1 is walked downward, since
    R = 2 or m is even), and returns up column 0. Memory 0 keeps C minus the
    frame edge (0,0)-(1,0), memory 1 keeps C minus (0,1)-(0,2), and every
    edge off C is removed in both. A rectangle with both sides at least 2
    has a Hamiltonian cycle iff its node count is even (Itai, Papadimitriou
    & Szwarcfiter, 1982), so other odd x odd grids are refused; 3x3 keeps
    the pair of paths a search over its Hamiltonian paths found. A grid with
    one row is a path, so nothing is removed and the agents swap forever.

    Placement, in the grid's own coordinates: the source at (0,0), column 1
    full of ignorant agents, and every column c >= 2 without its row 0 when
    c is even and without row R-1 when c is odd.

    Why it cycles: number C's nodes c_0 = (0,0), c_1 = (0,1), c_2 = (0,2),
    ..., c_{N-1} = (1,0) in frame coordinates. With the single source at an
    end of a Hamiltonian-path survivor, the farthest ignorant agent's path
    carries every ignorant agent, so the greedy path policy moves each of
    them and the source one step toward each other, and a conversion
    happens iff the nearest ignorant agent is exactly 2 steps from the
    source. Under memory 0 the source sits at c_0, an end of its path, steps
    to c_1 and every ignorant agent steps from c_i to c_{i-1}; under memory
    1 the source sits at c_1, an end of its path, steps back to c_0 and
    every ignorant agent steps from c_i to c_{i+1} (indices mod N). So the
    state repeats every 2 rounds. The node 2 steps from the source is c_2
    under memory 0, empty in the placement (frame (0,2) is grid (0,2), or
    (2,0) in the source's column 0), and c_{N-1} under memory 1, which only an agent that stood on
    the source's node c_0 could reach. Hence no conversion ever happens:
    period 2, on every grid with an even node count."""

    role = "adversary"
    anonymous = True

    def __init__(self, rows: int, cols: int):
        if rows * cols < 6:
            raise ValueError("flip-flop requires a grid with more than 2x2 cells")
        if cols < 2:
            raise ValueError("flip-flop requires a grid with at least 2 columns")
        self.rows = rows
        self.cols = cols
        self.name = f"grid_flipflop:{rows}x{cols}"
        self._grid = make_grid(rows, cols)
        if rows == 1:
            self._removals = (frozenset(), frozenset())
        elif (rows, cols) == (3, 3):
            self._removals = (
                frozenset({(1, 4), (3, 6), (4, 5), (4, 7)}),
                frozenset({(1, 2), (3, 4), (4, 5), (4, 7)}),
            )
        elif rows * cols % 2:
            raise GraphError(
                f"flip-flop needs an even node count: the {rows}x{cols} grid has "
                "an odd one and no Hamiltonian cycle"
            )
        else:
            self._removals = self._cuts(rows, cols)

    def _cuts(self, rows: int, cols: int) -> tuple[frozenset[Edge], frozenset[Edge]]:
        transpose = not (rows == 2 or (cols % 2 == 0 and cols >= 4))
        height, width = (cols, rows) if transpose else (rows, cols)

        def node(r, c):  # a frame cell's grid node
            return grid_node(rows, cols, c, r) if transpose else grid_node(rows, cols, r, c)

        order = [(0, c) for c in range(width)]
        for c in range(width - 1, 0, -1):
            rs = range(1, height) if (width - 1 - c) % 2 == 0 else range(height - 1, 0, -1)
            order.extend((r, c) for r in rs)
        order.extend((r, 0) for r in range(height - 1, 0, -1))
        cycle = frozenset(
            _norm_edge(node(*a), node(*b)) for a, b in zip(order, order[1:] + order[:1])
        )
        off_cycle = self._grid.edges - cycle
        return (
            off_cycle | {_norm_edge(node(0, 0), node(1, 0))},
            off_cycle | {_norm_edge(node(0, 1), node(0, 2))},
        )

    # -- adversary interface --------------------------------------------------------

    def _check_base(self, base: Graph) -> None:
        if base != self._grid:
            raise GraphError(f"{self.name} plays only on the {self.rows}x{self.cols} grid")

    def place(self, base: Graph, k_ignorant: int, k_source: int = 1) -> AgentState:
        self._check_base(base)
        rows, cols = self.rows, self.cols
        ignorant = [grid_node(rows, cols, r, 1) for r in range(rows)]
        for c in range(2, cols):
            skip = 0 if c % 2 == 0 else rows - 1
            ignorant.extend(grid_node(rows, cols, r, c) for r in range(rows) if r != skip)
        if k_ignorant != len(ignorant) or k_source != 1:
            raise ValueError(
                f"flip-flop placement uses {len(ignorant)} ignorant and 1 source agents"
            )
        return initial_state(sorted(ignorant), [0])

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        self._check_base(base)
        return 0

    def decide(self, base: Graph, state: AgentState, memory: int):
        return self._removals[memory], 1 - memory


# -- theta broadcast: the opening phase and the phases it reaches --------------------

# Phases 2 and 3 of the five-phase algorithm never run under this policy's
# contract (see its docstring), so they have no label. A phase's label is the
# name of its handler method, looked up on the policy each round, so an
# override or a patch of the handler takes effect.
_PRE, _P1, _P4, _P5 = "_run_pre", "_run_phase1", "_run_phase4", "_run_phase5"


class ThetaBroadcastPolicy:
    """Policy for a generalized theta graph with exactly one ignorant agent
    per internal path and one source.

    Each ignorant agent is identified with a path. The policy repeatedly
    engineers a meeting: phases funnel sources to the poles, from which two
    sources can sweep a single path end-to-end; the adversary can remove
    only one edge per path per round, so it must concede either the sweep or
    a conversion elsewhere. Model-checked against every connected removal,
    it wins from every distinct-node start of theta(1,1), (1,2), (1,3),
    (2,2), (2,3), (3,3) and (1,1,1), but on theta(1,1,3) it loses from 20
    of 140, each with two or three ignorant agents on the long path, that
    optimal agents win. With more ignorant agents or more sources it loses
    from starts that `solvable` wins (on theta(3,3) with three ignorant
    agents, from 272 of 280), so `initial_memory` refuses them.

    Phases: `pre` (one source) splits paths that hold two ignorant agents,
    walks a pole source onto a path, then sweeps everyone toward the pole
    behind the source. Phase 1 (two sources on a pole or a path) walks one
    of a pole's pair onto a path, or a path's pair apart toward both poles.
    Phase 4 (sources on one pole, x, and on a path) first splits a crowded
    path if the sources on x and on empty paths are fewer than those paths;
    if no source stands between x and an ignorant agent of its path, it
    squeezes one between x and a source, or else splits. Then each empty
    path gets a descender to cross it, a source on it or else one from x
    while x has any: two sources on one empty path count twice in the first
    test but cross once, so a path can go without (tests reach each of these
    branches). Everyone else walks toward x.
    Phase 5 (sources on both poles) sweeps one path from both ends.

    Under the one-per-path contract only these phases run:

    1. With one source, `_classify` can only give `pre`: phases 1, 4 and 5
       each need two sources.
    2. A conversion leaves the new source on an old source's node, a site
       with two sources, so the phase is re-chosen as 1, 4 or 5. Phase 1
       moves only the two sources of its site and, short of a conversion,
       ends when one of them leaves it: onto a path from a pole site, or
       onto a pole from a path site. Either way a pole and a path, or both
       poles, then hold a source: phase 4 or 5. Phase 4 lasts until phase
       5, and phase 5 until a conversion. So after the first conversion no
       phase is `pre`, and phase 3 (sources on two paths, none on a pole,
       no two sharing a path) is never chosen.
    3. Two sources mean an ignorant agent has converted, so at most
       `n_paths - 1` paths hold an ignorant agent and `empty_paths()` is
       never empty from then on. Phase 2 (a pole source and a path source
       with no empty path) is never chosen, and phase 4 always has an
       empty path for its descenders.
    4. Every ignorant agent plays from the start, so no subset of them is
       ever used up and replaced; once none is left the game is solved, and
       neither `simulate` nor the model checker asks for a move there.

    and these fallbacks are not needed:

    5. Every agent on a pole has a path in the identification whenever
       `decide` runs: `_initial_ident` gives each one, an entry is dropped
       only when its agent's target is an internal node, and an agent that
       steps onto a pole from a path gets that path. So `ident_path` is
       never None (`_step`, `crowded_paths`), and phase 5 need not give its
       sweepers an entry: they walk its path and have one on a pole.
    6. `_initial_ident` and `_reassign_pole_arrivals` always find a free
       path for an ignorant agent: the others hold at most `n_paths - 1`.
    7. `_enter_lowest_path` runs on a pole, whose edges are the first edges
       of its paths, and the survivor is connected: one of them survives.
    8. `_sandwich_pole` runs in `pre` (one source, by 2) with no crowded
       path and no pole source. By 5 the ignorant agents then hold the
       paths one each, the one source's path included.
    9. Phase 5 starts when both poles hold a source, so every ignorant agent
       is on an internal node (on a pole it would have converted), and by
       4 one is left: there is a path to sweep.
    10. `_step` walks toward the north or south pole and returns when the
        agent stands on it, so `ThetaLayout.step_toward` stays on the chain.

    Memory layout (hashable): (theta layout, phase, pole identification
    pairs, phase data, source count at the previous round).
    """

    role = "agents"
    name = "theta_broadcast"
    local = True  # reads only edges at agent positions (`step_toward`, `has_edge`)

    def __init__(self, k: int | None = None):
        self.k = k

    # -- memory helpers --------------------------------------------------------------

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        layout = _require_theta(base)
        srcs = state.is_source.count(True)
        k_ignorant = state.total - srcs
        if self.k is not None and self.k != k_ignorant:
            raise ValueError(f"policy built for k={self.k}, state has {k_ignorant}")
        if k_ignorant != layout.n_paths or srcs != 1:
            raise ValueError(
                f"theta_broadcast needs exactly one ignorant agent per path "
                f"({layout.n_paths}) and one source, not {k_ignorant} and {srcs}"
            )
        return (layout, None, self._initial_ident(state, layout), (), srcs)

    @staticmethod
    def _initial_ident(state, layout) -> tuple[tuple[int, int], ...]:
        """Assign each pole-resident agent a path: ignorant agents get
        distinct unclaimed paths first, the source path 0."""
        claimed = {
            layout.path_of(v)
            for v, s in zip(state.positions, state.is_source)
            if not s and not layout.is_pole(v)
        }
        ident = []
        for a, (v, s) in enumerate(zip(state.positions, state.is_source)):
            if not layout.is_pole(v):
                continue
            if s:
                p = 0
            else:
                p = next(p for p in range(layout.n_paths) if p not in claimed)
                claimed.add(p)
            ident.append((a, p))
        return tuple(ident)

    # -- per-round bookkeeping ---------------------------------------------------------

    def decide(self, surviving: Graph, state: AgentState, memory):
        layout, phase, ident_pairs, data, prev_srcs = memory
        ident = dict(ident_pairs)
        srcs_now = state.is_source.count(True)
        ctx = _ThetaContext(layout, state, ident)

        # A conversion re-opens phase selection; so does phase completion.
        cls = self._classify(ctx)
        if phase is None or srcs_now > prev_srcs:
            phase, data = cls, ()
        phase, data = self._check_exit(ctx, cls, phase, data)
        targets, data = getattr(self, phase)(surviving, ctx, data)

        full = list(state.positions)
        for a, t in targets.items():
            full[a] = t
            # Identification follows commanded moves.
            if t == layout.north or t == layout.south:
                loc = layout.where.get(state.positions[a])
                if loc is not None:  # from a path onto a pole
                    ident.setdefault(a, loc[0])
            elif a in ident:
                del ident[a]
        return tuple(full), (layout, phase, tuple(sorted(ident.items())), data, srcs_now)

    # -- phase selection ----------------------------------------------------------------

    def _classify(self, ctx: "_ThetaContext") -> str:
        if ctx.sources_at(ctx.layout.north) and ctx.sources_at(ctx.layout.south):
            return _P5
        if ctx.pole_sources() and ctx.internal_sources():
            return _P4
        if ctx.double_source_site() is not None:
            return _P1
        return _PRE

    def _check_exit(self, ctx, cls, phase, data):
        """Move to a new phase when the running one finished or lost its
        precondition; otherwise persist (conversions reset the phase before
        this is consulted). `cls` is `_classify(ctx)`."""
        if phase == _P5:
            # Persist: once the two sweepers leave the poles they are no
            # longer classified as phase 5, but the pincer argument (the
            # adversary can spare only one missing edge for their path)
            # holds until a conversion.
            return phase, data
        if phase in (_PRE, _P1):
            # `_classify` gives _P1 exactly when a double-source site exists
            # and no case before it matches, so this is phase 1's exit too.
            return (cls, ()) if cls != phase else (phase, data)
        if phase == _P4 and cls == _P5:
            # Phase 4 starts with sources present and sources never go away,
            # so only phase 5 ends it.
            return cls, ()
        return phase, data

    # -- phase handlers -------------------------------------------------------------------

    def _run_pre(self, surviving, ctx, data):
        layout, state = ctx.layout, ctx.state
        targets: dict[int, int] = {}

        # Once the sweep has started, keep sweeping toward the same pole; a
        # source reaching that pole simply waits there for the chasing agent.
        if data and data[0] == "sweep":
            for a in range(state.total):
                targets[a] = self._step(surviving, ctx, a, data[1])
            return targets, data

        # Split any path holding two or more ignorant agents.
        crowded = ctx.crowded_paths()
        if crowded:
            for p_idx in crowded:
                members = ctx.ignorant_on_path(p_idx)
                a, b = sorted(members, key=lambda a: (ctx.coord_of(a, p_idx), a))[:2]
                targets[a] = self._step(surviving, ctx, a, layout.north)
                targets[b] = self._step(surviving, ctx, b, layout.south)
            self._reassign_pole_arrivals(ctx, targets)
            for a in ctx.pole_sources():
                targets[a] = self._enter_lowest_path(surviving, ctx, a)
            return targets, ()

        # Move any pole-resident source onto a path.
        if ctx.pole_sources():
            for a in ctx.pole_sources():
                targets[a] = self._enter_lowest_path(surviving, ctx, a)
            return targets, ()

        # Sandwich sweep: orient so the lowest source sits between the virtual
        # north pole and its path's ignorant agent, then push everyone toward
        # that pole.
        virt_north = self._sandwich_pole(ctx)
        for a in range(state.total):
            targets[a] = self._step(surviving, ctx, a, virt_north)
        return targets, ("sweep", virt_north)

    def _sandwich_pole(self, ctx) -> int:
        """The pole that puts the one source between itself and the one
        ignorant agent of the source's path (fact 8 of the class docstring)."""
        (s,) = ctx.internal_sources()
        p_idx = ctx.layout.path_of(ctx.state.positions[s])
        (d,) = ctx.ignorant_on_path(p_idx)
        chain = ctx.layout.chains[p_idx]
        return chain[0] if ctx.coord_of(s, p_idx) < ctx.coord_of(d, p_idx) else chain[-1]

    def _run_phase1(self, surviving, ctx, data):
        layout = ctx.layout
        targets: dict[int, int] = {}
        # `_check_exit` yields phase 1 only when `_classify` did, so a site exists.
        kind, where, pair = ctx.double_source_site()
        if kind == "pole":
            targets[pair[0]] = self._enter_lowest_path(surviving, ctx, pair[0])
        else:
            a, b = sorted(pair, key=lambda x: (ctx.coord_of(x, where), x))
            targets[a] = self._step(surviving, ctx, a, layout.north, path=where)
            targets[b] = self._step(surviving, ctx, b, layout.south, path=where)
        return targets, data

    def _run_phase4(self, surviving, ctx, data):
        layout, state = ctx.layout, ctx.state
        if not data:
            # Phase 4 starts with empty data only when `_classify` gave phase
            # 4, so exactly one pole holds sources: that pole is x.
            data = (layout.north if ctx.sources_at(layout.north) else layout.south, ())
        x, descenders = data[0], dict(data[1])
        y = layout.other_pole(x)
        if not descenders:
            # Cleanup 1: enough crossing candidates (x-pole sources plus sources
            # already standing on ignorant-free paths) for the ignorant-free paths.
            empty = ctx.empty_paths()
            x_sources = ctx.sources_at(x)
            on_empty = [s for s in ctx.internal_sources() if ctx.ident_path(s) in empty]
            if len(empty) > len(x_sources) + len(on_empty):
                split = self._split_crowded(surviving, ctx, exclude_pole=x)
                if split:
                    return split, (x, ())

            # Cleanup 2: need a source sandwiched between the x pole and an
            # ignorant agent on its path.
            if not self._sandwiched_exists(ctx, x):
                squeeze = self._squeeze(surviving, ctx, x)
                if squeeze:
                    return squeeze, (x, ())
                split = self._split_crowded(surviving, ctx, exclude_pole=x)
                if split:
                    return split, (x, ())

            # Pole sources walk distinct empty paths toward y.
            pool = sorted(x_sources)
            for p in empty:
                on_p = ctx.sources_on_path(p)
                if on_p:
                    descenders[on_p[0]] = p
                elif pool:
                    descenders[pool.pop(0)] = p
            data = (x, tuple(sorted(descenders.items())))

        # Main step: descenders cross toward y, everyone else sweeps toward x.
        targets: dict[int, int] = {}
        for a in range(state.total):
            if a in descenders and state.is_source[a]:
                targets[a] = self._step(surviving, ctx, a, y, path=descenders[a])
            else:
                targets[a] = self._step(surviving, ctx, a, x)
        return targets, data

    def _sandwiched_exists(self, ctx, x) -> bool:
        """Whether some internal source stands between the x pole and an
        ignorant agent of its path."""
        away = 1 if x == ctx.layout.north else -1  # coordinates grow away from x
        for s in ctx.internal_sources():
            p = ctx.layout.path_of(ctx.state.positions[s])
            cs = ctx.coord_of(s, p)
            if any(away * (ctx.coord_of(a, p) - cs) > 0 for a in ctx.ignorant_on_path(p)):
                return True
        return False

    def _squeeze(self, surviving, ctx, x):
        """If an ignorant agent stands between the x pole and an internal
        source of its path, close in on it from both sides."""
        layout = ctx.layout
        for s in ctx.internal_sources():
            p = layout.path_of(ctx.state.positions[s])
            cx = 0 if x == layout.north else len(layout.chains[p]) - 1
            lo, hi = sorted((ctx.coord_of(s, p), cx))
            if any(lo < ctx.coord_of(a, p) < hi for a in ctx.ignorant_on_path(p)):
                targets = {s: self._step(surviving, ctx, s, x, path=p)}
                pole_srcs = ctx.sources_at(x)
                if pole_srcs:
                    m = min(pole_srcs)
                    ctx.ident[m] = p
                    targets[m] = self._step(surviving, ctx, m, layout.other_pole(x), path=p)
                return targets
        return None

    def _split_crowded(self, surviving, ctx, exclude_pole):
        layout = ctx.layout
        for p_idx in range(layout.n_paths):
            members = [
                a
                for a in range(ctx.state.total)
                if ctx.ident_path(a) == p_idx and ctx.state.positions[a] != exclude_pole
            ]
            if len(members) >= 2:
                members.sort(key=lambda a: (ctx.coord_of(a, p_idx), a))
                a, b = members[0], members[-1]
                return {
                    a: self._step(surviving, ctx, a, layout.north, path=p_idx),
                    b: self._step(surviving, ctx, b, layout.south, path=p_idx),
                }
        return None

    def _run_phase5(self, surviving, ctx, data):
        layout = ctx.layout
        if not data:
            # Both poles hold a source (phase 5 starts with empty data only
            # when `_classify` gave it), so by fact 9 every ignorant agent, at
            # least one, stands on a path: sweep the lowest such path.
            target = min(ctx.ident_path(a) for a in ctx.ignorant())
            sn = min(ctx.sources_at(layout.north))
            ss = min(ctx.sources_at(layout.south))
            data = (target, sn, ss)
        target, sn, ss = data
        return {
            sn: self._step(surviving, ctx, sn, layout.south, path=target),
            ss: self._step(surviving, ctx, ss, layout.north, path=target),
        }, data

    # -- movement helpers ------------------------------------------------------------------

    def _step(self, surviving, ctx, a, pole, path=None):
        pos = ctx.state.positions[a]
        if pos == pole:
            return pos
        p_idx = path if path is not None else ctx.ident_path(a)
        return ctx.layout.step_toward(surviving, pos, p_idx, pole)

    def _enter_lowest_path(self, surviving, ctx, a):
        """From a pole, step onto the lowest-index path whose first edge
        survives; one does (fact 7 of the class docstring)."""
        pos = ctx.state.positions[a]
        for p_idx, chain in enumerate(ctx.layout.chains):
            nxt = chain[1] if pos == chain[0] else chain[-2]
            if surviving.has_edge(pos, nxt):
                ctx.ident[a] = p_idx
                return nxt

    def _reassign_pole_arrivals(self, ctx, targets):
        layout = ctx.layout
        for a, t in list(targets.items()):
            if layout.is_pole(t) and not ctx.state.is_source[a]:
                taken = {ctx.ident_path(b) for b in ctx.ignorant() if b != a}
                ctx.ident[a] = next(p for p in range(layout.n_paths) if p not in taken)


class _ThetaContext:
    """Read-mostly view of one round's configuration for the theta policy.

    Construction indexes the round once: each agent's path, the sources by
    node and by path, the pole sources and the ignorant agents. Only `ident`
    changes during a round (the phase handlers write it), so everything that
    reads it goes through `ident_path`.
    """

    def __init__(self, layout: ThetaLayout, state: AgentState, ident):
        self.layout = layout
        self.state = state
        self.ident = ident  # pole-resident agent id -> path index (mutable)
        where = layout.where
        path: list[int | None] = []  # each agent's path index; None on a pole
        sources: dict[int, list[int]] = {}  # node -> the sources there
        internal: list[int] = []
        internal_by_path: dict[int, list[int]] = {}
        ignorant: list[int] = []
        for a, (v, s) in enumerate(zip(state.positions, state.is_source)):
            loc = where.get(v)
            p = None if loc is None else loc[0]
            path.append(p)
            if s:
                sources.setdefault(v, []).append(a)
                if p is not None:
                    internal.append(a)
                    internal_by_path.setdefault(p, []).append(a)
            else:
                ignorant.append(a)
        self._path, self._sources, self._ignorant = path, sources, ignorant
        self._internal, self._internal_by_path = internal, internal_by_path
        self._pole_sources = sorted(sources.get(layout.north, []) + sources.get(layout.south, []))

    def ident_path(self, a: int) -> int | None:
        p = self._path[a]
        return self.ident.get(a) if p is None else p

    def coord_of(self, a: int, p_idx: int) -> int:
        return self.layout.coord(p_idx, self.state.positions[a])

    # The accessors below hand out the index's own lists; callers copy
    # before changing one.

    def sources_at(self, node: int) -> list[int]:
        return self._sources.get(node, [])

    def ignorant(self) -> list[int]:
        return self._ignorant

    def pole_sources(self) -> list[int]:
        return self._pole_sources

    def internal_sources(self) -> list[int]:
        return self._internal

    def sources_on_path(self, p_idx: int) -> list[int]:
        """The sources on the internal nodes of one path."""
        return self._internal_by_path.get(p_idx, [])

    def crowded_paths(self) -> list[int]:
        counts = Counter(self.ident_path(a) for a in self._ignorant)
        return sorted(p for p, c in counts.items() if c >= 2)

    def ignorant_on_path(self, p_idx: int) -> list[int]:
        return [a for a in self._ignorant if self.ident_path(a) == p_idx]

    def empty_paths(self) -> list[int]:
        """Paths with no identified ignorant agent. A source already
        standing on such a path does not block it: that source can itself
        cross it to the far pole."""
        used = {self.ident_path(a) for a in self._ignorant}
        return [p for p in range(self.layout.n_paths) if p not in used]

    def double_source_site(self):
        """A pole or path carrying two sources: ('pole', node, (ids)) or
        ('path', path index, (ids)); None if absent."""
        for pole in (self.layout.north, self.layout.south):
            here = self.sources_at(pole)
            if len(here) >= 2:
                return ("pole", pole, tuple(here[:2]))
        for p in sorted(self._internal_by_path):
            here = self.sources_on_path(p)
            if len(here) >= 2:
                return ("path", p, tuple(here[:2]))
        return None


# -- solver-extracted clique and lollipop policies -------------------------------------

# Largest clique solved: the state budget does not bound the branches per state.
MAX_CLIQUE_NODES = 6


def _clique_attractor(c: int, agents: int, budget_states: int) -> solver.Attractor:
    if c > MAX_CLIQUE_NODES:
        raise ValueError(f"clique larger than {MAX_CLIQUE_NODES} nodes")
    return solver.compute_attractor(make_complete(c), agents, budget_states=budget_states)


class CliquePolicy:
    """Winning policy for complete graphs, read off the exact solver's
    attractor (the underlying constructive strategy is cited, not included).
    The attractor is the policy's memory. Local, as `SolvedAgentPolicy` is."""

    role = "agents"
    local = True

    def __init__(self, budget_states: int = solver.DEFAULT_BUDGET_STATES):
        self.budget_states = budget_states
        self.name = "clique_policy"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        n = base.node_count
        if len(base.edges) != n * (n - 1) // 2:
            raise GraphError("clique policy requires a complete graph")
        return _clique_attractor(n, len(state.positions), self.budget_states)

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        targets, _ = solver.SolvedAgentPolicy(memory).decide(surviving, state, None)
        return targets, memory


class LollipopPolicy:
    """First marches every path-resident agent into the clique (path edges are
    bridges, so those moves can never be blocked), then plays the extracted
    clique strategy on the clique subgraph. Memory is (clique attractor,
    clique nodes, junction).

    Local. Path edges are bridges, so every survivor keeps them all, and the
    distances from the junction to path nodes are those of the path: the
    walk toward the junction reads no removable edge. The clique phase runs
    with every agent in the clique and hands the local `SolvedAgentPolicy`
    the surviving clique edges, which it reads only at occupied nodes.
    """

    role = "agents"
    local = True

    def __init__(self, budget_states: int = solver.DEFAULT_BUDGET_STATES):
        self.budget_states = budget_states
        self.name = "lollipop_policy"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        fam = base.family
        if fam is None or fam.kind != "lollipop":
            raise GraphError("lollipop policy requires a lollipop graph")
        clique_nodes = tuple(sorted(fam.labels["clique"]))
        att = _clique_attractor(len(clique_nodes), len(state.positions), self.budget_states)
        return att, clique_nodes, fam.labels["junction"]

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        att, clique_nodes, junction = memory
        clique = set(clique_nodes)
        outside = [a for a, p in enumerate(state.positions) if p not in clique]
        if outside:
            # Walk toward the junction; every path edge survives.
            dist = surviving.distances_from(junction)
            targets = []
            for a, pos in enumerate(state.positions):
                if pos in clique:
                    targets.append(pos)
                else:
                    targets.append(
                        min(
                            w
                            for w in surviving.neighbors(pos)
                            if dist[w] < dist[pos]
                        )
                    )
            return tuple(targets), memory

        relabel = {v: i for i, v in enumerate(clique_nodes)}
        back = dict(enumerate(clique_nodes))
        inner_edges = frozenset(
            (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
            for (u, v) in surviving.edges
            if u in clique and v in clique
        )
        inner_surviving = Graph(len(clique), inner_edges)
        inner_state = AgentState(
            tuple(relabel[p] for p in state.positions), state.is_source
        )
        inner = solver.SolvedAgentPolicy(att)
        inner_targets, _ = inner.decide(inner_surviving, inner_state, None)
        return tuple(back[t] for t in inner_targets), memory


# -- CLI-facing registry -----------------------------------------------------------------


def _int_param(spec: str, key: str, form: str, bare: bool = False) -> int | None:
    """The integer of `spec` = "name:key=N" (or "name:N" when `bare`), None
    without a parameter; any other key or value is a ValueError naming `form`."""
    name, _, params = spec.partition(":")
    given, eq, value = params.partition("=")
    if bare and not eq:
        given, value = key, params
    if not params:
        return None
    if given == key and value.removeprefix("-").isdecimal():
        return int(value)
    raise ValueError(f"{name} takes {form}, not {spec!r}")


def _bond_blocker(graph: Graph | None, _budget_states: int) -> BondBlocker:
    if graph is None:
        raise ValueError("bond_blocker needs a graph to pick its bond")
    best = largest_matching_bond(enumerate_bonds(graph))
    if best is None:
        raise ValueError("graph has no matching bond")
    return BondBlocker(best)


# The policies that take no parameter: name -> builder(graph, budget_states).
_PLAIN_POLICIES = {
    "passive": lambda graph, budget: PassiveAdversary(),
    "toward_source": lambda graph, budget: TowardSourcePolicy(),
    "greedy_path": lambda graph, budget: GreedyPathPolicy(),
    "theta_blocker": lambda graph, budget: ThetaBlocker(),
    "isolation_tree": lambda graph, budget: IsolationTreeAdversary(),
    "clique_policy": lambda graph, budget: CliquePolicy(budget),
    "lollipop_policy": lambda graph, budget: LollipopPolicy(budget),
    "bond_blocker": _bond_blocker,
}


def make_policy(
    spec: str, graph: Graph | None = None, budget_states: int = solver.DEFAULT_BUDGET_STATES
):
    """Build a policy from a name[:params] string, e.g. "theta_broadcast" (or
    "theta_broadcast:k=3"), "grid_flipflop:3x3" (or "grid_flipflop:3,3"),
    "random_tree:seed=7" (or "random_tree:7"), "bond_blocker" (largest
    matching bond of the given graph). A malformed parameter, or any
    parameter on a policy that takes none, is a ValueError that names the
    spec. Solver-backed policies build their attractor within
    `budget_states`."""
    name, colon, params = spec.partition(":")
    build = _PLAIN_POLICIES.get(name)
    if build is not None:
        if colon:
            raise ValueError(f"{name} takes no parameter, not {spec!r}")
        return build(graph, budget_states)
    if name == "random_tree":
        seed = _int_param(
            spec, "seed", "an integer seed, random_tree:seed=N or random_tree:N", bare=True
        )
        return RandomTreeAdversary(0 if seed is None else seed)
    if name == "theta_broadcast":
        k = _int_param(spec, "k", "an integer agent count, theta_broadcast:k=N")
        return ThetaBroadcastPolicy(k)
    if name == "grid_flipflop":
        rows, _, cols = params.replace(",", "x").partition("x")
        if not (rows.isdecimal() and cols.isdecimal()):
            raise ValueError(f"grid_flipflop needs a grid size, grid_flipflop:RxC, not {spec!r}")
        return GridFlipflopAdversary(int(rows), int(cols))
    raise ValueError(f"unknown policy {spec!r}")

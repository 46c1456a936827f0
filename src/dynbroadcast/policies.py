"""Agent and adversary policies.

Every policy is a deterministic decision procedure against the engine's
interface: agent policies map (surviving graph, agent state, memory) to a
target node per agent; adversary policies map (base graph, agent state,
memory) to a connectivity-preserving removal set. All "arbitrary" choices are
resolved lowest-id-first so traces are reproducible and cycle detection works.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Hashable

from . import solver
from .analysis import Bond, min_degree, vertex_connectivity
from .engine import AgentState, initial_state, step
from .graph import (
    Edge,
    Graph,
    GraphError,
    ThetaLayout,
    grid_node,
    is_connected,
    make_complete,
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
    name = "passive"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return None

    def decide(self, base: Graph, state: AgentState, memory: Hashable):
        return frozenset(), None


class RandomTreeAdversary:
    """Keeps a random spanning tree each round (random-order Kruskal), with
    the generator re-derived from (seed, round) so traces are reproducible."""

    role = "adversary"

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"random_tree:seed={seed}"

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return 0

    def decide(self, base: Graph, state: AgentState, memory: int):
        rng = random.Random(self.seed * 2654435761 + memory)
        edges = sorted(base.edges)
        rng.shuffle(edges)
        parent = list(range(base.node_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = set()
        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                kept.add((u, v))
        return base.edges - frozenset(kept), memory + 1


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
    edge toward the source, the source steps one edge toward them."""

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
        adj = surviving.adjacency()
        dist = surviving.distances_from(source)
        ig_set = set(ignorant_nodes)
        best = None  # (-count, agent node, path)
        for a in ignorant_nodes:
            # Lexicographically smallest shortest path: from every node, the
            # smallest neighbour one step closer to the source.
            path = [a]
            while path[-1] != source:
                v = path[-1]
                path.append(min(w for w in adj[v] if dist[w] == dist[v] - 1))
            count = sum(1 for v in path if v in ig_set)
            cand = (-count, a, path)
            if best is None or cand < best:
                best = cand
        path = best[2]
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
    within striking distance, spending at most one edge per path."""

    role = "adversary"
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
        sources = sorted(
            {p for p, s in zip(state.positions, state.is_source) if s}
        )
        ignorant = sorted(
            {p for p, s in zip(state.positions, state.is_source) if not s}
        )
        if not sources or not ignorant:
            return frozenset(), memory

        src_dist = [base.distances_from(s) for s in sources]

        def dist_to_source(v: int) -> int:
            return min(d[v] for d in src_dist)

        cuts: dict[int, Edge] = {}  # path index -> removed edge

        def norm(u: int, v: int) -> Edge:
            return (u, v) if u < v else (v, u)

        # Conversion guard: any ignorant agent within distance 2 of a source
        # gets the edge toward that source removed.
        for a in sorted(ignorant, key=lambda v: (dist_to_source(v), v)):
            if dist_to_source(a) > 2:
                continue
            nxt = min(
                (w for w in base.neighbors(a) if dist_to_source(w) < dist_to_source(a)),
                default=None,
            )
            if nxt is None:
                continue
            p_idx = layout.path_of(a)
            if p_idx is None:
                p_idx = layout.path_of(nxt)
            if p_idx is None:  # both poles adjacent: single-edge path
                continue
            if p_idx not in cuts:
                cuts[p_idx] = norm(a, nxt)

        # Pole guard: on paths without a cut, box the ignorant agent nearest a
        # pole by removing the edge between it and that pole's side.
        for p_idx, chain in enumerate(layout.chains):
            if p_idx in cuts:
                continue
            coords = sorted(
                layout.coord(p_idx, a)
                for a in ignorant
                if layout.path_of(a) == p_idx
            )
            if not coords:
                continue
            last = len(chain) - 1
            i = min(coords, key=lambda c: (min(c, last - c), c))
            if i <= last - i:
                cuts[p_idx] = norm(chain[i - 1], chain[i])
            else:
                cuts[p_idx] = norm(chain[i], chain[i + 1])

        # Keep at least one path fully intact.
        while cuts and not is_connected(
            base.node_count, base.edges - frozenset(cuts.values())
        ):
            cuts.pop(max(cuts))
        return frozenset(cuts.values()), memory


class BondBlocker:
    """Confines agents to their side of a matching bond by removing every cut
    edge that has an agent on an endpoint (at most m-1 of the m edges)."""

    role = "adversary"

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
                for w in sorted(base.neighbors(v)):
                    if w not in banned and w not in seen:
                        seen.add(w)
                        keep.add((min(v, w), max(v, w)))
                        nxt.append(w)
            frontier = nxt
        return base.edges - frozenset(keep), memory


# -- grid flip-flop adversary ---------------------------------------------------------


def _serpentine(rows: int, cols: int) -> tuple[int, ...]:
    """Column serpentine visiting (0,0) first: column 0 downward, column 1
    upward, and so on."""
    order = []
    for c in range(cols):
        rs = range(rows) if c % 2 == 0 else range(rows - 1, -1, -1)
        for r in rs:
            order.append(grid_node(rows, cols, r, c))
    return tuple(order)


def _path_edges(order) -> frozenset[Edge]:
    return frozenset(
        (min(a, b), max(a, b)) for a, b in zip(order, order[1:])
    )


def _hamiltonian_paths(g: Graph) -> list[tuple[int, ...]]:
    """All Hamiltonian paths, each reported once (lower endpoint first)."""
    n = g.node_count
    adjacency = g.adjacency()
    out = []

    def extend(path, used):
        if len(path) == n:
            if path[0] < path[-1]:
                out.append(tuple(path))
            return
        for w in adjacency[path[-1]]:
            if w not in used:
                used.add(w)
                path.append(w)
                extend(path, used)
                path.pop()
                used.remove(w)

    for v in range(n):
        extend([v], {v})
    return out


class GridFlipflopAdversary:
    """Alternates between two serpentine spanning paths of a grid so that the
    greedy path policy shuttles the agents back and forth forever with no
    conversion. The partner path is found by a deterministic search validated
    by the period-2 / zero-conversion property itself."""

    role = "adversary"
    _cache: dict[tuple[int, int], tuple] = {}

    def __init__(self, rows: int, cols: int):
        if rows * cols < 6:
            raise ValueError("flip-flop requires a grid with more than 2x2 cells")
        self.rows = rows
        self.cols = cols
        self.name = f"grid_flipflop:{rows}x{cols}"
        self._prepared = self._prepare(rows, cols)

    # -- construction ------------------------------------------------------------

    @classmethod
    def _prepare(cls, rows: int, cols: int):
        key = (rows, cols)
        if key not in cls._cache:
            cls._cache[key] = cls._search(rows, cols)
        return cls._cache[key]

    @staticmethod
    def _placements(rows: int, cols: int):
        """Candidate placements: source at (0,0), column 1 full of ignorant
        agents, every later column missing its top or bottom cell alternately
        (both alternation phases are tried)."""
        for start in (0, 1):
            ignorant = [grid_node(rows, cols, r, 1) for r in range(rows)]
            for c in range(2, cols):
                skip = 0 if (c + start) % 2 == 0 else rows - 1
                ignorant.extend(
                    grid_node(rows, cols, r, c) for r in range(rows) if r != skip
                )
            yield sorted(ignorant), [grid_node(rows, cols, 0, 0)]

    @classmethod
    def _search(cls, rows: int, cols: int):
        from .graph import make_grid

        base = make_grid(rows, cols)
        greedy = GreedyPathPolicy()
        snake = _path_edges(_serpentine(rows, cols))
        if base.node_count <= 12:
            pool = [snake] + [
                es
                for es in (_path_edges(p) for p in _hamiltonian_paths(base))
                if es != snake
            ]
        else:
            pool = [snake]

        def play(kept, state):
            return step(
                base,
                state,
                base.edges - kept,
                cls._greedy_targets(base, kept, state, greedy),
            )

        # The alternation only needs to be periodic from round 1 on: the
        # opening state is transient and the period-2 orbit is (s1, s2), with
        # the first path mapping s2 back to s1. The serpentine is tried first,
        # but any spanning-path pair satisfying the zero-conversion period-2
        # property is accepted.
        for ignorant, source in cls._placements(rows, cols):
            s0 = initial_state(ignorant, source)
            for t1_edges in pool:
                s1, conv1 = play(t1_edges, s0)
                if conv1:
                    continue
                for t2_edges in pool:
                    s2, conv2 = play(t2_edges, s1)
                    if conv2 or s2 == s1:
                        continue
                    s3, conv3 = play(t1_edges, s2)
                    if not conv3 and s3 == s1:
                        return s0, t1_edges, t2_edges
        raise GraphError(
            f"no period-2 flip-flop construction found for {rows}x{cols} grid"
        )

    @staticmethod
    def _greedy_targets(base, kept_edges, state, greedy):
        surviving = base.without(base.edges - kept_edges)
        targets, _ = greedy.decide(surviving, state, None)
        return targets

    # -- adversary interface --------------------------------------------------------

    def place(self, base: Graph, k_ignorant: int, k_source: int = 1) -> AgentState:
        s0, _, _ = self._prepared
        ig = [p for p, s in zip(s0.positions, s0.is_source) if not s]
        src = [p for p, s in zip(s0.positions, s0.is_source) if s]
        if k_ignorant != len(ig) or k_source != len(src):
            raise ValueError(
                f"flip-flop placement uses {len(ig)} ignorant and {len(src)} source agents"
            )
        return s0

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        return 0

    def decide(self, base: Graph, state: AgentState, memory: int):
        _, t1_edges, t2_edges = self._prepared
        kept = t1_edges if memory == 0 else t2_edges
        return base.edges - kept, 1 - memory


# -- theta broadcast: the opening phase and the five-phase algorithm -----------------

_PRE, _P1, _P2, _P3, _P4, _P5 = "pre", "1", "2", "3", "4", "5"


class ThetaBroadcastPolicy:
    """Winning policy for a generalized theta graph with at least as many
    ignorant agents as paths.

    The policy keeps one tracked ignorant agent identified with each path,
    then repeatedly engineers a meeting: phases funnel source agents to the
    poles, from which two sources can sweep a single path end-to-end; the
    adversary can remove only one edge per path per round, so it must concede
    either the sweep or a conversion elsewhere. Extra ignorant agents beyond
    the number of paths stand still until the tracked subset is exhausted and
    refreshed.

    Memory layout (hashable): (theta layout, phase, tracked ids, pole
    identification pairs, phase data, source count at the previous round).
    """

    role = "agents"
    name = "theta_broadcast"

    def __init__(self, k: int | None = None):
        self.k = k

    # -- memory helpers --------------------------------------------------------------

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        layout = _require_theta(base)
        k_ignorant = sum(1 for s in state.is_source if not s)
        if self.k is not None and self.k != k_ignorant:
            raise ValueError(f"policy built for k={self.k}, state has {k_ignorant}")
        if k_ignorant < layout.n_paths:
            raise ValueError("needs at least one ignorant agent per path")
        tracked = self._fresh_tracked(state, layout)
        ident = self._initial_ident(state, layout, tracked)
        srcs = sum(1 for s in state.is_source if s)
        return (layout, None, tracked, ident, (), srcs)

    @staticmethod
    def _fresh_tracked(state: AgentState, layout: ThetaLayout) -> tuple[int, ...]:
        ignorant_ids = [i for i, s in enumerate(state.is_source) if not s]
        return tuple(ignorant_ids[: layout.n_paths])

    @staticmethod
    def _initial_ident(state, layout, tracked) -> tuple[tuple[int, int], ...]:
        """Assign each pole-resident agent a path: tracked ignorant agents get
        distinct unclaimed paths first, everything else path 0."""
        claimed = {
            layout.path_of(state.positions[a])
            for a in tracked
            if not layout.is_pole(state.positions[a])
        }
        ident = []
        for a in range(len(state.positions)):
            if not layout.is_pole(state.positions[a]):
                continue
            if a in tracked:
                free = [p for p in range(layout.n_paths) if p not in claimed]
                p = free[0] if free else 0
                claimed.add(p)
            else:
                p = 0
            ident.append((a, p))
        return tuple(ident)

    # -- per-round bookkeeping ---------------------------------------------------------

    def decide(self, surviving: Graph, state: AgentState, memory):
        layout, phase, tracked, ident_pairs, data, prev_srcs = memory
        ident = dict(ident_pairs)
        n_agents = len(state.positions)
        srcs_now = sum(1 for s in state.is_source if s)

        # Refresh the tracked subset once every member has converted.
        if all(state.is_source[a] for a in tracked):
            remaining = [i for i, s in enumerate(state.is_source) if not s]
            if remaining:
                tracked = tuple(remaining[: layout.n_paths])
                phase = None
            else:
                return state.positions, (
                    layout, phase, tracked, tuple(sorted(ident.items())), data, srcs_now
                )

        ctx = _ThetaContext(layout, state, tracked, ident)

        # A conversion re-opens phase selection; so does phase completion.
        if phase is None or srcs_now > prev_srcs:
            phase, data = self._classify(ctx), ()
        phase, data = self._check_exit(ctx, phase, data)

        handler = {
            _PRE: self._run_pre,
            _P1: self._run_phase1,
            _P2: self._run_phase2,
            _P3: self._run_phase3,
            _P4: self._run_phase4,
            _P5: self._run_phase5,
        }[phase]
        targets, data = handler(surviving, ctx, data)

        full = list(state.positions)
        for a, t in targets.items():
            full[a] = t
        # Identification follows commanded moves.
        for a, t in targets.items():
            if layout.is_pole(t) and not layout.is_pole(state.positions[a]):
                ident.setdefault(a, layout.path_of(state.positions[a]))
            elif not layout.is_pole(t) and a in ident:
                del ident[a]
        new_mem = (layout, phase, tracked, tuple(sorted(ident.items())), data, srcs_now)
        return tuple(full), new_mem

    # -- phase selection ----------------------------------------------------------------

    def _classify(self, ctx: "_ThetaContext") -> str:
        if ctx.sources_at(ctx.layout.north) and ctx.sources_at(ctx.layout.south):
            return _P5
        if ctx.pole_sources() and ctx.internal_sources():
            return _P4 if ctx.empty_paths() else _P2
        if ctx.double_source_site() is not None:
            return _P1
        if ctx.phase3_ready():
            return _P3
        return _PRE

    def _check_exit(self, ctx, phase, data):
        """Move to a new phase when the running one finished or lost its
        precondition; otherwise persist (conversions reset the phase before
        this is consulted)."""
        cls = self._classify(ctx)
        layout = ctx.layout
        if phase == _P5:
            # Persist: once the two sweepers leave the poles they are no
            # longer classified as phase 5, but the pincer argument (the
            # adversary can spare only one missing edge for their path)
            # holds until a conversion.
            return phase, data
        if phase == _PRE:
            return (cls, ()) if cls != _PRE else (phase, data)
        if phase == _P1:
            if cls in (_P2, _P4, _P5):
                return cls, ()
            if ctx.double_source_site() is None:
                return cls, ()
            return phase, data
        if phase == _P2:
            if cls == _P5:
                return cls, ()
            if ctx.phase3_ready():
                return _P3, ()
            if data:
                x = layout.other_pole(data[0])
                if not ctx.sources_at(x) and not ctx.internal_sources():
                    return cls, ()
            if ctx.pole_sources() and ctx.internal_sources() and cls in (_P2, _P4):
                y = data[0] if data else None
                if any(layout.is_pole(v) and v != y for v in ctx.source_nodes()):
                    return cls, ()
            return phase, data
        if phase == _P3:
            if cls in (_P2, _P4, _P5):
                return cls, ()
            return phase, data
        if phase == _P4:
            if cls == _P5:
                return cls, ()
            if not ctx.pole_sources() and not ctx.internal_sources():
                return cls, ()
            return phase, data
        return phase, data

    # -- phase handlers -------------------------------------------------------------------

    def _run_pre(self, surviving, ctx, data):
        layout, state = ctx.layout, ctx.state
        targets: dict[int, int] = {}

        # Once the sweep has started, keep sweeping toward the same pole; a
        # source reaching that pole simply waits there for the chasing agent.
        if data and data[0] == "sweep":
            for a in ctx.movers():
                targets[a] = self._step(surviving, ctx, a, data[1])
            return targets, data

        # Split any path holding two or more tracked ignorant agents.
        crowded = ctx.crowded_paths()
        if crowded:
            for p_idx in crowded:
                members = ctx.tracked_on_path(p_idx)
                members.sort(key=lambda a: (ctx.coord_of(a, p_idx), a))
                a, b = members[0], members[1]
                targets[a] = self._step(surviving, ctx, a, layout.north)
                targets[b] = self._step(surviving, ctx, b, layout.south)
            self._reassign_pole_arrivals(ctx, targets)
            for a in ctx.pole_sources():
                targets[a] = self._enter_lowest_path(surviving, ctx, a)
            return targets, ()

        # Move any pole-resident source onto a path.
        pole_sources = ctx.pole_sources()
        if pole_sources:
            for a in pole_sources:
                targets[a] = self._enter_lowest_path(surviving, ctx, a)
            return targets, ()

        # Sandwich sweep: orient so the lowest source sits between the virtual
        # north pole and its path's tracked ignorant agent, then push everyone
        # toward that pole.
        virt_north = self._sandwich_pole(ctx)
        for a in ctx.movers():
            targets[a] = self._step(surviving, ctx, a, virt_north)
        return targets, ("sweep", virt_north)

    def _sandwich_pole(self, ctx) -> int:
        layout = ctx.layout
        for s in ctx.internal_sources():
            p_idx = layout.path_of(ctx.state.positions[s])
            mates = [
                a
                for a in ctx.tracked_ignorant()
                if ctx.ident_path(a) == p_idx
            ]
            if mates:
                d = min(mates)
                cs = ctx.coord_of(s, p_idx)
                cd = ctx.coord_of(d, p_idx)
                chain = layout.chains[p_idx]
                return chain[0] if cs < cd else chain[-1]
        return layout.north

    def _run_phase1(self, surviving, ctx, data):
        layout = ctx.layout
        targets: dict[int, int] = {}
        site = ctx.double_source_site()
        if site is None:
            return targets, data
        kind, where, pair = site
        if kind == "pole":
            mover = pair[0]
            targets[mover] = self._enter_lowest_path(surviving, ctx, mover)
        else:
            a, b = sorted(pair, key=lambda x: (ctx.coord_of(x, where), x))
            targets[a] = self._step(surviving, ctx, a, layout.north, path=where)
            targets[b] = self._step(surviving, ctx, b, layout.south, path=where)
        return targets, data

    def _run_phase2(self, surviving, ctx, data):
        layout = ctx.layout
        if not data:
            x = next(
                (v for v in (layout.north, layout.south) if ctx.sources_at(v)),
                layout.north,
            )
            data = (layout.other_pole(x),)
        y = data[0]
        x = layout.other_pole(y)
        targets: dict[int, int] = {}
        for a in ctx.movers():
            pos = ctx.state.positions[a]
            if pos == x and ctx.state.is_source[a]:
                targets[a] = self._enter_lowest_path(
                    surviving, ctx, a, prefer_ignorant=True
                )
            else:
                targets[a] = self._step(surviving, ctx, a, y)
        return targets, data

    def _run_phase3(self, surviving, ctx, data):
        layout = ctx.layout
        if not data:
            y = next(
                v
                for v in (layout.north, layout.south)
                if len(ctx.tracked_at(v)) >= 2
            )
            ds = sorted(ctx.tracked_at(y))[:2]
            source_paths = []
            for s in ctx.internal_sources():
                p = layout.path_of(ctx.state.positions[s])
                if p not in source_paths:
                    source_paths.append(p)
                if len(source_paths) == 2:
                    break
            assign = tuple(zip(ds, sorted(source_paths)))
            data = (y, assign)
        y, assign = data
        x = layout.other_pole(y)
        assigned = dict(assign)
        targets: dict[int, int] = {}
        for a in ctx.movers():
            if a in assigned:
                ctx.ident[a] = assigned[a]
                targets[a] = self._step(surviving, ctx, a, x, path=assigned[a])
            else:
                targets[a] = self._step(surviving, ctx, a, x)
        return targets, data

    def _run_phase4(self, surviving, ctx, data):
        layout, state = ctx.layout, ctx.state
        if not data:
            x = next(
                (v for v in (layout.north, layout.south) if ctx.sources_at(v)),
                layout.north,
            )
            data = (x, ())
        x = data[0]
        descenders = dict(data[1])
        y = layout.other_pole(x)
        targets: dict[int, int] = {}

        # Cleanup 1: enough crossing candidates (x-pole sources plus sources
        # already standing on ignorant-free paths) for the ignorant-free paths.
        empty = ctx.empty_paths()
        x_sources = [a for a in ctx.sources_at(x)]
        on_empty = [
            s
            for s in ctx.internal_sources()
            if layout.path_of(state.positions[s]) in empty
        ]
        if len(empty) > len(x_sources) + len(on_empty) and not descenders:
            split = self._split_crowded(surviving, ctx, exclude_pole=x)
            if split:
                return split, (x, ())

        # Cleanup 2: need a source sandwiched between the x pole and a tracked
        # ignorant agent on its path.
        if not descenders and not self._sandwiched_exists(ctx, x):
            squeeze = self._squeeze(surviving, ctx, x)
            if squeeze:
                return squeeze, (x, ())
            split = self._split_crowded(surviving, ctx, exclude_pole=x)
            if split:
                return split, (x, ())

        # Main step: pole sources walk distinct empty-ish paths toward y,
        # everyone else sweeps toward x.
        if not descenders:
            paths = empty or list(range(layout.n_paths))
            pool = sorted(x_sources)
            for p in paths:
                on_p = sorted(
                    s
                    for s in ctx.internal_sources()
                    if layout.path_of(state.positions[s]) == p
                )
                if on_p:
                    descenders[on_p[0]] = p
                elif pool:
                    descenders[pool.pop(0)] = p
        for a in ctx.movers():
            if a in descenders and state.is_source[a]:
                targets[a] = self._step(surviving, ctx, a, y, path=descenders[a])
            else:
                targets[a] = self._step(surviving, ctx, a, x)
        return targets, (x, tuple(sorted(descenders.items())))

    def _sandwiched_exists(self, ctx, x) -> bool:
        layout = ctx.layout
        for s in ctx.internal_sources():
            p = layout.path_of(ctx.state.positions[s])
            cs = ctx.coord_of(s, p)
            for a in ctx.tracked_ignorant():
                if ctx.ident_path(a) == p:
                    ca = ctx.coord_of(a, p)
                    if (x == layout.north and ca > cs) or (
                        x == layout.south and ca < cs
                    ):
                        return True
        return False

    def _squeeze(self, ctx_surviving, ctx, x):
        """If an ignorant agent sits between the x-pole source and an internal
        source on one path, close in from both sides."""
        surviving = ctx_surviving
        layout = ctx.layout
        for s in ctx.internal_sources():
            p = layout.path_of(ctx.state.positions[s])
            cs = ctx.coord_of(s, p)
            cx = 0 if x == layout.north else len(layout.chains[p]) - 1
            for a in ctx.tracked_ignorant():
                if ctx.ident_path(a) != p:
                    continue
                ca = ctx.coord_of(a, p)
                if min(cs, cx) < ca < max(cs, cx):
                    targets = {}
                    targets[s] = self._step(surviving, ctx, s, x, path=p)
                    pole_srcs = ctx.sources_at(x)
                    if pole_srcs:
                        m = min(pole_srcs)
                        ctx.ident[m] = p
                        targets[m] = self._step(
                            surviving, ctx, m, layout.other_pole(x), path=p
                        )
                    return targets
        return None

    def _split_crowded(self, surviving, ctx, exclude_pole):
        layout = ctx.layout
        for p_idx in range(layout.n_paths):
            members = [
                a
                for a in range(len(ctx.state.positions))
                if ctx.ident_path(a) == p_idx
                and ctx.state.positions[a] != exclude_pole
                and (a in ctx.tracked or ctx.state.is_source[a])
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
            target = None
            for p_idx in range(layout.n_paths):
                if any(
                    ctx.ident_path(a) == p_idx
                    and not layout.is_pole(ctx.state.positions[a])
                    for a in ctx.tracked_ignorant()
                ):
                    target = p_idx
                    break
            if target is None:
                target = 0
            sn = min(ctx.sources_at(layout.north), default=None)
            ss = min(ctx.sources_at(layout.south), default=None)
            data = (target, sn, ss)
        target, sn, ss = data
        targets: dict[int, int] = {}
        if sn is not None:
            ctx.ident.setdefault(sn, target)
            targets[sn] = self._step(surviving, ctx, sn, layout.south, path=target)
        if ss is not None:
            ctx.ident.setdefault(ss, target)
            targets[ss] = self._step(surviving, ctx, ss, layout.north, path=target)
        return targets, data

    # -- movement helpers ------------------------------------------------------------------

    def _step(self, surviving, ctx, a, pole, path=None):
        layout = ctx.layout
        pos = ctx.state.positions[a]
        if pos == pole:
            return pos
        p_idx = path if path is not None else ctx.ident_path(a)
        if p_idx is None:
            return pos
        return layout.step_toward(surviving, pos, p_idx, pole)

    def _enter_lowest_path(self, surviving, ctx, a, prefer_ignorant=False):
        """From a pole, step onto the lowest-index path (preferring paths that
        hold a tracked ignorant agent) whose first edge survives."""
        layout = ctx.layout
        pos = ctx.state.positions[a]
        candidates = list(range(layout.n_paths))
        if prefer_ignorant:
            with_ig = [
                p
                for p in candidates
                if any(ctx.ident_path(d) == p for d in ctx.tracked_ignorant())
            ]
            candidates = with_ig + [p for p in candidates if p not in with_ig]
        for p_idx in candidates:
            chain = layout.chains[p_idx]
            nxt = chain[1] if pos == chain[0] else chain[-2]
            if surviving.has_edge(pos, nxt):
                ctx.ident[a] = p_idx
                return nxt
        return pos

    def _reassign_pole_arrivals(self, ctx, targets):
        layout = ctx.layout
        for a, t in list(targets.items()):
            if layout.is_pole(t) and a in ctx.tracked and not ctx.state.is_source[a]:
                taken = {
                    ctx.ident_path(b)
                    for b in ctx.tracked_ignorant()
                    if b != a
                }
                free = [p for p in range(layout.n_paths) if p not in taken]
                if free:
                    ctx.ident[a] = free[0]


class _ThetaContext:
    """Read-mostly view of one round's configuration for the theta policy."""

    def __init__(self, layout: ThetaLayout, state: AgentState, tracked, ident):
        self.layout = layout
        self.state = state
        self.tracked = tracked
        self.ident = ident  # pole-resident agent id -> path index (mutable)

    def ident_path(self, a: int) -> int | None:
        pos = self.state.positions[a]
        if self.layout.is_pole(pos):
            return self.ident.get(a)
        return self.layout.path_of(pos)

    def coord_of(self, a: int, p_idx: int) -> int:
        return self.layout.coord(p_idx, self.state.positions[a])

    def source_nodes(self):
        return {
            p for p, s in zip(self.state.positions, self.state.is_source) if s
        }

    def sources_at(self, node: int) -> list[int]:
        return [
            a
            for a, (p, s) in enumerate(zip(self.state.positions, self.state.is_source))
            if s and p == node
        ]

    def tracked_at(self, node: int) -> list[int]:
        return [
            a
            for a in self.tracked
            if not self.state.is_source[a] and self.state.positions[a] == node
        ]

    def tracked_ignorant(self) -> list[int]:
        return [a for a in self.tracked if not self.state.is_source[a]]

    def pole_sources(self) -> list[int]:
        return sorted(
            self.sources_at(self.layout.north) + self.sources_at(self.layout.south)
        )

    def internal_sources(self) -> list[int]:
        return [
            a
            for a, (p, s) in enumerate(zip(self.state.positions, self.state.is_source))
            if s and not self.layout.is_pole(p)
        ]

    def movers(self) -> list[int]:
        """Tracked ignorant agents plus every source."""
        out = set(self.tracked_ignorant())
        out.update(a for a, s in enumerate(self.state.is_source) if s)
        return sorted(out)

    def crowded_paths(self) -> list[int]:
        counts: dict[int, int] = {}
        for a in self.tracked_ignorant():
            p = self.ident_path(a)
            if p is not None:
                counts[p] = counts.get(p, 0) + 1
        return sorted(p for p, c in counts.items() if c >= 2)

    def tracked_on_path(self, p_idx: int) -> list[int]:
        return [a for a in self.tracked_ignorant() if self.ident_path(a) == p_idx]

    def empty_paths(self) -> list[int]:
        """Paths with no identified tracked ignorant agent. A source already
        standing on such a path does not block it: that source can itself
        cross it to the far pole."""
        used = set()
        for a in self.tracked_ignorant():
            p = self.ident_path(a)
            if p is not None:
                used.add(p)
        return [p for p in range(self.layout.n_paths) if p not in used]

    def double_source_site(self):
        """A pole or path carrying two sources: ('pole', node, (ids)) or
        ('path', path index, (ids)); None if absent."""
        for pole in (self.layout.north, self.layout.south):
            here = self.sources_at(pole)
            if len(here) >= 2:
                return ("pole", pole, tuple(sorted(here)[:2]))
        by_path: dict[int, list[int]] = {}
        for a in self.internal_sources():
            p = self.layout.path_of(self.state.positions[a])
            by_path.setdefault(p, []).append(a)
        for p in sorted(by_path):
            if len(by_path[p]) >= 2:
                return ("path", p, tuple(sorted(by_path[p])[:2]))
        return None

    def phase3_ready(self) -> bool:
        for pole in (self.layout.north, self.layout.south):
            if len(self.tracked_at(pole)) >= 2:
                paths = {
                    self.layout.path_of(self.state.positions[a])
                    for a in self.internal_sources()
                }
                if len(paths) >= 2:
                    return True
        return False


# -- solver-extracted clique and lollipop policies -------------------------------------


class CliquePolicy:
    """Winning policy for complete graphs, read off the exact solver's
    attractor (the underlying constructive strategy is cited, not included)."""

    role = "agents"

    def __init__(
        self, max_nodes: int = 6, budget_states: int = solver.DEFAULT_BUDGET_STATES
    ):
        self.max_nodes = max_nodes
        self.budget_states = budget_states
        self.name = "clique_policy"
        self._inner = None

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        n = base.node_count
        if len(base.edges) != n * (n - 1) // 2:
            raise GraphError("clique policy requires a complete graph")
        if n > self.max_nodes:
            raise ValueError(f"clique larger than max_nodes={self.max_nodes}")
        att = solver.compute_attractor(
            base, len(state.positions), budget_states=self.budget_states
        )
        self._inner = solver.SolvedAgentPolicy(att)
        return None

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        return self._inner.decide(surviving, state, memory)


class LollipopPolicy:
    """First marches every path-resident agent into the clique (path edges are
    bridges, so those moves can never be blocked), then plays the extracted
    clique strategy on the clique subgraph."""

    role = "agents"

    def __init__(
        self, max_nodes: int = 6, budget_states: int = solver.DEFAULT_BUDGET_STATES
    ):
        self.max_nodes = max_nodes
        self.budget_states = budget_states
        self.name = "lollipop_policy"
        self._clique_nodes: tuple[int, ...] | None = None
        self._junction: int | None = None
        self._att = None

    def initial_memory(self, base: Graph, state: AgentState) -> Hashable:
        fam = base.family
        if fam is None or fam.kind != "lollipop":
            raise GraphError("lollipop policy requires a lollipop graph")
        self._clique_nodes = tuple(sorted(fam.labels["clique"]))
        self._junction = fam.labels["junction"]
        c = len(self._clique_nodes)
        if c > self.max_nodes:
            raise ValueError(f"clique larger than max_nodes={self.max_nodes}")
        self._att = solver.compute_attractor(
            make_complete(c), len(state.positions), budget_states=self.budget_states
        )
        return None

    def decide(self, surviving: Graph, state: AgentState, memory: Hashable):
        clique = set(self._clique_nodes)
        outside = [a for a, p in enumerate(state.positions) if p not in clique]
        if outside:
            # Walk toward the junction; every path edge survives.
            dist = surviving.distances_from(self._junction)
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

        relabel = {v: i for i, v in enumerate(self._clique_nodes)}
        back = dict(enumerate(self._clique_nodes))
        inner_edges = frozenset(
            (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
            for (u, v) in surviving.edges
            if u in clique and v in clique
        )
        inner_surviving = Graph(len(clique), inner_edges)
        inner_state = AgentState(
            tuple(relabel[p] for p in state.positions), state.is_source
        )
        inner = solver.SolvedAgentPolicy(self._att)
        inner_targets, _ = inner.decide(inner_surviving, inner_state, None)
        return tuple(back[t] for t in inner_targets), memory


# -- CLI-facing registry -----------------------------------------------------------------


def make_policy(
    spec: str, graph: Graph | None = None, budget_states: int = solver.DEFAULT_BUDGET_STATES
):
    """Build a policy from a name[:params] string, e.g. "theta_broadcast",
    "grid_flipflop:3x3", "random_tree:seed=7", "bond_blocker" (largest
    matching bond of the given graph). Solver-backed policies build their
    attractor within `budget_states`."""
    name, _, params = spec.partition(":")
    kv = {}
    if params and "=" in params:
        for part in params.split(","):
            key, _, val = part.partition("=")
            kv[key] = val
    if name == "passive":
        return PassiveAdversary()
    if name == "random_tree":
        return RandomTreeAdversary(int(kv.get("seed", params or 0)))
    if name == "toward_source":
        return TowardSourcePolicy()
    if name == "greedy_path":
        return GreedyPathPolicy()
    if name == "theta_broadcast":
        return ThetaBroadcastPolicy(int(kv["k"]) if "k" in kv else None)
    if name == "theta_blocker":
        return ThetaBlocker()
    if name == "isolation_tree":
        return IsolationTreeAdversary()
    if name == "clique_policy":
        return CliquePolicy(int(kv.get("max_nodes", 6)), budget_states)
    if name == "lollipop_policy":
        return LollipopPolicy(int(kv.get("max_nodes", 6)), budget_states)
    if name == "grid_flipflop":
        rows, _, cols = params.partition("x")
        return GridFlipflopAdversary(int(rows), int(cols))
    if name == "bond_blocker":
        if graph is None:
            raise ValueError("bond_blocker needs a graph to pick its bond")
        from .analysis import enumerate_bonds

        best = None
        for bond in enumerate_bonds(graph):
            if bond.is_matching and (best is None or len(bond.edges) > len(best.edges)):
                best = bond
        if best is None:
            raise ValueError("graph has no matching bond")
        return BondBlocker(best)
    raise ValueError(f"unknown policy {spec!r}")

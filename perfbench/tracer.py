"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces the public entry points of each `dynbroadcast`
module with timing wrappers. A wrapper is bound wherever a caller looks the
name up: every `dynbroadcast.*` module namespace (so `solver`'s own
`from .graph import is_connected` and `policies`' `from .engine import step`
are covered), dict values such as `cli._DISPATCH`, and class attributes for
`Graph` methods and policy `decide` methods. `_check_fixed_agents` imports
`engine.step` at call time, which picks up the rebound module attribute.
Policies are patched on the class, so the instances the engine and the
model checker see are unchanged: `role`, `name`, `place`, `initial_memory`
and the memory values they key on stay exactly as without tracing.

Every span has a name, a start, an end and a parent. Hot primitives
(`decide`, `step`, `without`, ...) run hundreds of thousands of times in one
model check, so their spans are aggregated per (name, parent) in memory;
the rest are kept one by one. Both are written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

# Layer metric name -> (module, attribute) pairs it covers. A dotted attribute
# names a class attribute.
COLD = {
    "solver.compute_attractor": [("solver", "compute_attractor")],
    "solver.branches": [("solver", "spanning_trees"), ("solver", "connected_removals")],
    "solver.min_agents": [("solver", "min_agents")],
    "solver.game_value": [("solver", "game_value")],
    "solver.model_check": [("solver", "model_check_policy")],
    "engine.simulate": [("engine", "simulate")],
    "engine.trace_json": [("engine", "trace_to_json"), ("engine", "trace_from_json")],
    "engine.check_trace": [("engine", "check_trace")],
    "analysis.bound_report": [("analysis", "bound_report")],
    "cli.verify": [("cli", "cmd_verify")],
}
HOT = {
    "graph.adjacency": [("graph", "Graph.adjacency")],
    "graph.without": [("graph", "Graph.without")],
    "graph.distances_from": [("graph", "Graph.distances_from")],
    "graph.is_connected": [("graph", "is_connected")],
    "engine.step": [("engine", "step")],
    "engine.validate_removal": [("engine", "validate_removal")],
    "engine.contraction_check": [("engine", "_pairwise_contraction_check")],
}
POLICY_MODULES = ("policies", "solver")  # SolvedAgentPolicy lives in solver

# Metrics that are counts of work and must repeat exactly for one seed.
COUNTS = [
    "solver.compute_attractor.calls",
    "solver.compute_attractor.cache_hits",
    "solver.attractor.states",
    "solver.attractor.winning",
    "solver.attractor.max_rank",
    "solver.attractor.pairs",
    "solver.branches.count",
    "solver.game_value.calls",
    "solver.model_check.calls",
    "solver.model_check.nodes",
    "policies.agent_decide.calls",
    "policies.adversary_decide.calls",
    "engine.step.calls",
    "engine.simulate.calls",
    "engine.rounds",
    "engine.validate_removal.calls",
    "engine.contraction_check.calls",
    "engine.trace_json.bytes",
    "graph.adjacency.calls",
    "graph.without.calls",
    "graph.distances_from.calls",
    "graph.is_connected.calls",
    "analysis.bound_report.calls",
]
UNITS = {"engine.trace_json.bytes": "bytes", "solver.attractor.max_rank": "rounds"}  # else count
TIMES = [
    "solver.compute_attractor.self_s",
    "solver.branches.busy_s",
    "solver.min_agents.busy_s",
    "solver.game_value.self_s",
    "solver.model_check.self_s",
    "policies.agent_decide.busy_s",
    "policies.agent_decide.self_s",
    "policies.adversary_decide.busy_s",
    "policies.adversary_decide.self_s",
    "engine.step.busy_s",
    "engine.simulate.self_s",
    "engine.validate_removal.busy_s",
    "engine.contraction_check.busy_s",
    "engine.trace_json.busy_s",
    "engine.check_trace.busy_s",
    "graph.adjacency.busy_s",
    "graph.without.busy_s",
    "graph.distances_from.busy_s",
    "graph.is_connected.busy_s",
    "analysis.bound_report.busy_s",
    "cli.verify.busy_s",
    "cli.verify.self_s",
]


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        # Open spans: [name, time covered by child spans, span id].
        self.stack: list[list] = [["root", 0.0, 0]]
        self.active: dict[str, int] = {}  # open spans per name, to skip recursion in busy
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, busy, self]
        self.spans: list[tuple] = []  # cold spans: (id, name, parent id, start, end)
        # Counts taken from call arguments and results, by metric name.
        self.counts = dict.fromkeys(
            [m for m in COUNTS if not m.endswith(".calls")], 0)

    # -- spans -------------------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool, after=None, before=None):
        """Return fn timed as span `name`. `before(args, kwargs)` runs ahead of
        the call and its value is passed to `after(ctx, result)` on success."""
        stack, agg, active, spans, clock = self.stack, self.agg, self.active, self.spans, self.clock

        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before is not None else None
            parent = stack[-1]
            frame = [name, 0.0, 0 if hot else len(spans) + 1]
            if not hot:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            outer = active.get(name, 0)
            active[name] = outer + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] = outer
                dur = t1 - t0
                parent[1] += dur
                slot = agg.get((name, parent[0]))
                if slot is None:
                    slot = agg[(name, parent[0])] = [0, 0.0, 0.0]
                slot[0] += 1
                if not outer:
                    slot[1] += dur
                slot[2] += dur - frame[1]
                if not hot:
                    spans[frame[2] - 1] = (frame[2], name, parent[2], t0, t1)
            if after is not None:
                after(ctx, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name: str, fn):
        """Run fn() as a cold span named `name` (used for benchmark jobs)."""
        return self.wrap(name, fn, hot=False)()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import dynbroadcast
        from dynbroadcast import solver

        modules = [m for n, m in sys.modules.items() if n == "dynbroadcast" or n.startswith("dynbroadcast.")]
        hooks = {
            "compute_attractor": self._attractor_hooks(solver),
            "spanning_trees": (None, self._count_branches),
            "connected_removals": (None, self._count_branches),
            "model_check_policy": (None, self._count_nodes),
            "simulate": (None, self._count_rounds),
            "trace_to_json": (None, self._count_bytes),
        }
        for table, hot in ((COLD, False), (HOT, True)):
            for name, targets in table.items():
                for mod_name, attr in targets:
                    before, after = hooks.get(attr, (None, None))
                    owner = getattr(dynbroadcast, mod_name)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(owner, cls_name)
                        setattr(cls, meth, self.wrap(name, getattr(cls, meth), hot, after, before))
                    else:
                        orig = getattr(owner, attr)
                        _rebind(modules, orig, self.wrap(name, orig, hot, after, before))
        for mod_name in POLICY_MODULES:
            for cls in vars(getattr(dynbroadcast, mod_name)).values():
                role = getattr(cls, "role", None)
                if isinstance(cls, type) and "decide" in vars(cls) and role in ("agents", "adversary"):
                    kind = "agent" if role == "agents" else "adversary"
                    cls.decide = self.wrap(f"policies.{kind}_decide", cls.decide, hot=True)

    def _attractor_hooks(self, solver):
        sig = inspect.signature(solver.compute_attractor)
        counts = self.counts

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            hit = (a["g"], a["total_agents"], a["mode"]) in solver._ATTRACTOR_CACHE
            return hit, counts["solver.branches.count"]

        def after(ctx, att):
            hit, branches_before = ctx
            if hit:
                counts["solver.compute_attractor.cache_hits"] += 1
                return
            counts["solver.attractor.states"] += len(att.states)
            counts["solver.attractor.winning"] += len(att.rank)
            counts["solver.attractor.max_rank"] = max(
                [counts["solver.attractor.max_rank"], *att.rank.values()])
            active = sum(1 for s in att.states if s.ignorant)
            branches = counts["solver.branches.count"] - branches_before
            counts["solver.attractor.pairs"] += active * branches

        return before, after

    def _count_branches(self, _ctx, removals) -> None:
        self.counts["solver.branches.count"] += len(removals)

    def _count_nodes(self, _ctx, result) -> None:
        self.counts["solver.model_check.nodes"] += result.states_explored

    def _count_rounds(self, _ctx, trace) -> None:
        self.counts["engine.rounds"] += len(trace.rounds)

    def _count_bytes(self, _ctx, text) -> None:
        self.counts["engine.trace_json.bytes"] += len(text.encode())

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for (name, _parent), (n, b, s) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            busy[name] = busy.get(name, 0.0) + b
            self_time[name] = self_time.get(name, 0.0) + s
        out: dict[str, float] = {}
        for metric in COUNTS + TIMES:
            if metric in self.counts:
                out[metric] = self.counts[metric]
                continue
            name, _, stat = metric.rpartition(".")
            table = {"calls": calls, "busy_s": busy, "self_s": self_time}[stat]
            out[metric] = table.get(name, 0)
        return out

    def dump(self, path: str) -> None:
        doc = {
            "spans": [
                {"id": i, "name": n, "parent": p, "start": t0, "end": t1}
                for i, n, p, t0, t1 in self.spans
            ],
            "aggregated": [
                {"name": n, "parent": p, "calls": c, "busy_s": b, "self_s": s}
                for (n, p), (c, b, s) in sorted(self.agg.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(modules, orig, replacement) -> None:
    """Point every module-level reference (and dict value) to orig at replacement."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if item is orig:
                        val[key] = replacement

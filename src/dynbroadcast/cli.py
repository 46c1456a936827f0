"""Command-line surface: generate graphs, analyze bounds, run simulations,
invoke the exact solver, and re-run the named verification suites.

Exit codes: 0 success/solved, 1 usage or runtime error, 2 adversary cycle,
3 round limit reached, 4 state budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .analysis import (
    bound_report,
    edge_connectivity,
    largest_matching_bond,
    min_degree,
    vertex_connectivity,
)
from .engine import (
    AgentState,
    Configuration,
    Outcome,
    RuleViolation,
    Trace,
    check_trace,
    initial_state,
    simulate,
    trace_from_json,
    trace_to_json,
)
from .graph import (
    Graph,
    GraphError,
    edge_density,
    graph_from_json,
    graph_to_json,
    make_clique_star,
    make_complete,
    make_density_family,
    make_grid,
    make_lollipop,
    make_path,
    make_ring,
    make_theta,
    theta_layout,
)
from .policies import make_policy
from .solver import DEFAULT_BUDGET_STATES, BudgetExceeded, game_value, min_agents, solvable

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CYCLE = 2
EXIT_ROUND_LIMIT = 3
EXIT_BUDGET = 4

_OUTCOME_EXIT = {
    "solved": EXIT_OK,
    "adversary_cycle": EXIT_CYCLE,
    "round_limit_reached": EXIT_ROUND_LIMIT,
}


# -- family parsing ---------------------------------------------------------


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace("x", ",").split(",") if tok != ""]


def parse_family(kind: str, params: list[str]) -> Graph:
    """Build a family graph from CLI tokens, e.g. ("theta", ["3,3,3"]) or
    ("lollipop", ["k=2", "path=8"])."""
    kv: dict[str, str] = {}
    plain: list[int] = []
    for tok in params:
        if "=" in tok:
            key, _, val = tok.partition("=")
            kv[key] = val
        else:
            plain.extend(_ints(tok))

    def leading(count: int, what: str) -> list[int]:
        if len(plain) < count:
            raise GraphError(f"{kind} needs {what}")
        return plain[:count]

    if kind == "path":
        return make_path(*leading(1, "a node count"))
    if kind == "ring":
        return make_ring(*leading(1, "a node count"))
    if kind == "complete":
        return make_complete(*leading(1, "a node count"))
    if kind == "grid":
        if "rows" in kv and "cols" in kv:
            return make_grid(int(kv["rows"]), int(kv["cols"]))
        return make_grid(*leading(2, "a row count and a column count"))
    if kind == "theta":
        return make_theta(plain)
    if kind == "lollipop":
        k = int(kv.get("k", plain[0] if plain else 0))
        path_edges = int(kv.get("path", plain[1] if len(plain) > 1 else 0))
        return make_lollipop(k, path_edges)
    if kind == "clique_star":
        n = int(kv.get("n", plain[0] if plain else 0))
        lam = int(kv.get("lambda", plain[1] if len(plain) > 1 else 0))
        return make_clique_star(n, lam)
    if kind == "density_family":
        n = int(kv.get("n", plain[0] if plain else 0))
        f = int(kv.get("f", plain[1] if len(plain) > 1 else 0))
        return make_density_family(n, f)
    raise GraphError(f"unknown family {kind!r}")


def _load_graph(source: str) -> Graph:
    """A graph file path, or an inline family spec "kind:params"."""
    if ":" in source and not Path(source).exists():
        kind, _, rest = source.partition(":")
        return parse_family(kind, rest.split())
    try:
        text = Path(source).read_text()
    except OSError as exc:
        raise GraphError(f"cannot read graph file {source!r}: {exc}") from exc
    try:
        return graph_from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph file {source!r}: {exc}") from exc


# -- output helpers -----------------------------------------------------------


def _dump(doc, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(doc, out, sort_keys=True, indent=2)
        out.write("\n")
    else:
        _table(doc, out)


def _table(doc, out, indent: str = "") -> None:
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list)):
                out.write(f"{indent}{key}:\n")
                _table(val, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {val}\n")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)):
                _table(item, out, indent + "  ")
            else:
                out.write(f"{indent}- {item}\n")
    else:
        out.write(f"{indent}{doc}\n")


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# -- placement ---------------------------------------------------------------


def _parse_placement(
    text: str, g: Graph, k: int, k_source: int, agents, adversary
) -> AgentState:
    """Placement spec: "auto", "agents", "adversary", or explicit
    "ignorant=3+6+9,source=0". It must place exactly k ignorant agents and
    k_source sources."""
    state = _place(text, g, k, k_source, agents, adversary)
    n_source = sum(state.is_source)
    if (state.total - n_source, n_source) != (k, k_source):
        raise ValueError(
            f"placement {text!r} gives {state.total - n_source} ignorant and "
            f"{n_source} source agents, not {k} and {k_source}"
        )
    return state


def _place(text: str, g: Graph, k: int, k_source: int, agents, adversary) -> AgentState:
    if text.startswith("ignorant=") or text.startswith("source="):
        kv = {}
        for part in text.split(","):
            key, _, val = part.partition("=")
            kv[key] = [int(tok) for tok in val.split("+") if tok]
        return initial_state(kv.get("ignorant", []), kv.get("source", []))
    if text == "agents":
        return agents.place(g, k, k_source)
    if text == "adversary":
        return adversary.place(g, k, k_source)
    if text == "auto":
        for side in (adversary, agents):
            place = getattr(side, "place", None)
            if place is not None:
                try:
                    return place(g, k, k_source)
                except ValueError:  # the policy cannot place these agents here
                    pass
        # Path midpoints, with the one source on the north pole. A path graph
        # is a one-path theta; it keeps the generic placement.
        layout = theta_layout(g) if k_source == 1 else None
        if layout is not None and 2 <= layout.n_paths and k <= layout.n_paths:
            mids = [chain[1 + (len(chain) - 2) // 2] for chain in layout.chains]
            return initial_state(mids[:k], [layout.north])
        nodes = [v for v in range(g.node_count)]
        return initial_state(nodes[1 : k + 1], nodes[:1] + nodes[k + 1 : k + k_source])
    raise ValueError(f"unknown placement {text!r}")


# -- subcommands ---------------------------------------------------------------


def cmd_generate(args, out) -> int:
    g = parse_family(args.family, args.params)
    text = graph_to_json(g)
    if args.output:
        Path(args.output).write_text(text)
    else:
        out.write(text)
    out.write(
        f"nodes={g.node_count} edges={g.edge_count} "
        f"density={_frac_str(edge_density(g))}\n"
    )
    return EXIT_OK


def cmd_analyze(args, out) -> int:
    g = _load_graph(args.graph)
    report = bound_report(g)
    largest = largest_matching_bond(report.bonds)
    doc = {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "density": _frac_str(edge_density(g)),
        "min_degree": min_degree(g),
        "edge_connectivity": edge_connectivity(g),
        "vertex_connectivity": vertex_connectivity(g),
        "bond_count": len(report.bonds),
        "largest_matching_bond": len(largest.edges) if largest else 0,
        "bounds": [
            {
                "kind": e.kind,
                "type": e.bound_type,
                "value": e.value,
                "note": e.note,
            }
            for e in report.entries
        ],
        "best_lower": report.best_lower,
        "exact": report.exact,
    }
    _dump(doc, args.format, out)
    return EXIT_OK


def cmd_simulate(args, out) -> int:
    if args.spec:
        spec = json.loads(Path(args.spec).read_text())
    elif args.graph is None:
        raise ValueError("simulate needs a graph or --spec")
    else:
        spec = {
            "graph": args.graph,
            "agents": args.agents,
            "adversary": args.adversary,
            "k_ignorant": args.k,
            "k_source": args.k_source,
            "placement": args.placement,
            "max_rounds": args.max_rounds,
            "seed": args.seed,
        }
    trace = _run_experiment(spec, args.budget_states)
    if args.output:
        Path(args.output).write_text(trace_to_json(trace))
    conversions = sum(len(r.conversions) for r in trace.rounds)
    oc = trace.outcome
    out.write(
        f"outcome={oc.kind} {_outcome_detail(oc)} rounds_played={len(trace.rounds)} "
        f"conversions={conversions}\n"
    )
    return _OUTCOME_EXIT[oc.kind]


def _run_experiment(spec: dict, budget_states: int = DEFAULT_BUDGET_STATES) -> Trace:
    """Build the graph, both policies and the placement of an experiment spec,
    and play it. A bare "random_tree" adversary is seeded with the spec's seed;
    solver-backed policies build their attractor within `budget_states`."""
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    for key in ("graph", "agents", "adversary", "max_rounds"):
        if key not in spec:
            raise ValueError(f'spec is missing "{key}"')
    for key in ("graph", "agents", "adversary", "placement"):
        if not isinstance(spec.get(key, ""), str):
            raise ValueError(f'spec "{key}" must be a string, not {spec[key]!r}')
    for key in ("k_ignorant", "k_source", "max_rounds"):
        if type(spec.get(key, 1)) is not int:
            raise ValueError(f'spec "{key}" must be an integer, not {spec[key]!r}')
    g = _load_graph(spec["graph"])
    adversary_spec = spec["adversary"]
    if "random_tree" in adversary_spec and ":" not in adversary_spec:
        adversary_spec = f"random_tree:seed={spec.get('seed', 0)}"
    agents = make_policy(spec["agents"], g, budget_states)
    adversary = make_policy(adversary_spec, g, budget_states)
    k = spec.get("k_ignorant", 1)
    k_source = spec.get("k_source", 1)
    state = _parse_placement(
        spec.get("placement", "auto"), g, k, k_source, agents, adversary
    )
    return simulate(g, state, agents, adversary, max_rounds=spec["max_rounds"])


def _outcome_detail(oc: Outcome) -> str:
    return f"round {oc.round}" if oc.round is not None else f"period {oc.period}"


def cmd_solve(args, out) -> int:
    if args.value and args.placement is not None:
        args.usage_error("--placement applies only without --value")
    if not args.value:
        for flag in ("ignorant", "source", "objective"):
            if getattr(args, flag) is not None:
                args.usage_error(f"--{flag} applies only with --value")
    g = _load_graph(args.graph)
    doc: dict = {"nodes": g.node_count, "edges": g.edge_count}
    placement = args.placement or "adversarial"
    try:
        if args.value:
            ig = [int(t) for t in (args.ignorant or "").split("+") if t]
            src = [int(t) for t in (args.source or "").split("+") if t]
            val = game_value(
                g,
                Configuration(tuple(ig), tuple(src)),
                objective=args.objective or "all_sources",
                budget_states=args.budget_states,
            )
            doc["game_value"] = val if val != float("inf") else "inf"
        elif args.k is not None:
            doc["k"] = args.k
            doc["solvable"] = solvable(
                g, args.k, placement=placement, budget_states=args.budget_states
            )
        else:
            doc["k_max"] = args.k_max
            doc["min_agents"] = min_agents(
                g, args.k_max, placement=placement, budget_states=args.budget_states
            )
    except BudgetExceeded as exc:
        doc["error"] = f"budget exceeded: {exc}"
        _dump(doc, args.format, out)
        return EXIT_BUDGET
    _dump(doc, args.format, out)
    return EXIT_OK


def cmd_check_trace(args, out) -> int:
    text = Path(args.trace).read_text()
    try:
        trace = trace_from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace file {args.trace!r}: {exc}") from exc
    check_trace(trace)
    out.write(f"trace ok: {len(trace.rounds)} rounds validated\n")
    return EXIT_OK


# -- verify suites --------------------------------------------------------------

# Each row: (name, experiment spec, predicate description, predicate inputs).
_SIM_SUITES: dict[str, list[dict]] = {
    "timing": [
        {
            "name": f"path({n}) toward_source meets passive at round {-(-(n - 1) // 2)}",
            "graph": f"path:{n}",
            "agents": "toward_source",
            "adversary": "passive",
            "placement": f"ignorant=0,source={n - 1}",
            "max_rounds": 50,
            "expect": {"kind": "solved", "round": -(-(n - 1) // 2)},
        }
        for n in (5, 6, 7, 8, 9)
    ],
    "flipflop": [
        {
            "name": "grid 3x3 greedy vs flip-flop cycles with no conversions",
            "graph": "grid:3,3",
            "agents": "greedy_path",
            "adversary": "grid_flipflop:3x3",
            "k_ignorant": 5,
            "placement": "adversary",
            "max_rounds": 10,
            "expect": {"kind": "adversary_cycle", "period": 2, "conversions": 0},
        }
    ],
    "theta": [
        {
            "name": "theta(3,3) broadcast beats blocker",
            "graph": "theta:3,3",
            "agents": "theta_broadcast:k=2",
            "adversary": "theta_blocker",
            "k_ignorant": 2,
            "placement": "auto",
            "max_rounds": 500,
            "expect": {"kind": "solved"},
        },
        {
            "name": "theta(3,3,3) broadcast beats blocker",
            "graph": "theta:3,3,3",
            "agents": "theta_broadcast:k=3",
            "adversary": "theta_blocker",
            "k_ignorant": 3,
            "placement": "auto",
            "max_rounds": 500,
            "expect": {"kind": "solved"},
        },
    ]
    + [
        {
            "name": f"theta(4,4,4,4) broadcast beats random trees (seed {s})",
            "graph": "theta:4,4,4,4",
            "agents": "theta_broadcast:k=4",
            "adversary": "random_tree",
            "k_ignorant": 4,
            "placement": "auto",
            "max_rounds": 500,
            "seed": s,
            "expect": {"kind": "solved"},
        }
        for s in range(5)
    ],
}

_SOLVER_SUITE = [
    ("ring(5) needs 2 agents", "ring:5", 3, 2),
    ("ring(6) needs 2 agents", "ring:6", 3, 2),
    ("path(5) needs 1 agent", "path:5", 2, 1),
    ("complete(4) needs 2 agents", "complete:4", 3, 2),
    ("theta(3,3) needs 2 agents", "theta:3,3", 3, 2),
]


def _suite_names() -> list[str]:
    return sorted(_SIM_SUITES) + ["solver"]


def cmd_verify(args, out) -> int:
    names = _suite_names() if args.suite == "all" else [args.suite]
    rows: list[tuple[str, bool, str]] = []
    outdir = Path(args.output) if args.output else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    for suite in names:
        if suite == "solver":
            for name, source, k_max, expected in _SOLVER_SUITE:
                try:
                    got = min_agents(_load_graph(source), k_max)
                    rows.append((name, got == expected, f"k*={got}"))
                except BudgetExceeded as exc:
                    rows.append((name, False, str(exc)))
            continue
        if suite not in _SIM_SUITES:
            raise ValueError(
                f"unknown suite {args.suite!r}; available: {', '.join(_suite_names())}, all"
            )
        for i, spec in enumerate(_SIM_SUITES[suite]):
            trace = _run_experiment(spec)
            check_trace(trace)
            if outdir:
                (outdir / f"{suite}_{i}.trace.json").write_text(trace_to_json(trace))
            oc = trace.outcome
            expect = spec["expect"]
            conversions = sum(len(r.conversions) for r in trace.rounds)
            ok = (
                oc.kind == expect["kind"]
                and expect.get("round", oc.round) == oc.round
                and expect.get("period", oc.period) == oc.period
                and expect.get("conversions", conversions) == conversions
            )
            rows.append((spec["name"], ok, f"{oc.kind} {_outcome_detail(oc)}"))
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, ok, note in rows:
        status = "pass" if ok else "FAIL"
        failures += not ok
        out.write(f"{name.ljust(width)}  {status}  {note}\n")
    out.write(f"{len(rows) - failures}/{len(rows)} rows passed\n")
    return EXIT_OK if failures == 0 else EXIT_ERROR


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynbroadcast",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a family graph and write its JSON")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--output", default=None, help="graph JSON file (default: stdout)")

    p = sub.add_parser("analyze", help="density, connectivity, bonds, agent bounds")
    p.add_argument("graph")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("simulate", help="run one agents-vs-adversary experiment")
    p.add_argument("graph", nargs="?")
    p.add_argument("--spec", default=None, help="JSON experiment file")
    p.add_argument("--agents", default="toward_source")
    p.add_argument("--adversary", default="passive")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--k-source", type=int, default=1)
    p.add_argument("--placement", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=500)
    p.add_argument("--budget-states", type=int, default=2_000_000)
    p.add_argument("--output", default=None, help="trace JSON file")

    p = sub.add_parser("solve", help="exact solver: min agents / solvability / value")
    p.add_argument("graph")
    question = p.add_mutually_exclusive_group()
    question.add_argument("--k-max", type=int, default=4)
    question.add_argument("--k", type=int, default=None)
    question.add_argument("--value", action="store_true", help="compute game value instead")
    # None marks a flag not given, so that cmd_solve can reject it.
    p.add_argument("--placement", default=None, help="without --value (default: adversarial)")
    p.add_argument("--ignorant", default=None, help="with --value")
    p.add_argument("--source", default=None, help="with --value")
    p.add_argument(
        "--objective",
        choices=("all_sources", "first_new_source"),
        default=None,
        help="with --value (default: all_sources)",
    )
    p.add_argument("--budget-states", type=int, default=2_000_000)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--output", default=None, help="directory for the trace files")

    p = sub.add_parser("check-trace", help="re-validate a stored trace file")
    p.add_argument("trace")

    return parser


_DISPATCH = {
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "check-trace": cmd_check_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, sys.stdout)
    except (GraphError, RuleViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

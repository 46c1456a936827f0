"""Command-line interface: subcommands, exit codes, and reproducible output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynbroadcast
from dynbroadcast.cli import main, parse_family
from dynbroadcast.engine import trace_from_json
from dynbroadcast.graph import Graph, graph_to_json, make_complete, make_path, make_ring, make_theta

# sha256 of every trace file `verify all --output DIR` writes. Any change to
# a policy, the engine or the trace format that alters one shows up here.
VERIFY_ALL_TRACE_SHA256 = {
    "flipflop_0.trace.json": "8e41e57f08836714e9057cdf42aabfbf0df83723071fa67027129d2f77296c41",
    "theta_0.trace.json": "e5e9cbcdee2c7adb9852258e2dda7280a0dff825f39eb5a9ce8c8649df3bd1f7",
    "theta_1.trace.json": "12d078adfc4d44e167901944713a7e7050300dfd6d966a7be60b0d22ee2d59e1",
    "theta_2.trace.json": "f9ead7d9ea37598dc056094fae6bdb8f005123e622857c8b7c56f5c30405b478",
    "theta_3.trace.json": "24bdb2797df1018eadefa9e409f63dfdc1903b3e039f8ad390e359ac334c2f1d",
    "theta_4.trace.json": "57547a3f02fb649f7dffd144a6cb9facdaf42dc575ae161d078de3aaaf891fd3",
    "theta_5.trace.json": "b5dcf7e2515d9624a0ba872bce9b6e61f10a054cac37386b6f32a3ed3fd1a480",
    "theta_6.trace.json": "d4650884b8d0e614af184e791a0a056cf7e4b045051676929693b89c56fe1cc4",
    "timing_0.trace.json": "2d576393312db961bf0a1e630556272c9256c9be15b8b619ca2e2ff3bc7b20f1",
    "timing_1.trace.json": "097148561cf5ce46e439c97adad4e028a2cef058865122749271f08a9f042a85",
    "timing_2.trace.json": "0149912812900de2d6c5365db00a6b9cbc4df52cd96c43f512eeb26f3077a769",
    "timing_3.trace.json": "e0f24e826c5e8eef792e957989e364e51ff3e681d7332796d3bc7a57059d1afb",
    "timing_4.trace.json": "21f5854f7a1ad2fdbbf8d8e1b679c9fe4114229c799bb6f5a50a9ccfcaf46160",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_inline_family(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        code, out, _ = run(capsys, "generate", "theta", "3,3,3", "--output", str(out_file))
        assert code == 0
        assert "nodes=11 edges=12" in out
        doc = json.loads(out_file.read_text())
        assert doc["nodes"] == 11

    def test_bad_family_is_diagnostic(self, capsys):
        code, _, err = run(capsys, "generate", "theta", "0")
        assert code == 1
        assert err.strip()

    @pytest.mark.parametrize(
        "kind, keyed, plain",
        [
            ("grid", ["rows=3", "cols=4"], ["3,4"]),
            ("clique_star", ["n=7", "lambda=2"], ["7", "2"]),
            ("density_family", ["n=11", "f=3"], ["11", "3"]),
        ],
    )
    def test_key_value_form_gives_the_plain_graph(self, kind, keyed, plain):
        g, want = parse_family(kind, keyed), parse_family(kind, plain)
        assert (g, g.family) == (want, want.family)

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "generate", "moebius", "5")
        assert code == 1
        assert "moebius" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "path"),
            ("generate", "ring"),
            ("generate", "complete"),
            ("generate", "grid", "3"),
            ("generate", "grid", "rows=3"),
            ("analyze", "path:"),
            ("analyze", "ring:"),
            ("analyze", "complete:"),
            ("analyze", "grid:"),
        ],
    )
    def test_missing_size_is_diagnostic(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {argv[1].split(':')[0]} needs ")


class TestAnalyze:
    def test_theta_exact(self, capsys):
        code, out, _ = run(capsys, "analyze", "theta:3,3,3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == 3
        assert doc["largest_matching_bond"] == 3

    def test_bonds_are_enumerated_once(self, capsys, monkeypatch):
        # Bond enumeration is the only caller of `_mask_connected` here, so
        # its call count measures how often the bonds are enumerated.
        from dynbroadcast import analysis

        calls = []
        within = analysis._mask_connected
        monkeypatch.setattr(
            analysis, "_mask_connected", lambda *a: calls.append(a) or within(*a)
        )
        analysis.enumerate_bonds(make_ring(6))
        once = len(calls)
        code, out, _ = run(capsys, "analyze", "ring:6")
        assert once and code == 0 and len(calls) == 2 * once
        assert json.loads(out)["bond_count"] == 15

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "ring:5", "--format", "table")
        assert code == 0
        assert "edge_connectivity: 2" in out

    def test_graph_file_input(self, capsys, tmp_path):
        gen = tmp_path / "g.json"
        run(capsys, "generate", "complete", "5", "--output", str(gen))
        code, out, _ = run(capsys, "analyze", str(gen))
        assert code == 0
        assert json.loads(out)["exact"] == 3

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 1
        assert err.strip()

    def test_mislabelled_theta_has_no_theta_bound(self, capsys, tmp_path):
        # theta(3,3,3) with edge (3,4) moved to (3,6); the labels still say theta.
        g0 = make_theta([3, 3, 3])
        g = Graph(g0.node_count, (g0.edges - {(3, 4)}) | {(3, 6)}, g0.family)
        path = tmp_path / "mislabelled.json"
        path.write_text(graph_to_json(g))
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is None
        assert "theta_exact" not in [b["kind"] for b in doc["bounds"]]

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "malformed" in err

    def test_disconnected_graph_is_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"nodes": 4, "edges": [[0, 1], [2, 3]]}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: graph is not connected\n"


class TestSimulate:
    def test_solved_exit_zero(self, capsys, tmp_path):
        argv = ["simulate", "path:9", "--agents", "toward_source", "--adversary", "passive"]
        trace = str(tmp_path / "t.trace.json")
        code, out, _ = run(capsys, *argv, "--placement", "ignorant=0,source=8", "--output", trace)
        assert code == 0
        assert out == "outcome=solved round 4 rounds_played=4 conversions=1\n"
        # Every agent starts as a source: solved before the first round.
        code, out, _ = run(capsys, *argv, "--k", "0", "--placement", "source=8", "--output", trace)
        assert code == 0
        assert out == "outcome=solved round 0 rounds_played=0 conversions=0\n"

    def test_cycle_exit_two(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "grid:3x3",
            "--agents", "greedy_path",
            "--adversary", "grid_flipflop:3x3",
            "--k", "5",
            "--placement", "adversary",
            "--max-rounds", "10",
        )
        assert code == 2
        assert "outcome=adversary_cycle" in out and "period 2" in out
        assert "conversions=0" in out

    def test_round_limit_exit_three(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "theta:4,4,4",
            "--agents", "toward_source",
            "--adversary", "theta_blocker",
            "--placement", "ignorant=1,source=0",
            "--max-rounds", "1",
        )
        assert code == 3
        assert "outcome=round_limit_reached" in out

    @pytest.mark.parametrize(
        "graph,agents", [("complete:4", "clique_policy"), ("lollipop:2,3", "lollipop_policy")]
    )
    def test_budget_exit_four(self, capsys, graph, agents):
        # --budget-states reaches the attractor the solver-backed policies build.
        argv = ["simulate", graph, "--agents", agents, "--adversary", "random_tree", "--k", "2"]
        code, _, err = run(capsys, *argv, "--budget-states", "1")
        assert code == 4
        assert err.startswith("error: budget exceeded: ")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "outcome=solved" in out

    def test_default_budget_is_the_flag_default(self, capsys, monkeypatch):
        # Without --budget-states, simulate hands the solver-backed policies the
        # same 2,000,000-state budget that solve uses.
        from dynbroadcast import solver

        budgets = []
        real = solver.compute_attractor

        def spy(*args, budget_states, **kwargs):
            budgets.append(budget_states)
            return real(*args, budget_states=budget_states, **kwargs)

        monkeypatch.setattr(solver, "compute_attractor", spy)
        code, _, _ = run(capsys, "simulate", "complete:4", "--agents", "clique_policy", "--k", "2")
        assert code == 0
        assert budgets == [2_000_000]

    def test_budget_flag_applies_to_spec_file(self, capsys, tmp_path):
        spec = {
            "graph": "complete:4",
            "agents": "clique_policy",
            "adversary": "random_tree",
            "k_ignorant": 2,
            "max_rounds": 50,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "simulate", "--spec", str(path), "--budget-states", "1")
        assert code == 4
        assert err.startswith("error: budget exceeded: ")

    @pytest.mark.parametrize("counts", [("--k", "9"), ("--k", "-1"), ("--k-source", "0")])
    def test_auto_placement_keeps_the_requested_counts(self, capsys, counts):
        code, out, err = run(capsys, "simulate", "theta:3,3", *counts)
        assert code == 1
        assert out == ""
        assert err.startswith("error: placement 'auto' gives ")

    def test_auto_placement_on_theta_with_two_sources(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        argv = ["simulate", "theta:3,3", "--k-source", "2", "--output", str(path)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "outcome=solved" in out
        initial = json.loads(path.read_text())["initial"]
        assert initial["is_source"] == [False, True, True]

    def test_theta_strategy_refuses_an_extra_ignorant_agent(self, capsys):
        argv = ["simulate", "theta:3,3", "--agents", "theta_broadcast", "--k", "3"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (
            "error: theta_broadcast needs exactly one ignorant agent per path (2) "
            "and one source, not 3 and 1\n"
        )

    def test_explicit_placement_keeps_the_requested_counts(self, capsys):
        argv = ["simulate", "path:5", "--placement", "ignorant=1+2,source=0"]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == (
            "error: placement 'ignorant=1+2,source=0' gives 2 ignorant and "
            "1 source agents, not 1 and 1\n"
        )
        code, out, _ = run(capsys, *argv, "--k", "2")
        assert code == 0 and "outcome=solved" in out

    @pytest.mark.parametrize("position", ["-1", "9"])
    def test_off_graph_placement_is_diagnostic(self, capsys, position):
        # -1 must not play as the last node, nor 9 end in a traceback.
        code, out, err = run(
            capsys, "simulate", "path:5", "--placement", f"ignorant={position},source=0"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: position {position} is not a node of the graph (0..4)\n"

    @pytest.mark.parametrize(
        "graph,adversary,k,message",
        [
            ("grid:6,1", "grid_flipflop:6x1", "5", "at least 2 columns"),
            ("grid:3,3", "grid_flipflop:3x4", "7", "grid_flipflop:3x4 plays only on the 3x4 grid"),
        ],
    )
    def test_flipflop_off_its_grid_is_diagnostic(self, capsys, graph, adversary, k, message):
        code, out, err = run(
            capsys,
            "simulate", graph,
            "--agents", "greedy_path",
            "--adversary", adversary,
            "--k", k,
            "--placement", "adversary",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "adversary", ["grid_flipflop", "grid_flipflop:3", "grid_flipflop:3x3x3"]
    )
    def test_flipflop_without_a_size_is_diagnostic(self, capsys, adversary):
        code, out, err = run(
            capsys,
            "simulate", "grid:3x3",
            "--agents", "greedy_path",
            "--adversary", adversary,
            "--k", "5",
            "--placement", "adversary",
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"error: grid_flipflop needs a grid size, grid_flipflop:RxC, not {adversary!r}\n"
        )

    def test_flipflop_size_with_a_comma(self, capsys, tmp_path):
        played = []
        for size in ("3x3", "3,3"):
            trace = tmp_path / f"{size}.trace.json"
            played.append(run(
                capsys,
                "simulate", "grid:3x3",
                "--agents", "greedy_path",
                "--adversary", f"grid_flipflop:{size}",
                "--k", "5",
                "--placement", "adversary",
                "--output", str(trace),
            ) + (trace.read_bytes(),))
        assert played[0][0] == 2
        assert played[1] == played[0]

    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--adversary", "random_tree:seed=x"),
            ("--adversary", "random_tree:speed=3"),
            ("--agents", "theta_broadcast:k=two"),
        ],
    )
    def test_malformed_policy_parameter_is_diagnostic(self, capsys, flag, spec):
        form = {
            "random_tree": "an integer seed, random_tree:seed=N or random_tree:N",
            "theta_broadcast": "an integer agent count, theta_broadcast:k=N",
        }
        name = spec.partition(":")[0]
        code, out, err = run(capsys, "simulate", "path:5", flag, spec)
        assert (code, out) == (1, "")
        assert err == f"error: {name} takes {form[name]}, not {spec!r}\n"

    def test_agents_placement_is_unknown(self, capsys):
        # No agent policy places agents, so "agents" is not a placement.
        code, out, err = run(
            capsys,
            "simulate", "grid:3x3",
            "--agents", "greedy_path",
            "--adversary", "grid_flipflop:3x3",
            "--k", "5",
            "--placement", "agents",
        )
        assert (code, out, err) == (1, "", "error: unknown placement 'agents'\n")

    def test_adversary_placement_needs_a_placing_adversary(self, capsys):
        code, out, err = run(capsys, "simulate", "path:5", "--placement", "adversary")
        assert (code, out, err) == (1, "", "error: adversary passive does not place agents\n")

    def test_spec_file(self, capsys, tmp_path):
        spec = {
            "graph": "path:5",
            "agents": "toward_source",
            "adversary": "passive",
            "placement": "ignorant=0,source=4",
            "max_rounds": 50,
        }
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "simulate", "--spec", str(f))
        assert code == 0
        assert "outcome=solved" in out

    @pytest.mark.parametrize("key", ["graph", "agents", "adversary", "max_rounds"])
    def test_spec_file_missing_a_key_is_diagnostic(self, capsys, tmp_path, key):
        spec = {"graph": "path:5", "agents": "toward_source", "adversary": "passive",
                "max_rounds": 50}
        del spec[key]
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "simulate", "--spec", str(f))
        assert code == 1
        assert out == ""
        assert err == f'error: spec is missing "{key}"\n'

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"max_rounds": None}, 'spec "max_rounds" must be an integer, not None'),
            ({"adversary": 7}, 'spec "adversary" must be a string, not 7'),
            (["graph", "agents", "adversary", "max_rounds"], "spec must be a JSON object"),
        ],
    )
    def test_spec_file_with_a_wrong_type_is_diagnostic(self, capsys, tmp_path, spec, message):
        if isinstance(spec, dict):
            spec = {"graph": "path:5", "agents": "toward_source", "adversary": "passive",
                    "max_rounds": 50, **spec}
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "simulate", "--spec", str(f))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_no_graph_and_no_spec_is_diagnostic(self, capsys):
        code, out, err = run(capsys, "simulate")
        assert code == 1
        assert out == ""
        assert err == "error: simulate needs a graph or --spec\n"


class TestSolve:
    def test_min_agents_ring(self, capsys):
        code, out, _ = run(capsys, "solve", "ring:5", "--k-max", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["min_agents"] == 2

    def test_solvable_at_fixed_k(self, capsys):
        code, out, _ = run(capsys, "solve", "ring:5", "--k", "1")
        assert code == 0
        assert json.loads(out)["solvable"] is False

    def test_game_value(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "path:5", "--value",
            "--ignorant", "0", "--source", "2",
            "--objective", "first_new_source",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["game_value"] == 1

    def test_grid_4x4_is_decided(self, capsys):
        # No k <= 2 wins, as the bond lower bound of 3 requires.
        code, out, _ = run(capsys, "solve", "grid:4x4", "--k-max", "2")
        assert code == 0
        assert json.loads(out)["min_agents"] is None

    def test_negative_k_is_diagnostic(self, capsys):
        code, out, err = run(capsys, "solve", "theta:3,3", "--k", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("objective", ["all_sources", "first_new_source"])
    @pytest.mark.parametrize("position", ["9", "-1"])
    def test_off_graph_position_is_diagnostic(self, capsys, objective, position):
        code, out, err = run(
            capsys, "solve", "path:5", "--value", "--ignorant", position, "--source", "0",
            "--objective", objective,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: position {position} is not a node")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--value", "--ignorant", "0", "--source", "2", "--k", "3", "--k-max", "1",
                 "--placement", "nonsense"],
                "not allowed with argument",
            ),
            (["--k", "1", "--ignorant", "3", "--objective", "first_new_source"],
             "--ignorant applies only with --value"),
            (["--value", "--ignorant", "0", "--source", "2", "--placement", "adversarial"],
             "--placement applies only without --value"),
        ],
    )
    def test_flags_of_other_questions_are_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "path:5", *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--k", "2", "--placement", "nonsense", "--budget-states", "0"],
            ["--k-max", "0", "--placement", "nonsense"],
            ["--k-max", "-1"],
        ],
    )
    def test_unanswerable_questions_are_usage_errors(self, capsys, argv):
        # Not "budget exceeded" (exit 4) and not "min_agents": null (exit 0):
        # nothing was decided.
        code, out, err = run(capsys, "solve", "theta:3,3", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_budget_exit_four(self, capsys):
        code, out, _ = run(
            capsys, "solve", "theta:4,4,4", "--k-max", "3", "--budget-states", "10"
        )
        assert code == 4
        assert "budget exceeded" in json.loads(out)["error"]


class TestCheckTrace:
    def write_trace(self, capsys, tmp_path):
        dest = tmp_path / "run.trace.json"
        code, _, _ = run(
            capsys,
            "simulate", "path:7",
            "--agents", "toward_source",
            "--adversary", "random_tree:seed=2",
            "--placement", "ignorant=0,source=6",
            "--output", str(dest),
        )
        assert code == 0
        return dest

    def test_roundtrip(self, capsys, tmp_path):
        dest = self.write_trace(capsys, tmp_path)
        code, out, _ = run(capsys, "check-trace", str(dest))
        assert code == 0
        assert "trace ok" in out

    @pytest.mark.parametrize("position", [-1, "a"])
    def test_off_graph_start_fails(self, capsys, tmp_path, position):
        # An agent at -1 on path(5) that steps to 3 as if it stood on node 4.
        dest = tmp_path / "neg.trace.json"
        dest.write_text(json.dumps({
            "graph": json.loads(graph_to_json(make_path(5))),
            "initial": {"is_source": [False, True], "positions": [position, 0]},
            "outcome": {"kind": "solved", "period": None, "round": 2},
            "rounds": [
                {"conversions": [], "moves": [[-1, 3], [0, 1]], "removed": [], "round": 1},
                {"conversions": [2], "moves": [[3, 2], [1, 2]], "removed": [], "round": 2},
            ],
        }))
        code, out, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: position {position} is not a node")

    @pytest.mark.parametrize("position", [2.0, True])
    def test_non_integer_start_fails(self, capsys, tmp_path, position):
        # 2.0 and True both lie in range(5), but neither is a node.
        dest = tmp_path / "float.trace.json"
        dest.write_text(json.dumps({
            "graph": json.loads(graph_to_json(make_path(5))),
            "initial": {"is_source": [False, True], "positions": [position, 0]},
            "outcome": None,
            "rounds": [],
        }))
        code, out, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert out == ""
        assert err == f"error: position {position} is not a node of the graph (0..4)\n"

    def test_non_integer_move_fails(self, capsys, tmp_path):
        # 1.0 == 1 passes the move rule, so each round's targets are checked too.
        dest = tmp_path / "float.trace.json"
        dest.write_text(json.dumps({
            "graph": json.loads(graph_to_json(make_path(3))),
            "initial": {"is_source": [False, True], "positions": [0, 2]},
            "outcome": {"kind": "solved", "period": None, "round": 1},
            "rounds": [{"conversions": [1], "moves": [[0, 1.0], [2, 1]], "removed": [], "round": 1}],
        }))
        code, out, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert out == ""
        assert err == "error: position 1.0 is not a node of the graph (0..2)\n"

    @pytest.mark.parametrize(
        "text", ['{"graph": {"nodes": 2, "edges": [[0, 1]]}}', "not json", '{"graph": 3}'],
    )
    def test_malformed_trace_is_diagnostic(self, capsys, tmp_path, text):
        dest = tmp_path / "bad.trace.json"
        dest.write_text(text)
        code, out, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: malformed trace file {str(dest)!r}")

    def test_reversed_removed_edge_loads_as_its_normal_form(self, capsys, tmp_path):
        # A removed pair written high endpoint first is the same edge.
        doc = {
            "graph": json.loads(graph_to_json(make_complete(4))),
            "initial": {"is_source": [False, True], "positions": [0, 2]},
            "outcome": None,
            "rounds": [{"conversions": [], "moves": [[0, 0], [2, 2]], "removed": [[1, 3]], "round": 1}],
        }
        want = trace_from_json(json.dumps(doc)).rounds[0]
        doc["rounds"][0]["removed"] = [[3, 1]]
        dest = tmp_path / "reversed.trace.json"
        dest.write_text(json.dumps(doc))
        assert trace_from_json(dest.read_text()).rounds[0] == want
        assert want.removed_edges == frozenset([(1, 3)])
        assert run(capsys, "check-trace", str(dest)) == (0, "trace ok: 1 rounds validated\n", "")

    @pytest.mark.parametrize("pair", [[True, 3], [3, True], [1.0, 3]])
    def test_non_integer_removed_endpoint_fails(self, capsys, tmp_path, pair):
        # True == 1 and 1.0 == 1 both pass the edge-subset test; neither names a node.
        dest = tmp_path / "bool.trace.json"
        dest.write_text(json.dumps({
            "graph": json.loads(graph_to_json(make_complete(4))),
            "initial": {"is_source": [False, True], "positions": [0, 2]},
            "outcome": None,
            "rounds": [{"conversions": [], "moves": [[0, 0], [2, 2]], "removed": [pair], "round": 1}],
        }))
        code, out, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith("error: removed edges must name nodes by int: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    # Mutations of valid traces whose bookkeeping contradicts their rounds:
    # (trace, mutation, start of the error message). "theta" is a solved
    # one-round theta:2,2 trace, "cycle" a two-round adversary cycle of
    # period 2 on theta:3,3,3.
    BOOKKEEPING = {
        "label_9": ("theta", lambda d: d["rounds"][0].update(round=9), "round 1 is labelled 9"),
        "label_null": ("theta", lambda d: d["rounds"][0].update(round=None), "round 1 is labelled None"),
        "bogus_kind": ("theta", lambda d: d["outcome"].update(kind="bogus"), "unknown outcome kind"),
        "cycle_on_solved": (
            "theta", lambda d: d["outcome"].update(kind="adversary_cycle", round=None, period=1),
            "outcome says adversary_cycle but every agent is a source"),
        "solved_round_off": (
            "theta", lambda d: d["outcome"].update(round=2), "solved outcome (round 2, period None)"),
        "limit_on_solved": (
            "theta", lambda d: d["outcome"].update(kind="round_limit_reached"),
            "outcome says round_limit_reached but every agent is a source"),
        "float_origin": (
            "theta", lambda d: d["rounds"][0]["moves"][1].__setitem__(0, 0.0),
            "round 1: agent 1 origin 0.0 is not a node"),
        "float_conversion": (
            "theta", lambda d: d["rounds"][0].update(conversions=[2.0]),
            "round 1: conversion record mismatch"),
        "non_bool_is_source": (
            "theta", lambda d: d["initial"].update(is_source=[0, "yes"]), "is_source [0, 'yes']"),
        "short_is_source": (
            "theta", lambda d: d["initial"].update(is_source=[True]), "is_source [True]"),
        "cycle_with_round": (
            "cycle", lambda d: d["outcome"].update(round=2), "adversary_cycle outcome has round 2"),
        "cycle_period_0": (
            "cycle", lambda d: d["outcome"].update(period=0), "adversary_cycle period 0 is not in 1..2"),
        "cycle_period_3": (
            "cycle", lambda d: d["outcome"].update(period=3), "adversary_cycle period 3 is not in 1..2"),
        "cycle_period_1": (
            "cycle", lambda d: d["outcome"].update(period=1),
            "adversary_cycle period 1: the state after round 2 is not the one after round 1"),
        "limit_off": (
            "cycle", lambda d: d.update(outcome={"kind": "round_limit_reached", "round": 3, "period": None}),
            "round_limit_reached outcome (round 3, period None)"),
    }

    def simulated(self, capsys, tmp_path, which):
        args = {
            "theta": ["theta:2,2"],
            "cycle": ["theta:3,3,3", "--agents", "greedy_path", "--adversary", "theta_blocker", "--k", "2"],
        }[which]
        dest = tmp_path / f"{which}.trace.json"
        code, _, _ = run(capsys, "simulate", *args, "--output", str(dest))
        assert code == (0 if which == "theta" else 2)
        assert run(capsys, "check-trace", str(dest))[0] == 0
        return dest

    def test_bookkeeping_fixtures(self, capsys, tmp_path):
        theta = json.loads(self.simulated(capsys, tmp_path, "theta").read_text())
        cycle = json.loads(self.simulated(capsys, tmp_path, "cycle").read_text())
        assert theta["outcome"] == {"kind": "solved", "round": 1, "period": None}
        assert theta["rounds"][0]["conversions"] == [2]
        assert cycle["outcome"] == {"kind": "adversary_cycle", "round": None, "period": 2}
        assert len(cycle["rounds"]) == 2
        # A round-limit outcome at the trace's round count is consistent.
        cycle["outcome"] = {"kind": "round_limit_reached", "round": 2, "period": None}
        dest = tmp_path / "limit.trace.json"
        dest.write_text(json.dumps(cycle))
        assert run(capsys, "check-trace", str(dest)) == (0, "trace ok: 2 rounds validated\n", "")

    @pytest.mark.parametrize("case", BOOKKEEPING)
    def test_contradictory_bookkeeping_fails(self, capsys, tmp_path, case):
        which, mutate, message = self.BOOKKEEPING[case]
        dest = self.simulated(capsys, tmp_path, which)
        doc = json.loads(dest.read_text())
        mutate(doc)
        dest.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_tampered_trace_fails(self, capsys, tmp_path):
        dest = self.write_trace(capsys, tmp_path)
        doc = json.loads(dest.read_text())
        doc["rounds"][0]["moves"] = [[a, 99] for a, _ in doc["rounds"][0]["moves"]]
        dest.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check-trace", str(dest))
        assert code == 1
        assert err.strip()


class TestVerify:
    def test_suite_reruns_byte_identical(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        code1, out1, _ = run(capsys, "verify", "timing", "--output", str(d1))
        code2, out2, _ = run(capsys, "verify", "timing", "--output", str(d2))
        assert code1 == code2 == 0
        assert out1 == out2
        names = sorted(p.name for p in d1.iterdir())
        assert names and names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_verify_all_trace_bytes_are_pinned(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "all", "--output", str(tmp_path))
        assert code == 0
        assert "18/18 rows passed" in out
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == VERIFY_ALL_TRACE_SHA256

    def test_table_reports_all_rows_pass(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", "flipflop", "--output", str(tmp_path))
        assert code == 0
        assert "1/1 rows passed" in out
        assert "FAIL" not in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "nonsense")
        assert code == 1
        assert "unknown suite" in err


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "all", "--budget-states", "1"),
        ("check-trace", "t.json", "--seed", "1"),
        ("generate", "path", "5", "--format", "table"),
        ("analyze", "ring:5", "--output", "x"),
        ("simulate", "path:5", "--format", "json"),
        ("solve", "ring:5", "--mode", "all_subsets"),
    ],
)
def test_subcommand_rejects_flags_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestModuleEntry:
    def python_m(self, tmp_path, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(dynbroadcast.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "dynbroadcast", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )

    def test_python_m_runs_the_cli(self, tmp_path):
        r = self.python_m(tmp_path, "simulate", "path:5", "--placement", "ignorant=0,source=4")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == "outcome=solved round 2 rounds_played=2 conversions=1\n"

    def test_python_m_keeps_the_exit_code(self, tmp_path):
        r = self.python_m(tmp_path, "simulate", "path:5", "--placement", "ignorant=9,source=0")
        assert r.returncode == 1
        assert r.stderr == "error: position 9 is not a node of the graph (0..4)\n"

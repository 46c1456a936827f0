"""Command-line interface: subcommands, exit codes, and reproducible output."""

import hashlib
import json

import pytest

from dynbroadcast.cli import main
from dynbroadcast.graph import Graph, graph_to_json, make_theta

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
        code, out, _ = run(
            capsys,
            "simulate", "path:9",
            "--agents", "toward_source",
            "--adversary", "passive",
            "--placement", "ignorant=0,source=8",
            "--output", str(tmp_path / "t.trace.json"),
        )
        assert code == 0
        assert "outcome=solved" in out

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

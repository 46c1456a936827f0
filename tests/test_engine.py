"""Round semantics, rule enforcement, simulation loop, and trace handling."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbroadcast.engine import (
    AgentState,
    _pairwise_contraction_check,
    Configuration,
    Outcome,
    RoundRecord,
    RuleViolation,
    Trace,
    _convert,
    check_trace,
    initial_state,
    simulate,
    step,
    trace_from_json,
    trace_to_json,
    validate_removal,
)
from dynbroadcast.graph import (
    GraphError,
    make_complete,
    make_grid,
    make_path,
    make_ring,
    make_theta,
)
from dynbroadcast.policies import (
    GreedyPathPolicy,
    PassiveAdversary,
    RandomTreeAdversary,
    TowardSourcePolicy,
)
from dynbroadcast.solver import model_check_policy


def _check_contraction_per_round(trace):
    """Run the pair-contraction check on every round of a trace, in that
    round's surviving graph."""
    for rec in trace.rounds:
        before = tuple(f for f, _ in rec.moves)
        after = tuple(t for _, t in rec.moves)
        _pairwise_contraction_check(trace.graph.without(rec.removed_edges), before, after)


class TestRoundPrimitives:
    def test_validate_removal(self):
        g = make_ring(5)
        assert validate_removal(g, [(0, 1)])
        assert not validate_removal(g, [(0, 1), (2, 3)])
        assert validate_removal(g, [])

    def test_step_conversion_on_colocation(self):
        g = make_path(3)
        state = initial_state([0], [2])
        # Both step to node 1: ignorant agent converts there.
        new_state, conversions = step(g, state, frozenset(), (1, 1))
        assert conversions == (1,)
        assert new_state.is_source == (True, True)

    def test_step_rejects_illegal_move(self):
        g = make_path(4)
        state = initial_state([0], [3])
        with pytest.raises(RuleViolation):
            step(g, state, frozenset(), (2, 3))  # 0 -> 2 jumps two edges

    def test_step_respects_removed_edges(self):
        g = make_ring(4)
        state = initial_state([0], [2])
        with pytest.raises(RuleViolation):
            step(g, state, frozenset({(0, 1)}), (1, 2))

    def test_conversion_is_one_way(self):
        g = make_path(3)
        state = AgentState((1, 1), (False, True))
        new_state, conversions = step(g, state, frozenset(), (0, 2))
        # Agents moved apart, so no conversion; the existing source keeps its class.
        assert conversions == ()
        assert new_state.is_source[1] is True


class TestConversion:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=8))
    def test_convert_matches_a_naive_reference(self, agents):
        positions = tuple(p for p, _ in agents)
        is_source = tuple(s for _, s in agents)
        # An ignorant agent converts iff some source shares its node.
        converts = [not s and any(t and q == p for q, t in agents) for p, s in agents]
        new_cls, conversions = _convert(positions, is_source)
        assert new_cls == tuple(s or c for (_, s), c in zip(agents, converts))
        assert conversions == tuple(sorted(p for (p, _), c in zip(agents, converts) if c))
        if not any(converts):
            assert new_cls is is_source

    def test_agent_state_is_its_plain_tuple(self):
        state = AgentState((0, 2), (False, True))
        assert state == ((0, 2), (False, True))
        assert hash(state) == hash(((0, 2), (False, True)))
        assert {state: 1}[((0, 2), (False, True))] == 1

    def test_configuration_is_its_plain_tuple(self):
        config = Configuration((3, 0), (5,))
        assert config == ((3, 0), (5,))
        assert hash(config) == hash(((3, 0), (5,)))
        assert config.ignorant == (3, 0)  # kept as given, not sorted

    def test_agent_state_config_sorts_each_class(self):
        state = AgentState((4, 5, 1, 0), (False, True, False, True))
        assert state.config() == Configuration((1, 4), (0, 5))


class TestSimulate:
    def test_solved_outcome_and_round(self):
        g = make_path(9)
        trace = simulate(
            g,
            initial_state([0], [8]),
            TowardSourcePolicy(),
            PassiveAdversary(),
            max_rounds=50,
        )
        assert trace.outcome.kind == "solved"
        assert trace.outcome.round == 4

    def test_even_path_meets_without_swapping(self):
        for n in (4, 6, 8):
            g = make_path(n)
            trace = simulate(
                g,
                initial_state([0], [n - 1]),
                TowardSourcePolicy(),
                PassiveAdversary(),
                max_rounds=50,
            )
            assert trace.outcome.kind == "solved"
            assert trace.outcome.round == -(-(n - 1) // 2)

    def test_distinct_start_required(self):
        g = make_path(3)
        with pytest.raises(RuleViolation):
            simulate(
                g,
                AgentState((1, 1), (False, True)),
                TowardSourcePolicy(),
                PassiveAdversary(),
                max_rounds=5,
            )

    def test_cycle_detection(self):
        class Pacer:
            role = "agents"
            name = "pacer"

            def initial_memory(self, base, state):
                return 0

            def decide(self, surviving, state, memory):
                # Ignorant agent shuffles between nodes 0 and 1 forever.
                pos = state.positions
                tgt = list(pos)
                tgt[0] = 1 - pos[0]
                return tuple(tgt), memory

        g = make_path(4)
        trace = simulate(
            g, initial_state([0], [3]), Pacer(), PassiveAdversary(), max_rounds=50
        )
        assert trace.outcome.kind == "adversary_cycle"
        assert trace.outcome.period == 2

    def test_round_limit(self):
        class Freeze:
            role = "agents"
            name = "freeze"

            def initial_memory(self, base, state):
                return None

            def decide(self, surviving, state, memory):
                # Memory counts up so no (state, memory) pair ever repeats.
                return state.positions, (memory or 0) + 1

        g = make_path(4)
        trace = simulate(
            g, initial_state([0], [3]), Freeze(), PassiveAdversary(), max_rounds=7
        )
        assert trace.outcome.kind == "round_limit_reached"
        assert trace.outcome.round == 7

    def test_contraction_check_passes_on_legal_play(self):
        # Any stay-or-adjacent round contracts a pair distance by at most 2,
        # so the check never fires on a round of legal play.
        g = make_complete(5)
        trace = simulate(
            g,
            initial_state([0, 1], [4]),
            TowardSourcePolicy(),
            PassiveAdversary(),
            max_rounds=10,
        )
        assert trace.outcome.kind == "solved"
        assert trace.rounds
        _check_contraction_per_round(trace)


class TestOffGraphPositions:
    # A position must be a node: -1 must not index the last node of the
    # graph, nor 9 raise IndexError.
    @pytest.mark.parametrize("bad", [-1, 9])
    def test_simulate_rejects_off_graph_start(self, bad):
        message = rf"position {bad} is not a node of the graph \(0\.\.4\)"
        with pytest.raises(ValueError, match=message):
            simulate(
                make_path(5),
                initial_state([bad], [0]),
                TowardSourcePolicy(),
                PassiveAdversary(),
                max_rounds=10,
            )

    def test_check_trace_rejects_off_graph_start(self):
        # An agent at -1 on path(5) that steps to 3 as if it stood on node 4.
        trace = Trace(
            make_path(5),
            AgentState((-1, 0), (False, True)),
            [
                RoundRecord(1, frozenset(), ((-1, 3), (0, 1)), ()),
                RoundRecord(2, frozenset(), ((3, 2), (1, 2)), (2,)),
            ],
            Outcome("solved", round=2),
        )
        with pytest.raises(ValueError, match="position -1 is not a node"):
            check_trace(trace)

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_check_trace_rejects_non_integer_start(self, bad):
        # 2.0 and True both lie in range(5), but neither is a node.
        trace = Trace(make_path(5), AgentState((bad, 0), (False, True)), [], None)
        with pytest.raises(ValueError, match=rf"position {bad} is not a node of the graph"):
            check_trace(trace)


class TestTraces:
    def make_trace(self):
        g = make_theta([3, 3])
        return simulate(
            g,
            initial_state([3], [0]),
            TowardSourcePolicy(),
            PassiveAdversary(),
            max_rounds=20,
        )

    def test_json_round_trip(self):
        trace = self.make_trace()
        text = trace_to_json(trace)
        back = trace_from_json(text)
        assert trace_to_json(back) == text
        check_trace(back)

    @pytest.mark.parametrize("pair", [[True, 3], [3, False]])
    def test_trace_from_json_refuses_a_bool_removed_endpoint(self, pair):
        # (True, 3) == (1, 3), and True indexes the neighbour masks, so the
        # round would validate as a removal of (1, 3).
        doc = json.loads(trace_to_json(simulate(
            make_complete(4), initial_state([0], [2]), TowardSourcePolicy(), PassiveAdversary(),
            max_rounds=1,
        )))
        doc["rounds"][0]["removed"] = [pair]
        with pytest.raises(GraphError, match="removed edges must name nodes by int"):
            trace_from_json(json.dumps(doc))

    def test_check_trace_catches_tampered_moves(self):
        trace = self.make_trace()
        rec = trace.rounds[0]
        bad = rec.moves[:-1] + ((rec.moves[-1][0], 99),)
        object.__setattr__(rec, "moves", bad)
        with pytest.raises((RuleViolation, Exception)):
            check_trace(trace)

    def test_check_trace_rejects_solved_outcome_with_ignorant_agents(self):
        trace = simulate(
            make_path(9),
            initial_state([0], [8]),
            TowardSourcePolicy(),
            PassiveAdversary(),
            max_rounds=2,
        )
        assert trace.outcome.kind == "round_limit_reached"
        check_trace(trace)
        trace.outcome = Outcome("solved", round=2)
        with pytest.raises(RuleViolation, match="ignorant agents remain"):
            check_trace(trace)

    def test_check_trace_rejects_play_after_solved(self):
        # Rounds after every agent became a source: the last one stays put,
        # which would pass every per-round check.
        trace = _ring_trace()
        check_trace(trace)
        stay = RoundRecord(3, frozenset(), ((2, 2), (2, 2)), ())
        trace.rounds.append(stay)
        trace.outcome = Outcome("solved", round=3)
        with pytest.raises(RuleViolation, match=r"^every agent is a source after round 2, but play goes on$"):
            check_trace(trace)
        start = Trace(make_path(3), AgentState((0, 2), (True, True)), [], Outcome("solved", round=0))
        check_trace(start)
        start.rounds.append(RoundRecord(1, frozenset(), ((0, 0), (2, 2)), ()))
        start.outcome = Outcome("solved", round=1)
        with pytest.raises(RuleViolation, match="after round 0, but play goes on"):
            check_trace(start)

    def test_byte_identical_reruns(self):
        a = trace_to_json(self.make_trace())
        b = trace_to_json(self.make_trace())
        assert a == b

    def test_greedy_path_on_grid_against_random_trees_is_pinned(self):
        # The benchmark's commonest round: greedy paths against random
        # spanning trees on grid(5,5). Three 500-round games; the digest of
        # their trace JSON pins every removal, move and byte of output.
        g = make_grid(5, 5)
        digest = hashlib.sha256()
        for ignorant, source, seed in (
            ([12, 0, 18], 2, 413191),
            ([5, 4, 9], 2, 990827),
            ([15, 23, 7], 17, 979314),
        ):
            trace = simulate(
                g, initial_state(ignorant, [source]), GreedyPathPolicy(),
                RandomTreeAdversary(seed), max_rounds=500,
            )
            assert trace.outcome.kind == "round_limit_reached"
            text = trace_to_json(trace)
            check_trace(trace_from_json(text))
            digest.update(text.encode())
        assert digest.hexdigest() == (
            "921814720f597214504e00b674cf34cd76a81616048c4b915dca91e73fa13431"
        )


class TestPairContraction:
    @given(st.integers(3, 7), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_distance_contraction_bounded_on_rings(self, n, seed):
        """Over any simulated round, no agent pair's distance (in the surviving
        graph) drops by more than 2: each of the two agents moves one edge."""
        from dynbroadcast.policies import RandomTreeAdversary

        g = make_ring(n)
        trace = simulate(
            g,
            initial_state([0], [n // 2]),
            TowardSourcePolicy(),
            RandomTreeAdversary(seed=seed),
            max_rounds=30,
        )
        assert trace.outcome.kind in ("solved", "adversary_cycle", "round_limit_reached")
        _check_contraction_per_round(trace)

    def test_direct_check_catches_contraction_by_three(self):
        # Only the last pair (agents 1 and 2) contracts, 6 -> 3, and node 3
        # appears only among the positions after the move.
        g = make_path(10)
        with pytest.raises(AssertionError, match="agents 1,2"):
            _pairwise_contraction_check(g, (9, 0, 6), (9, 0, 3))
        _pairwise_contraction_check(g, (9, 0, 6), (9, 0, 4))


class _FixedRemoval:
    """Adversary that removes the same edge set every round."""

    role = "adversary"
    name = "fixed_removal"

    def __init__(self, removed):
        self.removed = frozenset(removed)

    def initial_memory(self, base, state):
        return None

    def decide(self, base, state, memory):
        return self.removed, None


class TestRemovalErrors:
    def play(self, removed):
        return simulate(
            make_path(4),
            initial_state([0], [3]),
            TowardSourcePolicy(),
            _FixedRemoval(removed),
            max_rounds=10,
        )

    def tampered_trace(self, removed):
        trace = simulate(
            make_path(4),
            initial_state([0], [3]),
            TowardSourcePolicy(),
            PassiveAdversary(),
            max_rounds=10,
        )
        object.__setattr__(trace.rounds[0], "removed_edges", frozenset(removed))
        return trace

    def test_simulate_rejects_non_edge(self):
        with pytest.raises(GraphError):
            self.play([(0, 2)])

    def test_simulate_rejects_disconnecting_removal(self):
        with pytest.raises(RuleViolation, match="disconnects"):
            self.play([(1, 2)])

    def test_check_trace_rejects_non_edge(self):
        with pytest.raises(GraphError):
            check_trace(self.tampered_trace([(0, 2)]))

    def test_check_trace_rejects_disconnecting_removal(self):
        with pytest.raises(RuleViolation, match="disconnects"):
            check_trace(self.tampered_trace([(1, 2)]))

    def test_validate_removal_rejects_non_edge(self):
        with pytest.raises(GraphError):
            validate_removal(make_ring(5), [(0, 2)])


def _ring_trace():
    """toward_source on ring(6) from ignorant 0, source 3: the ignorant agent
    steps to 1 while the source waits, then both step to 2 and meet."""
    trace = simulate(
        make_ring(6), initial_state([0], [3]), TowardSourcePolicy(), PassiveAdversary(),
        max_rounds=10,
    )
    assert [(r.moves, r.conversions) for r in trace.rounds] == [
        (((0, 1), (3, 3)), ()),
        (((1, 2), (3, 2)), (2,)),
    ]
    return trace


# Round 2 of `_ring_trace` with one field replaced, and the error
# `check_trace` raises for it: (field, value, exception type, message).
TAMPERED_ROUNDS = {
    "edge_not_in_graph": (
        "removed_edges", frozenset([(0, 2)]), GraphError, "edges not in graph: [(0, 2)]"),
    "float_removed_endpoint": (
        "removed_edges", frozenset([(1.0, 2)]), GraphError,
        "removed edges must name nodes by int: [(1.0, 2)]"),
    "disconnecting_removal": (
        "removed_edges", frozenset([(0, 1), (3, 4)]), RuleViolation,
        "round 2: removal disconnects the graph"),
    "non_adjacent_move": (
        "moves", ((1, 3), (3, 2)), RuleViolation, "round 2: agent 0 move 1->3 is not stay-or-adjacent"),
    "non_int_target": (
        "moves", ((1, 2.0), (3, 2)), ValueError, "position 2.0 is not a node of the graph (0..5)"),
    # Every move names its origin, so a short move list fails the origin test.
    "wrong_move_count": ("moves", ((1, 2),), RuleViolation, "round 2: moves do not match positions"),
    "origins_differ": (
        "moves", ((0, 1), (3, 2)), RuleViolation, "round 2: moves do not match positions"),
    "conversion_mismatch": ("conversions", (), RuleViolation, "round 2: conversion record mismatch"),
}


class TestTamperedRounds:
    def test_untampered_trace_passes(self):
        check_trace(_ring_trace())

    @pytest.mark.parametrize("case", TAMPERED_ROUNDS)
    def test_check_trace_refuses_tampered_round(self, case):
        name, value, exc_type, message = TAMPERED_ROUNDS[case]
        trace = _ring_trace()
        object.__setattr__(trace.rounds[1], name, value)
        with pytest.raises(exc_type) as info:
            check_trace(trace)
        assert type(info.value) is exc_type
        assert str(info.value) == message


class _FloatTarget:
    """Sends the ignorant agent to node 1, written as the float 1.0."""

    role = "agents"
    name = "float_target"

    def initial_memory(self, base, state):
        return None

    def decide(self, surviving, state, memory):
        return (1.0,) + state.positions[1:], None


class TestNonIntegerTargets:
    # 1.0 == 1, so a membership test would take it for node 1 and the next
    # round would index a tuple with a float. Both a step (from 0) and a
    # stay (from 1) must be refused in the round the target is returned.
    @pytest.mark.parametrize("start", [0, 1])
    def test_simulate_rejects_float_target(self, start):
        with pytest.raises(RuleViolation, match=r"round 1: agent 0 target 1\.0 is not a node"):
            simulate(
                make_path(5), initial_state([start], [4]), _FloatTarget(), PassiveAdversary(),
                max_rounds=10,
            )

    @pytest.mark.parametrize("start", [0, 1])
    def test_model_check_rejects_float_target(self, start):
        with pytest.raises(RuleViolation, match=r"agent 0 target 1\.0 is not a node"):
            model_check_policy(make_path(5), initial_state([start], [4]), _FloatTarget())

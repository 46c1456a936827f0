"""Round semantics, rule enforcement, simulation loop, and trace handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbroadcast.engine import (
    AgentState,
    _pairwise_contraction_check,
    Configuration,
    RuleViolation,
    apply_round,
    check_trace,
    initial_state,
    legal_targets,
    replay_state,
    simulate,
    step,
    trace_from_json,
    trace_to_json,
    validate_removal,
)
from dynbroadcast.graph import GraphError, make_complete, make_path, make_ring, make_theta
from dynbroadcast.policies import PassiveAdversary, TowardSourcePolicy


class TestRoundPrimitives:
    def test_validate_removal(self):
        g = make_ring(5)
        assert validate_removal(g, [(0, 1)])
        assert not validate_removal(g, [(0, 1), (2, 3)])
        assert validate_removal(g, [])

    def test_legal_targets_stay_or_adjacent(self):
        g = make_path(4)
        surviving = g.without([])
        assert set(legal_targets(surviving, 1)) == {0, 1, 2}

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

    def test_apply_round_multiset_interface(self):
        g = make_path(3)
        config = Configuration((0,), (2,))
        new_config, conversions = apply_round(
            g, config, frozenset(), (((0, 1),), ((2, 1),))
        )
        assert conversions == (1,)
        assert new_config.is_solved()

    def test_apply_round_rejects_wrong_multiset(self):
        g = make_path(3)
        config = Configuration((0,), (2,))
        with pytest.raises(RuleViolation):
            apply_round(g, config, frozenset(), (((1, 1),), ((2, 1),)))


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
        # so the built-in check never fires on legal play.
        g = make_complete(5)
        trace = simulate(
            g,
            initial_state([0, 1], [4]),
            TowardSourcePolicy(),
            PassiveAdversary(),
            max_rounds=10,
            check_contraction=True,
        )
        assert trace.outcome.kind == "solved"


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

    def test_check_trace_catches_tampered_moves(self):
        trace = self.make_trace()
        rec = trace.rounds[0]
        bad = rec.moves[:-1] + ((rec.moves[-1][0], 99),)
        object.__setattr__(rec, "moves", bad)
        with pytest.raises((RuleViolation, Exception)):
            check_trace(trace)

    def test_replay_matches_final_state(self):
        trace = self.make_trace()
        final = replay_state(trace)
        assert final.config().is_solved() == (trace.outcome.kind == "solved")

    def test_byte_identical_reruns(self):
        a = trace_to_json(self.make_trace())
        b = trace_to_json(self.make_trace())
        assert a == b


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
            check_contraction=True,  # raises internally on violation
        )
        assert trace.outcome.kind in ("solved", "adversary_cycle", "round_limit_reached")

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

import math

import numpy as np
import pytest

from hepbell.lhv import (
    Strategy3Gamma,
    StrategySpin1,
    ch_3gamma_strategy_value,
    enumerate_3gamma_strategies,
    enumerate_spin1_strategies,
    hardy_spin1_strategy_value,
    max_ch_3gamma_lhv,
    max_hardy_spin1_lhv,
    strategy_values,
)


class TestEnumeration:
    def test_strategy_counts(self):
        assert len(enumerate_3gamma_strategies()) == 64
        assert len(enumerate_spin1_strategies()) == 81

    def test_enumeration_is_lexicographic(self):
        strategies = enumerate_3gamma_strategies()
        assert list(strategies) == sorted(strategies)
        spins = enumerate_spin1_strategies()
        assert list(spins) == sorted(spins)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown strategy kind 'other'"):
            strategy_values("other")


class TestDeterministicBounds:
    def test_ch_3gamma_maximum_is_exactly_zero(self):
        value, witness = max_ch_3gamma_lhv()
        assert value == 0.0
        assert ch_3gamma_strategy_value(witness) == 0.0

    def test_hardy_spin1_maximum_is_exactly_zero(self):
        value, witness = max_hardy_spin1_lhv()
        assert value == 0.0
        assert hardy_spin1_strategy_value(witness) == 0.0

    def test_no_strategy_is_positive(self):
        assert float(strategy_values("3gamma").max()) == 0.0
        assert float(strategy_values("spin1").max()) == 0.0

    def test_all_h_all_r_strategy(self):
        strategy = Strategy3Gamma(("H", "H", "H"), ("R", "R", "R"))
        assert ch_3gamma_strategy_value(strategy) == -1.0  # only the all-same term

    def test_two_vertical_strategy_fires_negative_term(self):
        strategy = Strategy3Gamma(("V", "V", "H"), ("R", "R", "L"))
        # First term 1, but C2 != C3 and C1 != C3 both fire.
        assert ch_3gamma_strategy_value(strategy) == -1.0
        assert ch_3gamma_strategy_value(strategy) <= 0.0

    def test_ch_values_match_the_hand_written_terms(self):
        for strategy in enumerate_3gamma_strategies():
            lin, circ = strategy.linear, strategy.circular
            expected = (
                (lin[0] == "V" and lin[1] == "V")
                - (lin[0] == "V" and circ[1] != circ[2])
                - (circ[0] != circ[2] and lin[1] == "V")
                - (circ[0] == circ[1] == circ[2])
            )
            assert ch_3gamma_strategy_value(strategy) == expected

    def test_hardy_values_match_the_hand_written_terms(self):
        for s in enumerate_spin1_strategies():
            expected = (
                (s.v_x == 0 and s.v_gamma == 0)
                - (s.v_x == 0 and s.v_alpha != 0)
                - (s.v_beta != 0 and s.v_gamma == 0)
                - (s.v_beta == 0 and s.v_alpha == 0)
            )
            assert hardy_spin1_strategy_value(s) == expected

    def test_spin1_lhs_compensated_by_rhs(self):
        strategy = StrategySpin1(v_x=0, v_beta=1, v_gamma=0, v_alpha=0)
        assert hardy_spin1_strategy_value(strategy) == 0.0

    def test_spin1_all_plus_one(self):
        strategy = StrategySpin1(1, 1, 1, 1)
        assert hardy_spin1_strategy_value(strategy) == 0.0

    def test_witness_is_first_lexicographic_maximizer(self):
        _, witness = max_ch_3gamma_lhv()
        strategies = enumerate_3gamma_strategies()
        values = strategy_values("3gamma")
        first = strategies[int(np.argmax(values == values.max()))]
        assert witness == first


def function_values(kind):
    """Each strategy's value from its value function, in enumeration order."""
    if kind == "3gamma":
        return np.array([ch_3gamma_strategy_value(s) for s in enumerate_3gamma_strategies()])
    return np.array([hardy_spin1_strategy_value(s) for s in enumerate_spin1_strategies()])


def sampled_values(weights, n, seed, kind):
    """Values of ``n`` strategies drawn i.i.d. from the mixture ``weights``."""
    values = function_values(kind)
    return values[np.random.default_rng(seed).choice(values.size, size=n, p=weights)]


class TestMixtures:
    def test_expectation_matches_enumeration_dot_product(self, rng):
        for kind, size in (("3gamma", 64), ("spin1", 81)):
            values = strategy_values(kind)
            for _ in range(50):
                w = rng.random(size)
                w /= w.sum()
                exact = math.fsum(wi * v for wi, v in zip(w, function_values(kind)))
                assert abs(float(w @ values) - exact) < 1e-12

    def test_uniform_mixture_empirical_value(self):
        w = np.full(64, 1 / 64)
        empirical = float(sampled_values(w, 100_000, 17, "3gamma").mean())
        expected = float(w @ strategy_values("3gamma"))
        sigma = float(strategy_values("3gamma").std() / np.sqrt(100_000))
        assert abs(empirical - expected) < 3 * sigma
        assert empirical < 3 * sigma  # never significantly positive

    def test_point_mass_reproduces_deterministic_value(self):
        w = np.zeros(81)
        w[37] = 1.0
        assert np.all(sampled_values(w, 5_000, 3, "spin1") == strategy_values("spin1")[37])

"""Deterministic local-hidden-variable strategies for both inequalities.

Exhaustive enumeration certifies the classical bounds: the extreme points of
the local polytope are deterministic response functions, so no stochastic
mixture of strategies exceeds the largest strategy value.  A strategy's
value is read off the same tables of signed terms the quantum evaluations
use: the three-photon CH words of :func:`hepbell.photon3.ch_words` and
Hardy's terms, :data:`hepbell.reports.HARDY_TERMS`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reports import HARDY_TERMS

# Outcome alphabets in lexicographic order so the enumeration order of
# strategies doubles as the canonical (witness-reporting) order.
LINEAR_OUTCOMES = ("H", "V")
CIRCULAR_OUTCOMES = ("L", "R")
SPIN_OUTCOMES = (-1, 0, 1)


@dataclass(frozen=True, order=True)
class Strategy3Gamma:
    """Pre-assigned linear and circular outcomes for each of three photons."""

    linear: tuple[str, str, str]
    circular: tuple[str, str, str]


@dataclass(frozen=True, order=True)
class StrategySpin1:
    """Pre-assigned spin outcomes: side 1 answers (x, beta), side 2 (gamma, alpha)."""

    v_x: int
    v_beta: int
    v_gamma: int
    v_alpha: int


@lru_cache(maxsize=1)
def enumerate_3gamma_strategies() -> tuple[Strategy3Gamma, ...]:
    """All 64 deterministic assignments, in lexicographic order."""
    return tuple(
        Strategy3Gamma(lin, circ)
        for lin in itertools.product(LINEAR_OUTCOMES, repeat=3)
        for circ in itertools.product(CIRCULAR_OUTCOMES, repeat=3)
    )


@lru_cache(maxsize=1)
def enumerate_spin1_strategies() -> tuple[StrategySpin1, ...]:
    """All 81 deterministic assignments, in lexicographic order."""
    return tuple(
        StrategySpin1(*outcomes)
        for outcomes in itertools.product(SPIN_OUTCOMES, repeat=4)
    )


def ch_3gamma_strategy_value(strategy: Strategy3Gamma) -> float:
    """CH expression value for one deterministic strategy: the sum of each
    term's sign over the term's outcome words that the strategy spells."""
    from .photon3 import ch_words  # here, so that the spin-1 commands skip photon3

    outcomes = tuple(zip(strategy.linear, strategy.circular))
    return float(sum(
        sign
        for _, sign, words in ch_words()
        for word in words
        if all(c == "." or c in pair for c, pair in zip(word, outcomes))
    ))


def hardy_spin1_strategy_value(strategy: StrategySpin1) -> float:
    """LHS - RHS of the spin-1 constraint for one deterministic strategy:
    the sum of the signs of the HARDY_TERMS whose two outcomes it gives."""

    def gives(setting: str, outcome: str) -> bool:
        return (getattr(strategy, f"v_{setting}") == 0) == (outcome == "0")

    return float(sum(sign for _, sign, s1, s2 in HARDY_TERMS if gives(*s1) and gives(*s2)))


@lru_cache(maxsize=None)
def _strategy_table(kind: str) -> tuple[tuple, np.ndarray]:
    """The strategies of ``kind`` in enumeration order and their read-only values."""
    if kind == "3gamma":
        strategies, value = enumerate_3gamma_strategies(), ch_3gamma_strategy_value
    elif kind == "spin1":
        strategies, value = enumerate_spin1_strategies(), hardy_spin1_strategy_value
    else:
        raise ValueError(f"unknown strategy kind {kind!r}")
    values = np.array([value(s) for s in strategies])
    values.setflags(write=False)
    return strategies, values


def max_ch_3gamma_lhv() -> tuple[float, Strategy3Gamma]:
    """Exhaustive maximum of the CH expression over all 64 strategies.

    By convexity this also bounds every stochastic local model, and since the
    strategy set is closed under relabeling the photons, it holds for every
    labeling.  The witness is the first maximizer in canonical
    (lexicographic) enumeration order.
    """
    strategies, values = _strategy_table("3gamma")
    best = int(np.argmax(values))
    return float(values[best]), strategies[best]


def max_hardy_spin1_lhv() -> tuple[float, StrategySpin1]:
    """Exhaustive maximum of the spin-1 constraint gap over all 81 strategies."""
    strategies, values = _strategy_table("spin1")
    best = int(np.argmax(values))
    return float(values[best]), strategies[best]


def strategy_values(kind: str) -> np.ndarray:
    """Read-only vector of deterministic inequality values in enumeration order."""
    return _strategy_table(kind)[1]

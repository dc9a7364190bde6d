"""Shared report container for inequality evaluations, and the two spin-1
inequalities as tables of signed terms, here because this is the one module
that spin1, lhv and mesonlab all import."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Strict positivity margin used everywhere a violation flag is derived.
VIOLATION_TOL = 1e-12

# Hardy's constraint on the two vector mesons, P(J_x=0, J_gamma=0) <=
# P(J_x=0, J_alpha!=0) + P(J_beta!=0, J_gamma=0) + P(J_beta=0, J_alpha=0), as
# (report key, sign, (side-1 setting, outcome), (side-2 setting, outcome)):
# the left side counts +1, each right-side term -1.  A setting names an
# in-plane angle (x is 0); an outcome is "0" (J = 0) or "!0" (J != 0).
HARDY_TERMS = (
    ("p_bb_aa", -1, ("beta", "0"), ("alpha", "0")),
    ("p_bneq_g", -1, ("beta", "!0"), ("gamma", "0")),
    ("p_x_aneq", -1, ("x", "0"), ("alpha", "!0")),
    ("p_x_g", 1, ("x", "0"), ("gamma", "0")),
)

# The joints of the two-meson CH expression as (label, sign, side-1 setting,
# side-2 setting), a setting being its index in (t1, t1', t2, t2').
CH_VV_JOINTS = (
    ("P(n1,n2)", 1, 0, 2),
    ("P(n1,n2')", -1, 0, 3),
    ("P(n1',n2)", 1, 1, 2),
    ("P(n1',n2')", 1, 1, 3),
)


@dataclass(frozen=True)
class InequalityReport:
    """Per-term probabilities plus the combined value against a classical bound.

    ``terms`` keeps the (label, probability) pairs in display order; ``value``
    is the signed combination the inequality bounds, by ``bound`` = 0 for
    every inequality here.  ``term_errors`` and ``stat_err`` are filled only
    for event-based evaluations.
    """

    terms: tuple[tuple[str, float], ...]
    value: float
    violated: bool
    term_errors: tuple[float, ...] | None = None
    stat_err: float | None = None
    bound = 0.0  # a class constant, not a field

    def term(self, label: str) -> float:
        for name, value in self.terms:
            if name == label:
                return value
        raise KeyError(label)

    def to_dict(self) -> dict:
        out = {
            "terms": {name: value for name, value in self.terms},
            "value": self.value,
            "bound": self.bound,
            "violated": self.violated,
        }
        if self.term_errors is not None:
            out["term_errors"] = list(self.term_errors)
        if self.stat_err is not None:
            out["stat_err"] = self.stat_err
        return out


def make_report(
    terms: list[tuple[str, float]],
    value: float,
    term_errors: list[float] | None = None,
    stat_err: float | None = None,
) -> InequalityReport:
    return InequalityReport(
        terms=tuple(terms),
        value=float(value),
        violated=bool(value > VIOLATION_TOL),
        term_errors=None if term_errors is None else tuple(term_errors),
        stat_err=stat_err,
    )


def ch_vv_s(joint, eta_1: float = 1.0, eta_2: float = 1.0):
    """The two-meson CH value S = eta1*eta2*joint - (eta1 + eta2)/2, with
    ``joint`` the signed sum of the CH_VV_JOINTS and eta/2 each side's single."""
    return eta_1 * eta_2 * joint - (0.5 * eta_1 + 0.5 * eta_2)


def ch_vv_report(joints, eta_1=1.0, eta_2=1.0, errors=None) -> InequalityReport:
    """The two-meson CH report from its joints in CH_VV_JOINTS order and, if
    they were counted, their errors; S and its error scale as in ch_vv_s."""
    joint = sum(sign * p for (_, sign, _, _), p in zip(CH_VV_JOINTS, joints))
    terms = [*zip((label for label, *_ in CH_VV_JOINTS), joints)]
    terms += [("P(n1')", 0.5 * eta_1), ("P(n2)", 0.5 * eta_2)]
    term_errors = None if errors is None else [*errors, 0.0, 0.0]
    stat_err = None if errors is None else eta_1 * eta_2 * math.sqrt(sum(e * e for e in errors))
    value = ch_vv_s(joint, eta_1, eta_2)
    return make_report(terms, value, term_errors=term_errors, stat_err=stat_err)

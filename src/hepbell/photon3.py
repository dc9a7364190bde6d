"""Three-photon polarization state from triplet-onium annihilation.

Builds the state in circular, linear and mixed polarization bases, evaluates
joint/conditional outcome probabilities, the CH-type inequality they embed
into, and the residual tripartite entanglement (3-tangle) certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .qcore import DimensionError, Projector, StateVector, born_probability
from .reports import InequalityReport, make_report

CIRCULAR_LABELS = ("R", "L")
LINEAR_LABELS = ("H", "V")

N_PHOTONS = 3

# A nonzero 3-tangle certifies the GHZ SLOCC class.
TANGLE_CLASS_TOL = 1e-9

_NULL_EVENT_TOL = 1e-12


class ConditionOnNullEvent(ValueError):
    """Conditioning event has (near-)zero probability."""


class PolBasis(enum.Enum):
    CIRCULAR = "circular"
    LINEAR = "linear"

    @property
    def site_labels(self) -> tuple[str, str]:
        return CIRCULAR_LABELS if self is PolBasis.CIRCULAR else LINEAR_LABELS


def circular_linear_transform() -> np.ndarray:
    """Unitary relating linear and circular polarization kets.

    Row order (R, L), column order (H, V):  |R> = (|H> + i|V>)/sqrt(2) and
    |L> = (|H> - i|V>)/sqrt(2).  For amplitude vectors this means
    a_HV = M.T @ a_RL and a_RL = conj(M) @ a_HV.
    """
    return np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=np.complex128) / np.sqrt(2.0)


def _rl_amps_of_linear(label: str) -> np.ndarray:
    m = circular_linear_transform()
    e = np.array([1.0, 0.0]) if label == "H" else np.array([0.0, 1.0])
    return m.conj() @ e


@lru_cache(maxsize=8)
def make_ortho_ps_state(
    basis: tuple[PolBasis, PolBasis, PolBasis] = (
        PolBasis.CIRCULAR,
        PolBasis.CIRCULAR,
        PolBasis.CIRCULAR,
    ),
) -> StateVector:
    """The three-photon state in the requested per-site polarization bases.

    The circular-basis amplitudes put weight 1/sqrt(6) on the six words with
    mixed helicities (RRL, RLR, LRR, LLR, LRL, RLL) and zero on RRR and LLL;
    sites requested in the linear basis are converted amplitude-wise with the
    transform from :func:`circular_linear_transform`.
    """
    if len(basis) != N_PHOTONS:
        raise DimensionError("basis must list one entry per photon")
    amps = np.zeros((2, 2, 2), dtype=np.complex128)
    for word in ("RRL", "RLR", "LRR", "LLR", "LRL", "RLL"):
        idx = tuple(CIRCULAR_LABELS.index(c) for c in word)
        amps[idx] = 1.0 / np.sqrt(6.0)
    m_t = circular_linear_transform().T
    for axis, b in enumerate(basis):
        if b is PolBasis.LINEAR:
            amps = np.moveaxis(
                np.tensordot(m_t, amps, axes=([1], [axis])), 0, axis
            )
    labels = tuple(b.site_labels for b in basis)
    return StateVector((2, 2, 2), amps.ravel(), labels)


@dataclass(frozen=True)
class CircularRelation:
    """Constraint among circular outcomes: 'same'/'different' on a site pair,
    or 'all_same' across all three photons."""

    kind: str
    sites: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("same", "different", "all_same"):
            raise ValueError(f"unknown relation kind {self.kind!r}")
        sites = tuple(int(s) for s in self.sites)
        expected = 3 if self.kind == "all_same" else 2
        if len(sites) != expected or len(set(sites)) != expected:
            raise ValueError(f"relation {self.kind!r} needs {expected} distinct sites")
        if any(s not in range(N_PHOTONS) for s in sites):
            raise ValueError("relation sites out of range")
        object.__setattr__(self, "sites", sites)


def same_circular(i: int, j: int) -> CircularRelation:
    return CircularRelation("same", (i, j))


def different_circular(i: int, j: int) -> CircularRelation:
    return CircularRelation("different", (i, j))


def all_same_circular() -> CircularRelation:
    return CircularRelation("all_same", (0, 1, 2))


@dataclass(frozen=True)
class TripartiteOutcomeSpec:
    """One measurement event on the three photons (sites are 0-based).

    Each photon may carry a fixed linear outcome, a fixed circular outcome,
    participate in at most one circular relation, or stay marginal.
    """

    linear: tuple[tuple[int, str], ...] = ()
    circular: tuple[tuple[int, str], ...] = ()
    relation: CircularRelation | None = None

    def __post_init__(self):
        as_pairs = lambda v: tuple(v.items()) if isinstance(v, Mapping) else tuple(v)
        linear = tuple(sorted((int(s), str(l)) for s, l in as_pairs(self.linear)))
        circular = tuple(sorted((int(s), str(l)) for s, l in as_pairs(self.circular)))
        used: set[int] = set()
        for site, lab in linear:
            if site not in range(N_PHOTONS) or lab not in LINEAR_LABELS:
                raise ValueError(f"bad linear entry ({site}, {lab!r})")
            if site in used:
                raise ValueError(f"site {site} constrained twice")
            used.add(site)
        for site, lab in circular:
            if site not in range(N_PHOTONS) or lab not in CIRCULAR_LABELS:
                raise ValueError(f"bad circular entry ({site}, {lab!r})")
            if site in used:
                raise ValueError(f"site {site} constrained twice")
            used.add(site)
        if self.relation is not None:
            for site in self.relation.sites:
                if site in used:
                    raise ValueError(f"site {site} constrained twice")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "circular", circular)

    def merged_with(self, other: "TripartiteOutcomeSpec") -> "TripartiteOutcomeSpec":
        if self.relation is not None and other.relation is not None:
            raise ValueError("cannot merge two specs that both carry a relation")
        return TripartiteOutcomeSpec(
            linear=self.linear + other.linear,
            circular=self.circular + other.circular,
            relation=self.relation or other.relation,
        )


@lru_cache(maxsize=None)
def _linear_projector_in_circular(label: str) -> Projector:
    return Projector.onto(_rl_amps_of_linear(label))


@lru_cache(maxsize=None)
def _circular_projector(label: str) -> Projector:
    e = np.array([1.0, 0.0]) if label == "R" else np.array([0.0, 1.0])
    return Projector.onto(e)


def _relation_assignments(relation: CircularRelation | None):
    if relation is None:
        return [()]
    if relation.kind == "same":
        return [("R", "R"), ("L", "L")]
    if relation.kind == "different":
        return [("R", "L"), ("L", "R")]
    return [("R", "R", "R"), ("L", "L", "L")]


def _event_probability(spec: TripartiteOutcomeSpec) -> float:
    """Born probability of the event on the circular-basis state."""
    state = make_ortho_ps_state()
    total = 0.0
    for assignment in _relation_assignments(spec.relation):
        ops: list[Projector | None] = [None] * N_PHOTONS
        for site, lab in spec.linear:
            ops[site] = _linear_projector_in_circular(lab)
        for site, lab in spec.circular:
            ops[site] = _circular_projector(lab)
        if spec.relation is not None:
            for site, lab in zip(spec.relation.sites, assignment):
                ops[site] = _circular_projector(lab)
        total += born_probability(state, ops)
    return min(total, 1.0)


def outcome_probability(
    spec: TripartiteOutcomeSpec,
    conditional_on: TripartiteOutcomeSpec | None = None,
) -> float:
    """Joint (or conditional) probability of an outcome event on the state."""
    if conditional_on is None:
        return _event_probability(spec)
    p_cond = _event_probability(conditional_on)
    if p_cond < _NULL_EVENT_TOL:
        raise ConditionOnNullEvent(
            f"conditioning event has probability {p_cond} < {_NULL_EVENT_TOL}"
        )
    return _event_probability(spec.merged_with(conditional_on)) / p_cond


def _ch_terms(labeling: tuple[int, int, int]) -> list[tuple[str, float]]:
    i, j, k = labeling
    disp = tuple(s + 1 for s in labeling)  # 1-based names for reports
    return [
        (
            f"P({disp[0]}=V,{disp[1]}=V)",
            outcome_probability(TripartiteOutcomeSpec(linear=((i, "V"), (j, "V")))),
        ),
        (
            f"P({disp[0]}=V,C{disp[1]}!=C{disp[2]})",
            outcome_probability(
                TripartiteOutcomeSpec(linear=((i, "V"),), relation=different_circular(j, k))
            ),
        ),
        (
            f"P(C{disp[0]}!=C{disp[2]},{disp[1]}=V)",
            outcome_probability(
                TripartiteOutcomeSpec(linear=((j, "V"),), relation=different_circular(i, k))
            ),
        ),
        (
            "P(C1=C2=C3)",
            outcome_probability(TripartiteOutcomeSpec(relation=all_same_circular())),
        ),
    ]


def ch_value_3gamma(
    labeling: tuple[int, int, int] = (0, 1, 2), symmetrized: bool = False
) -> InequalityReport:
    """CH-type combination P(i=V,j=V) - P(i=V,Cj!=Ck) - P(Ci!=Ck,j=V) - P(all same).

    The fixed-label reading uses the given (0-based) labeling; the symmetrized
    reading sums the expression over the three cyclic labelings, turning the
    first term into the probability that some two photons are vertical.
    """
    if sorted(labeling) != [0, 1, 2]:
        raise ValueError(f"labeling must be a permutation of (0, 1, 2), got {labeling}")
    if not symmetrized:
        terms = _ch_terms(tuple(labeling))
        value = terms[0][1] - terms[1][1] - terms[2][1] - terms[3][1]
        return make_report(terms, value)
    i, j, k = labeling
    cycles = [(i, j, k), (j, k, i), (k, i, j)]
    summed = [0.0] * 4
    for cyc in cycles:
        for t, (_, p) in enumerate(_ch_terms(cyc)):
            summed[t] += p
    labels = ["P(two of three=V)", "P(V,Cdiff) sym", "P(Cdiff,V) sym", "3*P(C1=C2=C3)"]
    value = summed[0] - summed[1] - summed[2] - summed[3]
    return make_report(list(zip(labels, summed)), value)


class SloccClass(str, enum.Enum):
    GHZ_CLASS = "ghz-class"
    NOT_CERTIFIED = "not-certified"


@dataclass(frozen=True)
class TangleReport:
    tau: float
    slocc_class: SloccClass

    def to_dict(self) -> dict:
        return {"tau": self.tau, "slocc_class": self.slocc_class.value}


def three_tangle(state: StateVector) -> TangleReport:
    """Residual tangle of a three-qubit state via the degree-4 hyperdeterminant.

    tau = 4|d1 - 2*d2 + 4*d3| over the eight amplitudes; tau > 0 certifies
    the GHZ SLOCC class, tau = 0 leaves the class uncertified.
    """
    if state.dims != (2, 2, 2):
        raise DimensionError(f"three_tangle needs dims (2, 2, 2), got {state.dims}")
    a = state.as_tensor()
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    tau = float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
    cls = SloccClass.GHZ_CLASS if tau > TANGLE_CLASS_TOL else SloccClass.NOT_CERTIFIED
    return TangleReport(tau=tau, slocc_class=cls)


def probability_summary(labeling: tuple[int, int, int] = (0, 1, 2)) -> dict:
    """The four headline probabilities for the given labeling (i, j, k)."""
    i, j, k = labeling
    sym = ch_value_3gamma(symmetrized=True).terms[0][1]
    return {
        "p_two_v_symmetrized": sym,
        "p_two_v_fixed": outcome_probability(
            TripartiteOutcomeSpec(linear=((i, "V"), (j, "V")))
        ),
        "p_same_pair_given_v": outcome_probability(
            TripartiteOutcomeSpec(relation=same_circular(j, k)),
            conditional_on=TripartiteOutcomeSpec(linear=((i, "V"),)),
        ),
        "p_all_same_circular": outcome_probability(
            TripartiteOutcomeSpec(relation=all_same_circular())
        ),
    }

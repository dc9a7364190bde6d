"""Three-photon polarization state from triplet-onium annihilation.

Builds the state in circular, linear and mixed polarization bases, evaluates
joint/conditional probabilities of events written as outcome words, the
CH-type inequality as one table of signed words (which the local-hidden-
variable enumeration in :mod:`hepbell.lhv` reads too), and the residual
tripartite entanglement (3-tangle) certificate.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

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


def circular_linear_transform() -> np.ndarray:
    """Unitary relating linear and circular polarization kets.

    Row order (R, L), column order (H, V):  |R> = (|H> + i|V>)/sqrt(2) and
    |L> = (|H> - i|V>)/sqrt(2).  For amplitude vectors this means
    a_HV = M.T @ a_RL and a_RL = conj(M) @ a_HV.
    """
    return np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=np.complex128) / np.sqrt(2.0)


@lru_cache(maxsize=8)
def make_ortho_ps_state(
    basis: tuple[PolBasis, PolBasis, PolBasis] = (
        PolBasis.CIRCULAR,
        PolBasis.CIRCULAR,
        PolBasis.CIRCULAR,
    ),
) -> StateVector:
    """The three-photon state in the requested per-site polarization bases.

    Each site's basis order is (R, L) if it is circular and (H, V) if it is
    linear.  The circular-basis amplitudes put weight 1/sqrt(6) on the six
    words with mixed helicities (RRL, RLR, LRR, LLR, LRL, RLL) and zero on
    RRR and LLL; sites requested in the linear basis are converted
    amplitude-wise with the transform from :func:`circular_linear_transform`.
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
    return StateVector((2, 2, 2), amps.ravel())


# An outcome word has one letter per photon: H/V a linear outcome, R/L a
# circular one, "." not measured.  An event is a sequence of words.
_BASIS = {"H": "HV", "V": "HV", "R": "RL", "L": "RL", ".": "."}


@lru_cache(maxsize=None)
def _projector(letter: str) -> Projector:
    """Projector onto one photon's outcome ``letter`` in the circular basis."""
    if letter in LINEAR_LABELS:
        ket = circular_linear_transform().conj() @ np.eye(2)[LINEAR_LABELS.index(letter)]
    else:
        ket = np.eye(2)[CIRCULAR_LABELS.index(letter)]
    return Projector.onto(ket)


def _words(event: Sequence[str]) -> tuple[str, ...]:
    """The words of ``event``, checked mutually exclusive: every word
    measures each photon in the same basis, and none repeats."""
    words = tuple(event)
    for word in words:
        if not isinstance(word, str) or len(word) != N_PHOTONS or not set(word) <= _BASIS.keys():
            raise ValueError(f"bad outcome word {word!r}: one of H, V, R, L, . per photon")
        if [_BASIS[c] for c in word] != [_BASIS[c] for c in words[0]]:
            raise ValueError(f"word {word!r} measures other bases than {words[0]!r}")
        if words.count(word) > 1:
            raise ValueError(f"word {word!r} repeats")
    return words


def _probability(event: Sequence[str]) -> float:
    """Born probability of the event on the circular-basis state."""
    state = make_ortho_ps_state()
    total = 0.0
    for word in _words(event):
        total += born_probability(state, [None if c == "." else _projector(c) for c in word])
    return min(total, 1.0)


def _joint(word: str, given: str) -> str:
    if any("." not in (a, b) and a != b for a, b in zip(word, given)):
        raise ValueError(f"words {word!r} and {given!r} give one photon two outcomes")
    return "".join(b if a == "." else a for a, b in zip(word, given))


def outcome_probability(event: Sequence[str], given: Sequence[str] | None = None) -> float:
    """Probability of an event of outcome words, or its conditional on ``given``."""
    if given is None:
        return _probability(event)
    p_given = _probability(given)
    if p_given < _NULL_EVENT_TOL:
        raise ConditionOnNullEvent(
            f"conditioning event has probability {p_given} < {_NULL_EVENT_TOL}"
        )
    return _probability([_joint(w, g) for w in _words(event) for g in _words(given)]) / p_given


# The CH expression as (report label, sign, words) on the labeling (i, j, k);
# a word's n-th letter is photon labeling[n]'s outcome.
_CH_TEMPLATE = (
    ("P({i}=V,{j}=V)", 1, ("VV.",)),
    ("P({i}=V,C{j}!=C{k})", -1, ("VRL", "VLR")),
    ("P(C{i}!=C{k},{j}=V)", -1, ("RVL", "LVR")),
    ("P(C1=C2=C3)", -1, ("RRR", "LLL")),
)
_SYMMETRIZED_LABELS = ("P(two of three=V)", "P(V,Cdiff) sym", "P(Cdiff,V) sym", "3*P(C1=C2=C3)")


def _placed(labeling: tuple[int, int, int], word: str) -> str:
    return "".join(word[labeling.index(photon)] for photon in range(N_PHOTONS))


@lru_cache(maxsize=None)
def ch_words(
    labeling: tuple[int, int, int] = (0, 1, 2),
) -> tuple[tuple[str, int, tuple[str, ...]], ...]:
    """The CH terms for a (0-based) labeling as (report label, sign, words)."""
    if sorted(labeling) != [0, 1, 2]:
        raise ValueError(f"labeling must be a permutation of (0, 1, 2), got {labeling}")
    names = dict(zip("ijk", (s + 1 for s in labeling)))  # 1-based names for reports
    return tuple(
        (label.format(**names), sign, tuple(_placed(labeling, w) for w in words))
        for label, sign, words in _CH_TEMPLATE
    )


def _ch_terms(labeling: tuple[int, int, int]) -> list[tuple[str, int, float]]:
    return [(label, sign, outcome_probability(words)) for label, sign, words in ch_words(labeling)]


def ch_value_3gamma(
    labeling: tuple[int, int, int] = (0, 1, 2), symmetrized: bool = False
) -> InequalityReport:
    """CH-type combination P(i=V,j=V) - P(i=V,Cj!=Ck) - P(Ci!=Ck,j=V) - P(all same).

    The fixed-label reading uses the given (0-based) labeling; the symmetrized
    reading sums the expression over the three cyclic labelings, turning the
    first term into the probability that some two photons are vertical.
    """
    terms = _ch_terms(tuple(labeling))
    if symmetrized:
        i, j, k = labeling
        cycles = zip(_SYMMETRIZED_LABELS, terms, _ch_terms((j, k, i)), _ch_terms((k, i, j)))
        terms = [
            (label, sign, p + q + r) for label, (_, sign, p), (_, _, q), (_, _, r) in cycles
        ]
    value = sum(sign * p for _, sign, p in terms)
    return make_report([(label, p) for label, _, p in terms], value)


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
    two_v, *_, all_same = ch_words(tuple(labeling))
    return {
        "p_two_v_symmetrized": ch_value_3gamma(symmetrized=True).terms[0][1],
        "p_two_v_fixed": outcome_probability(two_v[2]),
        "p_same_pair_given_v": outcome_probability(
            [_placed(labeling, ".RR"), _placed(labeling, ".LL")],
            given=[_placed(labeling, "V..")],
        ),
        "p_all_same_circular": outcome_probability(all_same[2]),
    }

"""Correctness checks on hepbell's outputs; each returns a list of problems.

The schema validator covers the JSON-schema keywords ``report.schema.json``
uses and refuses any other keyword, so a schema change cannot pass
unchecked.  The physics checks compare against closed forms.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
KAPPA = math.pi / 2
HARDY_MAX = (SQRT2 - 1.0) / 2.0
HARDY_ARGMAX = (3 * math.pi / 8, math.pi / 4, 5 * math.pi / 8)
EFFICIENCY_THRESHOLD = 2.0 * (SQRT2 - 1.0)
KINEMATICS_BETA = 0.7293
N_SIGMA = 5.0

_ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def schema_errors(value, schema: dict, root: dict | None = None, where: str = "$") -> list[str]:
    """Problems found validating ``value`` against a JSON-schema subset."""
    root = schema if root is None else root
    errors: list[str] = []
    for key, rule in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key == "$ref":
            target = root
            for part in rule.removeprefix("#/").split("/"):
                target = target[part]
            errors += schema_errors(value, target, root, where)
        elif key == "oneOf":
            passing = sum(not schema_errors(value, option, root, where) for option in rule)
            if passing != 1:
                errors.append(f"{where}: matches {passing} of the oneOf branches")
        elif key == "type":
            if not _TYPES[rule](value):
                errors.append(f"{where}: expected {rule}")
        elif key == "const":
            if value != rule:
                errors.append(f"{where}: expected {rule!r}")
        elif key == "enum":
            if value not in rule:
                errors.append(f"{where}: {value!r} not in {rule}")
        elif key in ("minimum", "maximum", "exclusiveMinimum"):
            if _TYPES["number"](value) and not {
                "minimum": value >= rule,
                "maximum": value <= rule,
                "exclusiveMinimum": value > rule,
            }[key]:
                errors.append(f"{where}: {value} violates {key} {rule}")
        elif key in ("minItems", "maxItems"):
            if isinstance(value, list) and not (
                len(value) >= rule if key == "minItems" else len(value) <= rule
            ):
                errors.append(f"{where}: length {len(value)} violates {key} {rule}")
        elif key == "required":
            if isinstance(value, dict):
                errors += [f"{where}: missing {name!r}" for name in rule if name not in value]
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        errors += schema_errors(value[name], sub, root, f"{where}.{name}")
        elif key == "additionalProperties":
            if isinstance(value, dict):
                named = schema.get("properties", {})
                for name, item in value.items():
                    if name not in named:
                        errors += schema_errors(item, rule, root, f"{where}.{name}")
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += schema_errors(item, rule, root, f"{where}[{i}]")
        else:
            errors.append(f"{where}: schema keyword {key!r} is not supported")
    return errors


def predicted_ch(eta_1: float, eta_2: float, background: float, window: float, settings) -> float:
    """Expected event-based CH value S, window-averaging bias included.

    Coincidences carry the background fraction (flat in phi) and signal
    with density sin^2(phi)/pi.  A window of width w centred on c then reads
    the joint kappa * fraction / w = 1/4 - (1 - b) cos(2c) sin(w)/(4w), and
    S = eta1 * eta2 * (signed sum of the four joints) - (eta1 + eta2)/2.
    """
    t1, t1p, t2, t2p = settings
    sinc = math.sin(window) / window
    joint = 0.0
    for sign, centre in ((1, t2 - t1), (-1, t2p - t1), (1, t2 - t1p), (1, t2p - t1p)):
        joint += sign * (0.25 - (1.0 - background) * math.cos(2.0 * centre) * sinc / 4.0)
    return eta_1 * eta_2 * joint - 0.5 * (eta_1 + eta_2)


def check_estimate(doc: dict, coincidences: int) -> list[str]:
    """Counts sum to the coincidences and p_hat integrates to kappa = pi/2."""
    errors = []
    if sum(doc["counts"]) != coincidences:
        errors.append(f"estimate: counts sum to {sum(doc['counts'])}, not {coincidences}")
    width = doc["bin_edges"][1] - doc["bin_edges"][0]
    integral = sum(doc["p_hat"]) * width
    if abs(doc["kappa"] - KAPPA) > 1e-9 or abs(integral - KAPPA) > 1e-9:
        errors.append(f"estimate: kappa {doc['kappa']}, integral {integral}, expected pi/2")
    return errors


def check_chtest(doc: dict, eta: float, background: float, window: float, settings) -> list[str]:
    """S violates the bound and lies within 5 sigma of the prediction."""
    errors = []
    expected = predicted_ch(eta, eta, background, window, settings)
    if not doc["violated"]:
        errors.append("chtest: CH inequality not violated")
    if abs(doc["value"] - expected) > N_SIGMA * doc["stat_err"]:
        errors.append(
            f"chtest: S = {doc['value']} +- {doc['stat_err']}, expected {expected}"
        )
    return errors


def _close(name: str, got: float, want: float, tol: float) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{name}: {got}, expected {want} +- {tol}"]


def check_analytic(label: str, doc: dict) -> list[str]:
    """Exact values each analytic command must reproduce."""
    if label == "tripartite":
        errors = [] if doc["violated"] else ["tripartite: not violated"]
        errors += _close("tripartite lhv_max", doc["lhv_max"], 0.0, 0.0)
        if doc["tangle"]["slocc_class"] != "ghz-class":
            errors.append(f"tripartite: class {doc['tangle']['slocc_class']}")
        return errors
    if label == "hardy":
        return _close("hardy gap", doc["report"]["lhs_minus_rhs"], HARDY_MAX, 1e-12) + _close(
            "hardy lhv_max", doc["lhv_max"], 0.0, 0.0
        )
    if label == "hardy_optimize":
        best = doc["optimum"]
        errors = _close("hardy optimum", best["value"], HARDY_MAX, 1e-12)
        for axis, want in zip(("alpha", "beta", "gamma"), HARDY_ARGMAX):
            errors += _close(f"hardy optimum {axis}", best[axis], want, 1e-6)
        return errors
    if label == "efficiency":
        return _close("efficiency threshold", doc["threshold"], EFFICIENCY_THRESHOLD, 1e-8)
    if label == "kinematics":
        errors = _close("kinematics beta", doc["beta"], KINEMATICS_BETA, 5e-5)
        return errors if doc["space_like_ok"] else errors + ["kinematics: not space-like"]
    raise ValueError(f"no check for {label!r}")

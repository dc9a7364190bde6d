"""Command-line driver: runs every analysis from flags or a JSON config and
writes schema-validatable JSON/CSV reports with the resolved configuration
embedded for provenance."""

import argparse
import gc
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

from .kinematics import SPACE_LIKE_BETA_MIN, KinematicsConfig, two_body_beta

# The analysis modules are imported inside the handlers that run them, so a
# command loads only what it uses (`kinematics` runs without numpy).  Start-up
# loads no dataclasses, typing or contextlib either: the config types are
# named tuples.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_INSUFFICIENT_STATS = 4

_PI = math.pi


class AngleSyntaxError(argparse.ArgumentTypeError, ValueError):
    def __init__(self, token: str):
        super().__init__(f"malformed angle token {token!r}")
        self.token = token


def parse_angle(token: str) -> float:
    """Parse radians or exact fractions of pi: '0.5', 'pi', '3pi/8', '-pi/2'.

    A head, divisor or value that is not finite (``inf``, ``nan``,
    ``1e400``, ``pi/inf``) and a zero divisor are malformed.
    """
    text = str(token).strip().lower().replace(" ", "")
    head, pi, tail = text.partition("pi")
    if pi and head in ("", "+", "-"):
        head += "1"
    try:
        value = float(head)
        if pi:
            value *= _PI
        if tail:
            if not tail.startswith("/"):
                raise ValueError
            divisor = float(tail[1:])
            if not math.isfinite(divisor):
                raise ValueError
            value /= divisor
    except (ValueError, ZeroDivisionError):
        raise AngleSyntaxError(token) from None
    if not math.isfinite(value):
        raise AngleSyntaxError(token)
    return value


def _parse_bool(token: str) -> bool:
    text = str(token).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {token!r}")


# Each field of RunConfig and its default.
_RUN_DEFAULTS = {
    "seed": 12345,
    "n_events": 1_000_000,
    "workers": 1,
    "eta_1": 1.0,
    "eta_2": 1.0,
    "background_fraction": 0.0,
    "br_weight": 1.0,
    "m_parent": 2.980,
    "m_vector": 1.019461,
    "settings": (0.0, 3 * _PI / 4, 3 * _PI / 8, _PI / 8),
    "bin_width": 2 * _PI / 64,
    "output_dir": ".",
}


class RunConfig(namedtuple("RunConfig", _RUN_DEFAULTS, defaults=_RUN_DEFAULTS.values())):
    """Fully resolved run parameters; flags override config-file fields."""

    __slots__ = ()

    def detector(self):
        """The run's ``mesonlab.DetectorModel``."""
        from . import mesonlab

        return mesonlab.DetectorModel(
            eta_1=self.eta_1,
            eta_2=self.eta_2,
            background_fraction=self.background_fraction,
            br_weight=self.br_weight,
        )

    def kinematics(self) -> KinematicsConfig:
        return KinematicsConfig(m_parent=self.m_parent, m_vector=self.m_vector)

    def to_dict(self) -> dict:
        """The fields a report embeds: all but ``output_dir``, where it is written."""
        out = self._asdict()
        del out["output_dir"]
        out["settings"] = [float(v) for v in self.settings]
        return out


def _load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path is None:
        return config
    file_path = Path(path)
    if not file_path.exists():
        raise FileNotFoundError(f"config file not found: {file_path}")
    try:
        data = json.loads(file_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {file_path} is not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config file {file_path} is not JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(data, dict):
        raise ValueError(f"config file {file_path} must hold a JSON object, got {type(data).__name__}")
    unknown = set(data).difference(RunConfig._fields)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    return config._replace(**{name: _config_value(name, value) for name, value in data.items()})


# The lower bound report.schema.json gives each integer field of the config,
# and the upper bound it gives the seed, a 64-bit key of the generator.
_INTEGER_FIELDS = {"seed": 0, "n_events": 1, "workers": 1}
_SEED_MAX = 2**64 - 1
_UNIT_FIELDS = ("eta_1", "eta_2", "background_fraction", "br_weight")


def _config_value(name: str, value):
    """The config file's ``value`` of the field ``name``, angle tokens
    parsed; refused, naming the field, unless it has the type and range that
    report.schema.json gives the field."""
    if name == "settings":
        if not (
            isinstance(value, list)
            and len(value) == 4
            and all(type(v) in (int, float, str) for v in value)
        ):
            raise ValueError(f"settings must be four angles, got {value!r}")
        angles = [parse_angle(v) if isinstance(v, str) else float(v) for v in value]
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"settings must be finite, got {angles}")
        return tuple(angles)
    if name == "output_dir" and not isinstance(value, str):
        raise ValueError(f"output_dir must be a string, got {value!r}")
    if name in _INTEGER_FIELDS and (type(value) is not int or value < _INTEGER_FIELDS[name]):
        raise ValueError(f"{name} must be an integer >= {_INTEGER_FIELDS[name]}, got {value!r}")
    if name == "seed" and value > _SEED_MAX:
        raise ValueError(f"seed must be an integer <= {_SEED_MAX}, got {value!r}")
    if name == "bin_width" and isinstance(value, str):
        value = parse_angle(value)
    number = type(value) in (int, float)
    if name in _UNIT_FIELDS and not (number and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    if name in ("m_parent", "m_vector", "bin_width") and not (number and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Every flag stores under its RunConfig field name; unset flags are None."""
    updates = {}
    for name in RunConfig._fields:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    return config._replace(**updates) if updates else config


def _out_path(config: RunConfig, out: str | None, default: str) -> Path:
    """``out``, or else the file ``default`` in the output directory, which
    is created only then."""
    if out:
        return Path(out)
    directory = Path(config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / default


def _write_report(config: RunConfig, kind: str, payload: dict, out: str | None) -> Path:
    path = _out_path(config, out, f"{kind}.json")
    document = {"kind": kind, "config": config.to_dict()}
    document.update(payload)
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    print(f"wrote {path}")
    return path


def four_angles(text: str) -> tuple[float, float, float, float]:
    """argparse type for a comma-separated list of four angles."""
    tokens = text.split(",")
    for field, token in enumerate(tokens, 1):
        if not token.strip():
            raise argparse.ArgumentTypeError(f"empty angle field {field} in {text!r}")
    if len(tokens) != 4:
        raise argparse.ArgumentTypeError(
            f"expected four angles t1,t1',t2,t2', got {len(tokens)}: {text!r}"
        )
    return tuple(parse_angle(t) for t in tokens)


def _cmd_tripartite(config: RunConfig, args: argparse.Namespace) -> int:
    from . import lhv, photon3

    try:
        labeling = tuple(int(v) - 1 for v in args.labeling.split(","))
    except ValueError:
        raise ValueError(f"--labeling must be three integers, got {args.labeling!r}")
    if sorted(labeling) != [0, 1, 2]:
        raise ValueError(f"--labeling must be a permutation of 1,2,3, got {args.labeling!r}")
    fixed = photon3.ch_value_3gamma(labeling=labeling, symmetrized=False)
    symmetrized = photon3.ch_value_3gamma(labeling=labeling, symmetrized=True)
    selected = symmetrized if args.symmetrized else fixed
    tangle = photon3.three_tangle(photon3.make_ortho_ps_state())
    lhv_max, _ = lhv.max_ch_3gamma_lhv()
    payload = {
        "labeling": [v + 1 for v in labeling],
        "symmetrized": args.symmetrized,
        "probabilities": photon3.probability_summary(labeling),
        "ch_fixed": fixed.to_dict(),
        "ch_symmetrized": symmetrized.to_dict(),
        "value": selected.value,
        "violated": selected.violated,
        "lhv_max": lhv_max,
        "tangle": tangle.to_dict(),
    }
    _write_report(config, "tripartite", payload, args.out)
    return EXIT_OK


def _cmd_hardy(config: RunConfig, args: argparse.Namespace) -> int:
    from . import lhv, spin1

    settings = spin1.HardySettings(args.alpha, args.beta, args.gamma)
    report = spin1.hardy_probabilities(settings)
    lhv_max, _ = lhv.max_hardy_spin1_lhv()
    payload = {"settings": vars(settings), "report": report.to_dict(), "lhv_max": lhv_max}
    if args.optimize:
        best_settings, best_value = spin1.maximize_violation()
        payload["optimum"] = {**vars(best_settings), "value": best_value}
    _write_report(config, "hardy", payload, args.out)
    return EXIT_OK


def _cmd_generate(config: RunConfig, args: argparse.Namespace) -> int:
    from . import mesonlab

    # A bad configuration raises here, before the output directory is made.
    # Closing the chunks ends the processes that draw them, also when the
    # write fails.
    chunks = mesonlab.generate_event_chunks(
        config.n_events, config.detector(), seed=config.seed, workers=config.workers
    )
    try:
        path = _out_path(config, args.out, "events.csv")
        mesonlab.write_events_csv(chunks, path)
    finally:
        chunks.close()
    echo = {"kind": "generate", "config": config.to_dict(), "events_file": str(path)}
    print(json.dumps(echo, sort_keys=True, allow_nan=False))
    return EXIT_OK


def _events_path(path_text: str) -> Path:
    path = Path(path_text)
    if not path.exists():
        raise FileNotFoundError(f"event file not found: {path}")
    return path


def _cmd_estimate(config: RunConfig, args: argparse.Namespace) -> int:
    from . import mesonlab

    estimate = mesonlab.estimate_probability(
        _events_path(args.events), bin_width=config.bin_width
    )
    _write_report(config, "estimate", estimate.to_dict(), args.out)
    return EXIT_OK


def _cmd_chtest(config: RunConfig, args: argparse.Namespace) -> int:
    from . import mesonlab

    report = mesonlab.ch_from_events(
        _events_path(args.events), config.settings, det=config.detector(), window=config.bin_width
    )
    payload = {"settings": list(config.settings)}
    payload.update(report.to_dict())
    _write_report(config, "chtest", payload, args.out)
    return EXIT_OK


def _cmd_efficiency(config: RunConfig, args: argparse.Namespace) -> int:
    from . import spin1

    threshold = spin1.efficiency_threshold()
    eta_grid = [round(0.5 + 0.01 * k, 2) for k in range(51)]
    payload = {
        "threshold": threshold,
        "eta_grid": eta_grid,
        "max_s": [spin1.max_s_of_eta(eta) for eta in eta_grid],
    }
    _write_report(config, "efficiency", payload, args.out)
    return EXIT_OK


def _cmd_kinematics(config: RunConfig, args: argparse.Namespace) -> int:
    result = two_body_beta(config.kinematics())
    payload = {**result._asdict(), "beta_min": SPACE_LIKE_BETA_MIN}
    _write_report(config, "kinematics", payload, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hepbell",
        description="Nonlocality tests with entangled states from particle decays.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--output-dir", dest="output_dir", help="directory for reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tripartite", help="three-photon probabilities, CH value, 3-tangle")
    p.add_argument("--labeling", default="1,2,3", help="photon labeling, e.g. 2,3,1")
    p.add_argument(
        "--symmetrized",
        type=_parse_bool,
        default=True,
        help="use the symmetrized first term (true/false)",
    )
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_tripartite)

    p = sub.add_parser("hardy", help="spin-1 Hardy probabilities and violation")
    p.add_argument("--alpha", type=parse_angle, default=3 * _PI / 8)
    p.add_argument("--beta", type=parse_angle, default=_PI / 4)
    p.add_argument("--gamma", type=parse_angle, default=5 * _PI / 8)
    p.add_argument("--optimize", action="store_true", help="also search for the maximum")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_hardy)

    p = sub.add_parser("generate", help="simulate decays and write the event CSV")
    p.add_argument("--n", dest="n_events", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--workers",
        type=int,
        help="number of Philox streams the sample is split into; part of the "
        "(seed, n, workers) key that fixes the file, not a thread count",
    )
    p.add_argument("--eta1", dest="eta_1", type=float)
    p.add_argument("--eta2", dest="eta_2", type=float)
    p.add_argument("--background", dest="background_fraction", type=float)
    p.add_argument("--br-weight", dest="br_weight", type=float)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("estimate", help="histogram probability estimate from events")
    p.add_argument("--events", required=True)
    p.add_argument("--bin-width", dest="bin_width", type=parse_angle)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("chtest", help="event-based CH evaluation")
    p.add_argument("--events", required=True)
    p.add_argument(
        "--settings",
        type=four_angles,
        help="four angles t1,t1',t2,t2' (accepts Npi/M)",
    )
    p.add_argument("--eta1", dest="eta_1", type=float)
    p.add_argument("--eta2", dest="eta_2", type=float)
    p.add_argument("--bin-width", dest="bin_width", type=parse_angle)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_chtest)

    p = sub.add_parser("efficiency", help="detection-efficiency threshold scan")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_efficiency)

    p = sub.add_parser("kinematics", help="two-body decay speed and space-like flag")
    p.add_argument("--m-parent", dest="m_parent", type=float)
    p.add_argument("--m-vector", dest="m_vector", type=float)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_kinematics)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(_load_config(args.config), args)
        return args.handler(config, args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        if isinstance(exc, OSError):
            return EXIT_MISSING_INPUT
        # Only a command that imported mesonlab can raise its errors.
        mesonlab = sys.modules.get(f"{__package__}.mesonlab")
        if mesonlab and isinstance(exc, (mesonlab.InsufficientStatistics, mesonlab.NoData)):
            return EXIT_INSUFFICIENT_STATS
        return EXIT_USAGE


def entry():
    """The program: the ``hepbell`` console script and ``python -m
    hepbell.cli``.  Runs :func:`main` on the command line and exits with its
    code.

    Once the command has returned, the heap is frozen (``gc.freeze``), so
    the full collections CPython runs at shutdown skip it; with numpy and
    the analysis modules loaded they would walk some 20 000 objects, for
    20-40 ms, after the report is written.  Objects are still freed by
    their reference counts, ``atexit`` handlers run and streams are flushed.
    No command leaves a file, pipe or worker for the collector to close.
    ``main`` itself does not freeze, so a caller's collector is unaffected.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()

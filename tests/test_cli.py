import errno
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepbell import _workers, cli, mesonlab
from hepbell.kinematics import KinematicsConfig, TwoBodyBeta

from conftest import assert_no_child

SQ2 = math.sqrt(2.0)

# Any JSON value, with the config's own field names among the object keys.
_CONFIG_KEYS = st.sampled_from(cli.RunConfig._fields) | st.text(max_size=8)
JSON_CONFIGS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_CONFIG_KEYS, inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def schema():
    text = resources.files("hepbell").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def run(args):
    return cli.main(args)


def exit_code(args):
    """What ``main`` returns, or the code of the SystemExit argparse raises."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


def load(path):
    return json.loads(Path(path).read_text())


def validate(document, schema):
    jsonschema.validate(document, schema)


EVENTS_HEADER = "event_id,phi,detected_1,detected_2,is_background\r\n"


def events_with_fault(fault, row, n=21):
    """An event file of ``n`` good rows with one fault at data row ``row``."""
    rows = [f"{i},0.5,1,1,0\r\n" for i in range(n)]
    if fault == "blank-line":
        rows.insert(row, "\r\n")
    else:
        rows[row] = {
            "bad-token": f"{row},0.5x,1,1,0\r\n",
            "bare-cr": f"{row},0.5,1,1,0\r",
            "id-gap": f"{row + 1},0.5,1,1,0\r\n",
            "phi-at-2pi": f"{row},6.3,1,1,0\r\n",
        }[fault]
    return EVENTS_HEADER + "".join(rows)


class TestAngleParsing:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("3pi/8", 3 * math.pi / 8),
            ("pi/4", math.pi / 4),
            ("pi", math.pi),
            ("2pi", 2 * math.pi),
            ("-pi/2", -math.pi / 2),
            ("0.5", 0.5),
            ("0", 0.0),
            ("0.5pi", 0.5 * math.pi),
        ],
    )
    def test_valid_tokens(self, token, expected):
        assert abs(cli.parse_angle(token) - expected) < 1e-15

    @pytest.mark.parametrize(
        "token",
        [
            "3qi/8", "pi/", "x", "", "pi/pi", "pi/0",
            "inf", "-inf", "nan", "1e400", "pi/inf", "pi/nan", "infpi", "nanpi",
            "1e308pi", "pi/1e-320", "pi/0.0", "-pi/-0",
        ],
    )
    def test_invalid_tokens(self, token):
        with pytest.raises(cli.AngleSyntaxError):
            cli.parse_angle(token)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ("0,1", "expected four angles t1,t1',t2,t2', got 2: '0,1'"),
            ("0,1,2,3x", "malformed angle token '3x'"),
            ("0,,1,2,3", "empty angle field 2 in '0,,1,2,3'"),
        ],
    )
    def test_bad_settings_name_their_fault(self, tmp_path, capsys, settings, message):
        with pytest.raises(SystemExit) as excinfo:
            run(["--output-dir", str(tmp_path), "chtest", "--settings", settings])
        assert excinfo.value.code == 2
        assert f"argument --settings: {message}" in capsys.readouterr().err

    def test_zero_denominator_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["hardy", "--alpha", "pi/0"])
        assert excinfo.value.code == 2
        assert "argument --alpha: malformed angle token 'pi/0'" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["pi/inf", "nan", "1e400"])
    def test_non_finite_angle_flag_is_usage_error(self, capsys, token):
        with pytest.raises(SystemExit) as excinfo:
            run(["hardy", f"--alpha={token}"])
        assert excinfo.value.code == 2
        assert f"argument --alpha: malformed angle token {token!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, token",
        [
            ("settings", ["pi/inf", 0, 0, 0], "pi/inf"),
            ("settings", [0, "inf", 0, 0], "inf"),
            ("bin_width", "nan", "nan"),
        ],
    )
    def test_non_finite_angle_in_config_is_usage_error(
        self, tmp_path, capsys, field, value, token
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        assert run(["--config", str(config), "kinematics", "--out", str(tmp_path / "k.json")]) == 2
        assert capsys.readouterr().err == f"hepbell: error: malformed angle token {token!r}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_zero_denominator_in_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"settings": ["pi/0", 0, 0, 0]}))
        assert run(["--config", str(config), "kinematics", "--out", str(tmp_path / "k.json")]) == 2
        assert capsys.readouterr().err == "hepbell: error: malformed angle token 'pi/0'\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]


class TestTripartiteCommand:
    def test_default_run(self, tmp_path, schema):
        out = tmp_path / "t.json"
        assert run(["--output-dir", str(tmp_path), "tripartite", "--out", str(out)]) == 0
        doc = load(out)
        validate(doc, schema)
        assert abs(doc["tangle"]["tau"] - 1 / 3) < 1e-6
        assert doc["tangle"]["slocc_class"] == "ghz-class"
        assert abs(doc["value"] - 0.25) < 1e-9
        assert doc["lhv_max"] == 0.0
        assert abs(doc["probabilities"]["p_same_pair_given_v"] - 1.0) < 1e-12

    def test_relabeling_keeps_fixed_value(self, tmp_path, schema):
        out = tmp_path / "t.json"
        assert run([
            "--output-dir", str(tmp_path),
            "tripartite", "--labeling", "2,3,1", "--symmetrized", "false",
            "--out", str(out),
        ]) == 0
        doc = load(out)
        validate(doc, schema)
        assert abs(doc["value"] - 1 / 12) < 1e-12

    def test_bad_labeling_is_usage_error(self, tmp_path):
        assert run(["tripartite", "--labeling", "1,1,3"]) == 2

    @pytest.mark.parametrize("args, fixed_labels, value", [
        ([], ("P(1=V,2=V)", "P(1=V,C2!=C3)", "P(C1!=C3,2=V)"), "0x1.0000000000004p-2"),
        (
            ["--labeling", "2,3,1", "--symmetrized", "false"],
            ("P(2=V,3=V)", "P(2=V,C3!=C1)", "P(C2!=C1,3=V)"),
            "0x1.555555555555ap-4",
        ),
    ])
    def test_numbers_keep_their_bits(self, tmp_path, args, fixed_labels, value):
        out = tmp_path / "t.json"
        assert run(["--output-dir", str(tmp_path), "tripartite", *args, "--out", str(out)]) == 0
        doc = load(out)
        hexed = lambda numbers: {k: float.hex(v) for k, v in numbers.items()}
        zero, twelfth, quarter = "0x0.0p+0", "0x1.555555555555ap-4", "0x1.0000000000004p-2"
        assert hexed(doc["probabilities"]) == {
            "p_all_same_circular": zero,
            "p_same_pair_given_v": "0x1.0000000000000p+0",
            "p_two_v_fixed": twelfth,
            "p_two_v_symmetrized": quarter,
        }
        two_v, v_cdiff, cdiff_v = fixed_labels
        assert hexed(doc["ch_fixed"]["terms"]) == {
            two_v: twelfth, v_cdiff: zero, cdiff_v: zero, "P(C1=C2=C3)": zero,
        }
        assert float.hex(doc["ch_fixed"]["value"]) == twelfth
        assert hexed(doc["ch_symmetrized"]["terms"]) == {
            "P(two of three=V)": quarter,
            "P(V,Cdiff) sym": zero,
            "P(Cdiff,V) sym": zero,
            "3*P(C1=C2=C3)": zero,
        }
        assert float.hex(doc["ch_symmetrized"]["value"]) == quarter
        assert float.hex(doc["value"]) == value
        assert float.hex(doc["tangle"]["tau"]) == "0x1.5555555555559p-2"


class TestHardyCommand:
    def test_paper_settings(self, tmp_path, schema):
        out = tmp_path / "h.json"
        assert run([
            "--output-dir", str(tmp_path),
            "hardy", "--alpha", "3pi/8", "--beta", "pi/4", "--gamma", "5pi/8",
            "--out", str(out),
        ]) == 0
        doc = load(out)
        validate(doc, schema)
        assert abs(doc["report"]["lhs_minus_rhs"] - (SQ2 - 1) / 2) < 1e-9
        assert doc["report"]["violated"]

    def test_optimize_recovers_maximum(self, tmp_path, schema):
        out = tmp_path / "h.json"
        assert run(["--output-dir", str(tmp_path), "hardy", "--optimize", "--out", str(out)]) == 0
        doc = load(out)
        validate(doc, schema)
        assert abs(doc["optimum"]["value"] - (SQ2 - 1) / 2) < 1e-9
        assert abs(doc["optimum"]["alpha"] - 3 * math.pi / 8) < 1e-4
        assert {k: float.hex(v) for k, v in doc["optimum"].items()} == {
            "alpha": "0x1.2d97c7f3321d2p+0",
            "beta": "0x1.921fb54442d18p-1",
            "gamma": "0x1.f6a7a2955385ep+0",
            "value": "0x1.a827999fcef34p-3",
        }

    @pytest.mark.parametrize("angles, report", [
        (
            [],
            {
                "p_bb_aa": "0x1.2bec333018867p-4",
                "p_bneq_g": "0x1.2bec333018869p-4",
                "p_x_aneq": "0x1.2bec333018869p-4",
                "p_x_g": "0x1.b504f333f9de6p-2",
                "lhs_minus_rhs": "0x1.a827999fcef30p-3",
            },
        ),
        (
            ["--alpha=-5pi/4", "--beta", "7pi/3", "--gamma", "0.3"],
            {
                "p_bb_aa": "0x1.ddb3d742c2658p-2",
                "p_bneq_g": "0x1.138a293306111p-2",
                "p_x_aneq": "0x1.0000000000002p-2",
                "p_x_g": "0x1.65b670ede93acp-5",
                "lhs_minus_rhs": "-0x1.e243992c05a7bp-1",
            },
        ),
    ], ids=["paper", "outside-0-pi"])
    def test_numbers_keep_their_bits(self, tmp_path, angles, report):
        out = tmp_path / "h.json"
        assert run(["--output-dir", str(tmp_path), "hardy", *angles, "--out", str(out)]) == 0
        doc = load(out)
        assert {k: float.hex(v) for k, v in doc["report"].items() if k != "violated"} == report
        assert doc["report"]["violated"] is (not angles)
        assert doc["lhv_max"] == 0.0

    @pytest.mark.parametrize("value", ["1e10", "-1e10", "1.0000001e6"])
    def test_angle_beyond_the_closed_form_range_is_usage_error(self, tmp_path, capsys, value):
        # Past MAX_ANGLE the closed form's angle difference loses the bits
        # the Born route keeps, and the two routes would disagree.
        out = tmp_path / "h.json"
        assert run(["--output-dir", str(tmp_path), "hardy", f"--beta={value}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hepbell: error: beta ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_zero_settings_not_violated(self, tmp_path, schema):
        out = tmp_path / "h.json"
        assert run([
            "--output-dir", str(tmp_path),
            "hardy", "--alpha", "0", "--beta", "0", "--gamma", "0",
            "--out", str(out),
        ]) == 0
        doc = load(out)
        validate(doc, schema)
        assert not doc["report"]["violated"]

    def test_malformed_angle_is_usage_error_naming_token(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["hardy", "--alpha", "3qi/8"])
        assert excinfo.value.code == 2
        assert "3qi/8" in capsys.readouterr().err


class TestEventPipeline:
    def test_generate_estimate_chtest(self, tmp_path, schema):
        events = tmp_path / "events.csv"
        assert run([
            "--output-dir", str(tmp_path),
            "generate", "--n", "20000", "--seed", "7", "--out", str(events),
        ]) == 0
        assert events.exists()

        est_out = tmp_path / "estimate.json"
        assert run([
            "--output-dir", str(tmp_path),
            "estimate", "--events", str(events), "--out", str(est_out),
        ]) == 0
        est = load(est_out)
        validate(est, schema)
        assert abs(est["kappa"] - math.pi / 2) < 1e-9
        assert sum(est["counts"]) == 20000

        ch_out = tmp_path / "chtest.json"
        assert run([
            "--output-dir", str(tmp_path),
            "chtest", "--events", str(events),
            "--settings", "0,3pi/4,3pi/8,pi/8", "--out", str(ch_out),
        ]) == 0
        ch = load(ch_out)
        validate(ch, schema)
        assert abs(ch["value"] - (SQ2 - 1) / 2) < 4 * ch["stat_err"]

    @pytest.mark.parametrize("flags, terms, errors, value, stat_err", [
        (
            [],
            ["0x1.a29c779a6b50ep-2", "0x1.54c985f06f697p-4",
             "0x1.afb7e90ff9728p-2", "0x1.aacd9e83e425ep-2"],
            ["0x1.284ad4ab62602p-6", "0x1.0b55e1a45c917p-7",
             "0x1.2ce52aa722bb0p-6", "0x1.2b2d6a47f7dd2p-6"],
            "0x1.4fdf3b645a1e0p-3",
            "0x1.0b41506600cffp-5",
        ),
        (
            ["--settings=pi/4,0,5pi/8,-5pi/8"],
            ["0x1.a29c779a6b50ep-2", "0x1.1d14e3bcd35abp-4",
             "0x1.bf487fcb923a6p-2", "0x1.aacd9e83e425ep-2"],
            ["0x1.284ad4ab62602p-6", "0x1.e905f6646fb58p-8",
             "0x1.324571682b7c0p-6", "0x1.2b2d6a47f7dd2p-6"],
            "0x1.8adab9f559b50p-3",
            "0x1.0b6a714dc3187p-5",
        ),
        (
            ["--settings=pi/4,0,5pi/8,-5pi/8", "--eta1", "0.9", "--eta2", "0.8"],
            ["0x1.a29c779a6b50ep-2", "0x1.1d14e3bcd35abp-4",
             "0x1.bf487fcb923a6p-2", "0x1.aacd9e83e425ep-2"],
            ["0x1.284ad4ab62602p-6", "0x1.e905f6646fb58p-8",
             "0x1.324571682b7c0p-6", "0x1.2b2d6a47f7dd2p-6"],
            "0x1.20e1f7d73ca00p-7",
            "0x1.8114284704753p-6",
        ),
    ], ids=["default", "hardy", "hardy-eta"])
    def test_chtest_numbers_keep_their_bits(
        self, tmp_path, flags, terms, errors, value, stat_err
    ):
        common = ["--output-dir", str(tmp_path)]
        events, out = tmp_path / "events.csv", tmp_path / "chtest.json"
        assert run([*common, "generate", "--n", "20000", "--seed", "7", "--out", str(events)]) == 0
        assert run([*common, "chtest", "--events", str(events), *flags, "--out", str(out)]) == 0
        doc = load(out)
        eta_1, eta_2 = (0.9, 0.8) if "--eta1" in flags else (1.0, 1.0)
        joints = ["P(n1,n2)", "P(n1,n2')", "P(n1',n2)", "P(n1',n2')"]
        assert {k: float.hex(v) for k, v in doc["terms"].items()} == {
            **dict(zip(joints, terms)),
            "P(n1')": float.hex(0.5 * eta_1),
            "P(n2)": float.hex(0.5 * eta_2),
        }
        assert [float.hex(v) for v in doc["term_errors"]] == [*errors, "0x0.0p+0", "0x0.0p+0"]
        assert float.hex(doc["value"]) == value
        assert float.hex(doc["stat_err"]) == stat_err
        assert doc["violated"]

    def test_generate_is_bit_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run([
                "--output-dir", str(tmp_path),
                "generate", "--n", "1000", "--seed", "7", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_events_is_exit_3(self, tmp_path):
        code = run(["--output-dir", str(tmp_path), "estimate", "--events", "missing.csv"])
        assert code == 3

    def test_insufficient_statistics_is_exit_4(self, tmp_path):
        events = tmp_path / "tiny.csv"
        assert run([
            "--output-dir", str(tmp_path),
            "generate", "--n", "3", "--seed", "1", "--out", str(events),
        ]) == 0
        code = run([
            "--output-dir", str(tmp_path),
            "chtest", "--events", str(events), "--settings", "0,3pi/4,3pi/8,pi/8",
        ])
        assert code == 4

    @pytest.mark.parametrize(
        "bad_row",
        [
            "1,0.5,1,1",  # truncated row
            "",  # blank line
            "1.5,0.5,1,1,0",  # non-integer id
            "1,0.5,2,1,0",  # flag other than 0/1
            "1,nan,1,1,0",  # non-finite phi
            "1,6.3,1,1,0",  # phi at or above 2*pi
        ],
    )
    def test_malformed_event_file_is_usage_error_naming_line(self, tmp_path, capsys, bad_row):
        events = tmp_path / "bad.csv"
        events.write_text(
            "event_id,phi,detected_1,detected_2,is_background\r\n"
            "0,0.5,1,1,0\r\n"
            f"{bad_row}\r\n"
            "2,0.5,1,1,0\r\n",
            newline="",
        )
        assert run(["--output-dir", str(tmp_path), "estimate", "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert f"{events}, line 3:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rows",
        [
            "99999999999999999999,0.5,1,1,0\r\n",  # id beyond int64
            "0,1_5,1,1,0\r\n",  # digit underscore, which float() takes
            "0,0.5,1,1,0\r1,0.5,1,1,0\r",  # CR-only line ends
            "0,0.5,1,1,0\r1,0.5,1,1,0\r\n\r\n",  # bare CR offset by a blank line
        ],
    )
    def test_tokens_loadtxt_rejects_name_their_line(self, tmp_path, capsys, rows):
        events = tmp_path / "bad.csv"
        events.write_text(
            "event_id,phi,detected_1,detected_2,is_background\r\n" + rows, newline=""
        )
        assert run(["--output-dir", str(tmp_path), "estimate", "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert f"{events}, line 2:" in err
        assert "Traceback" not in err

    def test_header_without_line_end_is_usage_error_naming_line_1(self, tmp_path, capsys):
        events = tmp_path / "header.csv"
        events.write_bytes(EVENTS_HEADER.rstrip("\r\n").encode())
        assert run(["--output-dir", str(tmp_path), "estimate", "--events", str(events)]) == 2
        err = capsys.readouterr().err
        assert f"{events}, line 1: no line end after the header" in err
        assert not (tmp_path / "estimate.json").exists()

    @pytest.mark.parametrize("command", ["estimate", "chtest"])
    # The last row of the second 7-row chunk and the first row of the third.
    @pytest.mark.parametrize("row", [13, 14])
    @pytest.mark.parametrize(
        "fault", ["bad-token", "blank-line", "bare-cr", "id-gap", "phi-at-2pi"]
    )
    def test_fault_at_a_chunk_edge_names_its_line(
        self, tmp_path, capsys, monkeypatch, fault, row, command
    ):
        events = tmp_path / "bad.csv"
        events.write_text(events_with_fault(fault, row), newline="")
        args = ["--output-dir", str(tmp_path), command, "--events", str(events)]
        assert run(args) == 2  # the whole file is one chunk
        whole = capsys.readouterr().err
        assert f"{events}, line {row + 2}:" in whole
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        assert run(args) == 2
        assert capsys.readouterr().err == whole

    def test_outputs_do_not_depend_on_chunk_size(self, tmp_path, monkeypatch):
        outputs = []
        for chunk_rows in (mesonlab._CSV_CHUNK_ROWS, 777):
            monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk_rows)
            events, est, ch = (tmp_path / f"{name}-{chunk_rows}" for name in ("ev", "est", "ch"))
            common = ["--output-dir", str(tmp_path)]
            assert run([
                *common, "generate", "--n", "5000", "--seed", "7", "--workers", "3",
                "--eta1", "0.9", "--eta2", "0.9", "--background", "0.02", "--out", str(events),
            ]) == 0
            assert run([*common, "estimate", "--events", str(events), "--out", str(est)]) == 0
            assert run([
                *common, "chtest", "--events", str(events), "--eta1", "0.9", "--eta2", "0.9",
                "--out", str(ch),
            ]) == 0
            outputs.append([path.read_bytes() for path in (events, est, ch)])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_drawn_ahead_file_matches_sequential_draws(self, tmp_path, monkeypatch, workers):
        chunk = 7
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk)
        det = mesonlab.DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1)
        for n in (1, chunk - 1, chunk, chunk + 1, 5 * chunk + 7):
            events, sequential = tmp_path / f"cli-{n}.csv", tmp_path / f"seq-{n}.csv"
            assert run([
                "generate", "--n", str(n), "--seed", "11", "--workers", str(workers),
                "--eta1", "0.9", "--eta2", "0.8", "--background", "0.1", "--out", str(events),
            ]) == 0
            sample = mesonlab.generate_events(n, det, seed=11, workers=workers)
            mesonlab.write_events_csv(sample, sequential)
            assert events.read_bytes() == sequential.read_bytes()

    def test_failed_draw_exits_2_and_stops_drawing(self, tmp_path, monkeypatch, capsys):
        chunk = 7
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk)
        draw = mesonlab.generate_events
        starts = []

        def failing(*args, start=0, **kwargs):
            starts.append(start)
            if start == 3 * chunk:
                raise ValueError("no draw for chunk 3")
            return draw(*args, start=start, **kwargs)

        monkeypatch.setattr(mesonlab, "generate_events", failing)
        args = ["generate", "--n", str(40 * chunk), "--workers", "2",
                "--out", str(tmp_path / "events.csv")]
        assert run(args) == 2
        assert capsys.readouterr().err == "hepbell: error: no draw for chunk 3\n"
        # Chunks are drawn in order as they are written: none after chunk 3.
        assert starts == [0, chunk, 2 * chunk, 3 * chunk]

    @pytest.mark.parametrize("older", [False, True], ids=["no-file", "older-file"])
    def test_failed_generate_leaves_no_partial_file(self, tmp_path, monkeypatch, older):
        chunk = 7
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk)
        draw = mesonlab.generate_events

        def failing(*args, start=0, **kwargs):
            if start == 3 * chunk:
                raise ValueError("no draw for chunk 3")
            return draw(*args, start=start, **kwargs)

        monkeypatch.setattr(mesonlab, "generate_events", failing)
        events = tmp_path / "events.csv"
        if older:
            events.write_bytes(b"an older file\r\n")
        args = ["generate", "--n", str(10 * chunk), "--workers", "2", "--out", str(events)]
        assert run(args) == 2
        assert [path.name for path in tmp_path.iterdir()] == (["events.csv"] if older else [])
        if older:
            assert events.read_bytes() == b"an older file\r\n"

    @pytest.mark.parametrize("width", ["0", "-0.1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["estimate", "chtest"])
    def test_degenerate_bin_width_is_usage_error(self, tmp_path, capsys, command, width):
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(2000, seed=1), events)
        out = tmp_path / "report.json"
        args = ["--output-dir", str(tmp_path), command, "--events", str(events)]
        assert exit_code([*args, f"--bin-width={width}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if math.isfinite(float(width)):
            assert err == f"hepbell: error: bin width {float(width)} is not in (0, 2*pi]\n"
        else:  # parse_angle refuses the token while argparse reads the flags
            assert err.endswith(
                f"hepbell {command}: error: argument --bin-width: "
                f"malformed angle token {width!r}\n"
            )
        assert [path.name for path in tmp_path.iterdir()] == ["events.csv"]

    @pytest.mark.parametrize("width", ["1e-17", "1e-300"])
    def test_window_narrower_than_a_double_is_exit_4(self, tmp_path, capsys, width):
        # Each window's ends round to one double: it holds nothing, and the
        # first window is named as empty.
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(2000, seed=1), events)
        out = tmp_path / "report.json"
        args = ["--output-dir", str(tmp_path), "chtest", "--events", str(events)]
        assert exit_code([*args, f"--bin-width={width}", "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "hepbell: error: empty histogram window for P(n1,n2) at phi=1.178097 "
            f"(width {width})\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["events.csv"]

    @pytest.mark.parametrize(
        "width, bins", [("1e-300", "6.283185e+300"), ("2pi/100000000", "1e+08")]
    )
    def test_too_many_bins_is_usage_error_before_any_array(self, tmp_path, capsys, width, bins):
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(2000, seed=1), events)
        out = tmp_path / "report.json"
        args = ["--output-dir", str(tmp_path), "estimate", "--events", str(events)]
        tracemalloc.start()
        try:
            assert exit_code([*args, f"--bin-width={width}", "--out", str(out)]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        value = cli.parse_angle(width)
        assert capsys.readouterr().err == (
            f"hepbell: error: bin width {value} gives {bins} bins, more than 1048576\n"
        )
        assert peak < 1e6
        assert [path.name for path in tmp_path.iterdir()] == ["events.csv"]

    def test_write_error_names_the_out_path(self, tmp_path, capsys):
        events = tmp_path / "missing_dir" / "ev.csv"
        assert run(["generate", "--n", "10", "--out", str(events)]) == 3
        err = capsys.readouterr().err
        assert err == f"hepbell: error: [Errno 2] No such file or directory: '{events}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", [["generate", "--n", "100"], ["kinematics"]])
    def test_failed_write_names_the_out_path(self, tmp_path, capsys, command):
        # A link, so that the error names the path asked for, not the device.
        out = tmp_path / "full"
        out.symlink_to("/dev/full")
        assert run([*command, "--out", str(out)]) == 3
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out}'"
        assert capsys.readouterr().err == f"hepbell: error: {message}\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_write_past_the_file_size_limit_names_the_out_path(self, tmp_path):
        events = tmp_path / "events.csv"
        limited = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (200 * 1024, 200 * 1024))\n"
            "from hepbell import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", limited, "generate", "--n", "100000", "--out", str(events)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3
        message = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: '{events}'"
        assert proc.stderr == f"hepbell: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            # parse_angle refuses the token while argparse reads the flags.
            (
                ["--settings", "0,inf,0.1,0.2"],
                None,
                "hepbell chtest: error: argument --settings: malformed angle token 'inf'",
            ),
            # A JSON number is not an angle token; the command checks it.
            (
                [],
                '{"settings": [0, NaN, 0.1, 0.2]}',
                "hepbell: error: settings must be finite, got [0.0, nan, 0.1, 0.2]",
            ),
        ],
        ids=["flag", "config"],
    )
    def test_non_finite_settings_are_usage_error(self, tmp_path, capsys, flags, config, message):
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(2000, seed=1), events)
        out = tmp_path / "report.json"
        args = ["chtest", "--events", str(events), *flags, "--out", str(out)]
        if config:
            config_path = tmp_path / "config.json"
            config_path.write_text(config)
            args = ["--config", str(config_path), *args]
        assert exit_code(args) == 2
        err = capsys.readouterr().err
        if config:
            assert err == message + "\n"
        else:  # argparse prints its usage first
            assert err.endswith("\n" + message + "\n")
        assert not out.exists()

    def test_bad_generate_config_writes_no_file(self, tmp_path):
        # The key is checked before the output directory is made or a
        # temporary file opened.
        new, events = tmp_path / "new", tmp_path / "events.csv"
        for flags in (["--n", "0"], ["--n", "10", "--workers", "0"], ["--n", "10", "--seed", "-1"]):
            assert run(["generate", *flags, "--out", str(events)]) == 2
            assert run(["--output-dir", str(new), "generate", *flags]) == 2
            assert list(tmp_path.iterdir()) == []

    def test_out_leaves_the_output_dir_unmade(self, tmp_path):
        new, out = tmp_path / "new", tmp_path / "t.json"
        assert run(["--output-dir", str(new), "tripartite", "--out", str(out)]) == 0
        assert out.exists()
        assert not new.exists()

    @settings(max_examples=100, deadline=None)
    @given(body=st.binary(max_size=64))
    def test_estimate_on_arbitrary_bytes_exits_cleanly(self, tmp_path_factory, body):
        directory = tmp_path_factory.mktemp("fuzz")
        events = directory / "events.csv"
        events.write_bytes(b"event_id,phi,detected_1,detected_2,is_background\r\n" + body)
        args = ["--output-dir", str(directory), "estimate", "--events", str(events)]
        assert run(args) in (0, 2, 4)

    def test_reports_refuse_nan(self, tmp_path):
        config = cli.RunConfig(output_dir=str(tmp_path))
        with pytest.raises(ValueError):
            cli._write_report(config, "kinematics", {"beta": math.nan}, None)

    def test_config_file_with_flag_overrides(self, tmp_path, schema):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 99,
            "n_events": 500,
            "settings": ["0", "3pi/4", "3pi/8", "pi/8"],
            "output_dir": str(tmp_path),
        }))
        events = tmp_path / "events.csv"
        assert run([
            "--config", str(config),
            "generate", "--n", "800", "--out", str(events),
        ]) == 0
        echoed = (tmp_path / "events.csv").read_text().count("\n") - 1
        assert echoed == 800  # flag overrides the config file

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", -1, "seed must be an integer >= 0, got -1"),
            ("seed", True, "seed must be an integer >= 0, got True"),
            ("n_events", 0, "n_events must be an integer >= 1, got 0"),
            ("n_events", "100", "n_events must be an integer >= 1, got '100'"),
            ("workers", 1.5, "workers must be an integer >= 1, got 1.5"),
            ("eta_1", 2, "eta_1 must be a number in [0, 1], got 2"),
            ("eta_2", -0.1, "eta_2 must be a number in [0, 1], got -0.1"),
            ("background_fraction", "0.1", "background_fraction must be a number in [0, 1], got '0.1'"),
            ("br_weight", 1.5, "br_weight must be a number in [0, 1], got 1.5"),
            ("m_parent", 0, "m_parent must be a positive finite number, got 0"),
            ("m_vector", None, "m_vector must be a positive finite number, got None"),
            ("settings", [0, 1], "settings must be four angles, got [0, 1]"),
            ("settings", [0, 1, 2, None], "settings must be four angles, got [0, 1, 2, None]"),
            ("bin_width", -0.1, "bin_width must be a positive finite number, got -0.1"),
            ("output_dir", 5, "output_dir must be a string, got 5"),
        ],
    )
    def test_config_value_outside_the_schema_is_usage_error(
        self, tmp_path, capsys, field, value, message
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        assert run(["--config", str(config), "--output-dir", str(tmp_path), "kinematics"]) == 2
        assert capsys.readouterr().err == f"hepbell: error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    def test_seed_beyond_64_bits_is_refused_by_every_command(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 2**64, "n_events": 10}))
        message = "seed must be an integer <= 18446744073709551615, got 18446744073709551616"
        for command in ("kinematics", "generate"):
            assert run(["--config", str(config), "--output-dir", str(tmp_path), command]) == 2
            assert capsys.readouterr().err == f"hepbell: error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]
        config.write_text(json.dumps({"seed": 2**64 - 1, "n_events": 10}))
        assert run(["--config", str(config), "--output-dir", str(tmp_path), "generate"]) == 0

    def test_schema_bounds_the_seed_to_64_bits(self, tmp_path, schema):
        out = tmp_path / "k.json"
        assert run(["kinematics", "--out", str(out)]) == 0
        doc = load(out)
        doc["config"]["seed"] = 2**64 - 1
        validate(doc, schema)
        doc["config"]["seed"] = 2**64
        with pytest.raises(jsonschema.ValidationError, match="maximum"):
            validate(doc, schema)

    def test_unknown_config_field_is_usage_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"unknown_field": 1}))
        assert run(["--config", str(config), "kinematics"]) == 2

    def test_missing_config_is_exit_3(self):
        assert run(["--config", "nope.json", "kinematics"]) == 3

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'["seed"]', "must hold a JSON object, got list"),
            (b"5", "must hold a JSON object, got int"),
            (b'[{"a": 1}]', "must hold a JSON object, got list"),
            (b"\xff\xfe{}", "is not UTF-8 (invalid start byte at byte 0)"),
            (b'{"seed":', "is not JSON: Expecting value at line 1 column 9"),
        ],
        ids=["list", "number", "list-of-objects", "not-utf8", "truncated"],
    )
    def test_config_that_is_not_a_json_object_is_usage_error(self, tmp_path, capsys, body, message):
        config = tmp_path / "config.json"
        config.write_bytes(body)
        assert run(["--config", str(config), "--output-dir", str(tmp_path), "kinematics"]) == 2
        assert capsys.readouterr().err == f"hepbell: error: config file {config} {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["config.json"]

    @settings(max_examples=300, deadline=None)
    @given(data=JSON_CONFIGS)
    def test_arbitrary_json_config_exits_cleanly(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("config")
        config = directory / "config.json"
        config.write_text(json.dumps(data))
        args = ["--config", str(config), "kinematics", "--out", str(directory / "k.json")]
        assert run(args) in (0, 2)


# A numeric flag's value: the edges of the doubles among any others.
FLAG_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-200, 1e200, 1e308, -1e308,
    math.inf, -math.inf, math.nan,
]) | st.floats()
# The numeric flags of each command; ``--settings`` takes four values.
NUMERIC_FLAGS = {
    "kinematics": ["--m-parent", "--m-vector"],
    "hardy": ["--alpha"],
    "estimate": ["--bin-width"],
    "chtest": ["--bin-width", "--eta1", "--settings"],
    "generate": ["--eta1", "--background", "--br-weight"],
}


class TestNumericFlags:
    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("numeric") / "events.csv"
        det = mesonlab.DetectorModel(eta_1=0.9, eta_2=0.9, background_fraction=0.02)
        mesonlab.write_events_csv(mesonlab.generate_events(2000, det, seed=7), path)
        return path

    @pytest.mark.parametrize("command", list(NUMERIC_FLAGS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_numeric_flags_exit_with_a_documented_code(
        self, events, tmp_path_factory, command, data
    ):
        directory = tmp_path_factory.mktemp("numeric")
        args = ["--output-dir", str(directory), command]
        if command in ("estimate", "chtest"):
            args += ["--events", str(events)]
        if command == "generate":
            args += ["--n", str(data.draw(st.integers(1, 200), label="n"))]
        for flag in NUMERIC_FLAGS[command]:
            if data.draw(st.booleans(), label=f"with {flag}"):
                size = 4 if flag == "--settings" else 1
                values = data.draw(st.lists(FLAG_FLOATS, min_size=size, max_size=size), label=flag)
                # "--flag=value", so that argparse does not take "-1e+308" for a flag.
                args.append(f"{flag}={','.join(map(repr, values))}")
        # A value argparse's type refuses ends in its usage exit, code 2.
        assert exit_code(args) in (0, 2, 3, 4)


def range_cuts(path, processes):
    """The byte offsets that cut the rows of the event file ``path`` into
    ``processes`` ranges for the readers, with the header's end and the
    file's size."""
    size, body = path.stat().st_size, len(EVENTS_HEADER)
    with open(path, "rb") as fh:
        return [body, *mesonlab._cuts(fh.fileno(), body, size, processes), size]


def range_first_rows(path, processes):
    """The first row of each range of :func:`range_cuts`."""
    data = path.read_bytes()
    return [0] + [data.count(b"\n", 0, cut) - 1 for cut in range_cuts(path, processes)[1:-1]]


class TestProcessSplit:
    """The event commands with their chunk loops split over 1, 2 or 3
    processes (the ``forced_split`` fixture), at sizes below the threshold."""

    def test_outputs_do_not_depend_on_the_split(self, tmp_path, monkeypatch, forced_split):
        # 5000 rows is no multiple of the chunk, the boundaries between the
        # Philox streams (2500; 1667 and 3334) fall inside chunks, and the
        # ids reach four digits inside chunk 1.
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 777)
        det = mesonlab.DetectorModel(eta_1=0.9, eta_2=0.9, background_fraction=0.02)
        common = ["--output-dir", str(tmp_path)]
        for workers in (1, 2, 3):
            outputs = []
            for processes in (1, 2, 3):
                forked = forced_split(processes)
                events, est, ch = (
                    tmp_path / f"{name}-{workers}-{processes}" for name in ("ev", "est", "ch")
                )
                assert run([
                    *common, "generate", "--n", "5000", "--seed", "7", "--workers", str(workers),
                    "--eta1", "0.9", "--eta2", "0.9", "--background", "0.02",
                    "--out", str(events),
                ]) == 0
                assert run([*common, "estimate", "--events", str(events), "--out", str(est)]) == 0
                assert run([
                    *common, "chtest", "--events", str(events), "--eta1", "0.9", "--eta2", "0.9",
                    "--out", str(ch),
                ]) == 0
                # The same events with LF-only rows in chunk 2.
                lines = events.read_bytes().splitlines(keepends=True)
                lines[1 + 2 * 777 : 1 + 3 * 777] = [
                    line.replace(b"\r\n", b"\n") for line in lines[1 + 2 * 777 : 1 + 3 * 777]
                ]
                mixed = tmp_path / f"mixed-{workers}-{processes}"
                mixed.write_bytes(b"".join(lines))
                est_mixed, ch_mixed = tmp_path / "est-mixed", tmp_path / "ch-mixed"
                assert run([
                    *common, "estimate", "--events", str(mixed), "--out", str(est_mixed),
                ]) == 0
                assert run([
                    *common, "chtest", "--events", str(mixed), "--eta1", "0.9", "--eta2", "0.9",
                    "--out", str(ch_mixed),
                ]) == 0
                assert est_mixed.read_bytes() == est.read_bytes()
                assert ch_mixed.read_bytes() == ch.read_bytes()
                assert forked == list(range(1, processes)) * 5
                assert_no_child()
                outputs.append([path.read_bytes() for path in (events, est, ch)])
            assert outputs[1] == outputs[0]
            assert outputs[2] == outputs[0]
            reference = tmp_path / f"reference-{workers}"
            sample = mesonlab.generate_events(5000, det, seed=7, workers=workers)
            mesonlab.write_events_csv(sample, reference)
            assert outputs[0][0] == reference.read_bytes()

    # Each bad row as (range, rows after the range's first row): in range 0
    # and the last, or first in range 1 and in the last.
    @pytest.mark.parametrize("bad_rows", [((0, 8), (-1, 5)), ((1, 0), (-1, 3))])
    @pytest.mark.parametrize("processes", [2, 3])
    def test_first_bad_line_is_named_as_in_one_process(
        self, tmp_path, capsys, monkeypatch, forced_split, bad_rows, processes
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        rows = [f"{i},0.5,1,1,0\r\n" for i in range(100)]
        events = tmp_path / "bad.csv"
        events.write_text(EVENTS_HEADER + "".join(rows), newline="")
        starts = range_first_rows(events, processes)
        bad = sorted(starts[rank] + offset for rank, offset in bad_rows)
        for row in bad:
            rows[row] = f"{row},0x5,1,1,0\r\n"  # as long as before, so the cuts stay
        events.write_text(EVENTS_HEADER + "".join(rows), newline="")
        args = ["--output-dir", str(tmp_path), "estimate", "--events", str(events)]
        forced_split(1)
        assert run(args) == 2
        alone = capsys.readouterr().err
        assert alone == f"hepbell: error: {events}, line {bad[0] + 2}: phi '0x5' is not a number\n"
        # Each range that holds a bad row fails in its own process, and this
        # process then counts the file again.
        canonical_chunk, rejected = mesonlab._canonical_chunk, tmp_path / "rejected"

        def logged(run, ends, first_id, scratch):
            chunk = canonical_chunk(run, ends, first_id, scratch)
            if isinstance(chunk, int):
                with open(rejected, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return chunk

        monkeypatch.setattr(mesonlab, "_canonical_chunk", logged)
        forked = forced_split(processes)
        assert run(args) == 2
        assert capsys.readouterr().err == alone
        assert forked == list(range(1, processes))
        assert_no_child()
        failed = {rank % processes for rank, _ in bad_rows}
        assert len(set(rejected.read_text().split())) == len(failed | {0})

    # Each edit makes row ``j`` of the events the first row of the last range.
    CUT_FAULTS = {
        "unreadable-id": lambda rows, j: [*rows[:j], b"x" + rows[j][1:], *rows[j + 1 :]],
        # int() reads "-j" as an id.
        "signed-id": lambda rows, j: [*rows[:j], b"-" + rows[j], *rows[j + 1 :]],
        "duplicated": lambda rows, j: [*rows[:j], rows[j - 1], *rows[j:]],
        "dropped": lambda rows, j: [*rows[:j], *rows[j + 1 :]],
        "two-ranges": lambda rows, j: [
            *rows[: j - 1], *(row.replace(b".", b"x", 1) for row in rows[j - 1 : j + 1]),
            *rows[j + 1 :],
        ],
        "no-line-end": lambda rows, j: [*rows[:-1], rows[-1].rstrip(b"\r\n")],
    }

    @pytest.mark.parametrize("fault", list(CUT_FAULTS))
    @pytest.mark.parametrize("processes", [2, 3])
    def test_fault_at_a_cut_is_named_as_in_one_process(
        self, tmp_path, capsys, monkeypatch, forced_split, fault, processes
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(200, seed=3), events)
        header, *rows = events.read_bytes().splitlines(keepends=True)
        for j in range(1, len(rows) - 1):
            edited = self.CUT_FAULTS[fault](rows, j)
            events.write_bytes(header + b"".join(edited))
            start = len(header) + sum(map(len, edited[:j]))
            if fault == "no-line-end" or start == range_cuts(events, processes)[-2]:
                break
        else:
            pytest.fail("no row starts the last range")
        for command in (["estimate"], ["chtest", "--eta1", "0.9", "--eta2", "0.9"]):
            args = ["--output-dir", str(tmp_path), *command, "--events", str(events)]
            forced_split(1)
            alone = run(args), capsys.readouterr().err
            assert alone[0] == 2
            forked = forced_split(processes)
            assert (run(args), capsys.readouterr().err) == alone
            assert forked == list(range(1, processes))
            assert_no_child()

    @pytest.mark.parametrize("older", [False, True], ids=["no-file", "older-file"])
    @pytest.mark.parametrize("processes", [2, 3])
    def test_failed_draw_in_a_worker_exits_2_and_leaves_no_partial_file(
        self, tmp_path, capsys, monkeypatch, forced_split, older, processes
    ):
        chunk = 7
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk)
        draw = mesonlab.generate_events

        def failing(*args, start=0, **kwargs):
            if start == 5 * chunk:  # a worker's chunk for 2 and for 3 processes
                raise ValueError("no draw for chunk 5")
            return draw(*args, start=start, **kwargs)

        monkeypatch.setattr(mesonlab, "generate_events", failing)
        events = tmp_path / "events.csv"
        if older:
            events.write_bytes(b"an older file\r\n")
        forked = forced_split(processes)
        args = ["generate", "--n", str(10 * chunk), "--workers", "2", "--out", str(events)]
        assert run(args) == 2
        assert capsys.readouterr().err == "hepbell: error: no draw for chunk 5\n"
        assert forked == list(range(1, processes))
        assert_no_child()
        assert [path.name for path in tmp_path.iterdir()] == (["events.csv"] if older else [])
        if older:
            assert events.read_bytes() == b"an older file\r\n"

    @pytest.mark.parametrize("command", ["generate", "estimate"])
    def test_worker_that_ends_early_is_a_named_error(
        self, tmp_path, capsys, monkeypatch, forced_split, command
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(100, seed=3), events)
        parent = os.getpid()
        name = {"generate": "generate_events", "estimate": "_canonical_chunk"}[command]
        task = getattr(mesonlab, name)

        def ending(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return task(*args, **kwargs)

        monkeypatch.setattr(mesonlab, name, ending)
        forced_split(2)
        args = {
            "generate": ["generate", "--n", "100", "--out", str(events)],
            "estimate": ["--output-dir", str(tmp_path), "estimate", "--events", str(events)],
        }[command]
        assert run(args) == 3
        err = capsys.readouterr().err
        # Task 1 is generate's chunk 1 and a reader's range 1, each the
        # first that the worker sends.
        assert re.fullmatch(
            r"hepbell: error: worker process \d+ ended before it sent the result of task 1\n", err
        )
        assert_no_child()

    @pytest.mark.parametrize("command", [["estimate"], ["chtest", "--eta1", "0.9", "--eta2", "0.9"]])
    def test_read_error_in_a_worker_exits_3(
        self, tmp_path, capsys, monkeypatch, forced_split, command
    ):
        # An error other than a malformed range is not read again in this
        # process: it ends the command as it would in one process.
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        events = tmp_path / "events.csv"
        mesonlab.write_events_csv(mesonlab.generate_events(100, seed=3), events)
        parent, preadv = os.getpid(), os.preadv

        def failing(*args):
            if os.getpid() != parent:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return preadv(*args)

        monkeypatch.setattr(os, "preadv", failing)
        forked = forced_split(2)
        assert run(["--output-dir", str(tmp_path), *command, "--events", str(events)]) == 3
        assert capsys.readouterr().err == f"hepbell: error: [Errno 5] {os.strerror(errno.EIO)}\n"
        assert forked == [1]
        assert_no_child()


CLI_PEAK_SCRIPT = """
from hepbell import cli
code = cli.main(sys.argv[1:])
if code:
    sys.exit(code)
# The largest peak of the workers, reaped by now.  They were forked without
# an exec, so each peak is the worker's own.
workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
print(peak_rss_bytes(), workers)
"""


class TestPeakMemory:
    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory, peak_rss):
        """Each event command's peak RSS at 2e5 and 2e6 events."""
        directory = tmp_path_factory.mktemp("peaks")
        common = ["--output-dir", str(directory)]
        out = {}
        for n in (200_000, 2_000_000):
            events = directory / "events.csv"
            out["generate", n] = peak_rss(
                CLI_PEAK_SCRIPT, *common, "generate", "--n", str(n), "--seed", "7",
                "--workers", "2", "--eta1", "0.9", "--eta2", "0.9", "--background", "0.02",
                "--out", str(events),
            )
            out["estimate", n] = peak_rss(
                CLI_PEAK_SCRIPT, *common, "estimate", "--events", str(events)
            )
            out["chtest", n] = peak_rss(
                CLI_PEAK_SCRIPT, *common, "chtest", "--events", str(events), "--eta1", "0.9",
                "--eta2", "0.9",
            )
            events.unlink()
        return out

    @pytest.mark.parametrize("command", ["generate", "estimate", "chtest"])
    def test_peak_memory_does_not_grow_with_events(self, peaks, command):
        # Holding the drawn sample costs about 13 B/event, and holding the
        # read file about 28.  The bound holds for the command's process and
        # for the workers that share its chunks.
        for process, name in enumerate(["command", "workers"]):
            low, high = (peaks[command, n][process] for n in (200_000, 2_000_000))
            assert (high - low) / 1_800_000 < 2.0, name
        if _workers._usable_cores() > 1:
            assert peaks[command, 200_000][1] > 0  # the workers ran


ONE_PROCESS_PEAK_SCRIPT = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # one usable core
""" + CLI_PEAK_SCRIPT

ITER_PEAK_SCRIPT = """
from hepbell import mesonlab
rows = sum(len(chunk) for chunk in mesonlab.iter_events_csv(sys.argv[1]))
print(peak_rss_bytes(), rows)
"""


class TestPeakMemoryInOneProcess:
    """The bound of TestPeakMemory where one process reads the whole file:
    the estimators on one usable core, and iter_events_csv, each chunk
    dropped once counted."""

    @pytest.fixture(scope="class")
    def peaks(self, tmp_path_factory, peak_rss):
        directory = tmp_path_factory.mktemp("peaks")
        events = directory / "events.csv"
        out = {}
        for n in (200_000, 2_000_000):
            assert run([
                "generate", "--n", str(n), "--seed", "7", "--workers", "2", "--eta1", "0.9",
                "--eta2", "0.9", "--background", "0.02", "--out", str(events),
            ]) == 0
            common = ["--output-dir", str(directory)]
            out["estimate", n] = peak_rss(
                ONE_PROCESS_PEAK_SCRIPT, *common, "estimate", "--events", str(events)
            )
            out["chtest", n] = peak_rss(
                ONE_PROCESS_PEAK_SCRIPT, *common, "chtest", "--events", str(events),
                "--eta1", "0.9", "--eta2", "0.9",
            )
            out["iter_events_csv", n] = peak_rss(ITER_PEAK_SCRIPT, str(events))
            events.unlink()
        return out

    @pytest.mark.parametrize("reader", ["estimate", "chtest", "iter_events_csv"])
    def test_peak_memory_does_not_grow_with_events(self, peaks, reader):
        low, high = (peaks[reader, n][0] for n in (200_000, 2_000_000))
        assert (high - low) / 1_800_000 < 2.0
        if reader == "iter_events_csv":
            assert peaks[reader, 2_000_000][1] == 2_000_000
        else:
            assert peaks[reader, 2_000_000][1] == 0  # no worker ran


BAD_INPUT_SCRIPT = """
import contextlib, io, re, time
# A reader that grows without bound fails here, not by taking the machine's memory.
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from hepbell import cli
err, start = io.StringIO(), time.monotonic()
with contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
millis = int(1000 * (time.monotonic() - start))
text = err.getvalue()
# The line named: the header is line 1.
named = re.match(r"hepbell: error: (unexpected event file header |.*, line (\\d+): )", text)
line = 0 if not named else int(named[2] or 1)
print(peak_rss_bytes(), code, line, millis, len(text.encode()))
"""

# Files with a line longer than any event row, ``size`` bytes of it.
BAD_LINES = {
    "no-line-feed": lambda size: b"x" * size,
    "one-long-line": lambda size: EVENTS_HEADER.encode() + b"0," + b"5" * size + b",1,1,0\r\n",
    "nuls": lambda size: EVENTS_HEADER.encode() + b"\0" * size,
}


class TestBoundedReading:
    """A reader holds one buffer of rows, whatever its input: a line longer
    than any row is named from the bytes the buffer holds."""

    @pytest.mark.parametrize("shape", list(BAD_LINES))
    def test_peak_memory_does_not_grow_with_a_bad_line(self, tmp_path, peak_rss, shape):
        events, peaks = tmp_path / "bad.csv", []
        for size in (1 << 20, 64 << 20):
            events.write_bytes(BAD_LINES[shape](size))
            peak, code, line, millis, message = peak_rss(
                BAD_INPUT_SCRIPT, "--output-dir", str(tmp_path), "estimate", "--events", str(events)
            )
            assert (code, line) == (2, 1 if shape == "no-line-feed" else 2)
            assert millis < 10_000
            assert message < 500
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 4 << 20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/zero as on Linux")
    def test_an_endless_device_is_named_at_its_header(self, tmp_path, peak_rss):
        code, line, millis, message = peak_rss(
            BAD_INPUT_SCRIPT, "--output-dir", str(tmp_path), "estimate", "--events", "/dev/zero"
        )[1:]
        assert (code, line) == (2, 1)
        assert millis < 10_000
        assert message < 500


# efficiency's max_s on its 51-point eta grid (0.50 to 1.00), as float.hex.
MAX_S_BITS = """
    -0x1.95f619980c434p-3 -0x1.9178fa109249ap-3 -0x1.8c7d4782754d4p-3
    -0x1.870301edb54e0p-3 -0x1.810a2952524c0p-3 -0x1.7a92bdb04c472p-3
    -0x1.739cbf07a33f8p-3 -0x1.6c282d5857350p-3 -0x1.643508a26827ap-3
    -0x1.5bc350e5d617ap-3 -0x1.52d30622a104ap-3 -0x1.49642858c8ef0p-3
    -0x1.3f76b7884dd66p-3 -0x1.350ab3b12fbb0p-3 -0x1.2a201cd36e9cep-3
    -0x1.1eb6f2ef0a7bcp-3 -0x1.12cf360403580p-3 -0x1.0668e61259314p-3
    -0x1.f308063418100p-4 -0x1.d8411a3637b80p-4 -0x1.bc7d082b11598p-4
    -0x1.9fbbd012a4f58p-4 -0x1.81fd71ecf28c8p-4 -0x1.6341edb9fa1e0p-4
    -0x1.43894379bba90p-4 -0x1.22d3732c372e8p-4 -0x1.01207cd16caf0p-4
    -0x1.bce0c0d2b8530p-5 -0x1.75863be80b3c0p-5 -0x1.2c316ae2d21a0p-5
    -0x1.c1c49b8619da0p-6 -0x1.2731c911776a0p-6 -0x1.1154bccf79d00p-7
    0x1.9d1a47715b800p-10 0x1.80847f1600d40p-7 0x1.6aa772d403340p-6
    0x1.0c809f290f0a0p-5 0x1.65a7d102a8860p-5 0x1.c0c94ef6ce0d0p-5
    0x1.0ef28c82bfcf8p-4 0x1.3e7d97975e9e8p-4 0x1.6f05c8b943728p-4
    0x1.a08b1fe86e4c8p-4 0x1.d30d9d24df2c8p-4 0x1.0346a0374b088p-3
    0x1.1d8504e2c97e0p-3 0x1.3841fc94eaf60p-3 0x1.537d874daf710p-3
    0x1.6f37a50d16ee8p-3 0x1.8b7055d3216f8p-3 0x1.a827999fcef30p-3
""".split()


class TestScalarCommands:
    def test_kinematics_defaults(self, tmp_path, schema):
        out = tmp_path / "k.json"
        assert run(["--output-dir", str(tmp_path), "kinematics", "--out", str(out)]) == 0
        doc = load(out)
        validate(doc, schema)
        assert abs(doc["beta"] - 0.7293) < 0.0005
        assert doc["space_like_ok"]

    def test_efficiency_scan(self, tmp_path, schema):
        out = tmp_path / "e.json"
        assert run([
            "--output-dir", str(tmp_path), "efficiency", "--out", str(out),
        ]) == 0
        doc = load(out)
        validate(doc, schema)
        assert abs(doc["threshold"] - 0.828427) < 1e-6
        assert len(doc["eta_grid"]) == len(doc["max_s"])

    def test_efficiency_threshold_bits(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["--output-dir", str(tmp_path), "efficiency", "--out", str(out)]) == 0
        assert float.hex(load(out)["threshold"]) == "0x1.a827999fcef33p-1"

    def test_efficiency_max_s_bits(self, tmp_path):
        out = tmp_path / "e.json"
        assert run(["--output-dir", str(tmp_path), "efficiency", "--out", str(out)]) == 0
        assert [float.hex(v) for v in load(out)["max_s"]] == MAX_S_BITS

    @pytest.mark.parametrize("args", [["hardy", "--optimize", "--grid-step", "pi/16"]])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as excinfo:
            run(["--output-dir", str(tmp_path), *args, "--out", str(tmp_path / "r.json")])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    # The threshold is the closed form 1/C, so efficiency takes no search
    # tolerance: any --tol, finite or not, is refused before a file is written.
    @pytest.mark.parametrize(
        "args",
        [
            ["efficiency", "--tol", "nan"],
            ["efficiency", "--tol", "inf"],
        ],
    )
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as excinfo:
            run(["--output-dir", str(tmp_path), *args, "--out", str(tmp_path / "r.json")])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("tol", ["2", "0.999999"])
    def test_tolerance_as_wide_as_the_bracket_is_usage_error(self, tmp_path, capsys, tol):
        out = tmp_path / "r.json"
        args = ["--output-dir", str(tmp_path), "efficiency", "--tol", tol, "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            run(args)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err
        assert not out.exists()

    def test_idempotent_reports(self, tmp_path, capsys):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            assert run(["--output-dir", str(tmp_path), "kinematics", "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        # The event pipeline twice into one directory: the same echo, event
        # file and reports.
        common = ["--output-dir", str(tmp_path)]
        events, eta = tmp_path / "events.csv", ["--eta1", "0.9", "--eta2", "0.9"]
        runs = []
        for _ in range(2):
            capsys.readouterr()
            assert run([*common, "generate", "--n", "3000", "--seed", "7", *eta]) == 0
            echo = capsys.readouterr().out
            assert run([*common, "estimate", "--events", str(events)]) == 0
            assert run([*common, "chtest", "--events", str(events), *eta]) == 0
            outputs = [tmp_path / name for name in ("events.csv", "estimate.json", "chtest.json")]
            runs.append([echo, *(path.read_bytes() for path in outputs)])
        assert runs[0] == runs[1]
        # The same reports written to another directory.
        other = ["--output-dir", str(tmp_path / "other")]
        assert run([*other, "estimate", "--events", str(events)]) == 0
        assert run([*other, "chtest", "--events", str(events), *eta]) == 0
        for index, name in enumerate(("estimate.json", "chtest.json"), start=2):
            assert (tmp_path / "other" / name).read_bytes() == runs[0][index]



class TestPrintedPaths:
    """The paths the commands print and the exit codes of the path cases,
    relative to the working directory."""

    def test_default_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["kinematics"]) == 0
        assert capsys.readouterr().out == "wrote kinematics.json\n"
        assert (tmp_path / "kinematics.json").exists()

    def test_output_dir_with_trailing_slash(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["--output-dir", "sub/", "kinematics"]) == 0
        assert capsys.readouterr().out == "wrote sub/kinematics.json\n"
        assert (tmp_path / "sub" / "kinematics.json").exists()

    def test_out_is_normalized(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a").mkdir()
        assert run(["kinematics", "--out", "./a//b.json"]) == 0
        assert capsys.readouterr().out == "wrote a/b.json\n"
        assert (tmp_path / "a" / "b.json").exists()

    def test_empty_output_dir_in_config_is_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text('{"output_dir": ""}')
        assert run(["--config", "config.json", "kinematics"]) == 0
        assert capsys.readouterr().out == "wrote kinematics.json\n"
        assert (tmp_path / "kinematics.json").exists()

    def test_config_that_is_a_directory_is_exit_3(self, tmp_path, capsys):
        assert run(["--config", str(tmp_path), "kinematics"]) == 3
        assert capsys.readouterr().err.startswith("hepbell: error: ")

    @pytest.mark.parametrize(
        "flags, printed",
        [(["--output-dir", "sub/", "generate"], "sub/events.csv"),
         (["generate", "--out", "./x//e.csv"], "x/e.csv")],
        ids=["output-dir", "out"],
    )
    def test_generate_echoes_the_printed_form(self, tmp_path, monkeypatch, capsys, flags, printed):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir()
        assert run([*flags, "--n", "100", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["events_file"] == printed
        assert (tmp_path / printed).exists()


class TestConfigTypes:
    """RunConfig, KinematicsConfig and TwoBodyBeta are named tuples: built by
    keyword, with defaults, compared and hashed by value, and immutable."""

    def test_run_config(self):
        config = cli.RunConfig(seed=7, output_dir="out")
        assert (config.seed, config.n_events, config.output_dir) == (7, 1_000_000, "out")
        assert config.settings == (0.0, 3 * math.pi / 4, 3 * math.pi / 8, math.pi / 8)
        assert config == cli.RunConfig(seed=7, output_dir="out") != cli.RunConfig()
        assert hash(config) == hash(cli.RunConfig(seed=7, output_dir="out"))
        assert config._replace(seed=8).seed == 8
        assert list(config._asdict()) == list(cli.RunConfig._fields)
        assert "output_dir" not in config.to_dict()
        with pytest.raises(AttributeError):
            config.seed = 8
        with pytest.raises(AttributeError):
            config.extra = 1

    def test_kinematics_config(self):
        kin = KinematicsConfig(m_parent=3)
        assert kin == KinematicsConfig(3.0, 1.019461)
        assert hash(kin) == hash(KinematicsConfig(m_parent=3.0))
        assert type(kin.m_parent) is float
        assert KinematicsConfig() == (2.980, 1.019461)
        assert cli.RunConfig(m_vector=1.0).kinematics() == KinematicsConfig(m_vector=1.0)
        with pytest.raises(AttributeError):
            kin.m_parent = 4.0
        for bad in ({"m_parent": -1}, {"m_vector": 0.0}, {"m_parent": math.inf}, {"m_vector": math.nan}):
            with pytest.raises(ValueError, match="must be positive and finite"):
                KinematicsConfig(**bad)
        with pytest.raises(ValueError, match="m_parent must be positive"):
            kin._replace(m_parent=-1)

    def test_two_body_beta(self):
        result = TwoBodyBeta(beta=0.5, space_like_ok=False)
        assert result == TwoBodyBeta(0.5, False)
        assert hash(result) == hash(TwoBodyBeta(0.5, False))
        assert result._asdict() == {"beta": 0.5, "space_like_ok": False}
        with pytest.raises(AttributeError):
            result.beta = 0.6

LOADED_MODULES_SCRIPT = """
import json, sys
codes = []
if len(sys.argv) > 1:
    from hepbell import cli
    for args in json.loads(sys.argv[1]):
        codes.append(cli.main(args))
else:
    import hepbell
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def loaded_modules(*commands, site=True):
    """Run ``cli.main`` on each argument list in a fresh interpreter (or only
    ``import hepbell`` when none is given); returns the exit codes and the
    names in ``sys.modules`` at the end.  ``site=False`` runs ``python -S``,
    so that no ``site`` hook (a ``.pth`` file) loads modules first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [json.dumps(commands)] if commands else []
    flags = [] if site else ["-S"]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", LOADED_MODULES_SCRIPT, *argv],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], set(result["modules"])


class TestImports:
    def test_kinematics_runs_without_numpy(self, tmp_path):
        codes, modules = loaded_modules(
            ["--output-dir", str(tmp_path), "kinematics"],
            # Below threshold: BelowThreshold is classified without mesonlab.
            ["--output-dir", str(tmp_path), "kinematics", "--m-parent", "2", "--m-vector", "1"],
        )
        assert codes == [0, 2]
        assert "hepbell.kinematics" in modules
        assert "numpy" not in modules
        assert "hepbell.mesonlab" not in modules

    def test_startup_loads_no_dataclasses_typing_or_numpy(self, tmp_path):
        # Under -S: with site's hooks, a .pth file may load typing or
        # contextlib before hepbell does, and would hide a regression.
        config = tmp_path / "config.json"
        config.write_text('{"m_parent": 3.1}')
        codes, modules = loaded_modules(
            ["--output-dir", str(tmp_path), "kinematics"],
            ["--config", str(config), "kinematics", "--out", str(tmp_path / "k.json")],
            ["kinematics", "--m-parent", "2", "--m-vector", "1"],
            site=False,
        )
        assert codes == [0, 0, 2]
        assert {"hepbell.cli", "hepbell.kinematics"} <= modules
        assert not {"dataclasses", "inspect", "typing", "contextlib", "numpy"} & modules

    def test_event_commands_load_no_search_or_photon_modules(self, tmp_path):
        events = tmp_path / "events.csv"
        common = ["--output-dir", str(tmp_path)]
        codes, modules = loaded_modules(
            [*common, "generate", "--n", "2000", "--seed", "1", "--out", str(events)],
            [*common, "estimate", "--events", str(events)],
            [*common, "chtest", "--events", str(events)],
        )
        assert codes == [0, 0, 0]
        assert "hepbell.mesonlab" in modules
        loaded = {"hepbell.photon3", "hepbell.lhv", "hepbell.spin1", "hepbell._search"} & modules
        assert not loaded
        assert "numpy.ma" not in modules

    def test_spin1_commands_load_no_photon3(self, tmp_path):
        common = ["--output-dir", str(tmp_path)]
        codes, modules = loaded_modules([*common, "hardy"], [*common, "efficiency"])
        assert codes == [0, 0]
        assert {"hepbell.lhv", "hepbell.spin1"} <= modules
        assert "hepbell.photon3" not in modules

    def test_hardy_loads_the_search_only_to_optimize(self, tmp_path):
        common = ["--output-dir", str(tmp_path), "hardy"]
        plain_codes, plain = loaded_modules(common)
        optimize_codes, optimize = loaded_modules([*common, "--optimize"])
        assert plain_codes + optimize_codes == [0, 0]
        assert {"hepbell.spin1", "hepbell.qcore"} <= plain  # the Born cross-check
        assert "hepbell._search" not in plain
        assert "hepbell._search" in optimize

    def test_efficiency_loads_no_event_modules(self, tmp_path):
        # The CH maximum is a closed form: no search, so no numpy either.
        codes, modules = loaded_modules(["--output-dir", str(tmp_path), "efficiency"])
        assert codes == [0]
        assert "hepbell.spin1" in modules
        assert not {
            "numpy", "hepbell.qcore", "hepbell._search", "hepbell.mesonlab", "hepbell._workers",
        } & modules

    def test_insufficient_statistics_is_exit_4_as_a_script(self, tmp_path):
        # As ``python -m hepbell.cli`` the module is __main__, and main still
        # finds the mesonlab that its handler imported.
        events = tmp_path / "events.csv"
        events.write_text(EVENTS_HEADER + "0,0.5,0,0,0\r\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "hepbell.cli", "--output-dir", str(tmp_path),
             "estimate", "--events", str(events)],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("hepbell: error: ")

    def test_package_root_loads_no_submodule(self):
        codes, modules = loaded_modules()
        assert codes == []
        assert "hepbell" in modules
        assert not {name for name in modules if name.startswith("hepbell.")}
        assert "numpy" not in modules


# The console script's function, called as the installed ``hepbell`` would.
# The atexit handler runs after the exit path and prints whether the heap
# was frozen by then.
ENTRY_SCRIPT = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
from hepbell.cli import entry
sys.argv[0] = "hepbell"
entry()
"""


def program(how, *args):
    """Run the program with ``args`` as ``python -m hepbell.cli`` or through
    the console script's function, in a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    head = ["-m", "hepbell.cli"] if how == "module" else ["-c", ENTRY_SCRIPT]
    return subprocess.run(
        [sys.executable, *head, *args],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )


class TestProgramExit:
    def test_main_leaves_the_collector_alone(self, tmp_path):
        before = gc.get_freeze_count()
        common = ["--output-dir", str(tmp_path)]
        assert run([*common, "kinematics", "--out", str(tmp_path / "k.json")]) == 0
        assert run([*common, "tripartite", "--out", str(tmp_path / "t.json")]) == 0
        assert run([*common, "kinematics", "--m-parent", "2", "--m-vector", "1"]) == 2
        assert gc.get_freeze_count() == before
        assert gc.isenabled()

    @pytest.mark.parametrize("how", ["module", "console-script"])
    def test_program_writes_what_main_writes(self, tmp_path, how):
        out = tmp_path / "k.json"
        args = ["--output-dir", str(tmp_path), "kinematics", "--out", str(out)]
        assert run(args) == 0
        want = out.read_bytes()
        out.unlink()
        proc = program(how, *args)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == want
        if how == "console-script":
            assert proc.stdout.splitlines()[-1] == "frozen True"

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("4", "4")])
    def test_program_holds_openblas_to_one_thread_unless_set(self, monkeypatch, preset, want):
        environ = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
        seen = []
        monkeypatch.setattr(os, "environ", environ)
        monkeypatch.setattr(cli, "main", lambda: seen.append(environ["OPENBLAS_NUM_THREADS"]) or 0)
        monkeypatch.setattr(gc, "freeze", lambda: None)
        with pytest.raises(SystemExit) as excinfo:
            cli.entry()
        assert excinfo.value.code == 0
        assert seen == [want]

    @pytest.mark.parametrize("how", ["module", "console-script"])
    @pytest.mark.parametrize(
        "args",
        [["hardy", "--alpha", "nan"], ["kinematics", "--m-parent", "2", "--m-vector", "1"]],
        ids=["argparse", "returned"],
    )
    def test_usage_error_exits_2(self, tmp_path, how, args):
        proc = program(how, "--output-dir", str(tmp_path), *args)
        assert proc.returncode == 2
        assert "error:" in proc.stderr


# Runs the commands through ``main``, not the program, so that the collector
# still runs: a file, pipe or worker that only a collection would close
# warns here, and would stay open in the program, which freezes the heap.
DEV_MODE_SCRIPT = """
import gc, json, sys
from hepbell import cli
codes = [cli.main(args) for args in json.loads(sys.argv[1])]
gc.collect()
print(json.dumps(codes))
"""


def test_no_command_leaves_a_resource_to_the_collector(tmp_path):
    events = tmp_path / "events.csv"
    common = ["--output-dir", str(tmp_path)]
    commands = [
        # 200 000 rows: the chunk loops are split over processes.
        [*common, "generate", "--n", "200000", "--seed", "3", "--out", str(events)],
        [*common, "estimate", "--events", str(events)],
        [*common, "chtest", "--events", str(events)],
        [*common, "tripartite"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", DEV_MODE_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0, 0]
    assert "ResourceWarning" not in proc.stderr

"""The test session's own settings: ``filterwarnings = ["error"]`` in
pyproject.toml, with the one third-party warning it ignores."""

import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported_and_the_session_runs_on(tmp_path):
    # On a failure Hypothesis imports libcst to write its patch, and libcst
    # warns at import; under "error" that was an INTERNALERROR that ended
    # the session before test_passes ran.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
    assert "FAILED test_pair.py::test_fails" in proc.stdout


def test_other_warnings_still_fail():
    with pytest.raises(DeprecationWarning):
        warnings.warn("deprecated", DeprecationWarning)
    # The ignored message fails from any module but libcst's.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit(
            "mypy_extensions.TypedDict is deprecated", DeprecationWarning,
            "spin1.py", 1, module="hepbell.spin1",
        )

"""The test session's own settings: ``filterwarnings = ["error"]`` in
pyproject.toml, with the one third-party warning it ignores; a guard that
the spin-1 inequalities stay written once, as tables; and one that the
package defines no name that nothing uses."""

import ast
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
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


def test_each_spin1_table_label_is_one_literal_in_the_package():
    """A report key of Hardy's terms or a label of the two-meson CH is a
    string literal once in the package, in the table or report that defines
    it; every evaluator reads it from there.  The JSON schema keeps its own
    copy of the keys."""
    from hepbell.reports import HARDY_TERMS, ch_vv_report

    labels = [key for key, *_ in HARDY_TERMS]
    labels += [label for label, _ in ch_vv_report([0.0] * 4).terms]
    assert {"p_x_g", "P(n1,n2')", "P(n1')", "P(n2)"} <= set(labels)
    literals = Counter(
        node.value
        for path in sorted((ROOT / "src" / "hepbell").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    )
    assert {label: literals[label] for label in labels} == dict.fromkeys(labels, 1)


def _top_level_definitions(tree: ast.Module):
    """(name, node) of each function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_package_name_is_used_outside_its_definition():
    """Each top-level function, class and constant of ``src/hepbell/*.py``
    is named somewhere besides its own definition: in ``src/``, ``tests/``,
    ``perfbench/`` or the README.  Dunder names are exempt."""
    texts = {
        path: path.read_text()
        for path in [
            *(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")),
            ROOT / "README.md",
        ]
    }
    unused = []
    for path in sorted((ROOT / "src" / "hepbell").glob("*.py")):
        lines = texts[path].splitlines(keepends=True)
        for name, node in _top_level_definitions(ast.parse(texts[path])):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = len(word.findall("".join(lines[node.lineno - 1 : node.end_lineno])))
            if sum(len(word.findall(text)) for text in texts.values()) == own:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []

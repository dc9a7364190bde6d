"""The README shows only flags that the command line has."""

import argparse
import re
from pathlib import Path

from hepbell import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def parser_options():
    """The top-level parser's option strings, and each command's."""
    parser = cli.build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    return set(parser._option_string_actions), commands


def shown_flags(text, commands):
    """(command, flag) for each ``--flag`` after a command name in a code
    block line or an inline code span: ``hepbell hardy --optimize``, or
    ``hardy --optimize`` in prose."""
    blocks = text.split("```")
    spans = [line for block in blocks[1::2] for line in block.splitlines()]
    spans += [m for prose in blocks[::2] for m in re.findall(r"`([^`]+)`", prose)]
    shown = set()
    for span in spans:
        tokens = span.split("#")[0].split()
        if tokens[:1] == ["hepbell"]:
            tokens = tokens[1:]
        command = next((t for t in tokens if t in commands), None)
        if command is None or tokens[0] not in commands and not tokens[0].startswith("--"):
            continue
        shown |= {(command, t.split("=")[0]) for t in tokens if t.startswith("--")}
    return shown


def test_every_flag_the_readme_shows_exists():
    top_level, commands = parser_options()
    shown = shown_flags(README.read_text(), commands)
    assert {("hardy", "--optimize"), ("chtest", "--settings"), ("generate", "--n")} <= shown
    unknown = sorted(
        (command, flag)
        for command, flag in shown
        if flag not in commands[command] and flag not in top_level
    )
    assert unknown == []


def test_a_removed_flag_would_be_caught():
    _, commands = parser_options()
    text = "Run `efficiency --tol 1e-9`, or\n\n```sh\nhepbell hardy --optimize --grid-step pi/16\n```\n"
    shown = shown_flags(text, commands)
    assert shown == {("efficiency", "--tol"), ("hardy", "--optimize"), ("hardy", "--grid-step")}
    assert "--tol" not in commands["efficiency"]
    assert "--grid-step" not in commands["hardy"]

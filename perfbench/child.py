"""One traced benchmark process: a hepbell CLI command with its calls spanned.

    python perfbench/child.py --trace SPANS.json [--iteration K] COMMAND ARGS...

Untraced CLI commands do not come through here: the benchmark runs them as
``python -m hepbell.cli``.  The listed hepbell functions are wrapped (see
``spans.py``) before the command starts, and the spans are written to
SPANS.json when it ends.
"""

from __future__ import annotations

import argparse
import sys

import spans


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py", allow_abbrev=False)
    parser.add_argument("--trace", required=True)
    parser.add_argument("--iteration", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    tracer = spans.Tracer(opts.iteration)
    spans.install(tracer)
    try:
        from hepbell import cli

        return cli.main(opts.cli_args)
    finally:
        tracer.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Broker process for traced ``wire`` runs: installs the span wrappers,
then runs the ordinary command line, so the process layout matches the
untraced run.

    python perfbench/child.py SPANS_OUT serve --catalog ... --persist ...

Takes the arguments of ``python -m ctxbroker`` after the span file, and
writes the spans there when the command returns (SIGINT stops ``serve``).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from ctxbroker import cli  # noqa: E402

from perfbench.trace import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())

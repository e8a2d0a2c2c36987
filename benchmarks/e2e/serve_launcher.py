"""Start ``repro serve`` the way the CLI does, optionally traced.

Usage: ``python3 serve_launcher.py [--spans FILE] serve --port 0 ...``

With ``--spans`` the benchmark's wrappers (:data:`tracing.TARGETS`) are
installed before the service starts, and the recorded spans are written
to FILE when the server exits (SIGTERM drains it through the CLI's own
shutdown path).  Everything after the launcher's options goes to
``repro.cli.main`` unchanged.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    sys.path[:0] = [str(HERE), str(SRC)]
    from repro.cli import main as repro_main

    if spans is None:
        return repro_main(argv)
    from tracing import SpanRecorder

    rec = SpanRecorder(first_id=1 << 32)
    rec.install()
    try:
        return repro_main(argv)
    finally:
        rec.write_jsonl(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Traced server launcher: install the timing wrappers, then run the CLI.

Usage: ``python perfbench/serve_launch.py SPANS_DIR serve http CKPT ...``

The wrappers go in before ``repro.cli.main`` builds the service, so the
forked workers inherit them. The front end flushes its spans when ``main``
returns (after SIGINT); each worker flushes when its loop returns.
"""

from __future__ import annotations

import sys

from spans import SpanLog, install_serve


def main() -> int:
    spans_dir, argv = sys.argv[1], sys.argv[2:]
    log = SpanLog()
    install_serve(log, spans_dir)
    from repro import cli

    try:
        return cli.main(argv)
    finally:
        log.flush(spans_dir, "frontend")


if __name__ == "__main__":
    sys.exit(main())

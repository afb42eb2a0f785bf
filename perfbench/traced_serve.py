"""``runtime-serve`` with the serving layers traced (the traced run's server).

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_serve.py SPANS.jsonl runtime-serve --store-path ... --port 0

Installs the serving wrappers, then calls
``repro.experiments.cli.main(["runtime-serve", ...])``.  SIGTERM stops
the server through its normal shutdown path, after which the spans are
written to SPANS.jsonl (first line: the wrap targets that were missing).
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def _stop(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main(argv: list) -> int:
    """Serve traced until SIGTERM, then write the spans."""
    from repro.experiments.cli import main as cli_main

    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    layers.install_serving(tracer)
    signal.signal(signal.SIGTERM, _stop)
    try:
        return cli_main(cli_argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path, header={"missing": tracer.missing})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

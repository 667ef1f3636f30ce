"""Run ``repro.cli`` with the benchmark's span wrappers installed.

The traced churn-socket run starts its server through this file, so the
server process records the same spans as the benchmark process::

    python3 perfbench/launcher.py SPANS_OUT serve --port 0 --trace ...

Everything after ``SPANS_OUT`` is passed to ``repro.cli``.  The spans are
written to ``SPANS_OUT`` when the CLI returns (after the SIGTERM drain).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from spans import SpanRecorder, install

    recorder = SpanRecorder()
    install(recorder)
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())

"""Start ``repro serve`` for the benchmark, optionally traced.

Without ``--trace-dir`` this is exactly ``python -m repro serve ...``.
With it, the span recorder's wrappers are installed first; the daemon's
forked workers inherit them and write their own spans at exit.

Usage (``run.py`` does this)::

    python3 perfbench/serve_launcher.py [--trace-dir DIR] serve ARGS...
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    argv = sys.argv[1:]
    sys.path.insert(0, str(HERE.parent / "src"))
    if argv[:1] == ["--trace-dir"]:
        sys.path.insert(0, str(HERE))
        from spans import SpanRecorder, install
        install(SpanRecorder(argv[1]))
        argv = argv[2:]
    from repro.cli import main as repro_main
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())

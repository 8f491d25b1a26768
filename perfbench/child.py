"""Run one of the repository's scripts with the span tracer installed.

    python3 perfbench/child.py SPANS_FILE SCRIPT [ARGS...]

The tracer patches the library before the script is executed, so the
script's own ``from groupeq... import`` lines bind the wrapped functions.
Spans are written to SPANS_FILE when the script returns; the exit code is
the script's.
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, script, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    sys.argv = [script] + args
    try:
        runpy.run_path(script, run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Count the target evaluations of one mcbricks CLI run, in a process of its own.

Usage, from the root of a checkout::

    python3 bench/count.py run --target std_normal --seed 1 --output-dir out

Runs ``mcbricks.cli.main`` on the given arguments with counting wrappers on
the target callables (see ``tracing.py``) and prints one JSON line with the
exit code and the counts.  The run is not timed, so several can go at once.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    tracer = tracing.Tracer(spans=False)
    code, _ = tracing.run_cli(sys.argv[1:], tracer)
    print(json.dumps({"code": code, "counts": tracer.eval_counts()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

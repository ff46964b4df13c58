"""Serve one benchmark round in this fresh process.

Usage::

    python3 perfbench/round.py ARGS OUT

``ARGS`` holds the pickled positional arguments of
:func:`perfbench.workloads.run_round`; the pickled :class:`Round` it
returns is written to ``OUT``.  ``perfbench/run.py`` starts one such
process per round and stops it, and everything it started, afterwards.
"""

from __future__ import annotations

import pathlib
import pickle
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    from perfbench.workloads import run_round

    arguments, output = (pathlib.Path(path) for path in argv)
    result = run_round(*pickle.loads(arguments.read_bytes()))
    output.write_bytes(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

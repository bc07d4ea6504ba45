"""Time one cold set-up of the library in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR PATTERN...

Set-up is the import, pattern resolution, ``analyze`` and the first
``pattern_info`` of each pattern.  Prints the seconds it took.
"""

import sys
import time


def set_up(patterns) -> None:
    from wsatlab.cli import resolve_pattern
    from wsatlab.closure import pattern_info
    from wsatlab.patterns import analyze

    for name in patterns:
        h = resolve_pattern(name)
        analyze(h)
        pattern_info(h)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    set_up(sys.argv[2:])
    print(time.perf_counter() - t0)

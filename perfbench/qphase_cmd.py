"""Run the qphase CLI the way its console script does.

    python3 perfbench/qphase_cmd.py [--spans FILE] -- ARGS...
        runs ``qphase ARGS...`` and exits with its code; with --spans the
        library is traced and the spans are written to FILE at exit.
    python3 perfbench/qphase_cmd.py --import-only
        prints the seconds a fresh interpreter takes to import qphase.

The library is imported from the ``src`` directory next to this one, never
from an installed copy.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    sys.path.insert(0, SRC)
    start = time.perf_counter_ns()
    import qphase.cli

    end = time.perf_counter_ns()
    if argv == ["--import-only"]:
        print((end - start) / 1e9)
        return 0
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if spans is None:
        return qphase.cli.main(argv)

    from tracing import Tracer

    tracer = Tracer()
    tracer.spans.append(["cli.import", start, end, -1])
    tracer.install()
    try:
        return qphase.cli.main(argv)
    finally:
        tracer.write(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

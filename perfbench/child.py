"""One benchmarked `sqgev` verb call, run in a fresh process by `run.py`.

    python3 perfbench/child.py SRC TIMING_JSON SPANS_JSON|- VERB ARG...

Imports `sqgev.cli` from SRC, optionally installs the tracer (when SPANS_JSON
is not `-`), then calls `sqgev.cli.main`.  After the verb returns it writes
TIMING_JSON with the CLOCK_MONOTONIC readings taken when the CLI was ready to
parse arguments and when it returned; the parent compares the first with its
own reading taken before it launched this process, which gives the set-up
time.  Nothing is written while the verb runs.
"""

import json
import os
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    src, timing_path, spans_path, *verb_argv = sys.argv[1:]
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import numpy
    import sqgev.cli

    if os.path.dirname(os.path.abspath(sqgev.cli.__file__)) != os.path.join(src, "sqgev"):
        print(f"sqgev was imported from {sqgev.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spans_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready = _clock()
    code = sqgev.cli.main(verb_argv)
    done = _clock()
    with open(timing_path, "w") as fh:
        json.dump({"ready": ready, "done": done, "numpy": numpy.__version__}, fh)
    if tracer is not None:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())

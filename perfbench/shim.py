"""Runs one tropic command line with the benchmark's timing wrappers installed.

    python perfbench/shim.py SPANS_FILE ARG...

ARG... are the arguments of ``python -m tropic``.  The process writes its
spans, counters and ``cone_halfspaces`` cache statistics to SPANS_FILE when
the command returns, and exits with the command's exit code.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

import tropic.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = tropic.cli.run(sys.argv[2:])
    finally:
        tracer.uninstall()
    info = sys.modules["tropic.latticefan"].cone_halfspaces.cache_info()
    tracer.counts["latticefan.halfspace_hits"] += info.hits
    tracer.counts["latticefan.halfspace_misses"] += info.misses
    Path(sys.argv[1]).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One traced ``pmcs`` CLI process for the figures_cli workload.

    python3 perfbench/cli_traced.py <stats.json> <pmcs arguments...>

Installs the tracer, runs ``pmcs.cli.main`` on the arguments, and writes the
per-layer aggregates plus the wall time of the ``main`` call to stats.json.
Exits with the CLI's own exit code.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import pmcs.cli  # noqa: E402

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
start = time.perf_counter()
code = pmcs.cli.main(sys.argv[2:])
main_s = time.perf_counter() - start
tracer.uninstall()
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"main_s": main_s, "stats": tracer.snapshot()}, handle)
sys.exit(code)

"""Set up one workload in a fresh interpreter and print how long it took.

    python3 perfbench/setup_inputs.py <workload> <seed> <workdir>

The timed part is what a user pays before the first op: importing
``curtail`` (numpy included) and writing the workload's input files.  The
benchmark runs this several times per run and reports the median as setup_s.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from curtail import cli

    import workloads

    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name].make_inputs(cli.dispatch, seed, workdir)
    print(repr(time.perf_counter() - start))

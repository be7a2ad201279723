"""Record the default-seed output digests that the benchmark compares against.

    python3 perfbench/record_digests.py

Runs one op per distinct input of every workload at the default seed,
checks its output, and writes the SHA-256 of the output (``elapsed_us``
zeroed) to ``perfbench/digests.json``.  The package promises byte-identical
solution JSON, report CSV and trace CSV, so rerun this only for a change
that means to alter those outputs, and say so in that change.
"""

import json
import sys
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from curtail import cli

    seed = workloads.DEFAULT_SEED
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = BENCH_DIR / "_run" / "record" / name
        workdir.mkdir(parents=True, exist_ok=True)
        workload.make_inputs(cli.dispatch, seed, workdir)
        context = {"workdir": workdir}
        op = 0
        while workload.digest_key(op) not in recorded:
            rc = cli.dispatch(workload.argv(seed, op, workdir))
            if rc != 0:
                raise SystemExit(f"{name} op {op} exited with {rc}")
            raw = workloads.output_path(workdir).read_bytes()
            workload.check(raw, seed, op, context)
            recorded[workload.digest_key(op)] = checks.digest(raw)
            op += 1
    path = BENCH_DIR / "digests.json"
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

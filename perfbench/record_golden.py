"""Record the golden output of every workload for the default seed.

    python3 perfbench/record_golden.py

Writes perfbench/golden/<workload>.csv.gz from the program as it stands.
Re-record only when an output change is intended, and say so in CHANGES.md.
"""

import gzip
import sys

import run
import workloads


def main() -> int:
    qcasim = run.import_program()
    run.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        inputs = run.setup(workload, run.DEFAULT_SEED, qcasim.cli.run_cli)
        code, out, err = run.call_cli(qcasim.cli.run_cli, inputs.argv)
        if code != 0 or err:
            raise SystemExit(f"error: {workload.name} failed ({code}): {err.strip()}")
        path = run.GOLDEN_DIR / f"{workload.name}.csv.gz"
        path.write_bytes(gzip.compress(out.encode("utf-8"), mtime=0))
        print(f"{path.relative_to(run.ROOT)}: {len(out.encode())} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the verdict oracle: run every op of every workload once and write
its observation to oracle.json.

    python3 perfbench/record_oracle.py

The committed oracle was recorded on the commit that introduced the
benchmark.  Re-record only in a change that alters the benchmark, never in
one that claims a gain: the oracle is the referee for every later change.
"""
import json
import os
import shutil
import sys

from run import ORACLE, WORK, WORKLOAD_NAMES, import_program, run_op


def main() -> int:
    workloads = import_program()
    oracle = {}
    work = os.path.join(WORK, f"oracle-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name in WORKLOAD_NAMES:
            ops = workloads.WORKLOADS[name]["setup"](work)
            oracle[name] = {}
            for key in sorted(ops):
                _, obs, err = run_op(ops[key])
                if err is not None:
                    print(f"{name} op {key} raised:\n{err}", file=sys.stderr)
                    return 1
                oracle[name][key] = obs
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(ORACLE, "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(len(v) for v in oracle.values())} observations "
          f"to {ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""paravoa benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 25 --trace 0

Run from the repository root; it uses paravoa from `src` and nothing else
(stdlib only, nothing to build).  The workload runs in a fresh child
process (`worker.py`); this process waits for it, prints each metric as
`workload metric value unit`, then the child's JSON result as the last
line of standard output.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402

TIMEOUT_S = 170


def main() -> int:
    p = argparse.ArgumentParser(description="paravoa benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join("src", "paravoa", "__init__.py")):
        print("error: no src/paravoa here; run from the repository root",
              file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"error: {args.workload} ran over {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if child.returncode != 0:
        print(f"error: {args.workload} worker exited {child.returncode}",
              file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed "
          f"{result['failed']} correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. It starts ``perfbench/worker.py`` in a
fresh interpreter with the checkout's ``src/`` on ``PYTHONPATH``, waits for
it, and prints the worker's result as the last line of standard output:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics and the tracing overhead. The exit code is 0 only when the run
finished and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import BUILDERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "wrapsmith" / "cli.py").is_file():
        print(f"no wrapsmith sources under {src}; run from a full checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(src), "--work", str(work),
        "--spans", str(HERE / "out" / f"spans-{tag}.jsonl"),
        "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, timeout=TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr)
        if not result_path.exists():
            print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{tag}: {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

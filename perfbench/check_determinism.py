"""The benchmark's own test: traced counts repeat exactly under a seed.

Runs ``run.py --trace 1`` twice per workload with the same seed, each in
its own process, and requires every count metric (unit ``count`` in
``BENCHMARK.json``: ``*.calls``, ``fw_iterations``, ``dijkstra.sources``,
``rounds``, ``attempts``, ``intervals``, ``uncertified``) to be identical
and both runs to pass their correctness gate.  Run from the repository
root::

    python3 perfbench/check_determinism.py [--seed 7] [--seconds 5] [workload ...]

Exit code 0 when every workload repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(workload: str, seed: int, seconds: int) -> tuple[bool, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return False, {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }
    return result["correct"], counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=5)
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        first_ok, first = traced_counts(workload, args.seed, args.seconds)
        second_ok, second = traced_counts(workload, args.seed, args.seconds)
        differ = sorted(k for k in first if first[k] != second.get(k))
        passed = first_ok and second_ok and bool(first) and not differ
        ok &= passed
        nonzero = sum(1 for v in first.values() if v)
        print(
            f"{workload}: {'ok' if passed else 'FAILED'} "
            f"({len(first)} counts, {nonzero} nonzero)"
        )
        for name in differ:
            print(f"  {name}: {first[name]} then {second.get(name)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

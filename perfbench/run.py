"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload relax_stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` alternates untraced and traced runs of a
fixed unit and prints the per-layer metrics (probes from ``perfbench/tracer.py``).
Metric names and units come from ``BENCHMARK.json``; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check is printed to stderr and makes the exit code 1.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the numbers should measure
# the program, not the OS scheduler.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: In-run set-ups whose median is ``setup_s``.
SETUP_REPEATS = 5


def _load_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; one sample is itself)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setups(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times; keep the last state."""
    totals, parts = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state, part = workload.setup(seed)
        totals.append(perf_counter() - start)
        parts.append(part)
    return state, totals, parts


class Gate:
    """Runs every check and collects failures, counts and quality figures."""

    def __init__(self, workload, state) -> None:
        self.workload = workload
        self.state = state
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.fingerprints: dict[object, tuple] = {}
        self.quality: dict[int, dict[str, float]] = {}
        self.validate_s: list[float] = []

    def __call__(self, key, outcome) -> None:
        verdict = self.workload.check(self.state, key, outcome)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.errors.extend(verdict.errors)
        if verdict.validate_s:
            self.validate_s.append(verdict.validate_s)
        expected = self.fingerprints.setdefault(key, verdict.fingerprint)
        if verdict.fingerprint != expected:
            self.failed += 1
            self.errors.append(
                f"unit {key} is not deterministic: {verdict.fingerprint} "
                f"after {expected}"
            )
        if key != "traced":
            self.quality.setdefault(key, verdict.quality)

    def figure(self, name: str, combine=statistics.median) -> float:
        """A quality figure over the distinct units (median by default)."""
        return combine(q[name] for q in self.quality.values())


def measure(workload, state, gate: Gate, seconds: float) -> list:
    """Closed-loop timed units, cycling through the distinct units, until
    the next one would overrun ``seconds``.  Every distinct unit runs at
    least once, so the quality figures cover a fixed set of inputs."""
    outcomes = []
    began = perf_counter()
    k = 0
    while True:
        key = k % workload.units
        outcome = workload.unit(state, key)
        gate(key, outcome)
        # Keep timings only, so peak RSS does not grow with the repeats.
        outcome.result = None
        outcomes.append(outcome)
        k += 1
        elapsed = perf_counter() - began
        if k >= workload.units and elapsed + outcome.wall > seconds:
            return outcomes


def measure_traced(workload, state, gate: Gate, seconds: float) -> dict:
    """Alternate untraced and traced runs of the traced unit, swapping
    which goes first each round so drift cancels in ``trace.overhead``;
    per-layer stats per traced run."""
    tracer = Tracer(workload.gap_tolerance)
    walls = {False: [], True: []}
    runs = []
    began = perf_counter()
    while True:
        for traced in (False, True) if len(runs) % 2 == 0 else (True, False):
            if traced:
                tracer.reset()
                with tracer:
                    outcome = workload.unit(state, "traced")
                runs.append(tracer.snapshot(outcome.wall))
            else:
                outcome = workload.unit(state, "traced")
            walls[traced].append(outcome.wall)
            gate("traced", outcome)
        elapsed = perf_counter() - began
        if elapsed + walls[False][-1] + walls[True][-1] > seconds:
            break
    for later in runs[1:]:
        for key in ("calls", "counts"):
            if later[key] != runs[0][key]:
                gate.failed += 1
                gate.errors.append(
                    f"traced {key} differ between runs: {later[key]} vs {runs[0][key]}"
                )
    overhead = statistics.median(walls[True]) / statistics.median(walls[False])
    return {"runs": runs, "overhead": overhead - 1.0}


def _layer_metrics(spec: list[dict], layers: dict, parts: list, gate: Gate) -> dict:
    runs = layers["runs"]
    first = runs[0]

    def busy(name: str, key: str) -> float:
        return statistics.median(r[key].get(name, 0.0) for r in runs)

    values = {}
    for metric in spec:
        name = metric["name"]
        base, _, stat = name.rpartition(".")
        if name == "trace.coverage":
            values[name] = statistics.median(r["coverage"] for r in runs)
        elif name == "trace.overhead":
            values[name] = layers["overhead"]
        elif base.startswith("setup."):
            values[name] = statistics.median(p[base.split(".")[1]] for p in parts)
        elif name == "analysis.validation.validate_result.s":
            values[name] = statistics.median(gate.validate_s) if gate.validate_s else 0.0
        elif stat == "calls":
            values[name] = first["calls"].get(base, 0)
        elif stat == "s":
            values[name] = busy(base, "busy")
        elif stat == "self_s":
            values[name] = busy(base, "self")
        else:
            values[name] = first["counts"].get(name, 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _load_program()
    import numpy
    import scipy
    from repro import kernels
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    state, setup_times, setup_parts = _setups(workload, args.seed)
    workload.prepare(state)
    workload.warmup(state)
    gate = Gate(workload, state)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernels": kernels.kernel_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }
    if args.trace:
        layers = measure_traced(workload, state, gate, args.seconds)
        metrics_spec = spec["per_layer"]
        values = _layer_metrics(metrics_spec, layers, setup_parts, gate)
        record["traced_runs"] = len(layers["runs"])
    else:
        outcomes = measure(workload, state, gate, args.seconds)
        metrics_spec = spec["end_to_end"]
        decisions = [d for o in outcomes for d in o.decisions]
        wall = sum(o.wall for o in outcomes)
        values = {
            "setup_s": statistics.median(setup_times),
            "flows_per_s": sum(o.flows for o in outcomes) / wall,
            "window_ms_p50": 1e3 * statistics.median(decisions),
            "window_ms_p90": 1e3 * _quantile(decisions, 90),
            "energy_ratio_lb": gate.figure("energy_ratio_lb"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(
            units=len(outcomes),
            timed_s=wall,
            window_samples=len(decisions),
            energy_total=gate.figure("energy_total", sum),
            miss_rate=gate.failed / gate.attempted,
        )
        for alg in ("dcfs_s", "dcfsr_s"):
            times = [o.alg_s[alg] for o in outcomes if alg in o.alg_s]
            if times:
                record[alg] = {"median": statistics.median(times), "samples": len(times)}

    names = [m["name"] for m in metrics_spec]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    for metric in metrics_spec:
        print(f"{metric['name']:48s} {values[metric['name']]:.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    correct = gate.failed == 0 and not gate.errors
    for error in gate.errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

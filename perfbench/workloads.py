"""The benchmark's three workloads on the paper's fabric.

Every workload runs on ``fat_tree(8)`` (80 switches, 128 servers) under
``PowerModel.quadratic()`` and is closed-loop with one caller.  A
workload has four steps:

* ``setup(seed)``: build the topology and generate every input from the
  seed.  This is what ``setup_s`` times.
* ``warmup(state)``: a short untimed solve that fills lazy caches.
* ``unit(state, key)``: timed work.  Keys ``0 .. units - 1`` are the
  distinct end-to-end units; key ``"traced"`` is the fixed, smaller unit
  a traced run repeats, so that its counts repeat exactly under a seed.
* ``check(state, key, outcome)``: the correctness gate, run outside the
  timed region.  It returns a :class:`Verdict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro import kernels
from repro.analysis.validation import validate_result
from repro.core import dcfs, dcfsr
from repro.flows.workloads import paper_workload
from repro.power import PowerModel
from repro.topology import fat_tree
from repro.traces import (
    OnlineDensityPolicy,
    PoissonProcess,
    RelaxationRoundingPolicy,
    ReplayEngine,
    TraceSpec,
    generate_trace,
    lognormal_sizes,
    proportional_slack,
)

POWER = PowerModel.quadratic()
FAT_TREE_K = 8


@dataclass
class Outcome:
    """What one timed unit produced."""

    wall: float
    flows: int
    #: Decision latencies in seconds: one per closed busy window when
    #: streaming, one per round when offline.
    decisions: list[float]
    result: object
    #: Per-algorithm solve times (offline only).
    alg_s: dict[str, float] = field(default_factory=dict)


@dataclass
class Verdict:
    """The correctness gate's view of one unit."""

    attempted: int
    failed: int
    errors: list[str]
    #: Deterministic summary; repeats of the same unit must match it.
    fingerprint: tuple
    #: Seed-determined quality figures, keyed by metric name.
    quality: dict[str, float]
    #: Seconds spent in ``validate_result`` by this check.
    validate_s: float = 0.0


def isolated_energy_bound(flows, paths, power: PowerModel) -> float:
    """Energy of every flow run alone at its density on ``paths``.

    With ``sigma = 0`` and ``alpha >= 1`` this bounds the dynamic energy
    of any unsplittable schedule from below: each flow alone is cheapest
    at constant density on its shortest route (Lemmas 1-2), and
    ``(sum x)^alpha >= sum x^alpha`` when flows share a link.
    """
    return sum(
        power.mu * flow.density**power.alpha * (flow.deadline - flow.release)
        * (len(paths[flow.id]) - 1)
        for flow in flows
    )


def _shortest_paths(topology, flows) -> dict:
    return {f.id: topology.shortest_path(f.src, f.dst) for f in flows}


class WindowClock:
    """Trace iterator that times each closed window from outside the engine.

    :meth:`ReplayEngine.run` pulls the first flow of window ``k + 1``,
    schedules and settles window ``k``, then asks for the next flow.  The
    gap between those two calls is window ``k``'s decide-and-settle time.
    The last window runs from ``StopIteration`` to the return of ``run``;
    call :meth:`close` right after it returns.
    """

    def __init__(self, flows: list, window: float) -> None:
        self._flows = flows
        self._window = window
        self._t0 = flows[0].release
        self._i = 0
        self._k = 0
        self._opened: float | None = None
        self._stopped: float | None = None
        self.samples: list[float] = []

    def __iter__(self) -> "WindowClock":
        return self

    def __next__(self):
        now = perf_counter()
        if self._opened is not None:
            self.samples.append(now - self._opened)
            self._opened = None
        if self._i == len(self._flows):
            self._stopped = perf_counter()
            raise StopIteration
        flow = self._flows[self._i]
        self._i += 1
        k = int((flow.release - self._t0) // self._window)
        if k != self._k:
            self._k = k
            self._opened = perf_counter()
        return flow

    def close(self, returned_at: float) -> None:
        self.samples.append(returned_at - self._stopped)


@dataclass
class StreamState:
    topology: object
    trace: list
    seed: int
    #: Per-flow isolated energy (see :func:`isolated_energy_bound`), in
    #: trace order, so that any prefix has its own bound.
    flow_bounds: list = field(default_factory=list)


class Streaming:
    """Closed-loop replay of one seeded Poisson trace through a policy.

    The end-to-end unit replays the whole trace, so that the cold first
    windows of a fresh engine are amortised as in a long-running
    scheduler; the traced unit replays its first ``traced_flows`` flows.
    """

    units = 1

    def __init__(
        self,
        rate: float,
        flows: int,
        traced_flows: int,
        window: float,
        policy: Callable[[int], object],
        warmup_flows: int,
        gap_tolerance: float = math.inf,
    ) -> None:
        self.rate = rate
        self.flows = flows
        self.traced_flows = traced_flows
        self.window = window
        self.policy = policy
        self.warmup_flows = warmup_flows
        self.gap_tolerance = gap_tolerance

    def setup(self, seed: int) -> tuple[StreamState, dict[str, float]]:
        t0 = perf_counter()
        topology = fat_tree(FAT_TREE_K)
        kernels.warmup()
        t1 = perf_counter()
        spec = TraceSpec(
            arrivals=PoissonProcess(self.rate),
            duration=self.flows / self.rate,
            size_sampler=lognormal_sizes(1.0, 0.6),
            slack_model=proportional_slack(3.0, 1.0),
            seed=seed,
        )
        trace = list(generate_trace(topology, spec))
        t2 = perf_counter()
        return StreamState(topology, trace, seed), {"topology": t1 - t0, "generate": t2 - t1}

    def prepare(self, state: StreamState) -> None:
        """Benchmark-side reference data for the checks (untimed)."""
        paths = _shortest_paths(state.topology, state.trace)
        state.flow_bounds = [
            isolated_energy_bound([flow], paths, POWER) for flow in state.trace
        ]

    def _replay(self, state: StreamState, flows: list) -> Outcome:
        engine = ReplayEngine(
            state.topology, POWER, self.policy(state.seed), window=self.window
        )
        clock = WindowClock(flows, self.window)
        start = perf_counter()
        report = engine.run(clock)
        end = perf_counter()
        clock.close(end)
        return Outcome(end - start, len(flows), clock.samples, report)

    def warmup(self, state: StreamState) -> None:
        self._replay(state, state.trace[: self.warmup_flows])

    def unit(self, state: StreamState, key) -> Outcome:
        if key == "traced":
            return self._replay(state, state.trace[: self.traced_flows])
        return self._replay(state, state.trace)

    def check(self, state: StreamState, key, outcome: Outcome) -> Verdict:
        report = outcome.result
        bound = sum(state.flow_bounds[: outcome.flows])
        errors = []
        if report.flows_seen != outcome.flows:
            errors.append(f"flows_seen {report.flows_seen} != replayed {outcome.flows}")
        if report.flows_served != report.flows_seen:
            errors.append(f"served {report.flows_served} of {report.flows_seen} flows")
        if report.miss_rate != 0.0:
            errors.append(
                f"miss_rate {report.miss_rate} ({report.deadline_misses} late, "
                f"{report.unserved} unserved)"
            )
        if report.capacity_violations:
            errors.append(f"{report.capacity_violations} capacity violations")
        if report.total_energy < bound * (1.0 - 1e-9):
            errors.append(
                f"energy {report.total_energy} below the isolated-flow bound {bound}"
            )
        failed = report.deadline_misses + report.unserved
        if errors and not failed:
            failed = 1
        return Verdict(
            attempted=report.flows_seen,
            failed=failed,
            errors=errors,
            fingerprint=(
                report.flows_served,
                report.windows,
                report.total_energy,
                report.peak_link_rate,
            ),
            quality={
                "energy_total": report.total_energy,
                "energy_ratio_lb": report.total_energy / bound,
            },
        )


@dataclass
class OfflineRound:
    """One Algorithm-1 instance (fixed shortest-path routes) and one
    Algorithm-2 instance."""

    dcfs_flows: object
    dcfs_paths: dict
    dcfsr_flows: object
    #: Position in the seed's rounds; also Algorithm 2's rounding seed.
    index: int


@dataclass
class OfflineState:
    topology: object
    rounds: list[OfflineRound]


class Offline:
    """The paper's two offline problems on ``paper_workload`` instances.

    Each end-to-end unit is one round: Algorithm 1 on an 800-flow
    instance, then Algorithm 2 on a 60-flow instance (Figure 2's
    Frank-Wolfe settings).  The traced unit is round 0.
    """

    dcfs_flows = 800
    dcfsr_flows = 60
    units = 8
    fw_max_iterations = 40
    gap_tolerance = 3e-3

    def setup(self, seed: int) -> tuple[OfflineState, dict[str, float]]:
        t0 = perf_counter()
        topology = fat_tree(FAT_TREE_K)
        kernels.warmup()
        t1 = perf_counter()
        rng = np.random.default_rng(seed)
        rounds = []
        for i in range(self.units):
            flows1 = paper_workload(topology, self.dcfs_flows, seed=rng)
            flows2 = paper_workload(topology, self.dcfsr_flows, seed=rng)
            rounds.append(
                OfflineRound(flows1, _shortest_paths(topology, flows1), flows2, i)
            )
        t2 = perf_counter()
        return OfflineState(topology, rounds), {"topology": t1 - t0, "generate": t2 - t1}

    def prepare(self, state: OfflineState) -> None:
        pass

    def _round(self, state: OfflineState, key) -> OfflineRound:
        return state.rounds[0 if key == "traced" else key]

    def _solve(self, topology, rnd: OfflineRound) -> Outcome:
        t0 = perf_counter()
        alg1 = dcfs.solve_dcfs(rnd.dcfs_flows, topology, rnd.dcfs_paths, POWER)
        t1 = perf_counter()
        alg2 = dcfsr.solve_dcfsr(
            rnd.dcfsr_flows,
            topology,
            POWER,
            seed=rnd.index,
            fw_max_iterations=self.fw_max_iterations,
            fw_gap_tolerance=self.gap_tolerance,
        )
        t2 = perf_counter()
        return Outcome(
            t2 - t0,
            len(rnd.dcfs_flows) + len(rnd.dcfsr_flows),
            [t2 - t0],
            (alg1, alg2),
            {"dcfs_s": t1 - t0, "dcfsr_s": t2 - t1},
        )

    def warmup(self, state: OfflineState) -> None:
        small = paper_workload(state.topology, 10, seed=0)
        rnd = OfflineRound(small, _shortest_paths(state.topology, small), small, 0)
        self._solve(state.topology, rnd)

    def unit(self, state: OfflineState, key) -> Outcome:
        return self._solve(state.topology, self._round(state, key))

    def check(self, state: OfflineState, key, outcome: Outcome) -> Verdict:
        rnd = self._round(state, key)
        alg1, alg2 = outcome.result
        topology = state.topology
        t0 = perf_counter()
        valid1 = validate_result(alg1.schedule, rnd.dcfs_flows, topology, POWER)
        valid2 = validate_result(alg2.schedule, rnd.dcfsr_flows, topology, POWER)
        validate_s = perf_counter() - t0
        energy1 = valid1.analytic_energy
        energy2 = alg2.energy.total
        bound1 = isolated_energy_bound(rnd.dcfs_flows, rnd.dcfs_paths, POWER)
        bound2 = isolated_energy_bound(
            rnd.dcfsr_flows,
            {fs.flow.id: fs.path for fs in alg2.schedule},
            POWER,
        )
        where = f"round {rnd.index}"
        alg1_errors = []
        if not valid1.ok:
            alg1_errors.append(f"{where} Algorithm 1 invalid: {valid1.summary()}")
        if not bound1 <= energy1 * (1.0 + 1e-9):
            alg1_errors.append(f"{where} Algorithm 1 energy {energy1} below bound {bound1}")
        alg2_errors = []
        if not valid2.ok:
            alg2_errors.append(f"{where} Algorithm 2 invalid: {valid2.summary()}")
        if not alg2.lower_bound <= energy2 * (1.0 + 1e-9):
            alg2_errors.append(
                f"{where} Algorithm 2 energy {energy2} below the certified "
                f"lower bound {alg2.lower_bound}"
            )
        if not bound2 <= energy2 * (1.0 + 1e-9):
            alg2_errors.append(f"{where} Algorithm 2 energy {energy2} below bound {bound2}")
        return Verdict(
            attempted=2,
            failed=bool(alg1_errors) + bool(alg2_errors),
            errors=alg1_errors + alg2_errors,
            fingerprint=(energy1, alg1.rounds, energy2, alg2.attempts),
            quality={
                "energy_total": energy1 + energy2,
                "energy_ratio_lb": energy2 / alg2.lower_bound,
            },
            validate_s=validate_s,
        )


WORKLOADS: dict[str, Callable[[], object]] = {
    "relax_stream": lambda: Streaming(
        rate=25.0,
        flows=3600,
        traced_flows=1026,
        window=4.0,
        policy=lambda seed: RelaxationRoundingPolicy(
            seed=seed, fw_max_iterations=40, fw_gap_tolerance=5e-3
        ),
        warmup_flows=100,
        gap_tolerance=5e-3,
    ),
    "online_stream": lambda: Streaming(
        rate=100.0,
        flows=10_000,
        traced_flows=10_000,
        window=1.0,
        policy=lambda seed: OnlineDensityPolicy(),
        warmup_flows=1000,
    ),
    "offline_paper": Offline,
}

"""Layer probes for the traced benchmark run.

A probe replaces one public function or method of ``repro`` with a
wrapper that records a span around each call.  Spans nest on a stack, so
a layer's self time is its busy time minus the busy time of the probed
calls made inside it.  Spans are aggregated as they close (calls, busy
seconds, self seconds per name) instead of being stored one by one.

Nothing under ``src/`` is edited: :meth:`Tracer.install` swaps the
attributes in place and :meth:`Tracer.uninstall` puts the originals back,
so the end-to-end runs execute the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable


def _count_fw(tracer: "Tracer", base: str, result, args, kwargs) -> None:
    tracer.add("routing.mcflow.fw_iterations", result.iterations)
    gap = float(result.relative_gap)
    if gap > tracer.gap_tolerance:
        tracer.add("routing.mcflow.uncertified", 1)
    tracer.maximum("routing.mcflow.exit_gap_max", gap)


def _count_sources(tracer: "Tracer", base: str, result, args, kwargs) -> None:
    indices = kwargs.get("indices")
    tracer.add(f"{base}.sources", 1 if indices is None else len(indices))


def _count_attr(attr: str, stat: str) -> Callable:
    def hook(tracer: "Tracer", base: str, result, args, kwargs) -> None:
        value = getattr(result, attr)
        tracer.add(f"{base}.{stat}", value if isinstance(value, int) else len(value))

    return hook


#: (span name, "module" or "module:Class", attribute, result hook).
#: Functions imported by name are wrapped where the caller looks them up
#: (e.g. ``solve_relaxation`` as bound in ``repro.core.dcfsr``).
PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("traces.replay.run", "repro.traces.replay:ReplayEngine", "run", None),
    ("traces.replay.commit", "repro.traces.replay:WindowAccountant", "commit", None),
    ("traces.replay.finalize", "repro.traces.replay:WindowAccountant", "finalize", None),
    (
        "traces.replay.background_profile",
        "repro.traces.replay:WindowAccountant",
        "background_profile",
        None,
    ),
    (
        "traces.policies.schedule_window",
        "repro.traces.policies:RelaxationRoundingPolicy",
        "schedule_window",
        None,
    ),
    (
        "traces.policies.schedule_window",
        "repro.traces.policies:OnlineDensityPolicy",
        "schedule_window",
        None,
    ),
    ("core.dcfsr.pipeline_solve", "repro.core.dcfsr:RelaxationPipeline", "solve", None),
    ("core.dcfsr.weights", "repro.core.dcfsr:RelaxationPipeline", "weights", None),
    (
        "core.dcfsr.solve_dcfsr",
        "repro.core.dcfsr",
        "solve_dcfsr",
        _count_attr("attempts", "attempts"),
    ),
    (
        "core.relaxation.solve_relaxation",
        "repro.core.dcfsr",
        "solve_relaxation",
        _count_attr("intervals", "intervals"),
    ),
    ("routing.mcflow.session_solve", "repro.routing.mcflow:RelaxationSession", "solve", _count_fw),
    ("routing.mcflow.fw_solve", "repro.routing.mcflow:FrankWolfeSolver", "solve", _count_fw),
    ("routing.mcflow.dijkstra", "repro.routing.mcflow", "dijkstra", _count_sources),
    (
        "routing.background.mean_over",
        "repro.routing.background:BackgroundProfile",
        "mean_over",
        None,
    ),
    ("routing.rounding.sample_paths", "repro.traces.policies", "sample_paths", None),
    ("routing.rounding.sample_paths", "repro.core.dcfsr", "sample_paths", None),
    ("routing.rounding.aggregate", "repro.core.dcfsr", "aggregate_path_weights_array", None),
    ("routing.fastpath.route", "repro.routing.fastpath:FastRouter", "route", None),
    ("routing.fastpath.set_marginal", "repro.routing.fastpath:FastRouter", "set_marginal", None),
    ("routing.fastpath.ledger_loads", "repro.routing.fastpath:LoadLedger", "loads", None),
    ("routing.fastpath.ledger_commit", "repro.routing.fastpath:LoadLedger", "commit", None),
    ("core.dcfs.solve_dcfs", "repro.core.dcfs", "solve_dcfs", _count_attr("rounds", "rounds")),
    ("scheduling.edf.edf_schedule", "repro.core.dcfs", "edf_schedule", None),
    ("scheduling.yds.critical_interval", "repro.core.dcfs", "critical_interval_arrays", None),
    ("scheduling.yds.critical_interval", "repro.core.dcfs", "critical_interval_reference", None),
    ("scheduling.schedule.energy", "repro.scheduling.schedule:Schedule", "energy", None),
)

#: Spans whose self time is the harness around the layers, not a layer:
#: excluded from the coverage in :meth:`Tracer.snapshot`.
LOOP_SPANS = ("traces.replay.run",)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Aggregated spans and counters for the probed layer boundaries."""

    def __init__(self, gap_tolerance: float) -> None:
        self.gap_tolerance = gap_tolerance
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(self, name, result, args, kwargs)
            return result

        return probe

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("probes already installed")
        for name, target, attr, hook in PROBES:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self, wall: float) -> dict:
        """Everything recorded since :meth:`reset`, for a unit that took
        ``wall`` seconds.  ``coverage`` is the share of ``wall`` spent
        inside a probed layer (self time of every span except the engine
        loop's own)."""
        inside = sum(
            t for name, t in self.self_time.items() if name not in LOOP_SPANS
        )
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "coverage": inside / wall,
        }

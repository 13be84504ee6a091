"""Spans around calls into the program, installed from outside it.

A ``Tracer`` replaces chosen functions and methods of the ``poolsim`` modules
with timing wrappers for the length of a ``with`` block and puts the
originals back when it ends.  Each wrapper records its calls, its total
(inclusive) time and its self time: the total less the time of the wrapped
calls made inside it.  Wrappers are installed where the callers look the
names up, so a function imported by name into another module is wrapped in
that module.

``EpochClock`` is the one wrapper the untraced run keeps: it times each
scheduling epoch, a few hundred calls per simulated period.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from poolsim import analysis, insertion, model, roadnet, scheduler, simulator

_MISSING = object()


class _Patches:
    """Attribute replacements undone, last first, when the block ends."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        # read through __dict__ so a class attribute is restored exactly as
        # it was defined, not as the bound form getattr would return
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no attribute {attr!r}")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class EpochClock(_Patches):
    """Wall time of every scheduling epoch, in seconds, in call order."""

    def __init__(self) -> None:
        super().__init__()
        self.epoch_s: list[float] = []

    def _timed(self, fn: Callable) -> Callable:
        record = self.epoch_s.append
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            record(clock() - t0)
            return out

        return wrapper

    def __enter__(self) -> "EpochClock":
        self._patch(simulator, "psap_epoch", self._timed)
        self._patch(simulator, "es_epoch", self._timed)
        return self


class Tracer(_Patches):
    def __init__(self) -> None:
        super().__init__()
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.feasible = 0
        self.row_build_s = 0.0
        self._rows_seen = 0
        self._stack: list[float] = []

    def _span(self, name: str,
              on_done: Callable[[object, float], None] | None = None,
              ) -> Callable[[Callable], Callable]:
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    calls[name] += 1
                    total_s[name] += dt
                    self_s[name] += dt - child
                    if stack:
                        stack[-1] += dt
                if on_done is not None:
                    on_done(out, dt)
                return out

            return wrapper

        return make

    def _row_query_done(self, _out, dt: float) -> None:
        # a query that made the network run Dijkstra is the first query of
        # its source, and its whole time goes to building that row
        built = self.calls["roadnet.dijkstra"]
        if built != self._rows_seen:
            self._rows_seen = built
            self.row_build_s += dt

    def _evaluate_done(self, cand, _dt) -> None:
        if cand.cost != insertion.INFEASIBLE:
            self.feasible += 1

    def __enter__(self) -> "Tracer":
        span = self._span
        net = roadnet.RoadNetwork
        row_done = self._row_query_done
        self._patch(roadnet, "dijkstra", span("roadnet.dijkstra"))
        self._patch(net, "dists_from", span("roadnet.dists_from", row_done))
        self._patch(net, "shortest_dist",
                    span("roadnet.shortest_dist", row_done))
        self._patch(net, "shortest_path_nodes", span("roadnet.route", row_done))
        self._patch(roadnet, "load_network", span("roadnet.load_network"))
        self._patch(model, "load_requests", span("model.load_requests"))
        self._patch(scheduler, "VehicleTrial", span("insertion.trial"))
        self._patch(insertion.VehicleTrial, "evaluate",
                    span("insertion.evaluate", self._evaluate_done))
        self._patch(scheduler, "gate", span("scheduler.gate"))
        self._patch(scheduler, "furthest_psa", span("scheduler.psa_refresh"))
        self._patch(simulator, "psap_epoch", span("scheduler.epoch"))
        self._patch(simulator, "es_epoch", span("scheduler.epoch"))
        self._patch(simulator, "advance_vehicle", span("simulator.advance"))
        self._patch(simulator, "traffic_metrics",
                    span("analysis.traffic_metrics"))
        self._patch(simulator, "run", span("simulator.run"))
        self._patch(simulator, "write_report_files",
                    span("simulator.write_report"))
        self._patch(analysis, "eta_monte_carlo", span("analysis.eta"))
        return self

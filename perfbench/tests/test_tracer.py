"""The traced run wraps the program only while it runs and changes no output."""

import pytest

import tracer
import workloads as wl
from inputs import GridCity
from tracer import EpochClock, Tracer

SMALL = GridCity(nx=8, ny=8, spacing_km=0.5, vehicles=4, requests=24,
                 duration_s=900.0, min_trip_km=1.0)

PATCHED = [
    (tracer.roadnet, "dijkstra"),
    (tracer.roadnet.RoadNetwork, "dists_from"),
    (tracer.roadnet.RoadNetwork, "shortest_dist"),
    (tracer.roadnet.RoadNetwork, "shortest_path_nodes"),
    (tracer.roadnet, "load_network"),
    (tracer.model, "load_requests"),
    (tracer.scheduler, "VehicleTrial"),
    (tracer.insertion.VehicleTrial, "evaluate"),
    (tracer.scheduler, "gate"),
    (tracer.scheduler, "furthest_psa"),
    (tracer.simulator, "psap_epoch"),
    (tracer.simulator, "es_epoch"),
    (tracer.simulator, "advance_vehicle"),
    (tracer.simulator, "traffic_metrics"),
    (tracer.simulator, "run"),
    (tracer.simulator, "write_report_files"),
    (tracer.analysis, "eta_monte_carlo"),
]


def _attrs():
    return [vars(owner)[attr] for owner, attr in PATCHED]


@pytest.mark.parametrize("probe", [Tracer, EpochClock])
def test_wrappers_are_installed_then_removed(probe):
    before = _attrs()
    with probe():
        during = _attrs()
    after = _attrs()
    assert all(a is b for a, b in zip(before, after))
    changed = sum(a is not b for a, b in zip(before, during))
    assert changed == (len(PATCHED) if probe is Tracer else 2)


def test_wrappers_are_removed_when_the_round_raises():
    before = _attrs()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(before, _attrs()))


@pytest.mark.parametrize("scheduler,gating", [("psap", "inclusive"),
                                              ("es", "literal")])
def test_traced_round_writes_identical_reports(tmp_path, scheduler, gating):
    w = wl.SimWorkload(SMALL, 2, scheduler, gating)
    with EpochClock() as clock:
        plain = wl.sim_round(w, 9, str(tmp_path / "plain"))
    with Tracer() as t:
        traced = wl.sim_round(w, 9, str(tmp_path / "traced"))
    assert traced.digests == plain.digests
    for a, b in zip(plain.report_dirs, traced.report_dirs):
        for name in wl.REPORT_FILES:
            assert (tmp_path / a / name).read_bytes() == \
                (tmp_path / b / name).read_bytes()
    # the spans saw what the reports count
    outcomes = wl.sim_outcomes(traced)
    assert t.calls["insertion.evaluate"] == \
        outcomes["scheduler.candidates_evaluated"]
    assert t.calls["scheduler.epoch"] == len(clock.epoch_s)
    assert t.calls["simulator.run"] == 2
    assert t.self_s["scheduler.epoch"] < t.total_s["scheduler.epoch"]
    if scheduler == "es":
        assert t.calls["scheduler.gate"] == 0


def test_traced_eta_round_gives_identical_estimates():
    plain, a = wl.eta_round(4, samples=5_000)
    with Tracer() as t:
        traced, b = wl.eta_round(4, samples=5_000)
    assert a == b and plain.digests == traced.digests
    assert t.calls["analysis.eta"] == wl.ETA_UNIONS + wl.ETA_SINGLES

"""Tests of the benchmark's tracer and its run modes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.campaign.spec import SolverKnobs  # noqa: E402
from tracer import METRIC_NAME, Tracer, is_wrapped  # noqa: E402


class FakeClock:
    """A clock that only moves when a test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("outer")          # t=0
    clock.now = 1.0
    tracer.enter("inner")          # t=1
    clock.now = 2.0
    tracer.enter("leaf")           # t=2
    clock.now = 3.5
    tracer.exit()                  # leaf: 1.5
    clock.now = 4.0
    tracer.exit()                  # inner: 3.0 total, 1.5 self
    clock.now = 5.0
    tracer.enter("inner")          # t=5
    clock.now = 6.0
    tracer.exit()                  # inner: 1.0
    clock.now = 10.0
    tracer.exit()                  # outer: 10 total, 10 - 3 - 1 = 6 self
    layers_snapshot, _ = tracer.snapshot()
    assert layers_snapshot == {"outer": (1, 6.0), "inner": (2, 2.5),
                               "leaf": (1, 1.5)}
    # Self times partition the outer span exactly.
    assert sum(s for _, s in layers_snapshot.values()) == 10.0


def test_wrapped_recursion_and_counters():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Toy:
        def work(self, depth):
            clock.now += 1.0
            if depth:
                self.work(depth - 1)
            clock.now += 1.0
            return depth

    original = vars(Toy)["work"]
    tracer.wrap(Toy, "work", "toy",
                after=lambda t, args, kwargs, result: t.count("toy.depth",
                                                              result))
    assert is_wrapped(vars(Toy)["work"])
    assert Toy().work(2) == 2
    tracer.uninstall()
    assert vars(Toy)["work"] is original
    layers_snapshot, counters = tracer.snapshot()
    # Three nested calls of 2 s of own work each.
    assert layers_snapshot == {"toy": (3, 6.0)}
    assert counters == {"toy.depth": 3.0}


def test_install_then_uninstall_restores_every_original():
    before = {(id(owner), attr): vars(owner)[attr]
              for owner, attr, _, _ in layers.targets()}
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert len(layers.wrapped_targets()) == len(before)
    finally:
        tracer.uninstall()
    assert layers.wrapped_targets() == []
    for owner, attr, _, _ in layers.targets():
        assert vars(owner)[attr] is before[(id(owner), attr)]


def test_every_layer_has_a_target():
    traced = {layer for _, _, layer, _ in layers.targets()}
    assert traced == set(layers.LAYERS)


@pytest.fixture
def tiny(monkeypatch):
    """A campaign workload of a few milliseconds per pass, with the
    minimum-sample rule shrunk to match."""
    monkeypatch.setattr(workloads, "MIN_WARM_JOBS", 10)
    monkeypatch.setattr(workloads, "MIN_COLD_JOBS", 2)
    monkeypatch.setattr(workloads, "SAMPLES_BEYOND", 1)
    monkeypatch.setattr(workloads, "SETUP_EVERY_S", 0.0)
    monkeypatch.setattr(workloads, "WARM_REPASSES", 2)
    return workloads.CampaignWorkload(
        name="tiny", matrix="laplacian2d:8", methods=("FEIR", "AFEIR"),
        rates=(5.0,), min_trials=10,
        knobs=SolverKnobs(tolerance=1e-8, max_iterations=500, page_size=16))


class Spy:
    """Delegates to a workload and records, at every pass, which
    targets carry a tracer wrapper."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run_pass(self, ctx, seed, tally):
        self.seen.append(layers.wrapped_targets())
        self.inner.run_pass(ctx, seed, tally)


def test_untraced_run_has_no_wrapper_active(tiny, tmp_path):
    spy = Spy(tiny)
    metrics, tally, _ = run.run_untraced(spy, seed=3, seconds=0.0,
                                         work=tmp_path)
    assert spy.seen and all(wrapped == [] for wrapped in spy.seen)
    assert tally.failures == []
    assert all(value > 0 for value in metrics.values())


def test_probe_restores_the_garbage_collector():
    assert gc.isenabled()
    assert calibrate.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_untraced_guard_flags_an_installed_wrapper():
    tracer = Tracer()
    layers.install(tracer)
    try:
        tally = workloads.Tally()
        run.untraced_guard(tally)
    finally:
        tracer.uninstall()
    assert len(tally.failures) == 1


def test_traced_run_removes_wrappers_and_repeats_counts(tiny, tmp_path):
    spy = Spy(tiny)
    metrics, tally, report = run.run_traced(spy, seed=3, seconds=0.0,
                                            work=tmp_path)
    assert layers.wrapped_targets() == []
    assert tally.failures == []
    # Untraced passes first, then traced ones.
    assert spy.seen[0] == [] and spy.seen[-1] != []
    assert report["work_counts"]["solvers.iterations"] > 0
    assert metrics["runtime.scheduler.calls"] > 0


def test_metric_names_match_the_allowed_pattern(tiny, tmp_path):
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in contract[key]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    untraced, _, _ = run.run_untraced(tiny, seed=3, seconds=0.0,
                                      work=tmp_path / "a")
    traced, _, _ = run.run_traced(tiny, seed=3, seconds=0.0,
                                  work=tmp_path / "b")
    emitted = set(untraced) | set(traced)
    assert all(METRIC_NAME.fullmatch(n) for n in emitted)
    assert {m["name"] for m in contract["end_to_end"]} <= set(untraced)
    assert {m["name"] for m in contract["per_layer"]} <= set(traced)


def test_a_campaign_that_raises_is_a_failed_check(tiny, monkeypatch):
    def diverge(*args, **kwargs):
        raise ValueError("array must not contain infs or NaNs")

    monkeypatch.setattr(workloads, "run_campaign", diverge)
    tally = workloads.Tally()
    tiny.run_pass({"store": None}, seed=1, tally=tally)
    assert tally.attempted == 1
    assert "infs or NaNs" in tally.failures[0]

import itertools
import threading

import pytest

import run
import tracing


@pytest.fixture
def clock(monkeypatch):
    """perf_counter advancing by exactly 1.0 per read."""
    ticks = itertools.count()
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))


def _totals(rec):
    out = {}
    for spans in rec.threads:
        for s in spans:
            a = out.setdefault(s[tracing.NAME], [0, 0.0, 0.0])
            a[0] += 1
            a[1] += s[tracing.T1] - s[tracing.T0]
            a[2] += s[tracing.T1] - s[tracing.T0] - s[tracing.CHILD]
    return out


def test_self_time_is_duration_minus_children(clock):
    rec = tracing.Recorder()
    leaf = rec.wrap(lambda: None, "leaf")
    mid = rec.wrap(lambda: (leaf(), leaf()), "mid")
    top = rec.wrap(lambda: (mid(), leaf()), "top")
    top()
    t = _totals(rec)
    # every read of the clock advances it by one: a leaf lasts 1, mid holds
    # two leaves and the gaps between them (5), top holds mid and a leaf
    assert t["leaf"] == [3, 3.0, 3.0]
    assert t["mid"] == [1, 5.0, 3.0]
    assert t["top"] == [1, 9.0, 3.0]


def test_disabled_recorder_records_nothing(clock):
    rec = tracing.Recorder()
    f = rec.wrap(lambda x: x + 1, "f")
    rec.enabled = False
    assert f(1) == 2
    assert rec.threads == []


def test_other_threads_hold_root_spans():
    rec = tracing.Recorder()
    leaf = rec.wrap(lambda: None, "leaf")

    def fan_out():
        workers = [threading.Thread(target=leaf) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    rec.wrap(fan_out, "batch")()
    roots = [s for spans in rec.threads for s in spans if s[tracing.PARENT] < 0]
    assert sorted(s[tracing.NAME] for s in roots) == ["batch", "leaf", "leaf", "leaf"]
    batch = next(s for s in roots if s[tracing.NAME] == "batch")
    assert batch[tracing.CHILD] == 0.0


def _stats(names, installed, nested=None, values=None, hook_failed=()):
    return {"names": names, "installed": installed, "nested": nested or {},
            "values": values or {}, "hook_failed": list(hook_failed), "spans": 1}


def test_removed_name_is_absent_and_unreached_name_is_zero():
    stats = _stats(
        {"dispersion.spherical_op": {"calls": 4, "dur_s": 2.0, "self_s": 1.0, "points": 0},
         "dispersion.principal_value_op": {"calls": 2, "dur_s": 3.0, "self_s": 0.5,
                                           "points": 0}},
        installed=["dispersion.spherical_op", "dispersion.principal_value_op",
                   "geometry.chart"],
        nested={"dispersion.spherical_op<dispersion.principal_value_op": 3})
    m = run.layer_metrics(run.Operation(1.0, 1.0, stats=stats), 0.1)
    assert "geometry.ewald_nodes.calls" not in m
    assert m["geometry.chart.calls"] == (0, "count")
    assert m["dispersion.spherical_op.us_per_call"] == (0.5e6, "us")
    assert m["dispersion.principal_value_op.s_per_pv"] == (1.5, "count")


def test_failed_hook_leaves_its_metrics_out():
    rec = tracing.Recorder()
    # the hook reads the field from args[0]; a keyword call breaks it
    fourier = rec.wrap(lambda field=None: field, "spectral.fourier",
                       points=tracing._fourier_bytes)
    assert fourier(field="f") == "f"
    assert rec.hook_failed == {"spectral.fourier.points"}
    stats = _stats(
        {"spectral.fourier": {"calls": 1, "dur_s": 1.0, "self_s": 1.0, "points": 0}},
        installed=["spectral.fourier"], hook_failed=sorted(rec.hook_failed))
    m = run.layer_metrics(run.Operation(1.0, 1.0, stats=stats), 0.1)
    assert "spectral.fourier.bytes_computed" not in m
    assert m["spectral.fourier.calls"] == (1, "count")


def test_warning_groups_mask_numbers():
    text = ("WARNING borndisp.dispersion: PV tail estimate 1.5e-06 exceeds 1e-3\n"
            "WARNING borndisp.dispersion: PV tail estimate 2.25e-07 exceeds 1e-3\n"
            "dispersion-ray: 6 samples\n")
    assert run.warning_groups(text) == {
        "WARNING borndisp.dispersion: PV tail estimate # exceeds #": 2}

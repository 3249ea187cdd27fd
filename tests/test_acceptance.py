"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from borndisp import (
    Direction,
    chart,
    gaussian_potential,
    make_grid,
    sphere_rule,
)
from borndisp import bounds, oracle
from borndisp.analysis import fit_decay, lemma52_check
from borndisp.cli import run as cli_run
from borndisp.dispersion import CutoffSpec, PVParams, b_theta2, q_full2_hat


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_chart_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3):
        for _ in range(1000):
            theta = Direction.normalized(rng.normal(size=n))
            eta = rng.normal(size=n) * rng.uniform(0.05, 30.0)
            if float(eta @ theta.components) >= 0:
                eta = -eta
            if float(eta @ theta.components) == 0.0:
                continue
            ch = chart(eta, theta)
            recon = ch.k * (ch.theta_prime.components - theta.components)
            err = np.linalg.norm(recon - eta) / np.linalg.norm(eta)
            unit = abs(np.linalg.norm(ch.theta_prime.components) - 1.0)
            worst = max(worst, err, unit)
            if 2.0 * ch.k < np.linalg.norm(eta) * (1 - 1e-12):
                worst = np.inf
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "chart round trip", ok,
            f"max error {worst:.3e}, {elapsed:.2f}s over 2000 trips")


def test_criterion_02_gbeta_decay(gbeta3):
    start = time.monotonic()
    prof = gbeta3.fourier_profile
    mask = (prof.radii >= 8.0) & (prof.radii <= 25.0)
    fit = fit_decay(list(zip(prof.radii[mask], prof.values[mask])), (8.0, 25.0))
    nonneg = gbeta3.meta["ghat_min"] >= -1e-8 * gbeta3.meta["ghat_zero"]
    elapsed = time.monotonic() - start
    ok = abs(fit.exponent - (-2.5)) <= 0.1 and nonneg and elapsed < 60.0
    _report(2, "g_beta decay", ok,
            f"exponent {fit.exponent:.4f} (target -2.5 +/- 0.1), "
            f"min ghat {gbeta3.meta['ghat_min']:.2e}, {elapsed:.1f}s")


def test_criterion_03_operator_oracle(gauss2, theta2, gauss3, theta3):
    start = time.monotonic()
    worst = 0.0
    for t in (3.0, 5.0, 8.0):
        eta = np.array([t, 0.0])
        ref = oracle.brute_b_theta2(gauss2, theta2, eta)
        lib = b_theta2(gauss2, theta2, eta, 4)
        worst = max(worst, abs(lib - ref) / abs(ref))
    worst3 = 0.0
    for t in (3.0, 5.0, 8.0):
        eta = np.array([t, 1.0, 0.5])
        ref = oracle.gaussian_b_theta2(0.5, theta3, eta)
        lib = b_theta2(gauss3, theta3, eta, 4)
        worst3 = max(worst3, abs(lib - ref) / abs(ref))
    elapsed = time.monotonic() - start
    ok = worst <= 0.05 and worst3 <= 0.05 and elapsed < 300.0
    _report(3, "operator oracle equivalence", ok,
            f"worst relative error n=2 {worst:.2e}, n=3 {worst3:.2e} (tol 5%), "
            f"{elapsed:.1f}s")


def test_criterion_04_pv_machinery():
    from borndisp.dispersion import principal_value_op

    value = principal_value_op(lambda r: np.exp(-((1.0 - r) ** 2)),
                               PVParams(delta=0.5, inner_nodes=64))
    target = -0.5 * oracle.exp1_series(1.0)
    err = abs(value.real - target)
    ok = err <= 1e-6
    _report(4, "PV machinery", ok,
            f"value {value.real:.9f} vs -E1(1)/2 = {target:.9f}, err {err:.2e}")


def test_criterion_05_ray_decay_threshold(gbeta3, theta3, gbeta2, theta2):
    start = time.monotonic()
    v3, _ = lemma52_check(gbeta3, 1.0, theta3, 0.5, (8.0, 48.0), 4,
                          direction=-theta3.components, samples=16)
    v2, _ = lemma52_check(gbeta2, 1.0, theta2, 0.5, (8.0, 48.0), 4,
                          direction=-theta2.components, samples=16)
    elapsed = time.monotonic() - start
    ok = v3.passed and v2.passed and elapsed < 600.0
    _report(5, "ray decay threshold", ok,
            f"n=3: {v3.details}; n=2: {v2.details}; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def gain_scan_cli_runs(tmp_path_factory):
    """The criterion-6 gain-scan experiment, run twice through the CLI
    (the pair also feeds the determinism criterion)."""
    base = tmp_path_factory.mktemp("gain")
    cfg = {
        "experiment": "gain-scan", "n": 3, "beta": 1.0,
        "bump_radius": 2.0, "grid": {"N": 256, "L": 16.0},
        "theta": [-1.0, 0.0, 0.0], "alphas": [1.7, 2.3],
        "levels": [24.0, 48.0, 96.0], "rule_level": 4,
    }
    outs = []
    for i in (1, 2):
        out = base / f"run{i}"
        cfg_path = base / f"cfg{i}.json"
        cfg_path.write_text(json.dumps({**cfg, "out_dir": str(out)}))
        assert cli_run(str(cfg_path)) == 0
        outs.append(out)
    return outs


def test_criterion_06_gain_trend(gain_scan_cli_runs):
    start = time.monotonic()
    scans = json.loads((gain_scan_cli_runs[0] / "gain_scan.json").read_text())
    by_alpha = {s["alpha"]: s["growth_ratios"] for s in scans}
    saturating = by_alpha[1.7][-1] <= 1.1
    growing = all(r >= 1.15 for r in by_alpha[2.3])
    ok = saturating and growing
    _report(6, "gain trend surrogate", ok,
            f"alpha=1.7 ratios {['%.4f' % r for r in by_alpha[1.7]]} (final <= 1.1), "
            f"alpha=2.3 ratios {['%.4f' % r for r in by_alpha[2.3]]} (all >= 1.15)")


def test_criterion_07_trace_constant():
    q = gaussian_potential(0.5, make_grid(3, 64, 16.0))
    ratio = oracle.trace_ratio(q, 1.0)
    target = (4 * np.pi / np.e) / (2.5 * np.pi**1.5)
    specific_ok = abs(ratio - target) <= 1e-3

    # the numerator by the level-4 sphere rule on the exact mixture, checked
    # against level 5; the denominator in closed form
    rng = np.random.default_rng(3)
    rules = (sphere_rule(3, 4), sphere_rule(3, 5))
    worst = rule_err = 0.0
    for _ in range(12):
        centers = rng.normal(scale=1.0, size=(3, 3))
        amps = rng.uniform(0.3, 1.5, size=3)
        widths = rng.uniform(0.5, 2.0, size=3)

        def f(x):
            return sum(a * np.exp(-w * np.sum((x - c) ** 2, axis=-1))
                       for a, c, w in zip(amps, centers, widths))

        energy = oracle.gaussian_mixture_h1(amps, centers, widths)
        for rho in (0.5, 1.0, 2.0, 4.0):
            numer, finer = (rho**2 * np.dot(r.weights, np.abs(f(rho * r.nodes)) ** 2)
                            for r in rules)
            rule_err = max(rule_err, abs(numer - finer) / finer)
            worst = max(worst, numer / energy)
    ok = specific_ok and worst <= 1.0 + 1e-6 and rule_err <= 1e-12
    _report(7, "trace constant", ok,
            f"gaussian ratio {ratio:.4f} vs {target:.4f}, "
            f"worst mixture ratio {worst:.4f} (<= 1), "
            f"sphere rule level 4 vs 5 {rule_err:.1e} (<= 1e-12)")


def test_criterion_08_sphere_kernel_bound():
    triv1 = oracle.sphere_kernel_bound([0.3, 0.2, 2.0], 1.0, 1.0, 3, 3)
    triv2 = oracle.sphere_kernel_bound([0.0, 0.0, 0.0], 2.0, 0.5, 3, 3)
    trivial_ok = (abs(triv1 - 4 * np.pi) <= 1e-10
                  and abs(triv2 - 4 * np.pi) <= 1e-10)
    stable_ok = True
    detail = []
    for n in (2, 3):
        rng = np.random.default_rng(7)
        xs = [rng.normal(size=n) * rng.uniform(0.2, 2.0) for _ in range(100)]
        for lam in (0.25, 0.5, (n - 1) / 2.0):
            maxes = []
            for lev in (3, 4):
                maxes.append(max(oracle.sphere_kernel_bound(x, 1.0, lam, n, lev)
                                 for x in xs))
            change = abs(maxes[1] - maxes[0]) / maxes[0]
            stable_ok = stable_ok and change <= 0.02
            detail.append(f"n={n},lam={lam:g}: {change:.1e}")
    ok = trivial_ok and stable_ok
    _report(8, "sphere-kernel bound", ok,
            f"trivial {triv1:.6f}/{triv2:.6f} vs 4pi; changes {'; '.join(detail)}")


def test_criterion_09_bound_calculators():
    checks = [
        (bounds.m_threshold(3), 0.0),
        (bounds.m_threshold(5), 5.0 / 6.0),
        (bounds.alpha_j(3, 1.0, 2), 4.0 / 3.0),
        (bounds.alpha_j(3, 1.0, 3), 13.0 / 6.0),
        (bounds.thm11_max(3, 1.0), 2.0),
        (bounds.thm11_max(5, 1.0), 1.5),
        (bounds.alpha0(3, 1.0), 2.0),
    ]
    worst = max(abs(a - b) for a, b in checks)
    ok = worst <= 1e-15
    _report(9, "bound calculators", ok, f"max deviation {worst:.1e}")


def test_criterion_10_qfull_radiality(gauss2):
    start = time.monotonic()
    cut = CutoffSpec()
    theta_rule = sphere_rule(2, 5)
    v0 = q_full2_hat(gauss2, np.array([4.0, 0.0]), theta_rule, 4, cut)
    a = np.deg2rad(73.0)
    v1 = q_full2_hat(gauss2, 4.0 * np.array([np.cos(a), np.sin(a)]),
                     theta_rule, 4, cut)
    rel = abs(abs(v0) - abs(v1)) / abs(v0)
    elapsed = time.monotonic() - start
    ok = rel <= 1e-4
    _report(10, "Q_F radiality", ok,
            f"|Q| at 0/73 degrees: {abs(v0):.8f}/{abs(v1):.8f}, "
            f"rel diff {rel:.2e}, {elapsed:.1f}s")


def test_criterion_11_determinism(gain_scan_cli_runs, tmp_path):
    # criterion 3 config: dispersion ray, repeated runs
    ray_csvs = []
    for i in (1, 2):
        out = tmp_path / f"ray{i}"
        cfg = tmp_path / f"ray{i}.json"
        cfg.write_text(json.dumps({
            "experiment": "dispersion-ray", "n": 2, "a": 0.5,
            "theta": [-1.0, 0.0],
            "ray": {"direction": [1.0, 0.0], "t_min": 3.0, "t_max": 8.0,
                    "count": 3},
            "out_dir": str(out),
        }))
        assert cli_run(str(cfg)) == 0
        ray_csvs.append((out / "dispersion_ray.csv").read_bytes())
    ray_ok = ray_csvs[0] == ray_csvs[1]

    # criterion 5 config: lemma52, repeated runs
    lemma_csvs = []
    for i in (1, 2):
        out = tmp_path / f"lem{i}"
        cfg = tmp_path / f"lem{i}.json"
        cfg.write_text(json.dumps({
            "experiment": "lemma52", "n": 2, "beta": 1.0,
            "grid": {"N": 256, "L": 16.0}, "theta": [-1.0, 0.0],
            "ray": {"direction": [1.0, 0.0], "t_min": 8.0, "t_max": 48.0,
                    "count": 16},
            "out_dir": str(out),
        }))
        assert cli_run(str(cfg)) == 0
        lemma_csvs.append((out / "lemma52_samples.csv").read_bytes())
    lemma_ok = lemma_csvs[0] == lemma_csvs[1]

    # criterion 6 config: the two gain-scan runs from the shared fixture
    gain_ok = ((gain_scan_cli_runs[0] / "gain_scan.csv").read_bytes()
               == (gain_scan_cli_runs[1] / "gain_scan.csv").read_bytes())
    ok = ray_ok and lemma_ok and gain_ok
    _report(11, "determinism", ok,
            f"ray CSV identical: {ray_ok}, lemma CSV identical: {lemma_ok}, "
            f"gain CSV identical: {gain_ok}")

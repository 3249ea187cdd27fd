import numpy as np
import pytest

from borndisp.analysis import (
    RayOutsideCone,
    fit_decay,
    gain_scan,
    lemma52_check,
)
from borndisp.dispersion import CutoffSpec
from borndisp.geometry import Direction


def test_fit_decay_exact_power_law():
    ts = np.geomspace(1.0, 100.0, 30)
    fit = fit_decay([(t, t**-2) for t in ts], (1.0, 100.0))
    assert fit.exponent == pytest.approx(-2.0, abs=1e-10)
    assert fit.residual < 1e-10


def test_fit_decay_bessel_weighted():
    ts = np.geomspace(8.0, 64.0, 20)
    fit = fit_decay([(t, 5.0 * (1 + t**2) ** -1.25) for t in ts], (8.0, 64.0))
    assert fit.exponent == pytest.approx(-2.5, abs=0.02)


def test_fit_decay_perturbed():
    ts = np.geomspace(2.0, 200.0, 60)
    fit = fit_decay([(t, t**-2 * (1 + 0.1 * np.sin(t))) for t in ts], (2.0, 200.0))
    assert fit.exponent == pytest.approx(-2.0, abs=0.05)
    assert fit.residual > 0


def test_fit_decay_requires_samples():
    ts = np.geomspace(1.0, 10.0, 5)
    with pytest.raises(ValueError):
        fit_decay([(t, t**-1) for t in ts], (1.0, 10.0))


def test_fit_decay_drops_nonpositive():
    ts = np.geomspace(1.0, 100.0, 20)
    samples = [(t, t**-2) for t in ts]
    samples[3] = (samples[3][0], 0.0)
    fit = fit_decay(samples, (1.0, 100.0))
    assert fit.sample_count == 19


def test_lemma52_thresholds(gbeta2, theta2):
    verdict, data = lemma52_check(
        gbeta2, 1.0, theta2, 0.5, (8.0, 48.0), 4, CutoffSpec(),
        direction=-theta2.components, samples=16
    )
    assert verdict.passed
    assert "threshold -3.1500" in verdict.details
    assert len(data) == 16
    d = verdict.to_dict()
    assert d["pass"] is True and d["margin"] > 0


def test_lemma52_ray_guard(gbeta2, theta2):
    with pytest.raises(RayOutsideCone):
        lemma52_check(gbeta2, 1.0, theta2, 0.9, (8.0, 48.0), 4,
                      CutoffSpec(), direction=[0.3, 1.0])


def test_gain_scan_alpha_monotone(gauss2, theta2):
    scans = gain_scan(gauss2, theta2, [0.0, 1.0, 2.0], [6.0, 12.0, 24.0],
                      CutoffSpec(), rule_level=3)
    # at each extent the weighted norm is nondecreasing in alpha
    for lev in range(3):
        by_alpha = [s.levels[lev][1] for s in scans]
        assert np.all(np.diff(by_alpha) >= 0)
    # alpha = 0 saturates for a Schwartz-class potential
    assert scans[0].growth_ratios[-1] <= 1.1


def test_gain_scan_rejects_level_below_radial_step(gauss2, theta2):
    # a level below the first sampled radius has no partial sum of its own
    with pytest.raises(ValueError, match="level 1 "):
        gain_scan(gauss2, theta2, [0.0], [1.0, 4.0, 8.0], CutoffSpec())
    # nor does one below the first radius past C0, where |Q| is 0: its norm
    # is 0, and the growth ratio after it divided by that 0
    with pytest.raises(ValueError, match="level 2 .* C0 = 2"):
        gain_scan(gauss2, theta2, [0.0], [2.0, 4.0, 8.0], CutoffSpec(C0=2.0))


def test_radial_plan_caps_the_radii():
    from borndisp.analysis import MAX_RADII, RADIAL_STEP, radial_plan

    top = MAX_RADII * RADIAL_STEP
    radii, levels = radial_plan([top, 4.0, 8.0], CutoffSpec())
    assert radii.size == MAX_RADII and radii[-1] == top and levels == [4.0, 8.0, top]
    with pytest.raises(ValueError, match="needs more than"):
        radial_plan([4.0, 8.0, top + RADIAL_STEP], CutoffSpec())


@pytest.mark.parametrize("case", ["gauss2", "gauss3"])
def test_gain_scan_cutoff_edge_row_is_zero(case, request, monkeypatch):
    # chi is taken at the radius t, not at |t d|, which rounds above C0 for
    # some directions: the t = C0 row is exactly 0 and reads no B
    from borndisp import analysis

    q = request.getfixturevalue(case)
    n = q.dimension
    seen = []
    bipolar_b = analysis.bipolar_b

    def recording(q, e, *args, **kwargs):
        seen.append(np.atleast_1d(e))
        return bipolar_b(q, e, *args, **kwargs)

    monkeypatch.setattr(analysis, "bipolar_b", recording)
    theta = Direction.normalized([0.3, -1.0, 0.4][:n])
    ts = np.array([1.0, 2.0, 4.0])
    qsq, _ = analysis._polar_samples(q, theta, ts, CutoffSpec(C0=2.0), 3)
    assert np.all(qsq[:2] == 0.0) and np.all(qsq[2] > 0.0)
    radii = np.concatenate(seen)
    assert radii.size == analysis.POLAR_NODES and np.all(radii > 3.9)

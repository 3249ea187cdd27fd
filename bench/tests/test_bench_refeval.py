import numpy as np
import pytest

import refeval
from borndisp import Direction, gaussian_potential, make_grid, oracle


@pytest.fixture(scope="module")
def gauss2():
    return gaussian_potential(0.5, make_grid(2, 64, 16.0))


def test_pv_to_inf_matches_exponential_integral():
    value = refeval.pv_to_inf(lambda r: float(np.exp(-((1.0 - r) ** 2))))
    assert value == pytest.approx(-0.5 * oracle.exp1_series(1.0), abs=1e-9)


@pytest.mark.parametrize("eta", [(3.0, 0.0), (5.0, 0.4), (8.0, -1.0)])
def test_b_theta2_matches_brute_force_oracle(gauss2, eta):
    theta = Direction(np.array([-1.0, 0.0]))
    ev = refeval.Evaluator(gauss2.fourier_eval, 2, 512)
    got = ev.b_theta2(theta.components, np.array(eta))
    want = oracle.brute_b_theta2(gauss2, theta, np.array(eta))
    assert abs(got - want) <= 1e-6 * abs(want)


def test_b_theta2_is_rotation_covariant_in_3d():
    q = gaussian_potential(0.5, make_grid(3, 16, 16.0))
    ev = refeval.Evaluator(q.fourier_eval, 3, 32)
    theta = np.array([0.0, 0.0, 1.0])
    eta = np.array([1.5, 0.0, -3.0])
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]) @ np.array(
        [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    a = ev.b_theta2(theta, eta)
    b = ev.b_theta2(rot @ theta, rot @ eta)
    assert abs(a - b) <= 1e-10 * abs(a)


def test_cutoff_matches_program():
    from borndisp.dispersion import CutoffSpec, cutoff_chi

    for t in (1.0, 2.5, 3.0, 3.9, 5.0):
        assert refeval.cutoff(t) == pytest.approx(
            float(cutoff_chi(np.array([t, 0.0, 0.0]), CutoffSpec())), abs=1e-15)

import numpy as np
import pytest

from borndisp.bounds import (
    OutOfRange,
    alpha0,
    alpha_j,
    m_threshold,
    thm11_max,
    thm13_sup,
)


def test_m_threshold():
    assert m_threshold(3) == 0.0
    assert m_threshold(5) == pytest.approx(5.0 / 6.0)
    assert m_threshold(2) == pytest.approx(-1.0 / 3.0)
    with pytest.raises(ValueError):
        m_threshold(1)


def test_alpha_j_values():
    assert alpha_j(3, 1.0, 2) == pytest.approx(4.0 / 3.0)
    assert alpha_j(3, 1.0, 3) == pytest.approx(13.0 / 6.0)
    assert alpha_j(3, 2.0, 2) == pytest.approx(2.5)  # max term vanishes


def test_alpha_j_guards():
    with pytest.raises(ValueError):
        alpha_j(3, 1.0, 1)
    with pytest.raises(OutOfRange):
        alpha_j(5, 0.5, 2)  # below m = 5/6


def test_alpha_j_increasing_in_j():
    for n in (2, 3):
        for beta in (0.5, 1.0, 2.0):
            if beta < max(0.0, m_threshold(n)):
                continue
            vals = [alpha_j(n, beta, j) for j in range(2, 6)]
            assert np.all(np.diff(vals) > 0)


def test_thm_branch_values():
    assert thm11_max(3, 1.0) == pytest.approx(2.0)
    assert thm11_max(5, 1.0) == pytest.approx(1.5)
    assert thm13_sup(3, 1.0) == pytest.approx(2.0)
    assert thm13_sup(3, 0.5) == pytest.approx(1.0)
    assert thm13_sup(3, 0.0) is None
    assert alpha0(3, 1.0) == pytest.approx(2.0)


def test_branch_continuity():
    for n in (2, 3, 5):
        b = (n - 2) / 2.0
        if b >= m_threshold(n):
            assert 2 * b - (n - 4) / 2.0 == pytest.approx(b + 1.0)
        b = (n - 1) / 2.0
        assert 2 * b - (n - 3) / 2.0 == pytest.approx(b + 1.0)


def test_alpha0_dominates_thm13_sup():
    # negative bound dominates the positive range wherever both are defined
    for n in (2, 3, 5):
        for beta in np.linspace(0.0, 4.0, 17):
            sup = thm13_sup(n, float(beta))
            if sup is not None:
                assert alpha0(n, float(beta)) >= sup - 1e-12

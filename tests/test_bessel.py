import mpmath as mp
import numpy as np
import pytest

from bandedge.bessel import bessel_j, j1_over_t
from bandedge.errors import DomainError


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_reference_values():
    # 40-digit references
    assert bessel_j(0, 2.0) == pytest.approx(0.223890779141235668, abs=1e-13)
    assert bessel_j(0, 5.0) == pytest.approx(-0.177596771314338304, abs=1e-13)
    assert bessel_j(1, 5.0) == pytest.approx(-0.327579137591465222, abs=1e-13)


@pytest.mark.parametrize("order", [0, 1])
def test_absolute_accuracy_dense_grid(order):
    # 40-digit references at the exact double arguments, 300 seeded points per
    # range; in the tail, up to x ~ 1e6, reducing the phase x - pi/4 in
    # double precision sets the error
    rng = np.random.default_rng(20 + order)
    for lo, hi, bound in [(0.0, 16.0, 1e-14), (16.0, 2e4, 1e-14), (2e4, 1.2e6, 2e-13)]:
        x = rng.uniform(lo, hi, 300)
        with mp.workdps(40):
            ref = np.array([float(mp.besselj(order, mp.mpf(float(v)))) for v in x])
        assert np.max(np.abs(bessel_j(order, x) - ref)) < bound, (lo, hi)


def test_domain_guards():
    with pytest.raises(DomainError):
        bessel_j(2, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)


def test_j1_over_t_limit():
    assert j1_over_t(0.0) == 1.0
    t = np.array([0.0, 1e-8, 1e-4, 0.1])
    vals = j1_over_t(t)
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(1.0, abs=1e-12)
    # J1(2t)/t = 1 - t^2/2 + ... decreases away from zero
    assert vals[2] == pytest.approx(1.0 - 0.5e-8, abs=1e-12)
    assert vals[3] == pytest.approx(1.0 - 0.005 + 0.1**4 / 12.0, abs=1e-8)


def test_j1_over_t_divides_in_place():
    # J1(2t)/t on a grid with zeros: the same bits as dividing only the
    # nonzero entries, and exactly 1 at t = 0
    t = np.concatenate([[0.0], np.linspace(0.0, 40.0, 801), [0.0, 1e-300, 6e5]])
    masked = np.ones_like(t)
    nz = t != 0
    masked[nz] = bessel_j(1, 2.0 * t[nz]) / t[nz]
    vals = j1_over_t(t)
    assert vals.tobytes() == masked.tobytes()
    assert np.all(vals[t == 0] == 1.0)

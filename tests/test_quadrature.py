"""The batched adaptive quadrature against a sequential reference.

``_reference_quad`` is the one-integral recursion that ``adaptive_quad``
replaced: a right-first stack of panels, each accepted panel added to a
running total from 0j.  The batch must reproduce it bit for bit, for every
member, whatever else the batch holds.
"""

import re

import numpy as np
import pytest

from bandedge import dynamics, generic
from bandedge.errors import QuadratureError
from bandedge.quadrature import _MAX_PANELS, _leggauss, adaptive_quad

_NODES, _WEIGHTS = _leggauss(15)


def _reference_quad(f, a, b, tol):
    def panel(a, b):
        h = 0.5 * (b - a)
        return h * np.sum(_WEIGHTS * f(0.5 * (a + b) + h * _NODES))

    total = 0.0 + 0.0j
    stack = [(float(a), float(b), panel(a, b), tol, 0)]
    while stack:
        a0, b0, coarse, tol0, depth = stack.pop()
        m = 0.5 * (a0 + b0)
        left, right = panel(a0, m), panel(m, b0)
        fine = left + right
        floor = 1e-14 * (abs(left) + abs(right) + abs(coarse))
        if abs(fine - coarse) <= max(tol0, floor) or (b0 - a0) < 1e-14 * max(1.0, abs(m)):
            total += fine
            continue
        assert depth < 48, "reference stalled"
        stack.append((a0, m, left, 0.5 * tol0, depth + 1))
        stack.append((m, b0, right, 0.5 * tol0, depth + 1))
    return complex(total)


def _bits(z):
    return np.asarray(z, dtype=complex).view(np.int64)


@pytest.fixture
def spy(monkeypatch):
    """Records every adaptive_quad call made through generic and dynamics."""
    calls = []

    def recording(f, a, b, tol=1e-10, args=()):
        out = adaptive_quad(f, a, b, tol, args)
        calls.append((f, a, b, tol, args, out))
        return out

    monkeypatch.setattr(generic, "adaptive_quad", recording)
    monkeypatch.setattr(dynamics, "adaptive_quad", recording)
    return calls


def _assert_matches_reference(call):
    """Each member of a recorded batch equals the reference run on it alone,
    its args passed as Python floats."""
    f, a, b, tol, args, out = call
    shape = np.shape(out)
    a, b, *cols = (np.broadcast_to(v, shape).ravel() for v in (a, b, *args))
    want = [
        _reference_quad(lambda x: f(x, *(float(c[i]) for c in cols)), a[i], b[i], tol)
        for i in range(a.size)
    ]
    np.testing.assert_array_equal(_bits(np.ravel(out)), _bits(want))


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["const", "lorentzian", "main-text", "singular"])
    def test_builtin_models_over_81_energies(self, spy, name):
        if name == "singular":
            model = generic.make_singular_v_model(0.1)
        else:
            model = generic.make_model(name, 0.1)
        E = np.linspace(model.e_th - 4.0, model.e_th - 0.01, 81)
        sigma = generic.self_energy_quadrature(model, E)
        assert len(spy) == 1
        _assert_matches_reference(spy[0])
        # a scalar E is a batch of one and gives the same float
        alone = [generic.self_energy_quadrature(model, e) for e in E[::20]]
        assert all(type(s) is float for s in alone)
        np.testing.assert_array_equal(np.array(alone).view(np.int64), sigma[::20].view(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_kn_integrands(self, spy, n):
        for t in (0.5, 7.0, 40.0):
            assert type(dynamics.kn_quadrature(n, t)) is complex
        assert len(spy) == 3
        for call in spy:
            _assert_matches_reference(call)

    def test_unequal_upper_limits(self):
        # each member integrates up to its own limit
        def f(x, c):
            return 2.0 / (-c - x**4)

        c = np.geomspace(1e-6, 10.0, 25)
        b = 40.0 / c**0.25
        out = adaptive_quad(f, 0.0, b, tol=1e-10, args=(c,))
        _assert_matches_reference((f, 0.0, b, 1e-10, (c,), out))

    def test_members_do_not_depend_on_the_batch(self):
        def f(x, c):
            return np.exp(-c * x) * np.cos(x)

        c = np.array([0.1, 3.0, 0.5])
        batch = adaptive_quad(f, 0.0, [30.0, 2.0, 9.0], tol=1e-12, args=(c,))
        alone = [adaptive_quad(f, 0.0, b, tol=1e-12, args=(ci,)) for b, ci in zip([30.0, 2.0, 9.0], c)]
        np.testing.assert_array_equal(_bits(batch), _bits(alone))


def _assert_stalled_near_one(exc):
    # the depth cap is reached on a panel of width 1e4 / 2^48 at the
    # non-integrable point, where the differences sit at the noise floor
    lo, hi = map(float, re.search(r"stalled on \[([^,]+), ([^\]]+)\]", str(exc)).groups())
    assert abs(lo - 1.0) < 1e-6 and hi - lo == pytest.approx(1e4 / 2**48)
    assert np.isfinite(exc.residual) and exc.residual > 0


class TestStall:
    def test_non_integrable_point_raises_at_the_depth_cap(self):
        with pytest.raises(QuadratureError) as info:
            adaptive_quad(lambda x: np.abs(x - 1.0) ** -1.5, 0.0, 1e4)
        _assert_stalled_near_one(info.value)

    def test_stalled_member_of_a_converging_batch(self):
        def f(x, c):
            return np.abs(x - c) ** -1.5

        for c in (-1.0, -2.0):
            assert np.isfinite(adaptive_quad(f, 0.0, 1e4, args=(c,)))
        with pytest.raises(QuadratureError, match=r"batch member 1\)") as info:
            adaptive_quad(f, 0.0, 1e4, args=(np.array([-1.0, 1.0, -2.0]),))
        _assert_stalled_near_one(info.value)

    def test_nan_integrand_refines_in_bounded_chunks(self):
        # every panel fails, so the live set would double at each depth;
        # refined in chunks, it reaches the depth cap in about 50 calls
        rows = []

        def f(x):
            rows.append(x.shape[0])
            return np.full_like(x, np.nan)

        with pytest.raises(QuadratureError, match="stalled on"):
            adaptive_quad(f, -1e4, 1e4)
        assert max(rows) == 2 * _MAX_PANELS and len(rows) < 60

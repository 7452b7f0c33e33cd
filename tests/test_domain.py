"""Inputs outside a public function's domain raise DomainError naming them."""

import re
import warnings

import numpy as np
import pytest

from bandedge.bessel import bessel_j
from bandedge.dynamics import intermediate_amplitude, kn_closed_form
from bandedge.errors import DomainError
from bandedge.model import ModelParams, Sheet, density_of_states, lambda_from_energy, self_energy
from bandedge.ep import complex_parameter_sheet
from bandedge.generic import leading_root_approx, make_model, threshold_roots
from bandedge.spectrum import (
    discrete_spectrum,
    eigenstate_profile,
    puiseux_energy,
    puiseux_lambda,
    puiseux_norm_d,
    solve_quartic_lambda_raw,
)

_P = ModelParams(epsilon_d=-2.0, g=0.1)
_T = np.array([0.0, 1.0])
nan, inf = float("nan"), float("inf")
_BOUND = discrete_spectrum(_P)[0]

# (call, the text that names the offending value)
_PROBES = {
    "density_of_states-nan": (lambda: density_of_states(nan), "E = nan"),
    "lambda_from_energy-nan": (lambda: lambda_from_energy(nan, Sheet.FIRST), "E = (nan+0j)"),
    "self_energy-nan": (lambda: self_energy(_P, nan, Sheet.FIRST), "E = (nan+0j)"),
    "bessel_j-nan": (lambda: bessel_j(1, nan), "x = nan"),
    "bessel_j-nan-in-array": (lambda: bessel_j(0, np.array([1.0, nan, 2.0])), "x = nan"),
    "bessel_j-past-1.2e6": (lambda: bessel_j(0, 1.3e6), "x = 1300000.0"),
    "kn_closed_form-1e300": (lambda: kn_closed_form(0, 1e300), "t = 1e+300"),
    "puiseux_energy-nan": (lambda: puiseux_energy(nan), "g = nan"),
    "puiseux_lambda-nan": (lambda: puiseux_lambda(nan), "g = nan"),
    "puiseux_norm_d-nan": (lambda: puiseux_norm_d(nan), "g = nan"),
    "intermediate_amplitude-nan": (lambda: intermediate_amplitude(nan, _T), "g = nan"),
    "puiseux_energy-negative": (lambda: puiseux_energy(-1.0), "g = -1.0"),
    "puiseux_lambda-negative": (lambda: puiseux_lambda(-1.0), "g = -1.0"),
    "puiseux_norm_d-negative": (lambda: puiseux_norm_d(-3.0), "g = -3.0"),
    "intermediate_amplitude-negative": (lambda: intermediate_amplitude(-1.0, _T), "g = -1.0"),
    # these reached np.linalg.eigvals, whose bare LinAlgError escaped
    "solve_quartic_lambda_raw-nan-eps_d": (lambda: solve_quartic_lambda_raw(nan, 0.1),
                                           "eps_d = nan"),
    "solve_quartic_lambda_raw-nan-g": (lambda: solve_quartic_lambda_raw(-2.0, nan), "g = nan"),
    "solve_quartic_lambda_raw-inf-in-array": (
        lambda: solve_quartic_lambda_raw(np.array([-2.0, -np.inf]), 0.1), "eps_d = -inf"),
    "complex_parameter_sheet-nan": (lambda: complex_parameter_sheet(0.1, [nan, -2.0], [0.0]),
                                    "eps_d = (nan+0j)"),
    # the grid itself held NaNs from 1j * inf, with a RuntimeWarning
    "complex_parameter_sheet-inf-im": (
        lambda: complex_parameter_sheet(0.1, [-2.0, -1.9], [0.0, inf]), "eps_d = (-2+infj)"),
    # these ended in numpy's bare LinAlgError or a silent NaN
    "threshold_roots-nan": (lambda: threshold_roots(make_model("const", nan)), "g = nan"),
    "threshold_roots-inf": (lambda: threshold_roots(make_model("const", inf)), "g = inf"),
    "leading_root_approx-nan": (lambda: leading_root_approx(make_model("const", nan)),
                                "g = nan"),
    # a non-integer site was truncated; a non-integer term count hit a slice
    "eigenstate_profile-2.5": (lambda: eigenstate_profile(_BOUND, 2.5), "x = 2.5"),
    "eigenstate_profile-nan": (lambda: eigenstate_profile(_BOUND, nan), "x = nan"),
    "puiseux_energy-2.5-terms": (lambda: puiseux_energy(0.1, 2.5), "n_terms = 2.5"),
}


@pytest.mark.parametrize("probe", list(_PROBES))
def test_out_of_domain_input_is_named(probe):
    call, named = _PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(named)):
            call()

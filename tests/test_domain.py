"""Inputs outside a public function's domain raise DomainError naming them."""

import re
import warnings

import numpy as np
import pytest

from bandedge.bessel import bessel_j
from bandedge.dynamics import intermediate_amplitude, kn_closed_form
from bandedge.errors import DomainError
from bandedge.model import ModelParams, Sheet, density_of_states, lambda_from_energy, self_energy
from bandedge.spectrum import puiseux_energy, puiseux_lambda, puiseux_norm_d

_P = ModelParams(epsilon_d=-2.0, g=0.1)
_T = np.array([0.0, 1.0])
nan = float("nan")

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
}


@pytest.mark.parametrize("probe", list(_PROBES))
def test_out_of_domain_input_is_named(probe):
    call, named = _PROBES[probe]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(named)):
            call()

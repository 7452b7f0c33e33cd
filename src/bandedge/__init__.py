"""Band-edge emitter toolkit.

Exact discrete spectra, exceptional-point structure, and non-Markovian decay
dynamics of a quantum dot coupled to a 1-D tight-binding continuum at its
van Hove threshold, plus the generic-threshold machinery showing the same
triple coalescence for any non-singular 1-D coupling.
"""

from .model import (
    ModelParams,
    Sheet,
    density_of_states,
    effective_hamiltonian,
    energy_from_lambda,
    lambda_from_energy,
    self_energy,
)
from .spectrum import (
    DiscreteState,
    StateClass,
    discrete_spectrum,
    eigenstate_profile,
    near_edge_triplet,
    puiseux_energy,
    puiseux_lambda,
    puiseux_norm_d,
    solve_energy_quartic_centred,
    spectrum_scan,
    threshold_labels,
)
from .ep import (
    EPLocation,
    complex_parameter_sheet,
    ep_energy_closed_form,
    ep_parameter,
    verify_ep_by_discriminant,
)
from .jordan import (
    jordan_chain_check,
    limit_matrix,
    limiting_combinations,
    verify_jordan_form,
)
from .bessel import bessel_j
from .dynamics import (
    Method,
    SurvivalTrace,
    asymptotic_plateau,
    dominant_frequency,
    expansion_term_checks,
    intermediate_amplitude,
    kn_closed_form,
    kn_quadrature,
    longtime_amplitude,
    survival_bessel_sum,
    survival_lattice_oracle,
)
from .generic import (
    GenericSelfEnergyModel,
    leading_root_approx,
    make_model,
    self_energy_quadrature,
    threshold_roots,
    xi_intermediates,
)

__version__ = "0.1.0"

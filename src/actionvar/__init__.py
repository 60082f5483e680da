"""Classical and quantum action variables for the harmonic oscillator family.

Residue-based action variables and spectra for the non-relativistic,
weakly relativistic, and quartic-anharmonic oscillators, cross-validated
against independent trajectory, quadrature, diagonalization, and
perturbation-theory oracles.
"""

from .classical import (
    action_fullrel,
    action_quadrature,
    action_sho,
    action_wr_pdx,
    action_wr_residue,
    action_wr_xdp,
    frequency_from_action,
    frequency_wr_closed,
)
from .core import (
    ActionResult,
    ActionVarError,
    EnergyPoint,
    OscillatorParams,
    SchemeTag,
    SpectrumEntry,
    WeakRegimeWarning,
    energy_point,
    make_params,
    natural_params,
)
from .laurent import LaurentSeries, binomial_sqrt
from .oracles import (
    HamiltonianKind,
    HamiltonianSpec,
    diagonalize,
    jwkb_levels_wr,
    rk4_period,
    rs_shift_p4,
)
from .quantum import (
    RiccatiSolution,
    aho_coeffs,
    eigenvalues_aho,
    eigenvalues_wr_pdx,
    eigenvalues_wr_xdp,
    invert_action,
    quantum_action_aho,
    quantum_action_sho,
    quantum_action_wr_pdx,
    quantum_action_wr_xdp,
    riccati_pdx,
    riccati_xdp,
    wr_correction_pdx,
)

__version__ = "0.1.0"

__all__ = [
    "ActionResult",
    "ActionVarError",
    "EnergyPoint",
    "HamiltonianKind",
    "HamiltonianSpec",
    "LaurentSeries",
    "OscillatorParams",
    "RiccatiSolution",
    "SchemeTag",
    "SpectrumEntry",
    "WeakRegimeWarning",
    "action_fullrel",
    "action_quadrature",
    "action_sho",
    "action_wr_pdx",
    "action_wr_residue",
    "action_wr_xdp",
    "aho_coeffs",
    "binomial_sqrt",
    "diagonalize",
    "eigenvalues_aho",
    "eigenvalues_wr_pdx",
    "eigenvalues_wr_xdp",
    "energy_point",
    "frequency_from_action",
    "frequency_wr_closed",
    "invert_action",
    "jwkb_levels_wr",
    "make_params",
    "natural_params",
    "quantum_action_aho",
    "quantum_action_sho",
    "quantum_action_wr_pdx",
    "quantum_action_wr_xdp",
    "riccati_pdx",
    "riccati_xdp",
    "rk4_period",
    "rs_shift_p4",
    "wr_correction_pdx",
]

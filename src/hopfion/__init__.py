"""Faddeev-Skyrme energies, Hopf charges and hopfion relaxation on T^3."""

__version__ = "0.1.0"

from .algebra import (
    coisotropy_form,
    project_isotropy,
    su2_group,
    su2_u1,
    su3_t2,
)
from .energy import (
    EnergyReport,
    descent_energy,
    descent_gradient,
    energy_gradient,
    energy_map,
    energy_potential,
)
from .fields import (
    LiftField,
    MapField,
    PotentialField,
    act,
    constant_map,
    make_ansatz,
    pullback_coisotropy,
    pure_gauge_potential,
)
from .gauge import (
    IdentityResidual,
    StabilizerField,
    coset_curvature,
    gauge_smooth,
    gauge_transform_potential,
    identity_suite,
    make_stabilizer,
)
from .lattice import Grid, LatticeField, d, integrate_3form, l2_inner, l2_norm, wedge
from .minimize import HistoryRow, RelaxConfig, RelaxRun, relax
from .topology import (
    ChargeReport,
    chern_simons_charge,
    chern_simons_from_lift,
    linking_charge,
    whitehead_charge,
)

__all__ = [
    "coisotropy_form", "project_isotropy", "su2_group", "su2_u1", "su3_t2",
    "EnergyReport", "descent_energy", "descent_gradient", "energy_gradient", "energy_map",
    "energy_potential",
    "LiftField", "MapField", "PotentialField", "act", "constant_map", "make_ansatz",
    "pullback_coisotropy", "pure_gauge_potential",
    "IdentityResidual", "StabilizerField", "coset_curvature", "gauge_smooth",
    "gauge_transform_potential", "identity_suite", "make_stabilizer",
    "Grid", "LatticeField", "d", "integrate_3form", "l2_inner", "l2_norm", "wedge",
    "HistoryRow", "RelaxConfig", "RelaxRun", "relax",
    "ChargeReport", "chern_simons_charge", "chern_simons_from_lift", "linking_charge",
    "whitehead_charge",
]

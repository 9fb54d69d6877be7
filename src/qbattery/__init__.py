"""Quantum battery simulator with non-Hermitian (PT/RT-symmetric) charging."""

__version__ = "0.1.0"

from .tensor_core import Operator, embed_site, pauli
from .dense_linalg import (
    EigenDecomposition,
    general_eigenvalues,
    hermitian_eig,
    is_defective_at,
)
from .model_builders import (
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_charger,
    build_noninteracting_battery,
    build_pt_charger,
    build_pt_hermitian_charger,
    build_rt_charger,
    check_antilinear_symmetry,
    classify_phase,
    normalize_spectrum,
)
from .state_prep import QuantumState, ground_state, thermal_state
from .battery_dynamics import (
    DeltaRecord,
    PowerTrace,
    delta_p_max,
    ergotropy,
    evolve_normalized,
    power_trace,
    work,
    work_and_ergotropy,
)

__all__ = [
    "Operator",
    "pauli",
    "embed_site",
    "EigenDecomposition",
    "hermitian_eig",
    "general_eigenvalues",
    "is_defective_at",
    "BatterySpec",
    "ChargerSpec",
    "build_battery_xyz",
    "build_noninteracting_battery",
    "build_pt_charger",
    "build_pt_hermitian_charger",
    "build_rt_charger",
    "build_charger",
    "normalize_spectrum",
    "check_antilinear_symmetry",
    "classify_phase",
    "QuantumState",
    "ground_state",
    "thermal_state",
    "PowerTrace",
    "DeltaRecord",
    "evolve_normalized",
    "work",
    "power_trace",
    "ergotropy",
    "work_and_ergotropy",
    "delta_p_max",
]

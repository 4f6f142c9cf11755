"""FCI core: strings, sigma kernels, diagonalization methods, driver."""

from .strings import (
    StringSpace,
    ci_dimension,
    count_strings_by_irrep,
    fci_space_size,
    string_irrep,
)
from .excitations import DoubleAnnihilationTable, SingleExcitationTable
from .hamiltonian import (
    build_dense_hamiltonian,
    det_matrix_element,
    hamiltonian_diagonal,
)
from .problem import CIProblem
from .plans import SigmaPlan, build_g_matrix, build_w_matrix
from .kernels import (
    DgemmKernel,
    MocKernel,
    MOCCounters,
    SigmaCounters,
    SigmaKernel,
    kernel_names,
    make_kernel,
    one_electron_operators,
    sigma_dgemm,
    sigma_moc,
)
from .operator import HamiltonianOperator
from .model_space import DiagonalPreconditioner, ModelSpacePreconditioner
from .checkpoint import CheckpointError, Checkpointer, CheckpointState
from .guards import (
    EnergyDivergenceError,
    IterateGuard,
    NonFiniteIterateError,
    SolverGuardError,
)
from .olsen import SolveResult, olsen_correction, olsen_solve
from .davidson import davidson_solve
from .auto_single import auto_adjusted_solve
from .vectors import (
    CIVectorStore,
    DenseStore,
    MmapStore,
    make_store,
    publish_store_metrics,
    register_store,
    store_kinds,
)
from .spin import SpinOperator, apply_s2, s_plus, s_squared
from .rdm import natural_orbitals, one_rdm
from .multiroot import MultiRootResult, davidson_multiroot
from .calibrate import CalibrationResult, TruncatedCI, cisd, mp2_energy
from .properties import dipole_moment
from .memory import MethodFootprint, davidson_io_penalty, method_footprints
from .solver import (
    FCIResult,
    FCISolver,
    MultiRootFCIResult,
    fci,
    method_names,
    register_method,
)

__all__ = [
    "StringSpace",
    "ci_dimension",
    "count_strings_by_irrep",
    "fci_space_size",
    "string_irrep",
    "DoubleAnnihilationTable",
    "SingleExcitationTable",
    "build_dense_hamiltonian",
    "det_matrix_element",
    "hamiltonian_diagonal",
    "CIProblem",
    "SigmaPlan",
    "build_w_matrix",
    "build_g_matrix",
    "SigmaKernel",
    "DgemmKernel",
    "MocKernel",
    "kernel_names",
    "make_kernel",
    "HamiltonianOperator",
    "SigmaCounters",
    "one_electron_operators",
    "sigma_dgemm",
    "MOCCounters",
    "sigma_moc",
    "DiagonalPreconditioner",
    "ModelSpacePreconditioner",
    "CheckpointError",
    "Checkpointer",
    "CheckpointState",
    "EnergyDivergenceError",
    "IterateGuard",
    "NonFiniteIterateError",
    "SolverGuardError",
    "SolveResult",
    "olsen_correction",
    "olsen_solve",
    "davidson_solve",
    "auto_adjusted_solve",
    "CIVectorStore",
    "DenseStore",
    "MmapStore",
    "make_store",
    "publish_store_metrics",
    "register_store",
    "store_kinds",
    "SpinOperator",
    "apply_s2",
    "s_plus",
    "s_squared",
    "natural_orbitals",
    "one_rdm",
    "MultiRootResult",
    "davidson_multiroot",
    "CalibrationResult",
    "TruncatedCI",
    "cisd",
    "mp2_energy",
    "dipole_moment",
    "MethodFootprint",
    "davidson_io_penalty",
    "method_footprints",
    "MultiRootFCIResult",
    "FCIResult",
    "FCISolver",
    "fci",
    "method_names",
    "register_method",
]

"""CIProblem: one FCI eigenproblem with lazily-built coupling tables.

Bundles the MO integrals, the alpha/beta string spaces, the excitation
tables, and ``w_matrix``, the packed antisymmetrized two-electron matrix
W[(p>r),(q>s)] = (pq|rs) - (ps|rq) of the same-spin routine (paper eq. 8).

CI vectors are (n_alpha_strings, n_beta_strings) arrays; the paper's
"coefficients matrix with rows and columns indexed by beta and alpha
strings" is the transpose of this layout, a pure bookkeeping choice (we
distribute alpha *rows* where the paper distributes alpha *columns*).
"""

from __future__ import annotations

import numpy as np

from ..scf.mo import MOIntegrals
from .excitations import DoubleAnnihilationTable, SingleExcitationTable
from .hamiltonian import hamiltonian_diagonal
from .strings import StringSpace

__all__ = ["CIProblem"]


class CIProblem:
    """An FCI problem: integrals + string spaces + cached coupling tables."""

    def __init__(
        self,
        mo: MOIntegrals,
        n_alpha: int,
        n_beta: int,
        *,
        target_irrep: int | None = None,
        product_table: np.ndarray | None = None,
    ):
        if n_alpha < n_beta:
            raise ValueError("convention: n_alpha >= n_beta")
        self.mo = mo
        self.n = mo.n_orbitals
        self.n_alpha = n_alpha
        self.n_beta = n_beta
        self.space_a = StringSpace(self.n, n_alpha)
        self.space_b = (
            self.space_a
            if n_beta == n_alpha
            else StringSpace(self.n, n_beta)
        )
        self.target_irrep = target_irrep
        self.product_table = product_table
        self._singles_a: SingleExcitationTable | None = None
        self._singles_b: SingleExcitationTable | None = None
        self._doubles_a: DoubleAnnihilationTable | None = None
        self._doubles_b: DoubleAnnihilationTable | None = None
        self._w: np.ndarray | None = None
        self._diag: np.ndarray | None = None
        self._sym_mask: np.ndarray | None = None

    # --- sizes ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.space_a.size, self.space_b.size)

    @property
    def dimension(self) -> int:
        na, nb = self.shape
        return na * nb

    # --- lazy tables ----------------------------------------------------
    @property
    def singles_a(self) -> SingleExcitationTable:
        if self._singles_a is None:
            self._singles_a = SingleExcitationTable(self.space_a)
        return self._singles_a

    @property
    def singles_b(self) -> SingleExcitationTable:
        if self._singles_b is None:
            if self.space_b is self.space_a:
                self._singles_b = self.singles_a
            else:
                self._singles_b = SingleExcitationTable(self.space_b)
        return self._singles_b

    @property
    def doubles_a(self) -> DoubleAnnihilationTable:
        if self._doubles_a is None:
            self._doubles_a = DoubleAnnihilationTable(self.space_a)
        return self._doubles_a

    @property
    def doubles_b(self) -> DoubleAnnihilationTable:
        if self._doubles_b is None:
            if self.space_b is self.space_a:
                self._doubles_b = self.doubles_a
            else:
                self._doubles_b = DoubleAnnihilationTable(self.space_b)
        return self._doubles_b

    # --- derived integral matrices ---------------------------------------
    @property
    def w_matrix(self) -> np.ndarray:
        """W[(p>r),(q>s)] = (pq|rs) - (ps|rq), packed triangular pairs."""
        if self._w is None:
            from .plans import build_w_matrix  # local import: plans imports excitations

            self._w = build_w_matrix(self.mo.g)
        return self._w

    @property
    def sigma_plan(self):
        """The problem's cached :class:`~repro.core.plans.SigmaPlan`.

        Compiled on first access and reused by every kernel, operator, and
        simulated rank thereafter (same object each time).
        """
        from .plans import SigmaPlan

        return SigmaPlan.for_problem(self)

    # --- diagonal & symmetry ---------------------------------------------
    @property
    def diagonal(self) -> np.ndarray:
        """H diagonal as an (na, nb) array (no e_core)."""
        if self._diag is None:
            self._diag = hamiltonian_diagonal(self.mo, self.space_a, self.space_b)
        return self._diag

    @property
    def symmetry_mask(self) -> np.ndarray | None:
        """Boolean (na, nb) mask of symmetry-allowed determinants, or None."""
        if self.target_irrep is None or self.mo.orbital_irreps is None:
            return None
        if self._sym_mask is None:
            pt = self.product_table
            if pt is None:
                raise ValueError("product_table required for symmetry blocking")
            ia = self.space_a.irreps(self.mo.orbital_irreps, pt)
            ib = self.space_b.irreps(self.mo.orbital_irreps, pt)
            self._sym_mask = pt[ia[:, None], ib[None, :]] == self.target_irrep
        return self._sym_mask

    def project_symmetry(self, C: np.ndarray) -> np.ndarray:
        """Zero symmetry-forbidden coefficients (the 'vector symm' step)."""
        mask = self.symmetry_mask
        if mask is None:
            return C
        out = C.copy()
        out[~mask] = 0.0
        return out

    def symmetry_dimension(self) -> int:
        mask = self.symmetry_mask
        if mask is None:
            return self.dimension
        return int(mask.sum())

    def random_vector(self, seed: int = 0) -> np.ndarray:
        """Normalized random CI vector (symmetry-projected if applicable)."""
        rng = np.random.default_rng(seed)
        C = rng.standard_normal(self.shape)
        C = self.project_symmetry(C)
        return C / np.linalg.norm(C)

    def __repr__(self) -> str:
        na, nb = self.shape
        return (
            f"CIProblem(n={self.n}, na={self.n_alpha}, nb={self.n_beta}, "
            f"dim={na}x{nb}={self.dimension})"
        )

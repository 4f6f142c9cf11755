"""CDFCI: coordinate-descent FCI on a sparse CI-vector store.

The storage-layer counterpoint to the paper's dense distributed vectors
(PAPERS.md: "CDFCI: High-Performance Parallel Software for Many-Body
Large-Scale Eigenvalue Problems").  Instead of streaming whole CI vectors
through batched DGEMMs, coordinate descent touches *one determinant per
update*: pick the coordinate k with the largest Rayleigh-quotient gradient
|b_k - rho c_k| (where b = H c), minimize rho(c + alpha e_k) exactly along
that coordinate, and scatter the single Hamiltonian column H e_k into b.
Both c and b live in slot-aligned :class:`repro.core.vectors.SparseStore`
siblings, so the solver's working set is the determinants that matter, not
the full CI dimension.

Two properties this implementation guarantees:

* **Variational at every step.**  The tracked scalars cc = <c|c> and
  chc = <c|H|c> are updated with an *exactly recomputed* (Hc)_k (the
  freshly assembled column dotted into c), never the cached b_k - so
  rho = chc/cc is the true Rayleigh quotient of a real vector even after
  top-k compaction has made frontier entries of b stale, and the reported
  energy can never undershoot the FCI ground state.
* **Exact-replay resume.**  A checkpoint carries the coordinate arrays of
  both c and b plus the scalar recursion state; a killed-and-resumed solve
  replays bitwise the iteration sequence of an uninterrupted one (the same
  contract olsen/auto established for dense checkpoints).

Columns are assembled from the *same* compiled :class:`SigmaPlan` pieces the
DGEMM kernels consume - the one-electron CSR operators, the same-spin
operator applied to an identity block, and the mixed-spin singles tables
against the G supermatrix - so CDFCI energies are consistent with
``sigma_dgemm`` by construction, which the differential tests pin.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .checkpoint import Checkpointer, CheckpointState, FinalStateSaver
from .olsen import SolveResult
from .plans import SigmaPlan
from .vectors import SparseStore
from .kernels import same_spin_sigma

__all__ = ["HamiltonianColumns", "cdfci_solve"]


def _by_source(half, n_strings: int):
    """Re-sort a MixedSpinHalfPlan by *source* string, with an indptr.

    The kernels consume the halves target-sorted (scatter order); column
    assembly needs "all singles leaving string s" instead.
    """
    order = np.argsort(half.source, kind="stable")
    src = half.source[order]
    indptr = np.searchsorted(src, np.arange(n_strings + 1))
    return half.target[order], half.pair[order], half.sign[order], indptr


class HamiltonianColumns:
    """Sparse columns H e_k assembled from the compiled sigma plan.

    For determinant k = (ia, ib) the column splits exactly like the kernel
    decomposition of sigma:

    * alpha part  (rows (ja, ib)): column ia of A_a = Ta + same-spin-alpha,
      the same-spin operator materialized once by applying
      :func:`~repro.core.kernels.same_spin_sigma` to the identity,
    * beta part   (rows (ia, jb)): column ib of A_b = Tb + same-spin-beta,
    * mixed part  (rows (ja, jb)): for every alpha single ia->ja (pair pq,
      sign sa) and beta single ib->jb (pair rs, sign sb), the entry
      sa * sb * G[{pq}, {rs}] of the plan's pair-packed integrals - an
      outer product over the two singles lists.

    Duplicate row keys between the parts (the diagonal, p=q singles)
    accumulate, exactly as the kernels' additive pipeline does.
    """

    def __init__(self, problem):
        self.problem = problem
        plan = SigmaPlan.for_problem(problem)
        self.plan = plan
        na, nb = plan.shape
        self.shape = (na, nb)
        bc = plan.default_block_columns()

        def _spin_matrix(T, splan, nstr):
            dense = np.asarray(T.todense())
            if splan is not None:
                dense += same_spin_sigma(splan, plan.w_matrix, np.eye(nstr), bc, None)
            return sp.csc_matrix(dense)

        self.A_alpha = _spin_matrix(plan.Ta, plan.same_a, na)
        self.A_beta = _spin_matrix(plan.Tb, plan.same_b, nb)
        self.G = plan.g_matrix
        (self._a_tgt, self._a_pair, self._a_sgn, self._a_ptr) = _by_source(
            plan.scatter_a, na
        )
        (self._b_tgt, self._b_pair, self._b_sgn, self._b_ptr) = _by_source(
            plan.gather_b, nb
        )
        mask = problem.symmetry_mask
        self._mask_flat = None if mask is None else np.asarray(mask).ravel()

    def column(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """(flat keys, values) of H e_key; duplicate keys must be summed."""
        na, nb = self.shape
        ia, ib = divmod(int(key), nb)

        Aa = self.A_alpha
        lo, hi = Aa.indptr[ia], Aa.indptr[ia + 1]
        keys_a = Aa.indices[lo:hi].astype(np.int64) * nb + ib
        vals_a = Aa.data[lo:hi]

        Ab = self.A_beta
        lo, hi = Ab.indptr[ib], Ab.indptr[ib + 1]
        keys_b = ia * nb + Ab.indices[lo:hi].astype(np.int64)
        vals_b = Ab.data[lo:hi]

        fa, fb = self._a_ptr[ia], self._a_ptr[ia + 1]
        ea, eb = self._b_ptr[ib], self._b_ptr[ib + 1]
        ja = self._a_tgt[fa:fb].astype(np.int64)
        jb = self._b_tgt[ea:eb].astype(np.int64)
        block = (self._a_sgn[fa:fb, None] * self._b_sgn[None, ea:eb]) * self.G[
            np.ix_(self._a_pair[fa:fb], self._b_pair[ea:eb])
        ]
        keys_m = (ja[:, None] * nb + jb[None, :]).ravel()
        vals_m = block.ravel()

        keys = np.concatenate([keys_a, keys_b, keys_m])
        vals = np.concatenate([vals_a, vals_b, vals_m])
        if self._mask_flat is not None:
            allowed = self._mask_flat[keys]
            keys, vals = keys[allowed], vals[allowed]
        return keys, vals

    def diagonal_element(self, key: int) -> float:
        kk, vv = self.column(key)
        return float(vv[kk == key].sum())


def _line_minimum(chc: float, cc: float, bk: float, ck: float, d: float) -> float:
    """alpha minimizing rho(c + alpha e_k) = (chc+2a bk+a^2 d)/(cc+2a ck+a^2).

    Stationary points solve A2 a^2 + B2 a + C2 = 0 with
    A2 = d ck - bk, B2 = d cc - chc, C2 = bk cc - chc ck; the minimizing
    root is selected by evaluating rho.  Degenerate cases (gradient already
    zero, c parallel to e_k) return 0.0.
    """
    A2 = d * ck - bk
    B2 = d * cc - chc
    C2 = bk * cc - chc * ck
    roots: list[float] = []
    if abs(A2) > 1e-300:
        disc = B2 * B2 - 4.0 * A2 * C2
        if disc < 0.0:
            return 0.0
        r = np.sqrt(disc)
        roots = [(-B2 + r) / (2.0 * A2), (-B2 - r) / (2.0 * A2)]
    elif abs(B2) > 1e-300:
        roots = [-C2 / B2]
    best, best_rho = 0.0, chc / cc
    for a in roots:
        if not np.isfinite(a):
            continue
        denom = cc + 2.0 * a * ck + a * a
        if denom <= 1e-300:
            continue
        rho = (chc + 2.0 * a * bk + a * a * d) / denom
        if rho < best_rho:
            best, best_rho = float(a), rho
    return best


def _compact_protecting_support(c: SparseStore, b: SparseStore, capacity: int) -> int:
    """Trim the shared index to ``capacity`` slots without ever dropping a
    determinant that carries coefficient weight: the c-support is protected,
    the b-only frontier is ranked by |b| (stable, hence deterministic)."""
    vals_c, vals_b = c.values, b.values
    protected = np.nonzero(vals_c != 0.0)[0]
    n_free = capacity - protected.size
    if n_free <= 0:
        keep = protected
    else:
        frontier = np.nonzero(vals_c == 0.0)[0]
        ranked = frontier[np.argsort(-np.abs(vals_b[frontier]), kind="stable")[:n_free]]
        keep = np.concatenate([protected, ranked])
    return b.compact_slots(keep)


def cdfci_solve(
    problem,
    *,
    capacity: int | None = None,
    energy_tol: float = 1e-10,
    residual_tol: float = 1e-5,
    max_iterations: int = 60,
    updates_per_iteration: int = 64,
    guess: np.ndarray | None = None,
    telemetry=None,
    checkpoint: Checkpointer | None = None,
    columns: HamiltonianColumns | None = None,
    on_iteration=None,
) -> SolveResult:
    """Coordinate-descent FCI ground state on sparse stores.

    One "iteration" is a sweep of ``updates_per_iteration`` coordinate
    updates (so iteration counts are loosely comparable with the dense
    solvers' sigma counts); ``n_sigma`` in the result reports the number of
    Hamiltonian *columns* assembled, the unit of work replacing full sigma
    evaluations.  ``capacity`` bounds the live determinant count via
    support-protecting top-k compaction; None lets the frontier grow.

    ``guess`` seeds the starting determinant (its largest-|weight| entry);
    the default is the lowest-diagonal determinant.  ``on_iteration`` is an
    injection point called after each sweep with ``(iteration, energy)`` -
    the chaos harness kills solves from it.  ``checkpoint`` persists the
    full coordinate state; resume replays the exact update sequence.
    """
    cols = columns if columns is not None else HamiltonianColumns(problem)
    na, nb = cols.shape

    c = SparseStore((na, nb), capacity=capacity)
    b = c.sibling()

    diag = np.asarray(problem.diagonal, dtype=np.float64).ravel().copy()
    if cols._mask_flat is not None:
        diag = np.where(cols._mask_flat, diag, np.inf)

    energies: list[float] = []
    rnorms: list[float] = []
    n_updates = 0
    start_it = 0
    prev_e = np.inf
    restored = None
    if checkpoint is not None:
        restored = checkpoint.restore("cdfci", store_kind="sparse")
    if restored is not None and "keys" in restored.arrays:
        keys = restored.arrays["keys"].astype(np.int64)
        c.scatter_add(keys, restored.arrays["c"])
        b.scatter_add(keys, restored.arrays["b"])
        cc = float(restored.meta["cc"])
        chc = float(restored.meta["chc"])
        prev_e = float(restored.meta.get("prev_e", np.inf))
        energies = list(restored.energies)
        rnorms = list(restored.residual_norms)
        n_updates = restored.n_sigma
        start_it = restored.iteration
    else:
        if guess is not None:
            k0 = int(np.argmax(np.abs(np.asarray(guess).ravel())))
        else:
            k0 = int(np.argmin(diag))
        c.set(k0, 1.0)
        kk, vv = cols.column(k0)
        b.scatter_add(kk, vv)
        n_updates = 1
        cc = 1.0
        chc = b.get(k0)  # = H[k0, k0]

    e = chc / cc
    converged = False
    it = start_it
    saver = FinalStateSaver(checkpoint)
    for it in range(start_it + 1, max_iterations + 1):
        for _ in range(updates_per_iteration):
            rho = chc / cc
            grad = b.values - rho * c.values
            slot = int(np.argmax(np.abs(grad)))
            key = int(b.keys[slot])

            kk, vv = cols.column(key)
            d = float(vv[kk == key].sum())
            # exact (Hc)_k from the fresh column - immune to frontier
            # staleness, which keeps chc the true <c|H|c> (variational)
            bk = float(vv @ c.get_many(kk))
            ck = c.get(key)
            alpha = _line_minimum(chc, cc, bk, ck, d)
            n_updates += 1
            if alpha == 0.0:
                break
            c.add_at(key, alpha)
            b.set(key, bk)  # heal any stale cached value before the update
            b.scatter_add(kk, alpha * vv)
            cc += 2.0 * alpha * ck + alpha * alpha
            chc += 2.0 * alpha * bk + alpha * alpha * d
            if capacity is not None and b.nnz > capacity:
                _compact_protecting_support(c, b, capacity)

        e = chc / cc
        grad = b.values - e * c.values
        rnorm = float(np.linalg.norm(grad)) / float(np.sqrt(cc))
        energies.append(e)
        rnorms.append(rnorm)
        if telemetry:
            telemetry.solver_iteration(
                "cdfci", it, e, rnorm, nnz=c.nnz, updates=n_updates
            )
        converged = abs(e - prev_e) < energy_tol and rnorm < residual_tol
        prev_e = e
        if checkpoint is not None:
            saver.save(
                CheckpointState(
                    method="cdfci",
                    iteration=it,
                    n_sigma=n_updates,
                    vector=c.as_ndarray() / np.sqrt(cc),
                    meta={"cc": cc, "chc": chc, "prev_e": prev_e},
                    energies=energies,
                    residual_norms=rnorms,
                    store_kind="sparse",
                    arrays={
                        "keys": c.keys.copy(),
                        "c": c.values.copy(),
                        "b": b.values.copy(),
                    },
                ),
                converged=converged,
            )
        if on_iteration is not None:
            on_iteration(it, e)
        if converged:
            break

    saver.finish()
    vector = (c.as_ndarray() / np.sqrt(cc)).reshape(na, nb)
    c.close()
    b.close()
    return SolveResult(
        energy=e,
        vector=vector,
        converged=converged,
        n_iterations=it,
        n_sigma=n_updates,
        energies=energies,
        residual_norms=rnorms,
        method="cdfci",
    )

"""Sigma kernels: plan-driven implementations of sigma = H C, one vector per sweep.

sigma = H C is evaluated matrix-free in four pieces:

* one-electron  sum_pq h_pq (E^a_pq + E^b_pq)  (:func:`one_electron_sigma`),
* same-spin alpha-alpha and beta-beta two-electron terms through the
  N-2-electron intermediate string space (paper eqs. 7-9):

      D[(q>s), K] = sum_J  <J| a+_q a+_s |K>* C_J        (vector gather)
      E[(p>r), K] = sum_(q>s) W[(pr),(qs)] D[(qs), K]    (dense DGEMM)
      sigma_I    += sum_(p>r) <I| a+_p a+_r |K> E[(pr), K]  (scatter)

  with W[(pr),(qs)] = (pq|rs) - (ps|rq),
* the mixed-spin (alpha-beta) term through single-excitation gathers
  (paper eqs. 4-6):

      D[(rs), Ma, Kb] = sum_Mb <Kb|E^b_rs|Mb> C[Ma, Mb]   (gather)
      E[(pq), Ma, Kb] = sum_rs (pq|rs) D[(rs), Ma, Kb]    (dense DGEMM)
      sigma[Ka, Kb]  += sum_(pq),Ma <Ka|E^a_pq|Ma> E[(pq), Ma, Kb].

A :class:`SigmaKernel` consumes a precompiled
:class:`~repro.core.plans.SigmaPlan` (compiled once per problem, so no
table is rebuilt in the hot path) and evaluates sigma for one (na, nb) CI
matrix:

* :class:`DgemmKernel` - the paper's algorithm: gather into dense
  intermediates, DGEMM, scatter (and half of that for a C that is its own
  transpose up to sign, below).  The intermediates hold *only what the
  occupation allows* - the paper's Table 1 charges the alpha-beta DGEMM
  ~ Nci n^2 n_a n_b operations, not the full pair space - so they are
  indexed by string, then by the pairs that string connects to:

  - *same-spin*: D and E are [K, l, column] with l over the L = C(n-k+2, 2)
    pairs (q > s) empty in N-2-electron string K; one L x L block
    W[pairs_K, pairs_K] per K, multiplied in one stacked ``np.matmul``;
  - *mixed*: for beta string k, D_k is [entry, J_alpha] over the
    ``per`` = n_b (n - n_b + 1) single excitations that reach k - ``per``
    whole rows of C^T - and E_k = G[:, pairs_k] . D_k one DGEMM whose long
    dimension is the whole alpha space.

  Gather and scatter walk index tables the plan compiled once, in compiled
  loops - the paper's vector gather/scatter; there is no compiler here, so
  the loops are NumPy's and SciPy's:

  - *gather* is ``np.take`` of whole rows (of a column block of C, of C^T):
    every row of D has exactly one source and none is a structural zero,
    so there is no zero fill; the +-1 of the copy is folded into the small
    integral block instead (its columns for W_K, its rows of [G^T; -G^T]
    for the mixed term), so there is no sign multiply either.
    ``mode="clip"`` because the default ``"raise"`` makes ``take`` buffer
    its ``out``; the indices are the plan's own and always in range.
  - *scatter* is the plan's +-1 CSR matrix times E.  SciPy's CSR product
    adds a row's entries left to right, and the matrix is built directly
    from the entry arrays in their order (never sorted, never
    de-duplicated), so a target's contributions are summed in one fixed
    order whatever block, subset of blocks or rank the product runs in -
    which is what keeps every execution mode bitwise-equal to this kernel.
* :class:`MocKernel` - the minimum-operation-count baseline the paper
  compares against (its refs [2-7]): only non-zero matrix elements are
  formed and sigma is updated by indexed multiply-and-add.  Two costs are
  reproduced on purpose: the same-spin routine regenerates every string's
  *entire* double-excitation list on every call (the redundant work that,
  replicated across processors, destroys MOC parallel scaling - paper
  Fig. 4), and the mixed-spin routine spends Nci * na(n-na) * nb(n-nb)
  indexed operations (paper Table 1).  It agrees with the DGEMM kernel to
  machine precision; the *kernel structure* is what the Cray-X1 cost model
  charges differently.

**Ms = 0 vector symmetry.**  On a closed-shell space (n_alpha = n_beta, one
set of tables for both spins) relabelling the spins transposes C, and H
commutes with it; a singlet has C = +C^T, an Ms = 0 triplet C = -C^T.  For
C = eps * C^T every beta piece of sigma is eps times the transpose of its
alpha twin - sigma^bb = eps * (sigma^aa)^T, T_b-term = eps * (T_a C)^T - and
the mixed term is its own: sigma^ab = eps * (sigma^ab)^T, i.e. Y + eps * Y^T
with Y = sigma^ab / 2.  :meth:`DgemmKernel.apply` therefore computes
Z = T_a C + sigma^aa + Y and returns Z + eps * Z^T - the "vector symm" line
of the paper's Table 3, which has a beta-beta and an alpha-beta line and no
alpha-alpha one.  What is saved: the beta-beta sweep, the transposed copy
of C it reads and the beta one-electron product are not run at all.  What
is not: the mixed sweep is the general one with its signs halved (exact in
binary).  Restricting its pair sum to the triangle rs <= pq would only turn
half of each string's (npair x per) integral block into zeros that are
still multiplied: the block is not square, so no triangular BLAS call takes
it, and splitting such a triangle into 2-4 rectangular products measured
x1.00-1.04 of the full DGEMM.  Per apply the half sweep costs x0.84 of the
general one on FCI(4+4,12) and x0.80 on FCI(6+6,12).  The test for the
symmetry (:func:`transpose_parity`) is exact, and the result is bitwise
eps-symmetric (IEEE addition commutes), so a solver whose other steps are
elementwise stays on this path from the first sigma to the last
(:mod:`repro.core.model_space`).

Every sweep takes one vector, and ``apply_batch`` is a plain loop over
``apply`` (:func:`apply_batch_loop`, shared by every class that offers it):
a sweep with a leading k-vector axis measured 1.4-1.6x *slower* per vector
than that loop at twice the peak memory (FCI(6+6,12), k = 4 - the k-fold
scratch overflows the cache the block width is sized for), and the paper's
one-vector solver exists precisely not to hold stacks of CI vectors.

Kernels are registered by name (``register_kernel``) so drivers validate
and construct them through one registry.  Counters (:class:`SigmaCounters`,
:class:`MOCCounters`) record FLOPs, gather/scatter traffic and the number
of dense DGEMM invocations.  :func:`sigma_dgemm` / :func:`sigma_moc` are
the functional one-call entry points (validation and scripting).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp

from ..obs.accounting import account_sigma_dgemm, account_sigma_moc
from ..registry import Registry
from .plans import MixedSpinHalfPlan, SameSpinPlan, SigmaPlan

__all__ = [
    "SigmaCounters",
    "MOCCounters",
    "SigmaKernel",
    "DgemmKernel",
    "MocKernel",
    "register_kernel",
    "kernel_names",
    "make_kernel",
    "apply_batch_loop",
    "timed_apply",
    "as_ci_matrix",
    "transpose_parity",
    "add_transpose",
    "one_electron_sigma",
    "same_spin_sigma",
    "mixed_spin_sigma",
    "same_spin_sigma_stack",
    "mixed_spin_sigma_stack",
    "column_blocks",
    "sigma_dgemm",
    "sigma_moc",
    "one_electron_operators",
]


class SigmaCounters:
    """Accumulates operation/traffic counts of sigma evaluations."""

    def __init__(self) -> None:
        self.dgemm_flops = 0
        self.dgemm_calls = 0
        self.gather_elements = 0
        self.scatter_elements = 0

    def add(self, other: "SigmaCounters") -> None:
        self.dgemm_flops += other.dgemm_flops
        self.dgemm_calls += other.dgemm_calls
        self.gather_elements += other.gather_elements
        self.scatter_elements += other.scatter_elements

    def as_dict(self) -> dict[str, int]:
        return {
            "dgemm_flops": self.dgemm_flops,
            "dgemm_calls": self.dgemm_calls,
            "gather_elements": self.gather_elements,
            "scatter_elements": self.scatter_elements,
        }


class MOCCounters:
    """Operation/traffic counters for MOC sigma evaluations."""

    def __init__(self) -> None:
        self.indexed_ops = 0
        self.matrix_elements_computed = 0

    def add(self, other: "MOCCounters") -> None:
        self.indexed_ops += other.indexed_ops
        self.matrix_elements_computed += other.matrix_elements_computed

    def as_dict(self) -> dict[str, int]:
        return {
            "indexed_ops": self.indexed_ops,
            "matrix_elements_computed": self.matrix_elements_computed,
        }


# -- registry -----------------------------------------------------------------

_REGISTRY = Registry("sigma kernel", "kernels")


def register_kernel(name: str):
    """Class decorator: register a SigmaKernel implementation under ``name``."""

    def deco(cls):
        _REGISTRY.register(name, cls)
        cls.name = name
        return cls

    return deco


def kernel_names() -> tuple[str, ...]:
    """Names of all registered sigma kernels (sorted)."""
    return _REGISTRY.names()


def make_kernel(name: str, plan: SigmaPlan, *, block_columns: int | None = None):
    """Construct a registered kernel by name, or raise listing the registry."""
    return _REGISTRY[name](plan, block_columns=block_columns)


@runtime_checkable
class SigmaKernel(Protocol):
    """What a sigma kernel must provide to the operator/driver layer."""

    name: str
    plan: SigmaPlan

    def apply(self, C: np.ndarray, counters=None) -> np.ndarray: ...

    def apply_batch(self, C_stack: np.ndarray, counters=None) -> np.ndarray: ...

    def make_counters(self): ...

    def account(self, registry, counters, seconds: float): ...


def apply_batch_loop(self, C_stack, *args) -> np.ndarray:
    """sigma for a (k, na, nb) stack of CI vectors: ``self.apply``, k times.

    The one ``apply_batch`` of every class that has one (``*args`` is the
    kernels' optional ``counters``).  A convenience, not an optimisation:
    one vector's sweeps run - and one sigma is computed - at a time.
    """
    na, nb = self.plan.shape
    C_stack = np.asarray(C_stack)
    if C_stack.ndim != 3 or C_stack.shape[1:] != (na, nb):
        raise ValueError(
            f"C_stack must have shape (k, {na}, {nb}), got {C_stack.shape}"
        )
    sigma = np.empty(C_stack.shape)
    for i, C in enumerate(C_stack):
        sigma[i] = self.apply(C, *args)
    return sigma


def timed_apply(kernel: SigmaKernel, C, counters=None, telemetry=None) -> np.ndarray:
    """``kernel.apply(C)``, counted into ``counters`` and - when a
    :class:`repro.obs.Telemetry` is attached - accounted through the audited
    path (:mod:`repro.obs.accounting`) as one call with one timer sample."""
    fresh = kernel.make_counters()
    t0 = time.perf_counter() if telemetry else 0.0
    sigma = kernel.apply(C, fresh)
    if telemetry:
        kernel.account(telemetry.registry, fresh, time.perf_counter() - t0)
    if counters is not None:
        counters.add(fresh)
    return sigma


def as_ci_matrix(C, shape: tuple[int, int]) -> np.ndarray:
    """``C`` (any real array-like) as a C-contiguous float64 ``shape`` matrix;
    no copy when it already is one.

    The one coercion every sigma entry point goes through.  Complex or
    non-numeric input is a ``TypeError`` - NumPy's cast would drop an
    imaginary part with only a warning, a silently wrong sigma.
    """
    C = np.asarray(C)
    if C.dtype.kind not in "fiub":
        raise TypeError(f"C must be real (float64-convertible), got dtype {C.dtype}")
    C = np.ascontiguousarray(C, dtype=np.float64)
    if C.shape != shape:
        raise ValueError(f"C must have shape {shape}, got {C.shape}")
    return C


def transpose_parity(plan: SigmaPlan, C: np.ndarray) -> int:
    """eps = +1 or -1 when ``C`` equals ``eps * C.T`` *exactly* on a
    closed-shell plan, else 0 (open shell, any unsymmetric C, the zero vector).

    The one place the Ms = 0 vector symmetry is tested; the kernel, the rank
    program, the rank engine, the preconditioners and the operator's spin
    penalty all ask here.  Exact (``np.array_equal``), never a tolerance,
    for two reasons: the answer depends on the bits of C alone, so every
    rank and the parent agree without a message; and a vector that is only
    *nearly* symmetric is not in the sector - treating it as if it were
    would silently drop its antisymmetric part from sigma.  One row is
    compared with one column first, so an unsymmetric C (any random vector)
    leaves after microseconds, not after a pass over the matrix.
    """
    if not plan.closed_shell or C.shape != plan.shape:
        return 0
    for eps in (1, -1):
        if np.array_equal(C[0], eps * C[:, 0]) and np.array_equal(C, C.T if eps > 0 else -C.T):
            # only the zero matrix is both symmetric and antisymmetric
            return eps if C.any() else 0
    return 0


def add_transpose(Z: np.ndarray, eps: int) -> np.ndarray:
    """Z + eps * Z^T for eps = +-1: how a half of sigma is completed (the
    paper's "vector symm" step) and, times 0.5, the projection onto the
    sector.  The result is *bitwise* eps-symmetric because IEEE addition
    commutes: element (i, j) and element (j, i) are the same sum."""
    return Z + Z.T if eps > 0 else Z - Z.T


def one_electron_sigma(
    plan: SigmaPlan, C: np.ndarray, Ct: np.ndarray | None, columns: slice = slice(None)
) -> np.ndarray:
    """Columns ``columns`` of the one-electron term T_a C + (T_b C^T)^T of
    one (na, nb) CI matrix.  ``Ct`` is the C-contiguous transpose of C, or
    None to stop after the alpha part (for C = eps * C^T the beta part is
    eps times its transpose, which the caller's Z + eps * Z^T supplies).

    Alpha part first: every kernel and every rank program starts its
    accumulation from exactly this array, which is part of what keeps the
    execution modes bitwise-equal.  So is this: a CSR product adds a row's
    entries left to right column by column, so a column slice is - to the
    bit - those columns of the whole product, and the ranks can each take
    the column blocks they own.
    """
    sigma = np.asarray(plan.Ta @ C[:, columns])
    if Ct is not None:
        sigma += np.asarray(plan.Tb[columns] @ Ct).T
    return sigma


# -- DGEMM kernel pieces ------------------------------------------------------


def column_blocks(n_columns: int, block_columns: int) -> list[tuple[int, int]]:
    """The (lo, hi) column blocks a kernel sweeps for an n_columns space.

    This is the canonical blocking every sigma sweep uses; distributing
    *whole* blocks across workers is what lets the shared-memory backend
    issue operand-identical DGEMMs and stay bitwise-equal to the serial
    kernel.
    """
    return [
        (lo, min(lo + block_columns, n_columns))
        for lo in range(0, n_columns, block_columns)
    ]


def _block_width(lo: int, hi: int, block_columns: int) -> int:
    """Width of column block (lo, hi), which the sweep's scratch must hold."""
    if hi - lo > block_columns:
        raise ValueError(
            f"column block ({lo}, {hi}) is wider than block_columns={block_columns}"
        )
    return hi - lo


def same_spin_sigma(
    splan: SameSpinPlan,
    W: np.ndarray,
    C_rows: np.ndarray,
    block_columns: int,
    counters: SigmaCounters | None,
    *,
    col_blocks: Iterable[tuple[int, int]] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Same-spin term for one row-major (nstr, M) CI matrix.

    Acts on the *row* strings; the beta-beta term passes the transposed CI
    matrix, like the paper's Fig. 2a which works on transposed local C
    and sigma blocks.  D and E are (NK, L, m): slot (K, l) is the l-th of
    the L pairs open in N-2-electron string K (``splan``), so no row is a
    structural zero.  Once per sweep the L x L blocks W[pairs_K, pairs_K] .
    diag(sign_K) are cut from ``W`` - the phase of the gather rides on the
    block's columns, so D is a plain copy; per column block, three compiled
    calls:

    * gather - D = rows ``splan.source`` of the block, one ``np.take``;
    * E[K] = W_K . D[K] for every K, one stacked ``np.matmul`` (NK DGEMMs,
      L x L x m each);
    * scatter - sigma = ``splan.scatter`` @ E, a CSR product that adds each
      string's entries left to right in table order, so a block's sums do
      not depend on the sweep around it.

    ``col_blocks`` restricts the sweep to a subset of the canonical
    :func:`column_blocks` (the shared-memory backend distributes whole
    blocks across workers; each block's operands - and therefore its
    rounding - are identical to the full serial sweep); any iterable,
    consumed one block at a time.  ``out`` writes results into a
    caller-provided array (e.g. a shared-memory segment) instead of
    allocating; only the swept blocks are touched.  D and E are allocated
    once per sweep, ``block_columns`` wide; a narrower (ragged last) block
    takes a prefix of the same memory, so every block's DGEMM operands are
    contiguous whatever its width and no block faults in fresh pages.
    """
    NK, L = splan.pairs.shape
    M = C_rows.shape[1]
    if out is None:
        out = np.zeros(C_rows.shape)
    if col_blocks is None:
        col_blocks = column_blocks(M, block_columns)
    W_blocks = splan.w_blocks(W)
    width = min(block_columns, M)
    D_flat, E_flat = np.empty((2, NK * L * width))
    for lo, hi in col_blocks:
        m = _block_width(lo, hi, width)
        D = D_flat[: NK * L * m].reshape(NK, L, m)
        E = E_flat[: NK * L * m].reshape(NK, L, m)
        # "clip" because the default "raise" buffers `out`; the indices are
        # the plan's own and in range
        np.take(C_rows[:, lo:hi], splan.source, axis=0, out=D.reshape(NK * L, m), mode="clip")
        np.matmul(W_blocks, D, out=E)
        out[:, lo:hi] = splan.scatter @ E.reshape(NK * L, m)
        if counters is not None:
            counters.dgemm_flops += 2 * L * L * NK * m
            counters.dgemm_calls += NK
            counters.gather_elements += splan.n_entries * m
            counters.scatter_elements += splan.n_entries * m
    return out


def mixed_spin_sigma(
    plan: SigmaPlan,
    C: np.ndarray,
    block_columns: int,
    counters: SigmaCounters | None,
    *,
    col_blocks: Iterable[tuple[int, int]] | None = None,
    out: np.ndarray | None = None,
    scatter: MixedSpinHalfPlan | None = None,
    half: bool = False,
) -> np.ndarray:
    """Mixed-spin (alpha-beta) term for one (n_rows, nb) CI matrix.

    Beta-major, one beta string k at a time, holding only what k's
    occupation connects (``per`` = n_beta (n - n_beta + 1) of the n(n+1)/2
    packed pairs):

    * gather - D_k (per, n_rows) = rows ``source[k]`` of C^T, the transposed
      copy made once per sweep: ``per`` contiguous row copies in one
      ``np.take``, no element gather;
    * E_k = (G[:, pairs_k] . diag(sign_k)) . D_k, one (npair x per) .
      (per x n_rows) DGEMM - the signs ride on the ``per`` integral columns,
      cut per string as rows of the signed table [G^T; -G^T];
    * scatter - sigma[:, k] = ``scatter`` @ E_k raveled (pair * J): the
      alpha half's CSR matrix as a mat-vec, whose row I adds target I's
      entries left to right in plan order; the columns of a block are
      collected transposed and flipped into ``out`` once per block.

    Every beta column is its own DGEMM, so the result does not depend - to
    the bit - on the block width, on which blocks a call sweeps or on the
    rank that sweeps them.

    ``col_blocks``/``out`` have the same contract as in
    :func:`same_spin_sigma`: restrict the sweep to a subset of the
    canonical blocks (a lazily consumed iterable - a rank's generator
    claims its next task only when the sweep asks for the next block)
    and/or accumulate into a caller-provided buffer.  ``scatter`` replaces
    the plan's alpha half when ``C`` holds only some alpha rows (a
    simulated rank's task: the rows it fetched, and the targets it owns
    with sources numbered into those rows); sigma then has one row per
    target of it.

    ``half`` (only for C = eps * C^T on a closed-shell plan, see the module
    docstring) returns Y = sigma^ab / 2, the same sweep with the signs
    halved, for the caller's Y + eps * Y^T.
    """
    n_rows, nb = C.shape
    gb = plan.gather_b
    sa = plan.scatter_a if scatter is None else scatter
    S = sa.scatter
    npair = plan.g_matrix.shape[0]
    if out is None:
        out = np.zeros((S.shape[0], nb))
    if not gb.per or not sa.per:
        return out  # a spin without electrons has no single excitations
    if col_blocks is None:
        col_blocks = column_blocks(nb, block_columns)
    Ct = np.ascontiguousarray(C.T)
    Gt = np.ascontiguousarray(plan.g_matrix.T) * (0.5 if half else 1.0)
    signed_G = np.concatenate([Gt, -Gt])
    source = gb.source.reshape(nb, gb.per)
    signed_pair = (gb.pair + npair * (gb.sign < 0)).reshape(nb, gb.per)
    A = np.empty((gb.per, npair))
    D = np.empty((gb.per, n_rows))
    E = np.empty((npair, n_rows))
    width = min(block_columns, nb)
    columns = np.empty((width, S.shape[0]))
    for lo, hi in col_blocks:
        m = _block_width(lo, hi, width)
        for k in range(lo, hi):
            # "clip" because the default "raise" buffers `out`; the indices
            # are the plan's own and in range
            np.take(Ct, source[k], axis=0, out=D, mode="clip")
            np.take(signed_G, signed_pair[k], axis=0, out=A, mode="clip")
            np.matmul(A.T, D, out=E)
            columns[k - lo] = S @ E.ravel()
        out[:, lo:hi] += columns[:m].T
        if counters is not None:
            counters.dgemm_flops += 2 * npair * gb.per * n_rows * m
            counters.dgemm_calls += m
            counters.gather_elements += m * gb.per * n_rows
            counters.scatter_elements += sa.n_entries * m
    return out


# benchmarks/e2e/layers.py (frozen between benchmark PRs) imports these two
# names and calls them positionally on a (1, ...) stack; they have no other
# caller and go with the next benchmark PR.
def same_spin_sigma_stack(splan, W, C_stack, block_columns, counters) -> np.ndarray:
    return np.stack(
        [same_spin_sigma(splan, W, C, block_columns, counters) for C in C_stack]
    )


def mixed_spin_sigma_stack(plan, C_stack, block_columns, counters) -> np.ndarray:
    return np.stack(
        [mixed_spin_sigma(plan, C, block_columns, counters) for C in C_stack]
    )


@register_kernel("dgemm")
class DgemmKernel:
    """The paper's gather/DGEMM/scatter sigma.

    ``block_columns`` defaults to the plan's cache-sized block width
    (:meth:`SigmaPlan.default_block_columns`).  One accumulation sequence
    for every input; where C = eps * C^T exactly (:func:`transpose_parity`)
    its beta steps are skipped, the mixed term is halved and the transpose
    supplies the rest (module docstring).  Nothing selects this but the
    bits of C.
    """

    def __init__(self, plan: SigmaPlan, *, block_columns: int | None = None):
        self.plan = plan
        self.block_columns = (
            int(block_columns) if block_columns else plan.default_block_columns()
        )

    def make_counters(self) -> SigmaCounters:
        return SigmaCounters()

    def account(self, registry, counters, seconds: float):
        return account_sigma_dgemm(registry, counters, seconds)

    def apply(self, C: np.ndarray, counters: SigmaCounters | None = None) -> np.ndarray:
        plan = self.plan
        C = as_ci_matrix(C, plan.shape)
        bc = self.block_columns
        # C = eps * C^T (closed shell): every beta piece is eps times the
        # transpose of its alpha twin, so accumulate only the alpha half Z
        # and complete sigma = Z + eps * Z^T - the paper's "vector symm" step
        eps = transpose_parity(plan, C)
        Ct = None if eps else np.ascontiguousarray(C.T)
        # accumulation order, shared with every rank program: one-electron
        # alpha, one-electron beta, alpha-alpha, beta-beta, mixed
        sigma = one_electron_sigma(plan, C, Ct)
        if plan.same_a is not None:
            sigma += same_spin_sigma(plan.same_a, plan.w_matrix, C, bc, counters)
        if plan.same_b is not None and not eps:
            sigma += same_spin_sigma(plan.same_b, plan.w_matrix, Ct, bc, counters).T
        sigma += mixed_spin_sigma(plan, C, bc, counters, half=bool(eps))
        if eps:
            sigma = add_transpose(sigma, eps)
        return sigma

    apply_batch = apply_batch_loop


# The "compiled" lane (numba gather/scatter loops around these same DGEMMs)
# only ever ran on its NumPy fallback and is retired; the name still resolves,
# to the one DGEMM kernel, for callers and job specs that carry it.
_REGISTRY.register("compiled", DgemmKernel)


# -- MOC kernel pieces --------------------------------------------------------


def _segment_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sum along ``axis``.

    ``np.sum`` groups additions differently depending on the *total* array
    shape (SIMD/pairwise blocking), so a row block's reduction would round
    differently under another ``row_block``.  Sequential elementwise adds
    are shape-independent.  The reduced axis is short (entries per string),
    so this costs a handful of vectorized adds.
    """
    x = np.moveaxis(x, axis, 0)
    if x.shape[0] == 0:
        return np.zeros(x.shape[1:], dtype=x.dtype)
    out = x[0].copy()
    for i in range(1, x.shape[0]):
        out += x[i]
    return out


def moc_same_spin_sigma(
    space,
    W: np.ndarray,
    C_rows: np.ndarray,
    counters: MOCCounters | None,
) -> np.ndarray:
    """MOC same-spin term acting on the row strings of C_rows (nstr, M).

    Regenerates every string's double-excitation list on the fly - the
    paper's replicated-computation bottleneck, reproduced on purpose.
    """
    n = space.n
    k = space.k
    if k < 2:
        return np.zeros_like(C_rows)
    nstr = space.size
    out = np.zeros_like(C_rows)
    masks = space.masks
    occs = space.occupations
    index = space._index

    def pair_index(a: int, b: int) -> int:  # a > b
        return a * (a - 1) // 2 + b

    for j in range(nstr):
        mask = int(masks[j])
        occ = [int(o) for o in occs[j]]
        # accumulate H[I, j] for all same-spin-connected I
        vals = np.zeros(nstr)
        for bq in range(k):
            q = occ[bq]
            m1, s1 = _annihilate(mask, q)
            for bs in range(bq):
                s = occ[bs]
                m2, s2 = _annihilate(m1, s)
                qs = pair_index(q, s)
                free = [p for p in range(n) if not (m2 >> p) & 1]
                for ip, p in enumerate(free):  # p > r: a+_p applied last
                    for r in free[:ip]:
                        m3, s3 = _create(m2, r)
                        m4, s4 = _create(m3, p)
                        i_idx = index[m4]
                        vals[i_idx] += s1 * s2 * s3 * s4 * W[pair_index(p, r), qs]
                        if counters is not None:
                            counters.matrix_elements_computed += 1
        nz = np.nonzero(vals)[0]
        out[nz, :] += vals[nz, None] * C_rows[j, :]
        if counters is not None:
            counters.indexed_ops += nz.size * C_rows.shape[1]
    return out


def _annihilate(mask: int, orb: int) -> tuple[int, int]:
    sign = -1 if bin(mask & ((1 << orb) - 1)).count("1") & 1 else 1
    return mask & ~(1 << orb), sign


def _create(mask: int, orb: int) -> tuple[int, int]:
    sign = -1 if bin(mask & ((1 << orb) - 1)).count("1") & 1 else 1
    return mask | (1 << orb), sign


def moc_mixed_sigma(
    plan: SigmaPlan,
    C: np.ndarray,
    counters: MOCCounters | None,
    row_block: int = 512,
) -> np.ndarray:
    """MOC mixed-spin term for one (na, nb) CI matrix.

    Loops orbital pairs (p, q), gathers the C rows addressed by every alpha
    single excitation with that pair, and applies the beta list with
    integral weights via indexed updates (operation count per Table 1).
    """
    ta = plan.singles_a
    gb = plan.gather_b
    n = plan.n
    nb = plan.shape[1]
    g = plan.mo.g
    b_src, b_r, b_s, b_sgn = gb.source, gb.p, gb.q, gb.sign
    per_b = gb.per
    sigma = np.zeros_like(C)
    for p in range(n):
        for q in range(n):
            rows_idx = ta.rows_for_pq(p, q)
            if rows_idx.size == 0:
                continue
            src_a = ta.source[rows_idx]
            tgt_a = ta.target[rows_idx]
            sgn_a = ta.sign[rows_idx].astype(np.float64)
            wb = g[p, q, b_r, b_s] * b_sgn  # weights per beta entry
            for lo in range(0, rows_idx.size, row_block):
                hi = min(lo + row_block, rows_idx.size)
                V = sgn_a[lo:hi, None] * C[src_a[lo:hi], :]
                T = V[:, b_src] * wb[None, :]
                sigma[tgt_a[lo:hi], :] += _segment_sum(
                    T.reshape(hi - lo, nb, per_b), axis=2
                )
                if counters is not None:
                    counters.indexed_ops += (hi - lo) * b_src.size
    return sigma


@register_kernel("moc")
class MocKernel:
    """Minimum-operation-count sigma (the paper's baseline).

    ``block_columns`` is accepted for interface parity (it sets the row
    blocking of the mixed-spin gathers); the MOC kernel's cost structure is
    indexed updates, not column-blocked DGEMMs.
    """

    def __init__(self, plan: SigmaPlan, *, block_columns: int | None = None):
        self.plan = plan
        self.row_block = int(block_columns) * 8 if block_columns else 512

    def make_counters(self) -> MOCCounters:
        return MOCCounters()

    def account(self, registry, counters, seconds: float):
        return account_sigma_moc(registry, counters, seconds)

    def apply(self, C: np.ndarray, counters: MOCCounters | None = None) -> np.ndarray:
        plan = self.plan
        C = as_ci_matrix(C, plan.shape)
        Ct = np.ascontiguousarray(C.T)
        sigma = one_electron_sigma(plan, C, Ct)
        if plan.space_a.k >= 2:
            sigma += moc_same_spin_sigma(plan.space_a, plan.w_matrix, C, counters)
        if plan.space_b.k >= 2:
            sigma += moc_same_spin_sigma(plan.space_b, plan.w_matrix, Ct, counters).T
        sigma += moc_mixed_sigma(plan, C, counters, self.row_block)
        return sigma

    apply_batch = apply_batch_loop


# -- functional entry points --------------------------------------------------


def one_electron_operators(problem) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse one-electron operators T_sigma[I,J] = sum_pq h_pq <I|E_pq|J>,
    as cached on the problem's :class:`SigmaPlan`."""
    plan = SigmaPlan.for_problem(problem)
    return plan.Ta, plan.Tb


def sigma_dgemm(
    problem,
    C: np.ndarray,
    *,
    block_columns: int | None = None,
    counters: SigmaCounters | None = None,
    telemetry=None,
) -> np.ndarray:
    """Full sigma = H C with the DGEMM-based algorithm (no e_core shift).

    ``block_columns`` is the column-block width of the dense intermediates
    (None: :meth:`SigmaPlan.default_block_columns`); ``counters`` and
    ``telemetry`` are those of :func:`timed_apply`.
    """
    kernel = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=block_columns)
    return timed_apply(kernel, C, counters, telemetry)


def sigma_moc(
    problem,
    C: np.ndarray,
    *,
    counters: MOCCounters | None = None,
    telemetry=None,
) -> np.ndarray:
    """Full sigma = H C with the minimum-operation-count algorithm."""
    return timed_apply(MocKernel(SigmaPlan.for_problem(problem)), C, counters, telemetry)

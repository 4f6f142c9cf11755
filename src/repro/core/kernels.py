"""Sigma kernels: plan-driven, batched implementations of sigma = H C.

A :class:`SigmaKernel` consumes a precompiled :class:`~repro.core.plans.SigmaPlan`
and evaluates sigma for a *stack* of CI vectors at once:

* :class:`DgemmKernel` - the paper's algorithm.  Gather into dense
  intermediates, one DGEMM per column block, reshaped segment-sum scatter.
  Batching k vectors stacks the dense right-hand sides k-fold, so each
  column block issues *one* batched DGEMM over a k-times-larger right-hand
  side (a broadcasted matrix product, the dgemm_batch idiom) instead of k
  separate sweeps.  Each slice of the stacked product has operand-for-
  operand the same inputs as the single-vector DGEMM, which is what makes
  batched results bitwise-identical to a vector-at-a-time loop even though
  BLAS kernels round differently when a single GEMM is merely widened.
* :class:`MocKernel` - the minimum-operation-count baseline.  Batching still
  helps it honestly: the per-string same-spin matrix-element lists (the
  paper's replicated-work bottleneck) are generated once and applied to all
  k vectors, and the mixed-spin integral weights are formed once per (p, q).

Kernels are registered by name (``register_kernel``) so drivers validate and
construct them through one registry; every kernel guarantees that
``apply_batch(C_stack)`` is bitwise-identical to applying the vectors one at
a time (each output column of a wider DGEMM is the same dot product).

Counters (:class:`SigmaCounters`, :class:`MOCCounters`) record FLOPs,
gather/scatter traffic, and - new with the batched kernels - the number of
dense DGEMM invocations, which is how the test suite proves batched sigma
issues strictly fewer DGEMMs than a vector-at-a-time loop.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..obs.accounting import account_sigma_dgemm, account_sigma_moc
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
    "same_spin_sigma",
    "same_spin_sigma_stack",
    "mixed_spin_sigma_stack",
    "column_blocks",
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

_REGISTRY: dict[str, type] = {}


def register_kernel(name: str):
    """Class decorator: register a SigmaKernel implementation under ``name``."""

    def deco(cls):
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def kernel_names() -> tuple[str, ...]:
    """Names of all registered sigma kernels (sorted)."""
    return tuple(sorted(_REGISTRY))


def make_kernel(name: str, plan: SigmaPlan, *, block_columns: int | None = None):
    """Construct a registered kernel by name, or raise listing the registry."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sigma kernel {name!r}; registered kernels: "
            f"{', '.join(kernel_names())}"
        ) from None
    return cls(plan, block_columns=block_columns)


@runtime_checkable
class SigmaKernel(Protocol):
    """What a sigma kernel must provide to the operator/driver layer."""

    name: str
    plan: SigmaPlan

    def apply(self, C: np.ndarray, counters=None) -> np.ndarray: ...

    def apply_batch(self, C_stack: np.ndarray, counters=None) -> np.ndarray: ...

    def make_counters(self): ...

    def account(self, registry, counters, seconds: float, calls: int = 1): ...


# -- DGEMM kernel pieces ------------------------------------------------------


def _segment_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Left-to-right sum along ``axis``.

    ``np.sum`` groups additions differently depending on the *total* array
    shape (SIMD/pairwise blocking), so a batched reduction would not be
    bitwise-identical to the per-vector one.  Sequential elementwise adds
    are shape-independent, which is what keeps ``apply_batch`` exactly equal
    to a vector-at-a-time loop.  The reduced axis is short (entries per
    string), so this costs a handful of vectorized adds.
    """
    x = np.moveaxis(x, axis, 0)
    if x.shape[0] == 0:
        return np.zeros(x.shape[1:], dtype=x.dtype)
    out = x[0].copy()
    for i in range(1, x.shape[0]):
        out += x[i]
    return out


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


class _Scratch:
    """Flat float64 buffers of one sweep, handed out as C-contiguous views.

    A sweep allocates its D, E and scatter buffers once, for its widest
    column block; a narrower (ragged last) block takes a shorter prefix of
    the same memory, so every block's DGEMM operands are contiguous
    whatever its width and no block faults in fresh pages.
    """

    def __init__(self, *sizes: int):
        self._flat = [np.empty(size) for size in sizes]

    def views(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        return [
            flat[: int(np.prod(shape))].reshape(shape)
            for flat, shape in zip(self._flat, shapes)
        ]


def same_spin_sigma_stack(
    splan: SameSpinPlan,
    W: np.ndarray,
    C_rows: np.ndarray,
    block_columns: int,
    counters: SigmaCounters | None,
    *,
    col_blocks: list[tuple[int, int]] | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Same-spin term for a (k, nstr, M) stack of row-major CI matrices.

    Acts on the *row* strings; the beta-beta term passes the transposed CI
    matrices, like the paper's Fig. 2a which works on transposed local C
    and sigma blocks.  One batched DGEMM (broadcasted W @ D-stack) per
    column block; every slice of the stack sees exactly the single-vector
    operands, so the result is bitwise-identical to sweeping the k vectors
    one at a time while issuing k-times fewer DGEMM invocations.

    ``col_blocks`` restricts the sweep to a subset of the canonical
    :func:`column_blocks` (the shared-memory backend distributes whole
    blocks across workers; each block's operands — and therefore its
    rounding — are identical to the full serial sweep).  ``out`` writes
    results into a caller-provided array (e.g. a shared-memory segment)
    instead of allocating; only the swept blocks are touched.
    """
    NK = splan.n_reduced
    npair = splan.n_pairs
    nstr = splan.n_strings
    kk2 = splan.pairs_per_string
    key = splan.key
    sgn = splan.sign[None, :, None]
    src = splan.source
    k, _, M = C_rows.shape
    if out is None:
        out = np.zeros_like(C_rows)
    if col_blocks is None:
        col_blocks = column_blocks(M, block_columns)
    if not col_blocks:
        return out
    widest = max(hi - lo for lo, hi in col_blocks)
    scratch = _Scratch(*[k * npair * NK * widest] * 2, k * key.size * widest)
    for lo, hi in col_blocks:
        m = hi - lo
        D, E, vals = scratch.views(
            (k, npair * NK, m), (k, npair * NK, m), (k, key.size, m)
        )
        # refilling with zeros keeps the gathered operands - and the
        # result - bitwise identical to a fresh buffer
        D[...] = 0.0
        D[:, key] = sgn * C_rows[:, src, lo:hi]
        np.matmul(
            W, D.reshape(k, npair, NK * m), out=E.reshape(k, npair, NK * m)
        )
        np.take(E, key, axis=1, out=vals, mode="clip")
        vals *= sgn
        out[:, :, lo:hi] = _segment_sum(vals.reshape(k, nstr, kk2, m), axis=2)
        if counters is not None:
            counters.dgemm_flops += 2 * npair * npair * NK * m * k
            counters.dgemm_calls += 1
            counters.gather_elements += splan.n_entries * m * k
            counters.scatter_elements += splan.n_entries * m * k
    return out


def same_spin_sigma(
    splan: SameSpinPlan,
    W: np.ndarray,
    C: np.ndarray,
    block_columns: int,
    counters: SigmaCounters | None,
) -> np.ndarray:
    """:func:`same_spin_sigma_stack` for one (nstr, M) matrix."""
    return same_spin_sigma_stack(
        splan, W, np.ascontiguousarray(C)[None], block_columns, counters
    )[0]


def _gather_groups(half: MixedSpinHalfPlan, lo: int, hi: int):
    """The half's entries with target in [lo, hi), one tuple per ordered (p, q).

    Yields ``(pair, columns, source, sign)``: within one ordered (p, q)
    every target string occurs at most once, so ``columns`` (targets
    relative to ``lo``) are distinct and the group is one column gather.
    """
    elo, ehi = lo * half.per, hi * half.per
    pair = half.pair[elo:ehi]
    ordered = 2 * pair + (half.p[elo:ehi] > half.q[elo:ehi])
    order = np.argsort(ordered, kind="stable")
    cuts = np.flatnonzero(np.diff(ordered[order])) + 1
    columns = half.target[elo:ehi] - lo
    source = half.source[elo:ehi]
    sign = half.sign[elo:ehi]
    for idx in np.split(order, cuts):
        yield pair[idx[0]], columns[idx], source[idx], sign[idx]


def mixed_spin_sigma_stack(
    plan: SigmaPlan,
    C_stack: np.ndarray,
    block_columns: int,
    counters: SigmaCounters | None,
    *,
    col_blocks: list[tuple[int, int]] | None = None,
    out: np.ndarray | None = None,
    scatter: MixedSpinHalfPlan | None = None,
) -> np.ndarray:
    """Mixed-spin (alpha-beta) term for a (k, na, nb) stack of CI vectors.

    Per block of beta columns the intermediates are held pair-packed as
    D[vector, pair, J_alpha, k_beta] with the block column fastest:

    * gather - for each ordered (r, s), D[{rs}, :, columns] = sign *
      C[:, sources]: a column gather within contiguous rows;
    * E = G.D, one batched DGEMM (broadcasted matrix product) over the
      (n(n+1)/2)^2 packed integrals, written into reused scratch;
    * scatter - entry (I, J, {pq}) of the alpha half reads the contiguous
      row E[{pq}, J, :], and rows are summed left to right per target I.

    Slice i of every operand equals the single-vector case exactly, so the
    batch is bitwise-identical to a vector-at-a-time loop.

    ``col_blocks``/``out`` have the same contract as in
    :func:`same_spin_sigma_stack`: restrict the sweep to a subset of the
    canonical blocks and/or accumulate into a caller-provided buffer, with
    per-block arithmetic unchanged.  ``scatter`` replaces the plan's alpha
    half when ``C_stack`` holds only some alpha rows (a simulated rank's
    task: the rows it fetched, and the targets it owns with sources
    numbered into those rows); sigma then has one row per target of it.
    """
    k, n_rows, nb = C_stack.shape
    gb = plan.gather_b
    sa = plan.scatter_a if scatter is None else scatter
    G = plan.g_matrix
    npair = G.shape[0]
    n_targets = sa.n_entries // sa.per if sa.per else n_rows
    if out is None:
        out = np.zeros((k, n_targets, nb))
    if col_blocks is None:
        col_blocks = column_blocks(nb, block_columns)
    if not col_blocks or not gb.per or not sa.per:
        return out  # a spin without electrons has no single excitations
    rows = sa.pair * n_rows + sa.source  # of E viewed (pair * J_alpha, k_beta)
    sgn = sa.sign[None, :, None]
    widest = max(hi - lo for lo, hi in col_blocks)
    scratch = _Scratch(*[k * npair * n_rows * widest] * 2, k * rows.size * widest)
    for lo, hi in col_blocks:
        m = hi - lo
        D, E, vals = scratch.views(
            (k, npair, n_rows, m), (k, npair, n_rows, m), (k, rows.size, m)
        )
        D[...] = 0.0
        for pair, columns, source, sign in _gather_groups(gb, lo, hi):
            D[:, pair][:, :, columns] = C_stack[:, :, source] * sign
        np.matmul(
            G, D.reshape(k, npair, n_rows * m), out=E.reshape(k, npair, n_rows * m)
        )
        np.take(E.reshape(k, npair * n_rows, m), rows, axis=1, out=vals, mode="clip")
        vals *= sgn
        out[:, :, lo:hi] += _segment_sum(vals.reshape(k, n_targets, sa.per, m), axis=2)
        if counters is not None:
            counters.dgemm_flops += 2 * npair * npair * m * n_rows * k
            counters.dgemm_calls += 1
            counters.gather_elements += (hi - lo) * gb.per * n_rows * k
            counters.scatter_elements += sa.n_entries * m * k
    return out


def _check_stack(C_stack: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    C_stack = np.ascontiguousarray(C_stack, dtype=np.float64)
    if C_stack.ndim != 3 or C_stack.shape[1:] != shape:
        raise ValueError(
            f"C_stack must have shape (k, {shape[0]}, {shape[1]}), got {C_stack.shape}"
        )
    return C_stack


def _alpha_layout(C_stack: np.ndarray) -> np.ndarray:
    """(k, na, nb) -> (na, k*nb): alpha strings as rows, batched columns."""
    k, na, nb = C_stack.shape
    return np.ascontiguousarray(C_stack.transpose(1, 0, 2).reshape(na, k * nb))


def _beta_layout(C_stack: np.ndarray) -> np.ndarray:
    """(k, na, nb) -> (nb, k*na): beta strings as rows, batched columns."""
    k, na, nb = C_stack.shape
    return np.ascontiguousarray(C_stack.transpose(2, 0, 1).reshape(nb, k * na))


@register_kernel("dgemm")
class DgemmKernel:
    """The paper's gather/DGEMM/scatter sigma, batched over CI vectors.

    ``block_columns`` defaults to the plan's cache-sized block width
    (:meth:`SigmaPlan.default_block_columns`).
    """

    def __init__(self, plan: SigmaPlan, *, block_columns: int | None = None):
        self.plan = plan
        self.block_columns = (
            int(block_columns) if block_columns else plan.default_block_columns()
        )

    def make_counters(self) -> SigmaCounters:
        return SigmaCounters()

    def account(self, registry, counters, seconds: float, calls: int = 1):
        return account_sigma_dgemm(registry, counters, seconds, calls=calls)

    def apply(self, C: np.ndarray, counters: SigmaCounters | None = None) -> np.ndarray:
        na, nb = self.plan.shape
        C = np.asarray(C)
        if C.shape != (na, nb):
            raise ValueError(f"C must have shape {(na, nb)}, got {C.shape}")
        return self.apply_batch(C[None], counters)[0]

    def apply_batch(
        self, C_stack: np.ndarray, counters: SigmaCounters | None = None
    ) -> np.ndarray:
        plan = self.plan
        na, nb = plan.shape
        C_stack = _check_stack(C_stack, plan.shape)
        k = C_stack.shape[0]
        bc = self.block_columns
        cols = _alpha_layout(C_stack)
        rows_stack = np.ascontiguousarray(C_stack.transpose(0, 2, 1))
        # accumulation order mirrors the single-vector algorithm exactly:
        # one-electron alpha, one-electron beta, alpha-alpha, beta-beta, mixed
        sigma = np.asarray(plan.Ta @ cols).reshape(na, k, nb).transpose(1, 0, 2)
        sigma = sigma + np.asarray(
            plan.Tb @ _beta_layout(C_stack)
        ).reshape(nb, k, na).transpose(1, 2, 0)
        if plan.same_a is not None:
            sigma += same_spin_sigma_stack(
                plan.same_a, plan.w_matrix, C_stack, bc, counters
            )
        if plan.same_b is not None:
            sigma += same_spin_sigma_stack(
                plan.same_b, plan.w_matrix, rows_stack, bc, counters
            ).transpose(0, 2, 1)
        sigma += mixed_spin_sigma_stack(plan, C_stack, bc, counters)
        return sigma


# The "compiled" lane (numba gather/scatter loops around these same DGEMMs)
# only ever ran on its NumPy fallback and is retired; the name still resolves,
# to the one DGEMM kernel, for callers and job specs that carry it.
_REGISTRY["compiled"] = DgemmKernel


# -- MOC kernel pieces --------------------------------------------------------


def moc_same_spin_sigma(
    space,
    W: np.ndarray,
    C_rows: np.ndarray,
    counters: MOCCounters | None,
) -> np.ndarray:
    """MOC same-spin term acting on the row strings of C_rows (nstr, M).

    Regenerates every string's double-excitation list on the fly - the
    paper's replicated-computation bottleneck, reproduced on purpose.  A
    batched caller passes M = k * n_columns stacked columns, so the lists
    are generated once and applied to all k vectors.
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


def moc_mixed_sigma_stack(
    plan: SigmaPlan,
    C_stack: np.ndarray,
    counters: MOCCounters | None,
    row_block: int = 512,
) -> np.ndarray:
    """MOC mixed-spin term for a (k, na, nb) stack of CI vectors.

    Loops orbital pairs (p, q), gathers the C rows addressed by every alpha
    single excitation with that pair, and applies the beta list with
    integral weights via indexed updates (operation count per Table 1).
    The batch folds into the gathered-row axis: the integral weights are
    formed once per (p, q) and the row blocking follows the single-vector
    schedule, so results are bitwise-identical to a vector-at-a-time loop.
    """
    ta = plan.singles_a
    gb = plan.gather_b
    n = plan.n
    nb = plan.shape[1]
    k = C_stack.shape[0]
    g = plan.problem.mo.g
    b_src, b_r, b_s, b_sgn = gb.source, gb.p, gb.q, gb.sign
    per_b = gb.per
    sigma = np.zeros_like(C_stack)
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
                rb = hi - lo
                V = sgn_a[None, lo:hi, None] * C_stack[:, src_a[lo:hi], :]
                T = V.reshape(k * rb, nb)[:, b_src] * wb[None, :]
                Wm = _segment_sum(
                    T.reshape(k * rb, nb, per_b), axis=2
                ).reshape(k, rb, nb)
                for i in range(k):
                    sigma[i, tgt_a[lo:hi], :] += Wm[i]
                if counters is not None:
                    counters.indexed_ops += rb * b_src.size * k
    return sigma


@register_kernel("moc")
class MocKernel:
    """Minimum-operation-count sigma (the paper's baseline), batched.

    ``block_columns`` is accepted for interface parity (it sets the row
    blocking of the mixed-spin gathers); the MOC kernel's cost structure is
    indexed updates, not column-blocked DGEMMs.
    """

    def __init__(self, plan: SigmaPlan, *, block_columns: int | None = None):
        self.plan = plan
        self.row_block = int(block_columns) * 8 if block_columns else 512

    def make_counters(self) -> MOCCounters:
        return MOCCounters()

    def account(self, registry, counters, seconds: float, calls: int = 1):
        return account_sigma_moc(registry, counters, seconds, calls=calls)

    def apply(self, C: np.ndarray, counters: MOCCounters | None = None) -> np.ndarray:
        na, nb = self.plan.shape
        C = np.asarray(C)
        if C.shape != (na, nb):
            raise ValueError(f"C must have shape {(na, nb)}, got {C.shape}")
        return self.apply_batch(C[None], counters)[0]

    def apply_batch(
        self, C_stack: np.ndarray, counters: MOCCounters | None = None
    ) -> np.ndarray:
        plan = self.plan
        problem = plan.problem
        na, nb = plan.shape
        C_stack = _check_stack(C_stack, plan.shape)
        k = C_stack.shape[0]
        cols = _alpha_layout(C_stack)
        rows = _beta_layout(C_stack)
        sigma = np.asarray(plan.Ta @ cols).reshape(na, k, nb).transpose(1, 0, 2)
        sigma = sigma + np.asarray(plan.Tb @ rows).reshape(nb, k, na).transpose(1, 2, 0)
        if problem.n_alpha >= 2:
            sigma += moc_same_spin_sigma(
                problem.space_a, plan.w_matrix, cols, counters
            ).reshape(na, k, nb).transpose(1, 0, 2)
        if problem.n_beta >= 2:
            sigma += moc_same_spin_sigma(
                problem.space_b, plan.w_matrix, rows, counters
            ).reshape(nb, k, na).transpose(1, 2, 0)
        sigma += moc_mixed_sigma_stack(plan, C_stack, counters, self.row_block)
        return sigma

"""Precompiled sigma plans: the sparse index structure, built once.

The paper's whole point is that sigma = H C becomes fast when the sparse
coupling structure is *precomputed once* and the per-iteration work is pure
gather / DGEMM / scatter.  A :class:`SigmaPlan` is that precomputation made
explicit: for one :class:`~repro.core.problem.CIProblem` it compiles

* the one-electron CSR operators T_sigma[I,J] = sum_pq h_pq <I|E_pq|J>,
* the mixed-spin gather/scatter tables re-sorted by target string (so the
  kernels can slice whole blocks of beta columns / alpha rows with constant
  segment length, paper eqs. 4-6),
* the same-spin ``key`` arrays (pair * NK + target) addressing the packed
  (pairs x N-2-strings) intermediate, with float signs (paper eqs. 7-9),
* from each of those entry lists the two tables the sweeps actually walk:
  a *gather index* with one slot per row/column of the dense intermediate D
  into the sign-folded, zero-padded source [C, -C, 0], and a +-1 CSR
  *scatter matrix* in entry order - so a column block's gather is
  ``np.take`` and its scatter one sparse product, both compiled loops,
* the W supermatrix W[(p>r),(q>s)] = (pq|rs) - (ps|rq) and the pair-packed
  chemists-notation G matrix G[(p>=q),(r>=s)] = (pq|rs),
* for a closed-shell problem, ``g_half``: the lower triangle of G with a
  halved diagonal - the operand of the triangular multiply that evaluates
  half of the mixed-spin term when C = +-C^T (:func:`build_g_half`),

and caches all of it on the problem (``SigmaPlan.for_problem``), so every
solver iteration and every simulated MSP rank reuses one immutable plan
instead of re-deriving tables in the hot path.

The plan is consumed by :mod:`repro.core.kernels` (the ``SigmaKernel``
implementations) and by :class:`repro.parallel.pfci.ParallelSigma`, which
replicates the same plan on every simulated rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .excitations import DoubleAnnihilationTable, SingleExcitationTable

__all__ = [
    "SigmaPlan",
    "SameSpinPlan",
    "MixedSpinHalfPlan",
    "pair_index",
    "build_w_matrix",
    "build_g_matrix",
    "build_g_half",
    "one_electron_csr",
    "DEFAULT_BLOCK_BUDGET_MB",
]

DEFAULT_BLOCK_BUDGET_MB = 256
_MAX_BLOCK_COLUMNS = 1024
# D + E of one column block: small enough to stay in the last-level cache
# between the gather, the DGEMM and the scatter that each walk them once
_SCRATCH_TARGET_BYTES = 32 * 2**20


def build_w_matrix(g: np.ndarray) -> np.ndarray:
    """W[(p>r),(q>s)] = (pq|rs) - (ps|rq), packed triangular pairs.

    Vectorized build: pairs are enumerated (1,0), (2,0), (2,1), ... exactly
    like ``np.tril_indices`` so the layout matches
    :attr:`repro.core.excitations.DoubleAnnihilationTable.pair`.
    """
    n = g.shape[0]
    p, r = np.tril_indices(n, -1)
    return (
        g[p[:, None], p[None, :], r[:, None], r[None, :]]
        - g[p[:, None], r[None, :], r[:, None], p[None, :]]
    )


def pair_index(p, q):
    """Packed index of the unordered orbital pair {p, q}: hi (hi + 1) / 2 + lo.

    The ``np.tril_indices(n)`` enumeration (0,0), (1,0), (1,1), (2,0), ...
    that :func:`build_g_matrix` lays its rows and columns out in.
    """
    hi, lo = np.maximum(p, q), np.minimum(p, q)
    return hi * (hi + 1) // 2 + lo


def build_g_matrix(g: np.ndarray) -> np.ndarray:
    """Pair-packed chemists' integrals G[(p>=q),(r>=s)] = (pq|rs).

    (pq|rs) = (qp|rs) = (pq|sr) for real orbitals, so the mixed-spin DGEMM
    needs one row and one column per *unordered* pair: n(n+1)/2 of them
    instead of n^2 (pyscf's ``tril`` link index + packed ``h2``).
    """
    p, q = np.tril_indices(g.shape[0])
    return np.ascontiguousarray(g[p[:, None], q[:, None], p[None, :], q[None, :]])


def build_g_half(G: np.ndarray) -> np.ndarray:
    """Lower triangle of the pair-packed G with a halved diagonal, Fortran order.

    For C = eps * C^T on a closed-shell space the mixed-spin term is
    Y + eps * Y^T with Y summed over pair indices rs <= pq only, the
    diagonal pq = rs counted half (see :mod:`repro.core.kernels`): exactly
    ``g_half`` times the gathered intermediate, which BLAS evaluates as a
    triangular multiply (DTRMM) at half the flops of the full DGEMM.
    Fortran order because that is the layout the BLAS wrapper takes without
    copying; the strict upper triangle is zero and never read.
    """
    half = np.tril(G)
    half[np.diag_indices_from(half)] *= 0.5
    return np.asfortranarray(half)


def one_electron_csr(h: np.ndarray, table: SingleExcitationTable) -> sp.csr_matrix:
    """Sparse one-electron operator T[I,J] = sum_pq h_pq <I|E_pq|J>."""
    vals = h[table.p, table.q] * table.sign
    n = table.space.size
    return sp.csr_matrix((vals, (table.target, table.source)), shape=(n, n))


def _signed_gather_index(slots, source, sign, n_slots: int, n_sources: int) -> np.ndarray:
    """Which element of the sign-folded, zero-padded source [C, -C, 0] each
    slot of a dense intermediate copies.

    Entry e fills slot ``slots[e]`` (unique per entry) with ``+C[source[e]]``
    - index ``source[e]`` - or ``-C[source[e]]`` - index ``n_sources +
    source[e]``; a slot no excitation connects reads the zero pad at
    ``2 * n_sources``.  ``intp``, the one dtype ``np.take`` uses as given.
    """
    gidx = np.full(n_slots, 2 * n_sources, dtype=np.intp)
    gidx[slots] = np.where(sign > 0, source, n_sources + source)
    return gidx


def _signed_scatter_matrix(columns, sign, per: int, shape: tuple[int, int]) -> sp.csr_matrix:
    """The +-1 CSR matrix whose row t holds target t's ``per`` entries.

    Built straight from the entry arrays in the order they have - never
    through the COO constructor, ``sort_indices`` or ``sum_duplicates`` -
    because SciPy's CSR product adds a row's entries left to right: the
    entry order *is* the summation order of the scatter, and keeping it is
    what keeps a block's rounding independent of the sweep around it.
    """
    return sp.csr_matrix((sign, columns, np.arange(shape[0] + 1) * per), shape=shape)


@dataclass
class SameSpinPlan:
    """Precompiled addressing for one same-spin (alpha-alpha or beta-beta) term.

    ``key = pair * NK + target`` is unique per table entry, so the packed
    (n_pairs * NK, m) intermediate D has one source per row: ``gather_index``
    (one slot per D row) makes the gather a single ``np.take`` of rows from
    [C; -C; 0], and ``scatter`` (n_strings x n_pairs * NK, column ``key``,
    value ``sign``, ``pairs_per_string`` entries per row in table order)
    makes the scatter one CSR product - no indexed accumulate.
    """

    key: np.ndarray  # pair * NK + target, int64, one per table entry
    source: np.ndarray  # source string of each entry
    sign: np.ndarray  # float64 signs (pre-cast once)
    n_pairs: int  # n(n-1)/2 packed orbital pairs
    n_reduced: int  # NK: size of the N-2-electron intermediate space
    n_strings: int
    pairs_per_string: int  # k(k-1)/2
    n_entries: int
    gather_index: np.ndarray  # (n_pairs * NK,) intp into the rows of [C; -C; 0]
    scatter: sp.csr_matrix  # (n_strings, n_pairs * NK)

    @classmethod
    def from_table(cls, table: DoubleAnnihilationTable) -> "SameSpinPlan":
        k = table.space.k
        NK = table.reduced_space.size
        nstr = table.space.size
        kk2 = k * (k - 1) // 2
        key = table.pair * NK + table.target
        sign = table.sign.astype(np.float64)
        n_slots = table.n_pairs * NK
        return cls(
            key=key,
            source=table.source,
            sign=sign,
            n_pairs=table.n_pairs,
            n_reduced=NK,
            n_strings=nstr,
            pairs_per_string=kk2,
            n_entries=table.n_entries,
            gather_index=_signed_gather_index(key, table.source, sign, n_slots, nstr),
            scatter=_signed_scatter_matrix(key, sign, kk2, (nstr, n_slots)),
        )


@dataclass
class MixedSpinHalfPlan:
    """One spin side of the mixed-spin term, re-sorted by target string.

    Every target string has the same number of entries (``per``), so sorted
    order lets the kernels slice whole blocks of targets: column blocks of
    ``gather_index`` on the beta side, rows of ``scatter`` on the alpha side.

    ``pair`` addresses the pair-packed intermediates.  For a fixed target
    string at most one of E_pq / E_qp connects (p must be occupied in the
    target and q empty, or the reverse), so (pair, target) is unique per
    entry and folding D[pq] + D[qp] into one row is still a plain
    copy with unchanged signs.  ``gather_index[pair, target]`` is therefore
    one column of [C, -C, 0] per D slot (the pad where nothing connects),
    and ``scatter`` (n_targets x n_pairs * n_sources, column ``pair *
    n_sources + source``, value ``sign``, ``per`` entries per row in sorted
    entry order) reads E viewed as (pair * J, k).
    """

    source: np.ndarray
    target: np.ndarray
    p: np.ndarray
    q: np.ndarray
    pair: np.ndarray  # pair_index(p, q), packed unordered orbital pair
    sign: np.ndarray  # float64 signs (pre-cast once)
    per: int  # entries per target string
    n_entries: int
    gather_index: np.ndarray  # (n_pairs, n_targets) intp into the columns of [C, -C, 0]
    scatter: sp.csr_matrix  # (n_targets, n_pairs * n_sources)

    @classmethod
    def from_entries(
        cls, n: int, n_sources: int, n_targets: int, source, target, p, q, sign
    ) -> "MixedSpinHalfPlan":
        """Compile target-sorted entries over ``n`` orbitals whose ``source``
        numbers into ``n_sources`` strings (all of a spin's strings for the
        plan's own halves; the rows a simulated rank fetched for its task)."""
        pair = pair_index(p, q)
        n_pairs = n * (n + 1) // 2
        per = source.size // n_targets
        return cls(
            source=source,
            target=target,
            p=p,
            q=q,
            pair=pair,
            sign=sign,
            per=per,
            n_entries=source.size,
            gather_index=_signed_gather_index(
                pair * n_targets + target, source, sign, n_pairs * n_targets, n_sources
            ).reshape(n_pairs, n_targets),
            scatter=_signed_scatter_matrix(
                pair * n_sources + source, sign, per, (n_targets, n_pairs * n_sources)
            ),
        )

    @classmethod
    def from_table(cls, table: SingleExcitationTable) -> "MixedSpinHalfPlan":
        order = np.argsort(table.target, kind="stable")
        nstr = table.space.size
        return cls.from_entries(
            table.space.n,
            nstr,
            nstr,
            table.source[order],
            table.target[order],
            table.p[order],
            table.q[order],
            table.sign[order].astype(np.float64),
        )


class SigmaPlan:
    """Everything a sigma kernel needs, compiled once per CI problem.

    Parameters
    ----------
    problem:
        The CI eigenproblem.
    reuse_problem_cache:
        When True (the default), the plan reuses the excitation tables and
        derived integral matrices already cached on the problem.  When False
        it recompiles *everything* from scratch - what the end-to-end
        benchmark's ``core.plans.compile_s`` lane times.
    """

    def __init__(self, problem, *, reuse_problem_cache: bool = True):
        self.problem = problem
        self.n = problem.n
        self.shape = problem.shape
        if reuse_problem_cache:
            singles_a = problem.singles_a
            singles_b = problem.singles_b
            doubles_a = problem.doubles_a if problem.n_alpha >= 2 else None
            doubles_b = problem.doubles_b if problem.n_beta >= 2 else None
            w = problem.w_matrix
        else:
            singles_a = SingleExcitationTable(problem.space_a)
            singles_b = (
                singles_a
                if problem.space_b is problem.space_a
                else SingleExcitationTable(problem.space_b)
            )
            doubles_a = (
                DoubleAnnihilationTable(problem.space_a)
                if problem.n_alpha >= 2
                else None
            )
            if problem.n_beta < 2:
                doubles_b = None
            elif problem.space_b is problem.space_a:
                doubles_b = doubles_a
            else:
                doubles_b = DoubleAnnihilationTable(problem.space_b)
            w = build_w_matrix(problem.mo.g)
        self.singles_a = singles_a
        self.singles_b = singles_b
        self.w_matrix = w
        self.g_matrix = build_g_matrix(problem.mo.g)
        # only a closed-shell plan (alpha and beta tables shared) can meet a
        # C = +-C^T it may evaluate by halves
        self.g_half = build_g_half(self.g_matrix) if singles_b is singles_a else None
        h = problem.mo.h
        self.Ta = one_electron_csr(h, singles_a)
        self.Tb = self.Ta if singles_b is singles_a else one_electron_csr(h, singles_b)
        # mixed-spin: alpha side scatters, beta side gathers (paper eqs. 4-6)
        self.scatter_a = MixedSpinHalfPlan.from_table(singles_a)
        self.gather_b = (
            self.scatter_a
            if singles_b is singles_a
            else MixedSpinHalfPlan.from_table(singles_b)
        )
        self.same_a = SameSpinPlan.from_table(doubles_a) if doubles_a is not None else None
        if doubles_b is None:
            self.same_b = None
        elif doubles_b is doubles_a:
            self.same_b = self.same_a
        else:
            self.same_b = SameSpinPlan.from_table(doubles_b)

    @classmethod
    def for_problem(cls, problem) -> "SigmaPlan":
        """The problem's cached plan, compiling it on first use.

        Repeated calls return the *same object*, which is what makes every
        solver iteration (and every rank of :class:`ParallelSigma`) reuse
        one set of tables instead of rebuilding them per sigma evaluation.
        """
        plan = getattr(problem, "_sigma_plan", None)
        if plan is None:
            plan = cls(problem)
            problem._sigma_plan = plan
        return plan

    @property
    def nbytes(self) -> int:
        """Total bytes held by the plan's compiled arrays.

        The cache-accounting figure for content-addressed plan stores (the
        service layer's artifact cache budgets and reports eviction on it):
        the W/G supermatrices (and ``g_half``), the one-electron CSR operators, every
        excitation entry array, and the gather index and CSR scatter matrix
        compiled from them, counted once per distinct array (shared
        alpha/beta halves are not double counted, nor is a ``sign`` array
        that is also its scatter matrix's ``data``).
        """
        seen: set[int] = set()
        total = 0

        def add(arr) -> None:
            nonlocal total
            if arr is None or id(arr) in seen:
                return
            seen.add(id(arr))
            total += int(arr.nbytes)

        def add_csr(csr) -> None:
            add(csr.data)
            add(csr.indices)
            add(csr.indptr)

        add(self.w_matrix)
        add(self.g_matrix)
        add(self.g_half)
        add_csr(self.Ta)
        add_csr(self.Tb)
        for half in (self.scatter_a, self.gather_b):
            for name in ("source", "target", "p", "q", "pair", "sign", "gather_index"):
                add(getattr(half, name))
            add_csr(half.scatter)
        for splan in (self.same_a, self.same_b):
            if splan is not None:
                for name in ("key", "source", "sign", "gather_index"):
                    add(getattr(splan, name))
                add_csr(splan.scatter)
        return total

    def default_block_columns(
        self,
        *,
        memory_budget_mb: int = DEFAULT_BLOCK_BUDGET_MB,
        resident_bytes: int | None = None,
    ) -> int:
        """Column-block width sized so the D/E intermediates stay in cache.

        The dominant scratch is the mixed-spin pipeline's pair of dense
        intermediates D and E, each (n(n+1)/2, n_alpha_strings, m) float64
        for the one vector a sweep takes; the same-spin pipeline needs
        (n_pairs * NK, m) for each.
        A block is gathered, multiplied and scattered in turn, so the
        sweep runs fastest when D + E of one block stay cache-resident:
        the returned ``m`` fits them in a fixed ~32 MiB, clamped to
        [1, 1024] (measured on FCI(6+6,12), where it gives 29, seconds per
        apply by ``m``: 8: 0.74, 16: 0.71, 29: 0.67, 48: 0.70, 64: 0.71,
        126: 0.81, 232: 0.87).
        This is the default used by
        :class:`~repro.core.kernels.DgemmKernel`,
        :class:`~repro.core.solver.FCISolver`, and
        :class:`~repro.parallel.pfci.ParallelSigma` when ``block_columns``
        is not given explicitly.

        ``memory_budget_mb`` is only an upper bound on that scratch, and
        ``resident_bytes`` charges the CI vectors themselves against it -
        the solver passes the *resident* footprint its
        :class:`~repro.core.vectors.CIVectorStore` reports
        (``resident_nbytes``), not the logical vector size.  Changing the
        block width never changes what a kernel computes beyond the
        rounding of a differently shaped DGEMM; every execution mode of one
        problem uses the same width.
        """
        na, _ = self.shape
        per_col = 2 * 8 * self.g_matrix.shape[0] * na  # D + E
        for splan in (self.same_a, self.same_b):
            if splan is not None:
                per_col = max(per_col, 2 * 8 * splan.n_pairs * splan.n_reduced)
        budget = int(memory_budget_mb) * 2**20
        if resident_bytes:
            # never starve the kernel completely: keep at least 1 MiB of
            # scratch so pathological residencies degrade to m = small, not 0
            budget = max(budget - int(resident_bytes), 2**20)
        m = min(budget, _SCRATCH_TARGET_BYTES) // per_col
        return int(min(max(m, 1), _MAX_BLOCK_COLUMNS))

    def __repr__(self) -> str:
        na, nb = self.shape
        return (
            f"SigmaPlan(n={self.n}, shape={na}x{nb}, "
            f"singles={self.scatter_a.n_entries}+{self.gather_b.n_entries}, "
            f"doubles={(self.same_a.n_entries if self.same_a else 0)}"
            f"+{(self.same_b.n_entries if self.same_b else 0)})"
        )

"""Precompiled sigma plans: the sparse index structure, built once.

The paper's whole point is that sigma = H C becomes fast when the sparse
coupling structure is *precomputed once* and the per-iteration work is pure
gather / DGEMM / scatter.  A :class:`SigmaPlan` is that precomputation made
explicit: for one :class:`~repro.core.problem.CIProblem` it compiles

* the one-electron CSR operators T_sigma[I,J] = sum_pq h_pq <I|E_pq|J>,
* the mixed-spin single-excitation entries re-sorted by target string - a
  constant ``per`` entries per target, so entry arrays reshape to (target,
  entry): the beta half is read a row at a time (the ``per`` source strings,
  packed pairs and signs of one beta string: paper eqs. 4-6), and the alpha
  half also as a +-1 CSR *scatter matrix* in entry order,
* the same-spin tables indexed by *N-2-electron string, then the pairs that
  string allows*: only the L = C(n-k+2, 2) orbital pairs unoccupied in K
  can be created on it, so the intermediates have NK * L rows, not
  n_pairs * NK (paper eqs. 7-9) - per slot the source string and sign, per
  string its pair list, and a +-1 CSR scatter matrix over the slots,
* the W supermatrix W[(p>r),(q>s)] = (pq|rs) - (ps|rq) and the pair-packed
  chemists-notation G matrix G[(p>=q),(r>=s)] = (pq|rs),

and caches all of it on the problem (``SigmaPlan.for_problem``), so every
solver iteration and every simulated MSP rank reuses one immutable plan
instead of re-deriving tables in the hot path.  No table holds a structural
zero: a sweep gathers, multiplies and scatters only what the occupation of
a string allows, and the signs ride on the small integral blocks.

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
    "one_electron_csr",
    "DEFAULT_BLOCK_BUDGET_MB",
]

DEFAULT_BLOCK_BUDGET_MB = 256
# past this width the small same-spin DGEMMs gain nothing (measured flat from
# 64 up to where the scratch leaves the cache), and the block is the unit the
# parallel backends distribute: wider only means fewer tasks to balance
_MAX_BLOCK_COLUMNS = 64
# D + E of one same-spin column block: small enough to stay in the last-level
# cache between the gather, the DGEMMs and the scatter that each walk them once
_SCRATCH_TARGET_BYTES = 12 * 2**20


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


def one_electron_csr(h: np.ndarray, table: SingleExcitationTable) -> sp.csr_matrix:
    """Sparse one-electron operator T[I,J] = sum_pq h_pq <I|E_pq|J>."""
    vals = h[table.p, table.q] * table.sign
    n = table.space.size
    return sp.csr_matrix((vals, (table.target, table.source)), shape=(n, n))


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
    """Precompiled addressing for one same-spin (alpha-alpha or beta-beta) term,
    indexed by N-2-electron string K, then by the pairs K allows.

    A pair (q > s) can be created on K only when both orbitals are empty in
    it: L = C(n - k + 2, 2) of the n(n-1)/2 packed pairs, the same number
    for every K.  The intermediates D and E are therefore (NK, L, m), slot
    (K, l) standing for K's l-th open pair in ascending packed order:

    * ``pairs[K, l]`` is that pair's packed index - the rows and columns of
      W the string's L x L block is cut from;
    * ``source[K * L + l]`` is the string K + {q, s} whose row of C slot
      (K, l) copies, and ``sign[K, l]`` the phase <J| a+_q a+_s |K> of that
      copy, which the sweep folds into the W block's columns;
    * ``scatter`` (n_strings x NK * L, one column per slot, value the same
      phase, ``pairs_per_string`` entries per row in table order) makes the
      scatter one CSR product - no indexed accumulate.
    """

    pairs: np.ndarray  # (NK, L) packed q(q-1)/2 + s of each string's open pairs
    source: np.ndarray  # (NK * L,) intp, the row of C each D slot copies
    sign: np.ndarray  # (NK, L) float64 phase of that copy
    n_reduced: int  # NK: size of the N-2-electron intermediate space
    open_pairs: int  # L = C(n-k+2, 2)
    n_strings: int
    pairs_per_string: int  # k(k-1)/2
    n_entries: int  # NK * L = n_strings * pairs_per_string
    scatter: sp.csr_matrix  # (n_strings, NK * L)

    @classmethod
    def from_table(cls, table: DoubleAnnihilationTable) -> "SameSpinPlan":
        n, k = table.space.n, table.space.k
        NK = table.reduced_space.size
        nstr = table.space.size
        L = (n - k + 2) * (n - k + 1) // 2
        # every K is the target of exactly L entries: sorted by (K, pair),
        # an entry's rank *is* its slot K * L + l
        order = np.lexsort((table.pair, table.target))
        slot = np.empty(table.n_entries, dtype=np.intp)
        slot[order] = np.arange(table.n_entries)
        sign = table.sign.astype(np.float64)
        kk2 = k * (k - 1) // 2
        return cls(
            pairs=table.pair[order].reshape(NK, L),
            source=table.source[order].astype(np.intp),
            sign=sign[order].reshape(NK, L),
            n_reduced=NK,
            open_pairs=L,
            n_strings=nstr,
            pairs_per_string=kk2,
            n_entries=table.n_entries,
            # the table lists each string's k(k-1)/2 entries together
            scatter=_signed_scatter_matrix(slot, sign, kk2, (nstr, NK * L)),
        )

    def w_blocks(self, W: np.ndarray) -> np.ndarray:
        """(NK, L, L): W[pairs_K, pairs_K] . diag(sign_K) for every K, so that
        E[K] = w_blocks[K] @ D[K] with D a plain, unsigned copy of rows of C.

        NK * L^2 doubles (3.1 MB at FCI(6,12)), cut by each sweep rather
        than held by the plan: they are L/3 times everything else a
        same-spin plan holds and the one piece that grows like L^2
        (2.6 GB at FCI(8+1,20), whose CI vector is 20 MB), a sweep takes
        W as an argument, and cutting them is 1.7 ms of a 50 ms sweep.
        """
        return W[self.pairs[:, :, None], self.pairs[:, None, :]] * self.sign[:, None, :]


@dataclass
class MixedSpinHalfPlan:
    """One spin side of the mixed-spin term, re-sorted by target string.

    Every target string has the same number of entries (``per`` = k(n-k+1):
    the orbitals it can have gained times those it can have lost), so the
    sorted entry arrays reshape to (n_targets, per) and a sweep reads the
    beta side one target - one row of ``source`` / ``pair`` / ``sign`` - at
    a time: the D of that beta string is ``per`` whole rows of C^T, never a
    row of zeros.

    ``pair`` addresses the pair-packed integrals.  For a fixed target
    string at most one of E_pq / E_qp connects (p must be occupied in the
    target and q empty, or the reverse), so (pair, target) is unique per
    entry and folding D[pq] + D[qp] into one row is still a plain copy with
    unchanged signs.  ``scatter`` (n_targets x n_pairs * n_sources, column
    ``pair * n_sources + source``, value ``sign``, ``per`` entries per row
    in sorted entry order) reads the E of one beta string raveled (pair * J).
    """

    source: np.ndarray  # intp: np.take uses it as given
    target: np.ndarray
    p: np.ndarray
    q: np.ndarray
    pair: np.ndarray  # pair_index(p, q), packed unordered orbital pair
    sign: np.ndarray  # float64 signs (pre-cast once)
    per: int  # entries per target string
    n_entries: int
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
            source=source.astype(np.intp, copy=False),
            target=target,
            p=p,
            q=q,
            pair=pair,
            sign=sign,
            per=per,
            n_entries=source.size,
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
    def closed_shell(self) -> bool:
        """n_alpha = n_beta: one set of tables serves both spins - the only
        kind of space on which C = +-C^T means anything."""
        return self.singles_b is self.singles_a

    @property
    def nbytes(self) -> int:
        """Total bytes held by the plan's compiled arrays.

        The cache-accounting figure for content-addressed plan stores (the
        service layer's artifact cache budgets and reports eviction on it):
        the W/G supermatrices, the one-electron CSR operators, every
        excitation entry array and the CSR scatter matrix compiled from
        them, counted once per distinct array (shared alpha/beta halves are
        not double counted, nor is a ``sign`` array that is also its scatter
        matrix's ``data``).  The same-spin W blocks are *not* here: a sweep
        cuts them from ``w_matrix`` (:func:`repro.core.kernels.same_spin_sigma`).
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
        add_csr(self.Ta)
        add_csr(self.Tb)
        for half in (self.scatter_a, self.gather_b):
            for name in ("source", "target", "p", "q", "pair", "sign"):
                add(getattr(half, name))
            add_csr(half.scatter)
        for splan in (self.same_a, self.same_b):
            if splan is not None:
                for name in ("pairs", "source", "sign"):
                    add(getattr(splan, name))
                add_csr(splan.scatter)
        return total

    def default_block_columns(
        self,
        *,
        memory_budget_mb: int = DEFAULT_BLOCK_BUDGET_MB,
        resident_bytes: int | None = None,
    ) -> int:
        """Column-block width sized so the same-spin D/E stay in cache.

        Only the same-spin sweeps still hold block-wide intermediates: D and
        E, each (NK * L, m) float64 - one row per open pair of each
        N-2-electron string.  A block is gathered, multiplied (NK small
        L x L x m DGEMMs) and scattered in turn, so the sweep runs fastest
        when D + E of one block stay cache-resident and m is still wide
        enough for the small DGEMMs: the returned ``m`` fits them in a fixed
        ~12 MiB, clamped to [1, 64].  The mixed-spin sweep multiplies one
        beta string at a time whatever ``m`` is - its block-wide scratch is
        one (m, n_alpha_strings) buffer of finished sigma columns - so its
        time does not depend on the width (DESIGN.md section 3b has the
        measured sweep).
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
        rounding of a differently shaped same-spin DGEMM (the mixed-spin
        term does not depend on it to the bit); every execution mode of one
        problem uses the same width.
        """
        na, _ = self.shape
        per_col = 8 * na  # the mixed sweep's buffer of finished columns
        for splan in (self.same_a, self.same_b):
            if splan is not None:
                per_col = max(per_col, 2 * 8 * splan.n_entries)  # D + E
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

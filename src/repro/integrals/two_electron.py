"""Two-electron repulsion integrals (ERIs) in chemists' notation (pq|rs).

The full 4-index Cartesian ERI tensor is assembled with McMurchie-Davidson
Hermite expansions.  Two paths live here:

* the **class-batched engine** (:class:`IntegralEngine`, the production
  path) - one sweep per angular-momentum class (la, lb | lc, ld): the
  primitive quads of all the class's quartets are flattened with index
  arithmetic and evaluated together - one vectorized Hermite-Coulomb sweep,
  a stacked GEMM folding the ket Hermite coefficients into the windowed R
  lattice, a stacked GEMM folding in the bra side, ``np.add.reduceat``
  sums over primitives, and eight fancy-index stores write the eight
  permutations.  Negligible quartets are skipped up front with the rigorous
  Cauchy-Schwarz bound ``sqrt((pq|pq)) * sqrt((rs|rs)) < tau``.
* the **scalar reference path** (:func:`eri_reference`) - the original
  primitive-quad quadruple loop, kept verbatim as the differential oracle
  the engine is tested against.

Eight-fold permutational symmetry halves (thrice) the quartet set in both.
Contracted shell-pair Hermite data is built once per basis and cached on the
engine, which also serves the one-electron integrals and SCF (see
:func:`repro.scf.rhf.compute_ao_integrals`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..basis.shell import BasisSet, cartesian_components, n_cartesian
from ..obs.accounting import account_eri, eri_quartet_flops
from .hermite import hermite_coulomb, hermite_coulomb_batch
from .one_electron import (
    _component_norms,
    _pair_classes_of,
    _primitive_pairs,
    core_hamiltonian,
    kinetic,
    nuclear_attraction,
    overlap,
)

__all__ = [
    "eri",
    "eri_reference",
    "EriStats",
    "IntegralEngine",
    "PairClass",
    "ShellPairData",
    "build_shell_pairs",
    "class_blocks",
    "pair_classes",
    "quartet_block",
    "schwarz_bounds",
]

_TWO_PI_POW_2_5 = 2.0 * math.pi**2.5

# Doubles the temporaries of one class-sweep chunk may hold together (the
# Hermite lattices, windowed R and per-quad scalars of its primitive quads):
# a class is cut into chunks of whole quartets under this, so the layer's
# footprint stays flat whatever the basis.
_CHUNK_DOUBLES = 1 << 17
# per-quad scalars and indices a chunk holds beside its lattices
_QUAD_SCALARS = 24


@dataclass
class ShellPairData:
    """Precomputed Hermite data for one (shell, shell) pair."""

    ia: int
    ib: int
    la: int
    lb: int
    ncomp: int  # ncomp_a * ncomp_b
    coefs: np.ndarray  # (npairs,) products of contraction coefficients
    exps_p: np.ndarray  # (npairs,) a + b
    centers_P: np.ndarray  # (npairs, 3)
    # Hermite coefficient tensor per primitive pair:
    # B[pair, comp_ab, t, u, v] with t,u,v <= la+lb
    B: np.ndarray
    norms: np.ndarray  # (ncomp,) component normalization products
    # flattened views used by the batched kernel (built in __post_init__):
    # Bflat[pair, comp, tuv] and Bsigned[pair, comp, tuv] with the ket-side
    # (-1)^(t+u+v) phase folded in.
    Bflat: np.ndarray = field(init=False, repr=False)
    Bsigned: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lsum = self.la + self.lb
        n1 = lsum + 1
        self.Bflat = self.B.reshape(self.B.shape[0], self.ncomp, n1 * n1 * n1)
        grid = np.arange(n1)
        sign = (-1.0) ** (
            grid[:, None, None] + grid[None, :, None] + grid[None, None, :]
        )
        self.Bsigned = (self.B * sign).reshape(self.Bflat.shape)

    @property
    def nherm(self) -> int:
        """Size of the flattened Hermite lattice (la+lb+1)^3."""
        return self.Bflat.shape[2]


def build_shell_pairs(basis: BasisSet) -> list[list[ShellPairData]]:
    """Build Hermite pair data for all ia >= ib shell pairs.

    Returned as a 2-level list indexed [ia][ib] (ib <= ia).  The primitive
    pairs of each (la, lb) class are expanded together, in one batch.
    """
    table: list[list] = [[None] * (ia + 1) for ia in range(len(basis.shells))]
    for (la, lb), members in _pair_classes_of(basis).items():
        start, coefs, _, exps_p, centers, E = _primitive_pairs(basis, members)
        comps_a = np.array(cartesian_components(la))
        comps_b = np.array(cartesian_components(lb))
        # Hermite products per component pair (a-major): (npp, ncomp, t, u, v)
        ca = np.repeat(comps_a, len(comps_b), axis=0)
        cb = np.tile(comps_b, (len(comps_a), 1))
        bx, by, bz = (E[x][ca[:, x], cb[:, x]] for x in range(3))
        B = bx[:, :, None, None] * by[:, None, :, None] * bz[:, None, None, :]
        B = np.ascontiguousarray(np.moveaxis(B, -1, 0))
        ia, ib = members[0]
        norms = (
            _component_norms(basis.shells[ia])[:, None]
            * _component_norms(basis.shells[ib])[None, :]
        ).ravel()
        for m, (ia, ib) in enumerate(members):
            own = slice(start[m], start[m + 1])
            table[ia][ib] = ShellPairData(
                ia=ia,
                ib=ib,
                la=la,
                lb=lb,
                ncomp=len(ca),
                coefs=coefs[own],
                exps_p=exps_p[own],
                centers_P=centers[own],
                B=B[own],
                norms=norms,
            )
    return table


# -- scalar reference path (the differential oracle) --------------------------


def _quartet_reference(bra: ShellPairData, ket: ShellPairData) -> np.ndarray:
    """Contracted ERI block for one shell quartet: (ncomp_bra, ncomp_ket).

    The original primitive-quad loop, retained as the oracle the batched
    kernel is differentially tested against.
    """
    lb = bra.la + bra.lb
    lk = ket.la + ket.lb
    ltot = lb + lk
    nb1 = lb + 1
    nk1 = lk + 1
    out = np.zeros((bra.ncomp, ket.ncomp))
    Bbra = bra.Bflat  # (npair, ncomp, nb1^3)
    for kb in range(bra.coefs.size):
        p = bra.exps_p[kb]
        P = bra.centers_P[kb]
        cb = bra.coefs[kb]
        for kk in range(ket.coefs.size):
            q = ket.exps_p[kk]
            Q = ket.centers_P[kk]
            alpha = p * q / (p + q)
            R = hermite_coulomb(ltot, alpha, P - Q)
            pref = cb * ket.coefs[kk] * _TWO_PI_POW_2_5 / (p * q * math.sqrt(p + q))
            # C[comp_ket, t,u,v] = sum_{tau,nu,phi} (-1)^(tau+nu+phi)
            #                      Bket[comp_ket,tau,nu,phi] R[t+tau,u+nu,v+phi]
            C = np.zeros((ket.ncomp, nb1, nb1, nb1))
            Bket = ket.B[kk]
            for tau in range(nk1):
                for nu in range(nk1):
                    for phi in range(nk1):
                        col = Bket[:, tau, nu, phi]
                        if not np.any(col):
                            continue
                        sign = -1.0 if (tau + nu + phi) & 1 else 1.0
                        C += (sign * col)[:, None, None, None] * R[
                            tau : tau + nb1, nu : nu + nb1, phi : phi + nb1
                        ]
            out += pref * (Bbra[kb] @ C.reshape(ket.ncomp, -1).T)
    out *= bra.norms[:, None] * ket.norms[None, :]
    return out


def eri_reference(basis: BasisSet) -> np.ndarray:
    """Scalar-path (nbf,)*4 ERI tensor: the pre-engine quadruple loop."""
    return _assemble(basis, _flat_pairs(build_shell_pairs(basis)), _quartet_reference)


def _flat_pairs(table: list[list[ShellPairData]]) -> list[ShellPairData]:
    return [table[ia][ib] for ia in range(len(table)) for ib in range(ia + 1)]


def _assemble(basis: BasisSet, flat_pairs, quartet_fn) -> np.ndarray:
    """Drive the triangular quartet loop and scatter the 8 permutations."""
    n = basis.nbf
    offs = basis.shell_offsets
    g = np.zeros((n, n, n, n))
    for pi, bra in enumerate(flat_pairs):
        for ki, ket in enumerate(flat_pairs[: pi + 1]):
            block = quartet_fn(bra, ket)
            na = basis.shells[bra.ia].nfunc
            nb = basis.shells[bra.ib].nfunc
            nc = basis.shells[ket.ia].nfunc
            nd = basis.shells[ket.ib].nfunc
            blk = block.reshape(na, nb, nc, nd)
            oa, ob = offs[bra.ia], offs[bra.ib]
            oc, od = offs[ket.ia], offs[ket.ib]
            for perm_blk, (o1, n1, o2, n2, o3, n3, o4, n4) in (
                (blk, (oa, na, ob, nb, oc, nc, od, nd)),
                (blk.transpose(1, 0, 2, 3), (ob, nb, oa, na, oc, nc, od, nd)),
                (blk.transpose(0, 1, 3, 2), (oa, na, ob, nb, od, nd, oc, nc)),
                (blk.transpose(1, 0, 3, 2), (ob, nb, oa, na, od, nd, oc, nc)),
                (blk.transpose(2, 3, 0, 1), (oc, nc, od, nd, oa, na, ob, nb)),
                (blk.transpose(3, 2, 0, 1), (od, nd, oc, nc, oa, na, ob, nb)),
                (blk.transpose(2, 3, 1, 0), (oc, nc, od, nd, ob, nb, oa, na)),
                (blk.transpose(3, 2, 1, 0), (od, nd, oc, nc, ob, nb, oa, na)),
            ):
                g[o1 : o1 + n1, o2 : o2 + n2, o3 : o3 + n3, o4 : o4 + n4] = perm_blk
    return g


# -- class-batched engine path -------------------------------------------------


@dataclass
class PairClass:
    """Shell pairs of one (la, lb), their primitive-pair data concatenated.

    Member ``m`` is flat shell pair ``members[m]`` and owns primitive pairs
    ``start[m] : start[m + 1]`` of ``coefs`` / ``exps_p`` / ``centers_P`` /
    ``Bflat`` / ``Bsigned``.  All members share ncomp, nherm and norms.
    """

    la: int
    lb: int
    members: np.ndarray  # (nmembers,) flat shell-pair indices
    start: np.ndarray  # (nmembers + 1,) primitive-pair offsets
    coefs: np.ndarray
    exps_p: np.ndarray
    centers_P: np.ndarray
    Bflat: np.ndarray  # (nprim, ncomp, nherm)
    Bsigned: np.ndarray  # (nprim, ncomp, nherm)
    norms: np.ndarray  # (ncomp,)

    @classmethod
    def of(cls, pairs: list[ShellPairData], members) -> "PairClass":
        sel = [pairs[i] for i in members]

        def cat(name):
            return np.concatenate([getattr(pair, name) for pair in sel])

        return cls(
            la=sel[0].la,
            lb=sel[0].lb,
            members=np.asarray(members, dtype=np.intp),
            start=np.cumsum([0] + [pair.coefs.size for pair in sel]),
            coefs=cat("coefs"),
            exps_p=cat("exps_p"),
            centers_P=cat("centers_P"),
            Bflat=cat("Bflat"),
            Bsigned=cat("Bsigned"),
            norms=sel[0].norms,
        )

    @property
    def nprim(self) -> np.ndarray:
        """Primitive pairs per member."""
        return np.diff(self.start)

    @property
    def ncomp(self) -> int:
        return self.Bflat.shape[1]

    @property
    def nherm(self) -> int:
        return self.Bflat.shape[2]


def pair_classes(pairs: list[ShellPairData]) -> list[PairClass]:
    """Group flat shell pairs by (la, lb), in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault((pair.la, pair.lb), []).append(i)
    return [PairClass.of(pairs, members) for members in groups.values()]


def _window(nk1: int, nb1: int) -> np.ndarray:
    """Flat (nk1^3, nb1^3) index of R[t+tau, u+nu, v+phi] in the lattice."""
    n1 = nk1 + nb1 - 1
    win = np.arange(nk1)[:, None] + np.arange(nb1)[None, :]  # (tau, t)
    flat = (
        win[:, None, None, :, None, None] * n1 * n1
        + win[None, :, None, None, :, None] * n1
        + win[None, None, :, None, None, :]
    )
    return flat.reshape(nk1**3, nb1**3)


def class_blocks(
    bra: PairClass, ket: PairClass, qb: np.ndarray, qk: np.ndarray
) -> np.ndarray:
    """Contracted ERI blocks of quartets (bra member qb[i] | ket member qk[i]).

    Returns (nq, ncomp_bra, ncomp_ket).  Every primitive quad of every
    quartet is flattened, bra-primitive-major within its quartet: one
    Hermite-Coulomb sweep over all quads, ``Bsigned[ket prim] @ Rw`` per
    quad scaled by its prefactor and summed over ket primitives, then
    ``Bflat[bra prim] @ D^T`` per (quartet, bra primitive) summed per
    quartet.  Each quad and each sum sees the same operations whichever
    other quartets share the call, so a block is bitwise batch-independent.
    """
    npb = bra.nprim[qb]
    npk = ket.nprim[qk]
    nrow = int(npb.sum())
    # rows: one per (quartet, bra primitive)
    row_q = np.repeat(np.arange(qb.size), npb)
    row_first = np.cumsum(npb) - npb
    row_bra = bra.start[qb][row_q] + np.arange(nrow) - row_first[row_q]
    # quads: one per (row, ket primitive)
    row_npk = npk[row_q]
    quad_row = np.repeat(np.arange(nrow), row_npk)
    quad_first = np.cumsum(row_npk) - row_npk
    quad_ket = (
        ket.start[qk][row_q][quad_row] + np.arange(quad_row.size) - quad_first[quad_row]
    )
    quad_bra = row_bra[quad_row]

    p = bra.exps_p[quad_bra]
    q = ket.exps_p[quad_ket]
    psum = p + q
    nb1 = bra.la + bra.lb + 1
    nk1 = ket.la + ket.lb + 1
    pref = (
        bra.coefs[quad_bra]
        * ket.coefs[quad_ket]
        * _TWO_PI_POW_2_5
        / (p * q * np.sqrt(psum))
    )
    R = hermite_coulomb_batch(
        nb1 + nk1 - 2,
        p * q / psum,
        bra.centers_P[quad_bra] - ket.centers_P[quad_ket],
    )
    Rw = R.reshape(quad_row.size, -1)[:, _window(nk1, nb1)]  # (quad, nk^3, nb^3)
    del R  # each lattice is freed as soon as it is consumed
    Z = ket.Bsigned[quad_ket] @ Rw
    del Rw
    Z *= pref[:, None, None]
    D = np.add.reduceat(Z, quad_first, axis=0)  # (row, ncomp_ket, nb^3)
    del Z
    X = bra.Bflat[row_bra] @ D.transpose(0, 2, 1)  # (row, ncomp_bra, ncomp_ket)
    out = np.add.reduceat(X, row_first, axis=0)
    out *= bra.norms[:, None] * ket.norms[None, :]
    return out


def _class_sweep(
    bra: PairClass, ket: PairClass, qb: np.ndarray, qk: np.ndarray
) -> np.ndarray:
    """:func:`class_blocks` over chunks of whole quartets under _CHUNK_DOUBLES."""
    n1 = bra.la + bra.lb + ket.la + ket.lb + 1  # R lattice edge
    per_quad = (
        n1**4
        + n1**3
        + ket.nherm * bra.nherm
        + ket.ncomp * (ket.nherm + bra.nherm)
        + _QUAD_SCALARS
    )
    quads = np.cumsum(bra.nprim[qb] * ket.nprim[qk])
    out = np.empty((qb.size, bra.ncomp, ket.ncomp))
    lo = 0
    while lo < qb.size:
        done = quads[lo - 1] if lo else 0
        hi = max(
            lo + 1,
            int(np.searchsorted(quads, done + _CHUNK_DOUBLES // per_quad, "right")),
        )
        out[lo:hi] = class_blocks(bra, ket, qb[lo:hi], qk[lo:hi])
        lo = hi
    return out


def quartet_block(bra: ShellPairData, ket: ShellPairData) -> np.ndarray:
    """One quartet's (ncomp_bra, ncomp_ket) block through the class kernel."""
    one = np.zeros(1, dtype=np.intp)
    return class_blocks(PairClass.of([bra], [0]), PairClass.of([ket], [0]), one, one)[0]


def schwarz_bounds(classes: list[PairClass]) -> np.ndarray:
    """Cauchy-Schwarz bound sqrt(max |(pq|pq)|) for each shell pair.

    Each class's diagonal quartets (pair|pair) run through the class sweep;
    their diagonal entries are the (pq|pq) self-repulsions, so
    ``bounds[i] * bounds[j]`` rigorously bounds every element of quartet
    (i|j).  Indexed by flat shell-pair index.
    """
    out = np.empty(sum(c.members.size for c in classes))
    for c in classes:
        own = np.arange(c.members.size)
        blocks = _class_sweep(c, c, own, own)
        diag = np.abs(np.diagonal(blocks, axis1=1, axis2=2)).max(axis=1)
        out[c.members] = np.sqrt(diag)
    return out


def _quartet_bytes(bra: PairClass, ket: PairClass, npb, npk):
    """Bytes of the windowed-R gather plus the contraction operands, per quartet."""
    window = npb * npk * ket.nherm * bra.nherm
    operands = npk * ket.ncomp * ket.nherm + npb * bra.ncomp * bra.nherm
    result = npb * ket.ncomp * bra.nherm + bra.ncomp * ket.ncomp
    return 8.0 * (window + operands + result)


# the eight (pq|rs) index permutations, as positions of (p, q, r, s)
_PERMUTATIONS = (
    (0, 1, 2, 3),
    (1, 0, 2, 3),
    (0, 1, 3, 2),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 0, 1),
    (2, 3, 1, 0),
    (3, 2, 1, 0),
)


def _scatter(g: np.ndarray, first: tuple, blocks: np.ndarray) -> None:
    """Write (nq, na, nb, nc, nd) blocks and their permutations into g.

    ``first`` holds the first basis function of each quartet's four shells.
    """
    ix = []
    for axis, (f, n) in enumerate(zip(first, blocks.shape[1:])):
        shape = [-1, 1, 1, 1, 1]
        shape[axis + 1] = n
        ix.append((f[:, None] + np.arange(n)).reshape(shape))
    for perm in _PERMUTATIONS:
        g[tuple(ix[k] for k in perm)] = blocks


@dataclass
class EriStats:
    """Audited work/traffic tally of one ERI assembly."""

    n_shell_pairs: int = 0
    quartets_total: int = 0
    quartets_computed: int = 0
    quartets_screened: int = 0
    flops: float = 0.0
    bytes_moved: float = 0.0
    seconds: float = 0.0
    screen_threshold: float | None = None

    def as_dict(self) -> dict:
        return {
            "n_shell_pairs": self.n_shell_pairs,
            "quartets_total": self.quartets_total,
            "quartets_computed": self.quartets_computed,
            "quartets_screened": self.quartets_screened,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "seconds": self.seconds,
            "screen_threshold": self.screen_threshold,
        }


class IntegralEngine:
    """Batched, Schwarz-screened AO integral engine for one basis set.

    Caches the contracted shell-pair Hermite data, the per-pair Schwarz
    bounds, the assembled integral matrices/tensors, and the one-electron
    Hermite tables, so SCF, the MO transformation, and any analysis code
    share one set of precomputed quantities.

    Parameters
    ----------
    basis:
        The Cartesian Gaussian basis to integrate over.
    screen_threshold:
        ``None`` disables Schwarz screening entirely (no bounds are built).
        A float tau engages the screen: quartets with
        ``Q_bra * Q_ket < tau`` are skipped.  ``tau = 0.0`` engages the
        machinery but skips nothing, which is bitwise-identical to the
        unscreened assembly (the screen only ever *skips* quartets).
    registry:
        Optional :class:`repro.obs.MetricsRegistry`; ERI assembly then
        publishes ``integrals.quartets.{computed,screened}`` counters and
        the FLOP/byte ledger via :func:`repro.obs.accounting.account_eri`.
    """

    def __init__(
        self,
        basis: BasisSet,
        *,
        screen_threshold: float | None = None,
        registry=None,
    ):
        if screen_threshold is not None and screen_threshold < 0:
            raise ValueError("screen_threshold must be None or >= 0")
        self.basis = basis
        self.screen_threshold = screen_threshold
        self.registry = registry
        self.stats = EriStats(screen_threshold=screen_threshold)
        self._pairs: list[ShellPairData] | None = None
        self._classes: list[PairClass] | None = None
        self._schwarz: np.ndarray | None = None
        self._eri: np.ndarray | None = None
        self._one_electron_tables: dict = {}
        self._one_cache: dict = {}

    # -- cached shell-pair data -------------------------------------------

    @property
    def shell_pairs(self) -> list[ShellPairData]:
        """Flattened (ia >= ib) shell-pair Hermite data, built once."""
        if self._pairs is None:
            self._pairs = _flat_pairs(build_shell_pairs(self.basis))
        return self._pairs

    @property
    def pair_classes(self) -> list[PairClass]:
        """The shell pairs grouped by (la, lb), built once."""
        if self._classes is None:
            self._classes = pair_classes(self.shell_pairs)
        return self._classes

    @property
    def schwarz(self) -> np.ndarray:
        """Per-shell-pair Cauchy-Schwarz bounds, built once."""
        if self._schwarz is None:
            self._schwarz = schwarz_bounds(self.pair_classes)
        return self._schwarz

    # -- two-electron integrals -------------------------------------------

    def eri(self) -> np.ndarray:
        """Full (nbf,)*4 ERI tensor: one screened sweep per quartet class."""
        if self._eri is not None:
            return self._eri
        t0 = time.perf_counter()
        pairs = self.shell_pairs
        tau = self.screen_threshold
        bounds = self.schwarz if tau is not None else None
        stats = self.stats
        stats.n_shell_pairs = len(pairs)
        offs = np.asarray(self.basis.shell_offsets)
        first_a = offs[[pair.ia for pair in pairs]]
        first_b = offs[[pair.ib for pair in pairs]]
        n = self.basis.nbf
        g = np.zeros((n, n, n, n))
        for bra in self.pair_classes:
            for ket in self.pair_classes:
                qb, qk = (
                    m.ravel()
                    for m in np.meshgrid(
                        np.arange(bra.members.size),
                        np.arange(ket.members.size),
                        indexing="ij",
                    )
                )
                keep = bra.members[qb] >= ket.members[qk]
                stats.quartets_total += int(keep.sum())
                if bounds is not None:
                    small = bounds[bra.members[qb]] * bounds[ket.members[qk]] < tau
                    stats.quartets_screened += int((keep & small).sum())
                    keep &= ~small
                qb, qk = qb[keep], qk[keep]
                if qb.size == 0:
                    continue
                npb, npk = bra.nprim[qb], ket.nprim[qk]
                stats.quartets_computed += int(qb.size)
                stats.flops += float(
                    eri_quartet_flops(
                        npb, npk, bra.ncomp, ket.ncomp, bra.nherm, ket.nherm
                    ).sum()
                )
                stats.bytes_moved += float(_quartet_bytes(bra, ket, npb, npk).sum())
                blocks = _class_sweep(bra, ket, qb, qk).reshape(
                    qb.size,
                    n_cartesian(bra.la),
                    n_cartesian(bra.lb),
                    n_cartesian(ket.la),
                    n_cartesian(ket.lb),
                )
                pb, pk = bra.members[qb], ket.members[qk]
                _scatter(g, (first_a[pb], first_b[pb], first_a[pk], first_b[pk]), blocks)
        self._eri = g
        stats.seconds += time.perf_counter() - t0
        if self.registry is not None:
            account_eri(self.registry, stats, stats.seconds)
        return self._eri

    # -- one-electron integrals (shared Hermite-table cache) ----------------

    def overlap(self) -> np.ndarray:
        if "overlap" not in self._one_cache:
            self._one_cache["overlap"] = overlap(
                self.basis, pair_tables=self._one_electron_tables
            )
        return self._one_cache["overlap"]

    def kinetic(self) -> np.ndarray:
        if "kinetic" not in self._one_cache:
            self._one_cache["kinetic"] = kinetic(
                self.basis, pair_tables=self._one_electron_tables
            )
        return self._one_cache["kinetic"]

    def nuclear_attraction(self, charges) -> np.ndarray:
        key = ("nuclear", tuple((float(z), tuple(map(float, c))) for z, c in charges))
        if key not in self._one_cache:
            self._one_cache[key] = nuclear_attraction(
                self.basis, charges, pair_tables=self._one_electron_tables
            )
        return self._one_cache[key]

    def core_hamiltonian(self, charges) -> np.ndarray:
        key = ("hcore", tuple((float(z), tuple(map(float, c))) for z, c in charges))
        if key not in self._one_cache:
            self._one_cache[key] = core_hamiltonian(
                self.basis, charges, pair_tables=self._one_electron_tables
            )
        return self._one_cache[key]


def eri(basis: BasisSet, *, screen_threshold: float | None = None) -> np.ndarray:
    """Full (nbf, nbf, nbf, nbf) ERI tensor, chemists' notation (pq|rs).

    Thin wrapper over :class:`IntegralEngine`; pass ``screen_threshold`` to
    engage Cauchy-Schwarz shell-quartet screening.
    """
    return IntegralEngine(basis, screen_threshold=screen_threshold).eri()

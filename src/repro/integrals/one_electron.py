"""One-electron integrals: overlap, kinetic, nuclear attraction.

Each matrix is assembled one angular-momentum class (la, lb) at a time: the
primitive pairs of every shell pair in the class are evaluated together,
summed per shell pair with ``np.add.reduceat`` and written with two
fancy-index stores (the block and its transpose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..basis.shell import BasisSet, Shell, cartesian_components
from .hermite import hermite_coulomb_batch, hermite_expansion

__all__ = ["overlap", "kinetic", "nuclear_attraction", "core_hamiltonian"]

# the kinetic operator raises the ket exponent by two
_KINETIC_EXTRA = 2


def _component_norms(shell: Shell) -> np.ndarray:
    """Unit-normalization ratios for each Cartesian component of a shell."""
    return np.array(
        [shell.component_norm(lmn) for lmn in cartesian_components(shell.l)]
    )


def _pair_classes_of(basis: BasisSet) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """The (ia >= ib) shell pairs grouped by (la, lb), in order of appearance."""
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for ia, sa in enumerate(basis.shells):
        for ib in range(ia + 1):
            groups.setdefault((sa.l, basis.shells[ib].l), []).append((ia, ib))
    return groups


def _primitive_pairs(basis: BasisSet, members: list[tuple[int, int]], extra: int = 0):
    """Primitive-pair data of shell pairs ``members``, all of one (la, lb).

    Primitive pairs run a-major within each member, members in order; member
    ``m`` owns pairs ``start[m] : start[m + 1]``.  Returns ``(start, cc, b,
    p, P, (Ex, Ey, Ez))``: offsets, contraction-coefficient products, ket
    exponents, ``p = a + b``, product centres (npp, 3), and E tables of shape
    (la+1, lb+extra+1, la+lb+extra+1, npp) from one batched expansion.
    """
    parts = []
    for ia, ib in members:
        sa, sb = basis.shells[ia], basis.shells[ib]
        a = np.repeat(sa.exponents, sb.nprim)
        b = np.tile(sb.exponents, sa.nprim)
        cc = np.repeat(sa.coefficients * sa._norms, sb.nprim) * np.tile(
            sb.coefficients * sb._norms, sa.nprim
        )
        P = (a[:, None] * sa.center + b[:, None] * sb.center) / (a + b)[:, None]
        AB = np.broadcast_to(sa.center - sb.center, (a.size, 3))
        parts.append((a, b, cc, P, AB))
    a, b, cc, P, AB = (np.concatenate(x) for x in zip(*parts))
    start = np.cumsum([0] + [part[0].size for part in parts])
    la = basis.shells[members[0][0]].l
    lb = basis.shells[members[0][1]].l
    E = tuple(hermite_expansion(la, lb + extra, a, b, AB[:, x]) for x in range(3))
    return start, cc, b, a + b, P, E


@dataclass
class _PairClass:
    """Every (ia >= ib) shell pair of one (la, lb), primitive pairs concatenated.

    Member ``m`` is shell pair ``shells[m]`` and owns the primitive pairs
    ``start[m] : start[m + 1]``.  The E tables reach ``lb + 2`` so one set
    serves S, T and V.
    """

    la: int
    lb: int
    shells: np.ndarray  # (nmembers, 2) shell indices (ia, ib)
    start: np.ndarray  # (nmembers + 1,) primitive-pair offsets
    cc: np.ndarray
    b: np.ndarray
    p: np.ndarray
    P: np.ndarray
    E: tuple  # (Ex, Ey, Ez), each (la+1, lb+3, la+lb+3, npp)
    norms: np.ndarray  # (na, nb) component normalization products

    def axis_indices(self, axis: int):
        """Bra and ket exponents along ``axis``, shaped (na, 1) and (1, nb)."""
        ca = np.array(cartesian_components(self.la))[:, axis]
        cb = np.array(cartesian_components(self.lb))[:, axis]
        return ca[:, None], cb[None, :]


def _pair_classes(basis: BasisSet, cache=None) -> list[_PairClass]:
    """The basis's shell-pair classes with their tables, memoized in ``cache``.

    ``cache`` is any mutable mapping, typically owned by an
    :class:`repro.integrals.two_electron.IntegralEngine`, so the overlap,
    kinetic and nuclear-attraction assemblies share one set of tables.
    """
    if cache is not None and "classes" in cache:
        return cache["classes"]
    classes = []
    for (la, lb), members in _pair_classes_of(basis).items():
        start, cc, b, p, P, E = _primitive_pairs(basis, members, _KINETIC_EXTRA)
        ia, ib = members[0]
        classes.append(
            _PairClass(
                la=la,
                lb=lb,
                shells=np.array(members),
                start=start,
                cc=cc,
                b=b,
                p=p,
                P=P,
                E=E,
                norms=_component_norms(basis.shells[ia])[:, None]
                * _component_norms(basis.shells[ib])[None, :],
            )
        )
    if cache is not None:
        cache["classes"] = classes
    return classes


def _store(M: np.ndarray, basis: BasisSet, cls: _PairClass, per_prim: np.ndarray):
    """Contract (na, nb, npp) primitive values per shell pair into ``M``."""
    blocks = np.moveaxis(np.add.reduceat(per_prim, cls.start[:-1], axis=-1), -1, 0)
    blocks *= cls.norms
    offs = np.asarray(basis.shell_offsets)
    na, nb = cls.norms.shape
    rows = (offs[cls.shells[:, 0]][:, None] + np.arange(na))[:, :, None]
    cols = (offs[cls.shells[:, 1]][:, None] + np.arange(nb))[:, None, :]
    M[rows, cols] = blocks
    M[cols, rows] = blocks


def _overlap_factors(cls: _PairClass) -> list[np.ndarray]:
    """1-D overlaps E[i, j, 0] per axis, each (na, nb, npp)."""
    out = []
    for x in range(3):
        i, j = cls.axis_indices(x)
        out.append(cls.E[x][i, j, 0])
    return out


def overlap(basis: BasisSet, *, pair_tables=None) -> np.ndarray:
    """Overlap matrix S over Cartesian basis functions.

    ``pair_tables`` is an optional mutable mapping memoizing the Hermite E
    tables across the one-electron routines (see :func:`_pair_classes`).
    """
    S = np.zeros((basis.nbf, basis.nbf))
    for cls in _pair_classes(basis, pair_tables):
        sx, sy, sz = _overlap_factors(cls)
        pref = cls.cc * (math.pi / cls.p) ** 1.5
        _store(S, basis, cls, pref * sx * sy * sz)
    return S


def kinetic(basis: BasisSet, *, pair_tables=None) -> np.ndarray:
    """Kinetic-energy matrix T = <mu| -1/2 nabla^2 |nu>."""
    T = np.zeros((basis.nbf, basis.nbf))
    for cls in _pair_classes(basis, pair_tables):
        s = _overlap_factors(cls)
        k = []
        b = cls.b
        for x in range(3):
            i, j = cls.axis_indices(x)
            E = cls.E[x]
            jj = j[..., None]
            # -1/2 d^2/dx^2 on the ket; the j - 2 term vanishes for j < 2
            k.append(
                -2.0 * b * b * E[i, j + 2, 0]
                + b * (2 * jj + 1) * E[i, j, 0]
                - 0.5 * jj * (jj - 1) * E[i, np.maximum(j - 2, 0), 0]
            )
        pref = cls.cc * (math.pi / cls.p) ** 1.5
        _store(
            T,
            basis,
            cls,
            pref * (k[0] * s[1] * s[2] + s[0] * k[1] * s[2] + s[0] * s[1] * k[2]),
        )
    return T


def nuclear_attraction(
    basis: BasisSet, charges: list[tuple[float, np.ndarray]], *, pair_tables=None
) -> np.ndarray:
    """Nuclear-attraction matrix V = sum_C -Z_C <mu| 1/|r-C| |nu>.

    ``charges`` is a list of (Z, position) pairs in Bohr.  Per class, one
    Hermite-Coulomb sweep covers every primitive pair against every nucleus.
    """
    V = np.zeros((basis.nbf, basis.nbf))
    Z = np.array([float(z) for z, _ in charges])
    C = np.array([np.asarray(c, dtype=float) for _, c in charges]).reshape(-1, 3)
    for cls in _pair_classes(basis, pair_tables):
        ltot = cls.la + cls.lb
        n1 = ltot + 1
        npp = cls.p.size
        na, nb = cls.norms.shape
        # Hermite products E_t^x E_u^y E_v^z per component pair: (npp, na*nb, n1^3)
        ex, ey, ez = (cls.E[x][(*cls.axis_indices(x), slice(n1))] for x in range(3))
        herm = (
            ex[:, :, :, None, None] * ey[:, :, None, :, None] * ez[:, :, None, None, :]
        )
        herm = np.moveaxis(herm, -1, 0).reshape(npp, na * nb, n1**3)
        R = hermite_coulomb_batch(
            ltot,
            np.repeat(cls.p, Z.size),
            (cls.P[:, None, :] - C[None, :, :]).reshape(-1, 3),
        ).reshape(npp, Z.size, n1**3)
        acc = (herm @ R.transpose(0, 2, 1)) @ -Z  # (npp, na*nb)
        pref = cls.cc * 2.0 * math.pi / cls.p
        _store(V, basis, cls, np.moveaxis((pref[:, None] * acc).reshape(npp, na, nb), 0, -1))
    return V


def core_hamiltonian(
    basis: BasisSet, charges: list[tuple[float, np.ndarray]], *, pair_tables=None
) -> np.ndarray:
    """T + V for the given basis and nuclear framework."""
    return kinetic(basis, pair_tables=pair_tables) + nuclear_attraction(
        basis, charges, pair_tables=pair_tables
    )

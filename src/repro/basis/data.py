"""Basis-set data: STO-3G (generated), 6-31G tables, even-tempered sets.

STO-3G is generated from the universal three-Gaussian least-squares fits to
1s/2s/2p Slater functions of unit exponent (Hehre, Stewart & Pople 1969)
scaled by the standard atomic Slater exponents: a scaled primitive exponent
is ``alpha * zeta**2`` while contraction coefficients are scale-invariant.

6-31G data for H, C, N, O are tabulated explicitly.

An even-tempered generator (``alpha_k = a * b**k`` per angular momentum) is
provided for controlled basis-size sweeps in benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..registry import Registry
from .shell import BasisSet, Shell

__all__ = [
    "ELEMENTS",
    "atomic_number",
    "build_basis",
    "even_tempered_shells",
    "available_basis_sets",
]

ELEMENTS = [
    "X", "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar",
]


def atomic_number(symbol: str) -> int:
    """Atomic number for an element symbol (case-insensitive)."""
    s = symbol.strip().capitalize()
    try:
        return ELEMENTS.index(s)
    except ValueError as exc:
        raise KeyError(f"unknown element symbol {symbol!r}") from exc


# --- STO-3G -----------------------------------------------------------------
# Universal 3-Gaussian fits to Slater functions with zeta = 1.
_STO3G_1S_EXP = np.array([2.227660584, 0.4057711562, 0.1098175104])
_STO3G_1S_COEF = np.array([0.1543289673, 0.5353281423, 0.4446345422])
_STO3G_2SP_EXP = np.array([0.9942027306, 0.2310313331, 0.07513856500])
_STO3G_2S_COEF = np.array([-0.09996722919, 0.3995128261, 0.7001154689])
_STO3G_2P_COEF = np.array([0.1559162750, 0.6076837186, 0.3919573931])

# Standard STO-3G Slater exponents (zeta1 for 1s, zeta2 for 2s/2p).
_STO3G_ZETA = {
    "H": (1.24, None),
    "He": (1.69, None),
    "Li": (2.69, 0.80),
    "Be": (3.68, 1.15),
    "B": (4.68, 1.50),
    "C": (5.67, 1.72),
    "N": (6.67, 1.95),
    "O": (7.66, 2.25),
    "F": (8.65, 2.55),
    "Ne": (9.64, 2.88),
}


_BASIS_SETS = Registry("basis", "basis sets")


@_BASIS_SETS.register("sto-3g")
def _sto3g_shells(symbol: str, center: np.ndarray, atom_index: int) -> list[Shell]:
    sym = symbol.capitalize()
    if sym not in _STO3G_ZETA:
        raise KeyError(f"STO-3G not tabulated for {symbol!r}")
    z1, z2 = _STO3G_ZETA[sym]
    shells = [
        Shell(0, _STO3G_1S_EXP * z1**2, _STO3G_1S_COEF.copy(), center, atom_index)
    ]
    if z2 is not None:
        shells.append(
            Shell(0, _STO3G_2SP_EXP * z2**2, _STO3G_2S_COEF.copy(), center, atom_index)
        )
        shells.append(
            Shell(1, _STO3G_2SP_EXP * z2**2, _STO3G_2P_COEF.copy(), center, atom_index)
        )
    return shells


# --- 6-31G ------------------------------------------------------------------
# (exponents, coefficients) per shell; 'sp' shells share exponents between an
# s and a p contraction.
_631G: dict[str, list[tuple[str, list[float], list[float], list[float] | None]]] = {
    "H": [
        (
            "s",
            [18.73113696, 2.825394365, 0.6401216923],
            [0.03349460434, 0.2347269535, 0.8137573261],
            None,
        ),
        ("s", [0.1612777588], [1.0], None),
    ],
    "C": [
        (
            "s",
            [3047.524880, 457.3695180, 103.1949040, 29.21015530, 9.286662960, 3.163926960],
            [0.001834737132, 0.01403732281, 0.06884262226, 0.2321844432, 0.4679413484, 0.3623119853],
            None,
        ),
        (
            "sp",
            [7.868272350, 1.881288540, 0.5442492580],
            [-0.1193324198, -0.1608541517, 1.143456438],
            [0.06899906659, 0.3164239610, 0.7443082909],
        ),
        ("sp", [0.1687144782], [1.0], [1.0]),
    ],
    "N": [
        (
            "s",
            [4173.511460, 627.4579110, 142.9020930, 40.23432930, 13.03269600, 4.603090090],
            [0.001834772160, 0.01399462700, 0.06858655181, 0.2322408730, 0.4690699481, 0.3604551991],
            None,
        ),
        (
            "sp",
            [11.86242430, 2.771432770, 0.7578255210],
            [-0.1149611817, -0.1691174786, 1.145851947],
            [0.06757974388, 0.3239072959, 0.7408951398],
        ),
        ("sp", [0.2120314975], [1.0], [1.0]),
    ],
    "O": [
        (
            "s",
            [5484.671660, 825.2349460, 188.0469580, 52.96450000, 16.89757040, 5.799635340],
            [0.001831074430, 0.01395017220, 0.06844507810, 0.2327143360, 0.4701928980, 0.3585208530],
            None,
        ),
        (
            "sp",
            [15.53961625, 3.599933586, 1.013761750],
            [-0.1107775495, -0.1480262627, 1.130767015],
            [0.07087426823, 0.3397528391, 0.7271585773],
        ),
        ("sp", [0.2700058226], [1.0], [1.0]),
    ],
}


@_BASIS_SETS.register("6-31g")
def _631g_shells(symbol: str, center: np.ndarray, atom_index: int) -> list[Shell]:
    sym = symbol.capitalize()
    if sym not in _631G:
        raise KeyError(f"6-31G not tabulated for {symbol!r}")
    shells: list[Shell] = []
    for kind, exps, cs, cp in _631G[sym]:
        e = np.asarray(exps, dtype=float)
        shells.append(Shell(0, e, np.asarray(cs, dtype=float), center, atom_index))
        if kind == "sp":
            shells.append(Shell(1, e, np.asarray(cp, dtype=float), center, atom_index))
    return shells


# --- even-tempered ----------------------------------------------------------

def even_tempered_shells(
    center,
    atom_index: int = -1,
    *,
    n_s: int = 4,
    n_p: int = 0,
    alpha0: float = 0.1,
    beta: float = 2.5,
) -> list[Shell]:
    """Uncontracted even-tempered shells ``alpha_k = alpha0 * beta**k``.

    Useful to sweep the orbital-space size in benchmarks without depending on
    tabulated basis data.
    """
    if beta <= 1.0:
        raise ValueError("even-tempered ratio beta must exceed 1")
    center = np.asarray(center, dtype=float)
    shells = []
    for k in range(n_s):
        shells.append(Shell(0, [alpha0 * beta**k], [1.0], center, atom_index))
    for k in range(n_p):
        shells.append(Shell(1, [alpha0 * beta**k], [1.0], center, atom_index))
    return shells


def available_basis_sets() -> list[str]:
    return list(_BASIS_SETS.names())


def build_basis(atoms: list[tuple[str, np.ndarray]], name: str = "sto-3g") -> BasisSet:
    """Build a :class:`BasisSet` for ``atoms`` = [(symbol, xyz-in-bohr), ...]."""
    key = name.strip().lower()
    if key not in _BASIS_SETS:
        raise KeyError(
            f"unknown basis {name!r}; available: {available_basis_sets()}"
        )
    builder = _BASIS_SETS[key]
    shells: list[Shell] = []
    for idx, (sym, xyz) in enumerate(atoms):
        shells.extend(builder(sym, np.asarray(xyz, dtype=float), idx))
    return BasisSet(shells)

"""Contracted Gaussian shells and basis-function bookkeeping.

A :class:`Shell` is a contraction of primitive Cartesian Gaussians sharing a
center and an angular momentum.  A :class:`BasisSet` is an ordered list of
shells together with the flattened list of Cartesian basis functions that the
integral code indexes.

Cartesian components of angular momentum ``l`` are enumerated in the usual
"alphabetical within decreasing x" order, e.g. for ``l=1``: x, y, z; for
``l=2``: xx, xy, xz, yy, yz, zz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ANGULAR_LABELS",
    "Shell",
    "BasisFunction",
    "BasisSet",
    "cartesian_components",
    "n_cartesian",
    "primitive_norm",
]

ANGULAR_LABELS = "spdfgh"


def cartesian_components(l: int) -> list[tuple[int, int, int]]:
    """Return the Cartesian exponent triples (i, j, k) with i+j+k = l."""
    comps = []
    for i in range(l, -1, -1):
        for j in range(l - i, -1, -1):
            comps.append((i, j, l - i - j))
    return comps


def n_cartesian(l: int) -> int:
    """Number of Cartesian components of angular momentum ``l``."""
    return (l + 1) * (l + 2) // 2


def _double_factorial(n: int) -> int:
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, lmn: tuple[int, int, int]) -> float:
    """Normalization constant of a primitive Cartesian Gaussian.

    N such that the self-overlap of ``N * x^i y^j z^k exp(-alpha r^2)`` is 1.
    """
    i, j, k = lmn
    l = i + j + k
    num = (2.0 * alpha / math.pi) ** 1.5 * (4.0 * alpha) ** l
    den = (
        _double_factorial(2 * i - 1)
        * _double_factorial(2 * j - 1)
        * _double_factorial(2 * k - 1)
    )
    return math.sqrt(num / den)


@dataclass
class Shell:
    """A contracted Cartesian Gaussian shell.

    Parameters
    ----------
    l:
        Angular momentum (0=s, 1=p, ...).
    exponents:
        Primitive exponents, shape (nprim,).
    coefficients:
        Contraction coefficients for the *unnormalized* primitives as they
        appear in basis-set tables; normalization is applied internally.
    center:
        Cartesian center, shape (3,).
    atom_index:
        Index of the parent atom in the molecule (or -1 for free shells).
    """

    l: int
    exponents: np.ndarray
    coefficients: np.ndarray
    center: np.ndarray
    atom_index: int = -1
    _norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.exponents = np.asarray(self.exponents, dtype=float)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if self.exponents.shape != self.coefficients.shape:
            raise ValueError("exponents and coefficients must have equal length")
        if self.exponents.ndim != 1 or self.exponents.size == 0:
            raise ValueError("a shell needs at least one primitive")
        if np.any(self.exponents <= 0):
            raise ValueError("Gaussian exponents must be positive")
        if self.center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        # Per-primitive norms for the (l,0,0) component; component-dependent
        # renormalization is handled by the integral routines through the
        # contracted self-overlap below.
        lmn0 = (self.l, 0, 0)
        self._norms = np.array(
            [primitive_norm(a, lmn0) for a in self.exponents], dtype=float
        )
        # Normalize the contraction so the (l,0,0) contracted function has
        # unit self-overlap.
        ee = self.exponents[:, None] + self.exponents[None, :]
        cc = (self.coefficients * self._norms)[:, None] * (
            self.coefficients * self._norms
        )[None, :]
        l = self.l
        pref = (
            math.pi**1.5
            * _double_factorial(2 * l - 1)
            / 2.0**l
        )
        s = float(np.sum(cc * pref / ee ** (l + 1.5)))
        self.coefficients = self.coefficients / math.sqrt(s)

    @property
    def nprim(self) -> int:
        return self.exponents.size

    @property
    def nfunc(self) -> int:
        return n_cartesian(self.l)

    def component_norm(self, lmn: tuple[int, int, int]) -> float:
        """Ratio normalizing this component to unit self-overlap."""
        i, j, k = lmn
        l = self.l
        num = _double_factorial(2 * l - 1)
        den = (
            _double_factorial(2 * i - 1)
            * _double_factorial(2 * j - 1)
            * _double_factorial(2 * k - 1)
        )
        return math.sqrt(num / den)


@dataclass(frozen=True)
class BasisFunction:
    """One Cartesian basis function: a (shell, component) pair."""

    shell_index: int
    lmn: tuple[int, int, int]
    center: tuple[float, float, float]
    atom_index: int


class BasisSet:
    """An ordered collection of shells with a flattened function list."""

    def __init__(self, shells: list[Shell]):
        self.shells = list(shells)
        self.functions: list[BasisFunction] = []
        self.shell_offsets: list[int] = []
        off = 0
        for si, sh in enumerate(self.shells):
            self.shell_offsets.append(off)
            for lmn in cartesian_components(sh.l):
                self.functions.append(
                    BasisFunction(
                        shell_index=si,
                        lmn=lmn,
                        center=tuple(sh.center),
                        atom_index=sh.atom_index,
                    )
                )
            off += sh.nfunc

    @property
    def nbf(self) -> int:
        """Total number of Cartesian basis functions."""
        return len(self.functions)

    def max_l(self) -> int:
        return max((sh.l for sh in self.shells), default=0)

    def __len__(self) -> int:
        return self.nbf

    def __repr__(self) -> str:
        by_l: dict[int, int] = {}
        for sh in self.shells:
            by_l[sh.l] = by_l.get(sh.l, 0) + 1
        desc = ",".join(f"{v}{ANGULAR_LABELS[k]}" for k, v in sorted(by_l.items()))
        return f"BasisSet({self.nbf} functions: {desc})"

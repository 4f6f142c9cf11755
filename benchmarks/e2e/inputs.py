"""Seeded input generation: the benchmark's only source of randomness.

Everything a workload feeds the program is drawn here from ``--seed`` in
the benchmark process; the program itself only ever receives the generated
arrays and geometries.  Each input family draws from its own stream
(``default_rng([seed, tag])``) so adding a draw to one family never shifts
another's values.
"""

from __future__ import annotations

import numpy as np

from repro.molecule import Molecule
from repro.scf.mo import MOIntegrals

_INTEGRALS, _VECTORS, _GEOMETRY = 1, 2, 3

# H2O, bohr: O at the origin, H at (0, +-1.43, 1.108)
_WATER_H = np.array([[0.0, 1.43, 1.108], [0.0, -1.43, 1.108]])
MAX_STRETCH_BOHR = 0.02


def random_integrals(n: int, seed: int) -> MOIntegrals:
    """Random 8-fold-symmetric (pq|rs) and a diagonally shifted symmetric h.

    The construction of ``bench_shm_speedup._random_problem``: the diagonal
    ramp keeps the spectrum spread like a molecule's instead of a random
    matrix's semicircle.
    """
    rng = np.random.default_rng([seed, _INTEGRALS, n])
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T) + np.diag(np.linspace(-3, 2, n)) * 2
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n)


def ci_vectors(shape: tuple[int, int], seed: int, count: int = 2) -> list[np.ndarray]:
    """``count`` normalised random CI matrices of ``shape``."""
    rng = np.random.default_rng([seed, _VECTORS, *shape])
    vectors = []
    for _ in range(count):
        v = rng.standard_normal(shape)
        vectors.append(v / np.linalg.norm(v))
    return vectors


def water_stretch(seed: int) -> float:
    """The seed's rigid O-H stretch in bohr, uniform in [0, MAX_STRETCH_BOHR].

    Outward only: over this range both solvers need the same number of
    iterations for every seed (15 one-vector, 12 Davidson), while 0.01 bohr
    inward the one-vector solver drops to 14 - a 7 % step in the work that
    would make runs at different seeds incomparable.
    """
    rng = np.random.default_rng([seed, _GEOMETRY])
    return float(rng.uniform(0.0, MAX_STRETCH_BOHR))


def water(seed: int) -> Molecule:
    """H2O with both O-H bonds stretched by the seed's :func:`water_stretch`."""
    delta = water_stretch(seed)
    atoms = [("O", (0.0, 0.0, 0.0))]
    for h in _WATER_H:
        r = np.linalg.norm(h)
        atoms.append(("H", tuple(float(x) for x in h * (1.0 + delta / r))))
    return Molecule.from_atoms(atoms, name="H2O")

"""Shared test-support builders: random CI problems, vector stacks, guesses,
and a gate that holds a service job at its first checkpoint save.

One home for the construction helpers that were previously duplicated
across test_sigma / test_kernels / test_parallel_numeric (and now feed the
differential harness too).  Everything is deterministic under its ``seed``
argument, so tests stay reproducible and cross-file comparisons stay
bitwise-meaningful.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.basis import BasisSet, Shell
from repro.core import CIProblem
from repro.molecule import PointGroup
from repro.scf.mo import MOIntegrals


def spd_basis(shift=(0.0, 0.0, 0.0)) -> BasisSet:
    """Two centres carrying contracted s and p and single-primitive d shells.

    17 Cartesian functions: s, p, d on one centre and s, d on the other, so
    eight of the nine (la, lb) classes with l <= 2 appear (all but (1, 2)).
    ``shift`` translates both centres.
    """
    a = np.asarray(shift, dtype=float)
    b = a + np.array([0.3, -0.2, 1.6])
    return BasisSet(
        [
            Shell(0, [3.0, 0.6], [0.4, 0.7], a),
            Shell(1, [1.9, 0.4], [0.5, 0.6], a),
            Shell(2, [0.8], [1.0], a),
            Shell(0, [1.2, 0.3], [0.6, 0.5], b),
            Shell(2, [0.9], [1.0], b),
        ]
    )


def spd_charges(shift=(0.0, 0.0, 0.0)) -> list:
    """Point charges on the two centres of :func:`spd_basis`."""
    a = np.asarray(shift, dtype=float)
    return [(3.0, a), (1.0, a + np.array([0.3, -0.2, 1.6]))]


def make_random_mo(n: int, seed: int = 0) -> MOIntegrals:
    """Random but physically-symmetric MO integrals (test Hamiltonians)."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n)


def make_random_problem(
    n: int,
    n_alpha: int,
    n_beta: int,
    seed: int = 0,
    *,
    diag=None,
) -> CIProblem:
    """A random CIProblem; ``diag`` adds a one-electron diagonal shift so
    eigensolver tests get a well-separated spectrum."""
    mo = make_random_mo(n, seed=seed)
    if diag is not None:
        mo.h += np.diag(np.asarray(diag, dtype=float))
    return CIProblem(mo, n_alpha, n_beta)


def make_symmetry_problem(
    n: int = 6,
    n_alpha: int = 3,
    n_beta: int = 3,
    seed: int = 19,
    *,
    group: str = "C2v",
    target_irrep: int = 0,
) -> CIProblem:
    """A symmetry-blocked CIProblem with random orbital irreps."""
    rng = np.random.default_rng(seed)
    mo = make_random_mo(n, seed=seed)
    pg = PointGroup.get(group)
    pt = pg.product_table()
    mo = MOIntegrals(
        h=mo.h,
        g=mo.g,
        e_core=0.0,
        n_orbitals=n,
        orbital_irreps=rng.integers(0, pt.shape[0], size=n),
    )
    return CIProblem(
        mo, n_alpha, n_beta, target_irrep=target_irrep, product_table=pt
    )


def stack_of_vectors(problem: CIProblem, k: int, seed: int = 0) -> np.ndarray:
    """A (k, na, nb) stack of the problem's seeded random CI vectors."""
    return np.stack([problem.random_vector(seed + i) for i in range(k)])


def model_space_guesses(problem: CIProblem, pre, n: int) -> list[np.ndarray]:
    """The n lowest model-space eigenvectors embedded in the full space."""
    ev, evec = np.linalg.eigh(pre.h_model)
    out = []
    for i in range(n):
        g = np.zeros(problem.dimension)
        g[pre.selection] = evec[:, i]
        out.append(g.reshape(problem.shape))
    return out


class Gate:
    """A checkpoint I/O-fault hook that holds a job at its first save.

    Passed as ``FCIService(checkpoint_faults=...)``: ``entered`` is set
    once a pool thread is parked inside a save; setting ``release`` lets
    every save through.  A one-thread service is thereby busy for exactly
    as long as a test needs - jobs submitted meanwhile stay queued, with no
    race against the solve's wall time.
    """

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def io_fails(self, rank) -> bool:
        self.entered.set()
        assert self.release.wait(60), "gate never released"
        return False


def wait_for(predicate, timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail the test after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)

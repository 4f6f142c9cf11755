"""Differential harness: every sigma implementation against every other.

Seeded random CI problems spanning electron count, orbital count, and spin
are pushed through all registered sigma evaluators — serial DGEMM, serial
MOC, the HamiltonianOperator composition, and ParallelSigma on both
execution backends — and cross-checked against one reference:

* exactness: each evaluator reproduces the dense-Hamiltonian matvec;
* bitwise lanes: the DGEMM-family evaluators (kernel, operator, shm and
  sockets backends) must equal the serial ``sigma_dgemm`` bit for bit,
  the real-process backends additionally for every worker count;
* invariants that hold for *any* correct sigma: Hermitian symmetry
  <Y, sigma(X)> == <sigma(Y), X> and the variational bound
  <C, sigma(C)>/<C, C> >= E0.

On the closed-shell space every lane also draws C = X + X^T and C = X - X^T:
there the serial kernel evaluates half of sigma and completes it by
transpose, and a lane that only ever saw unsymmetric vectors would not
notice a backend that failed to make the same choice.

The evaluator matrix is parametrized: registering a new backend here is
one entry in ``EVALUATORS`` and the whole matrix applies to it for free.
"""

import numpy as np
import pytest

from repro.core import (
    HamiltonianOperator,
    build_dense_hamiltonian,
    sigma_dgemm,
    sigma_moc,
)
from repro.parallel import ParallelSigma
from repro.x1 import X1Config
from tests.helpers import make_random_problem

# name -> (n_orbitals, n_alpha, n_beta, seed): vary size, filling, and spin
SPACES = {
    "closed-shell": (5, 2, 2, 11),
    "open-shell": (5, 3, 1, 13),
    "odd-electron": (6, 3, 2, 17),
    "high-spin": (6, 4, 1, 19),
}

# one column-block width for every DGEMM-family evaluator AND the serial
# reference: the bitwise guarantee is "identical to sigma_dgemm at the same
# blocking" (a different width changes GEMM operand shapes, hence rounding)
BLOCK_COLUMNS = 3

# name -> (factory, comparison): "bitwise" lanes must equal sigma_dgemm
# exactly; "close" lanes (different arithmetic order) get 1e-10.
EVALUATORS = {
    "dgemm": (
        lambda p: lambda C: sigma_dgemm(p, C, block_columns=BLOCK_COLUMNS),
        "bitwise",
    ),
    "moc": (lambda p: lambda C: sigma_moc(p, C), "close"),
    "operator": (
        lambda p: HamiltonianOperator(p, "dgemm", block_columns=BLOCK_COLUMNS),
        "bitwise",
    ),
    # "compiled" is the retired lane's name, kept as an alias of "dgemm":
    # selecting it, serially or on shm ranks, must give sigma_dgemm bit for bit
    "compiled": (
        lambda p: HamiltonianOperator(p, "compiled", block_columns=BLOCK_COLUMNS),
        "bitwise",
    ),
    "parallel-shm-compiled": (
        lambda p: ParallelSigma(
            p,
            backend="shm",
            kernel="compiled",
            n_workers=2,
            block_columns=BLOCK_COLUMNS,
        ),
        "bitwise",
    ),
    "parallel-simulated": (
        lambda p: ParallelSigma(p, X1Config(n_msps=3)),
        "close",
    ),
    "parallel-shm": (
        lambda p: ParallelSigma(
            p, backend="shm", n_workers=2, block_columns=BLOCK_COLUMNS
        ),
        "bitwise",
    ),
    "parallel-sockets": (
        lambda p: ParallelSigma(
            p, backend="sockets", n_workers=2, block_columns=BLOCK_COLUMNS
        ),
        "bitwise",
    ),
}


@pytest.fixture(scope="module", params=list(SPACES), ids=list(SPACES))
def space(request):
    n, na, nb, seed = SPACES[request.param]
    problem = make_random_problem(n, na, nb, seed=seed)
    H = build_dense_hamiltonian(problem.mo, problem.space_a, problem.space_b)
    return problem, H


@pytest.fixture(scope="module")
def evaluators(space):
    """One instance of every evaluator per space; shm pools torn down once."""
    problem, _ = space
    built = {name: make(problem) for name, (make, _) in EVALUATORS.items()}
    yield built
    for fn in built.values():
        close = getattr(fn, "close", None)
        if close is not None:
            close()


def _vectors(problem, *seeds) -> list[np.ndarray]:
    """The seeded random vectors and, on a closed-shell space, X + X^T and
    X - X^T of each: the inputs the serial kernel's half sweep takes."""
    drawn = [problem.random_vector(seed) for seed in seeds]
    if problem.n_alpha != problem.n_beta:
        return drawn
    return [C for X in drawn for C in (X, X + X.T, X - X.T)]


def _assert_matches(name: str, out: np.ndarray, ref: np.ndarray) -> None:
    mode = EVALUATORS[name][1]
    if mode == "bitwise":
        assert np.array_equal(out, ref), f"{name} not bitwise-equal to sigma_dgemm"
    else:
        assert np.max(np.abs(out - ref)) < 1e-10


class TestCrossBackend:
    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_matches_dense_hamiltonian(self, space, evaluators, name):
        problem, H = space
        for C in _vectors(problem, 0, 1):
            dense = (H @ C.ravel()).reshape(problem.shape)
            assert np.max(np.abs(evaluators[name](C) - dense)) < 1e-9

    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_matches_serial_dgemm(self, space, evaluators, name):
        problem, _ = space
        for C in _vectors(problem, 2, 3):
            ref = sigma_dgemm(problem, C, block_columns=BLOCK_COLUMNS)
            _assert_matches(name, evaluators[name](C), ref)

    # the two functional entry points have no apply_batch
    @pytest.mark.parametrize("name", [n for n in EVALUATORS if n not in ("dgemm", "moc")])
    def test_batch_mixing_parities_is_the_loop(self, space, evaluators, name):
        """apply_batch on a stack mixing a symmetric, an antisymmetric and an
        unsymmetric vector: each slice is that vector's single apply."""
        problem, _ = space
        fn = evaluators[name]
        stack = np.stack(_vectors(problem, 11))
        batch = fn.apply_batch(stack)
        for C, out in zip(stack, batch):
            assert np.array_equal(out, fn(C))

    @pytest.mark.parametrize("backend", ["shm", "sockets"])
    def test_real_backends_bitwise_for_every_worker_count(self, space, backend):
        # result must not depend on the substrate or on how many ranks the
        # blocks land on
        problem, _ = space
        vectors = _vectors(problem, 4)
        refs = [sigma_dgemm(problem, C, block_columns=BLOCK_COLUMNS) for C in vectors]
        for n_workers in (1, 2, 3):
            with ParallelSigma(
                problem,
                backend=backend,
                n_workers=n_workers,
                block_columns=BLOCK_COLUMNS,
            ) as ps:
                for i, (C, ref) in enumerate(zip(vectors, refs)):
                    assert np.array_equal(ps(C), ref), (
                        f"{backend} n_workers={n_workers} vector {i}"
                    )

    @pytest.mark.parametrize("n_msps", [1, 3, 4])
    def test_general_algorithms_on_transpose_symmetric_vectors(self, n_msps):
        """MocKernel and the simulated X1 keep the general algorithm: on
        C = X +- X^T they agree with the half sweep to round-off."""
        problem = make_random_problem(6, 3, 3, seed=23)
        simulated = ParallelSigma(problem, X1Config(n_msps=n_msps))
        X = problem.random_vector(12)
        for C in (X + X.T, X - X.T):
            ref = sigma_dgemm(problem, C)
            tol = 1e-12 * np.abs(ref).max()
            assert np.abs(simulated(C) - ref).max() <= tol
            assert np.abs(sigma_moc(problem, C) - ref).max() <= tol


class TestInvariants:
    """Properties any correct sigma operator satisfies, backend-independent."""

    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_hermitian_symmetry(self, space, evaluators, name):
        problem, _ = space
        X = problem.random_vector(5)
        Y = problem.random_vector(6)
        fn = evaluators[name]
        assert abs(np.vdot(Y, fn(X)) - np.vdot(fn(Y), X)) < 1e-9

    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_variational_bound(self, space, evaluators, name):
        problem, H = space
        e0 = float(np.linalg.eigvalsh(H)[0])
        fn = evaluators[name]
        for seed in (7, 8):
            C = problem.random_vector(seed)
            rayleigh = float(np.vdot(C, fn(C)) / np.vdot(C, C))
            assert rayleigh >= e0 - 1e-10

    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_linearity(self, space, evaluators, name):
        problem, _ = space
        fn = evaluators[name]
        C1 = problem.random_vector(9)
        C2 = problem.random_vector(10)
        combined = fn(1.5 * C1 - 0.25 * C2)
        assert np.allclose(combined, 1.5 * fn(C1) - 0.25 * fn(C2), atol=1e-9)

"""Tests for the block (multi-root) Davidson solver."""

import numpy as np
import pytest

from repro.core import (
    CIProblem,
    ModelSpacePreconditioner,
    build_dense_hamiltonian,
    davidson_multiroot,
    sigma_dgemm,
)
from tests.conftest import make_random_mo


@pytest.fixture(scope="module")
def setup():
    mo = make_random_mo(6, seed=13)
    mo.h += np.diag(np.linspace(-4, 3, 6)) * 2
    prob = CIProblem(mo, 3, 3)
    H = build_dense_hamiltonian(mo, prob.space_a, prob.space_b)
    evals = np.linalg.eigvalsh(H)
    pre = ModelSpacePreconditioner(prob, 40)

    def sigma_fn(C):
        return sigma_dgemm(prob, C)

    def guesses(n):
        ev, evec = np.linalg.eigh(pre.h_model)
        out = []
        for i in range(n):
            g = np.zeros(prob.dimension)
            g[pre.selection] = evec[:, i]
            out.append(g.reshape(prob.shape))
        return out

    return prob, evals, pre, sigma_fn, guesses


class TestMultiRoot:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_lowest_k_eigenvalues(self, setup, k):
        prob, evals, pre, sigma_fn, guesses = setup
        res = davidson_multiroot(sigma_fn, guesses(2 * k), pre, n_roots=k)
        assert res.converged
        assert np.allclose(res.energies, evals[:k], atol=1e-7)

    def test_vectors_orthonormal(self, setup):
        prob, evals, pre, sigma_fn, guesses = setup
        res = davidson_multiroot(sigma_fn, guesses(6), pre, n_roots=3)
        V = np.array([v.ravel() for v in res.vectors])
        assert np.allclose(V @ V.T, np.eye(3), atol=1e-6)

    def test_residuals_small(self, setup):
        prob, evals, pre, sigma_fn, guesses = setup
        res = davidson_multiroot(sigma_fn, guesses(4), pre, n_roots=2)
        for e, v in zip(res.energies, res.vectors):
            r = sigma_fn(v) - e * v
            assert np.linalg.norm(r) < 1e-4

    def test_subspace_collapse_path(self, setup):
        prob, evals, pre, sigma_fn, guesses = setup
        res = davidson_multiroot(
            sigma_fn, guesses(4), pre, n_roots=2, max_subspace=7, max_iterations=120
        )
        assert res.converged
        assert np.allclose(res.energies, evals[:2], atol=1e-7)

    def test_history_monotone(self, setup):
        prob, evals, pre, sigma_fn, guesses = setup
        res = davidson_multiroot(sigma_fn, guesses(4), pre, n_roots=2)
        roots = np.array(res.history)
        # each tracked root decreases monotonically (variational)
        assert np.all(np.diff(roots[:, 0]) < 1e-8)

    def test_iteration_count_is_the_iterations_run(self, setup):
        # regression: an exhausted subspace left the loop early but the
        # result claimed max_iterations
        prob, evals, pre, sigma_fn, guesses = setup
        res = davidson_multiroot(sigma_fn, guesses(4), pre, n_roots=2)
        assert res.converged and res.n_iterations == len(res.history)
        res = davidson_multiroot(
            sigma_fn, guesses(4), pre, n_roots=2,
            energy_tol=0.0, residual_tol=0.0, max_iterations=500,
        )
        assert not res.converged
        assert res.n_iterations == len(res.history) < 500

    def test_validation(self, setup):
        prob, evals, pre, sigma_fn, guesses = setup
        with pytest.raises(ValueError):
            davidson_multiroot(sigma_fn, [], pre)
        with pytest.raises(ValueError):
            davidson_multiroot(sigma_fn, guesses(1), pre, n_roots=3)


class TestSolverIntegration:
    def test_run_multiroot_spectrum(self, h2):
        from repro import FCISolver

        res = FCISolver(h2, "sto-3g", model_space_size=4).run_multiroot(3)
        assert res.converged
        # H2/STO-3G Ms=0 spectrum: X1Sg+ ground, b3Su+ triplet, then singlet
        assert res.energies[0] < res.energies[1] < res.energies[2]
        assert abs(res.energies[0] - (-1.137276)) < 1e-4
        assert abs(res.s_squared[0]) < 1e-6
        assert abs(res.s_squared[1] - 2.0) < 1e-6  # triplet
        gaps = res.excitation_energies()
        assert gaps[0] == 0.0 and np.all(gaps[1:] > 0)

"""Tests for the diagonalization methods: Davidson, Olsen, auto-adjusted."""

import os

import numpy as np
import pytest

from repro.core import (
    CIProblem,
    DiagonalPreconditioner,
    HamiltonianOperator,
    ModelSpacePreconditioner,
    auto_adjusted_solve,
    build_dense_hamiltonian,
    davidson_multiroot,
    davidson_solve,
    olsen_correction,
    olsen_solve,
    sigma_dgemm,
)
from repro.core.davidson import Subspace
from repro.core.vectors import make_store
from tests.conftest import make_random_mo
from tests.helpers import make_random_problem, make_symmetry_problem, model_space_guesses


@pytest.fixture(scope="module")
def setup():
    mo = make_random_mo(6, seed=42)
    # make it diagonally dominant enough to behave like a CI Hamiltonian
    mo.h += np.diag(np.linspace(-4.0, 3.0, 6)) * 3
    prob = CIProblem(mo, 3, 3)
    H = build_dense_hamiltonian(mo, prob.space_a, prob.space_b)
    e0 = np.linalg.eigvalsh(H)[0]

    def sigma_fn(C):
        return sigma_dgemm(prob, C)

    return prob, H, e0, sigma_fn


class TestPreconditioners:
    def test_diagonal_solve(self, setup):
        prob, H, e0, _ = setup
        pre = DiagonalPreconditioner(prob)
        R = np.ones(prob.shape)
        X = pre.solve(R, -100.0)
        assert np.allclose(X * (prob.diagonal + 100.0), R, atol=1e-12)

    def test_diagonal_floor_protects(self, setup):
        prob, *_ = setup
        pre = DiagonalPreconditioner(prob)
        shift = float(prob.diagonal.ravel()[0])  # exact diagonal hit
        X = pre.solve(np.ones(prob.shape), shift)
        assert np.all(np.isfinite(X))

    def test_model_space_selection_size(self, setup):
        prob, *_ = setup
        pre = ModelSpacePreconditioner(prob, 10)
        assert pre.size == 10
        assert pre.h_model.shape == (10, 10)

    def test_model_space_block_is_exact_h(self, setup):
        prob, H, *_ = setup
        pre = ModelSpacePreconditioner(prob, 8)
        sel = pre.selection
        assert np.allclose(pre.h_model, H[np.ix_(sel, sel)], atol=1e-10)

    def test_model_space_solve_inverts_h0(self, setup):
        prob, *_ = setup
        pre = ModelSpacePreconditioner(prob, 12)
        R = np.random.default_rng(0).standard_normal(prob.shape)
        shift = -50.0
        X = pre.solve(R, shift)
        # applying H0 - shift must recover R
        back = pre.apply_h0(X) - shift * X
        assert np.allclose(back, R, atol=1e-8)

    def test_guess_is_normalized_and_supported(self, setup):
        prob, *_ = setup
        pre = ModelSpacePreconditioner(prob, 6)
        g = pre.ground_state_guess()
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12
        flat = g.ravel()
        outside = np.delete(flat, pre.selection)
        assert np.allclose(outside, 0.0)

    @pytest.mark.parametrize("case", ["ties_at_the_cut", "masked", "every_finite_entry"])
    def test_model_space_selection_is_the_stable_argsort_set(self, case):
        if case == "ties_at_the_cut":
            prob = make_random_problem(5, 2, 2, seed=3)
            # 100 determinants on 8 diagonal values: 12 share the cut value
            # and 7 of them are selected
            prob._diag = (np.arange(prob.dimension) * 37 % 8).astype(float).reshape(prob.shape)
            size = 20
        else:
            prob = make_symmetry_problem()
            n_allowed = int(prob.symmetry_mask.sum())
            size = 10 if case == "masked" else n_allowed
        diag = prob.diagonal.ravel()
        if prob.symmetry_mask is not None:
            diag = np.where(prob.symmetry_mask.ravel(), diag, np.inf)
        ranked = np.sort(diag)
        if case == "ties_at_the_cut":
            assert ranked[size - 1] == ranked[size]
        pre = ModelSpacePreconditioner(prob, size)
        assert np.array_equal(pre.selection, np.sort(np.argsort(diag, kind="stable")[:size]))
        assert np.isfinite(diag[pre.selection]).all()

    def test_apply_h0_consistent_with_solve(self, setup):
        prob, *_ = setup
        pre = ModelSpacePreconditioner(prob, 5)
        X = np.random.default_rng(1).standard_normal(prob.shape)
        Y = pre.apply_h0(X)
        # solve is the inverse map at shift 0 (if H0 nonsingular)
        X2 = pre.solve(Y, 0.0)
        assert np.allclose(X2, X, atol=1e-6)


class TestOlsenCorrection:
    def test_orthogonal_to_c(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 10)
        C = prob.random_vector(5)
        sigma = sigma_fn(C)
        e = float(np.vdot(C, sigma))
        t = olsen_correction(C, sigma - e * C, e, pre)
        assert abs(np.vdot(C, t)) < 1e-8 * np.linalg.norm(t)

    def test_zero_residual_gives_zero_correction(self, setup):
        prob, H, e0, sigma_fn = setup
        evals, evecs = np.linalg.eigh(H)
        C = evecs[:, 0].reshape(prob.shape)
        pre = DiagonalPreconditioner(prob)
        t = olsen_correction(C, sigma_fn(C) - evals[0] * C, evals[0], pre)
        assert np.linalg.norm(t) < 1e-8


class TestDavidson:
    def test_finds_ground_state(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = davidson_solve(sigma_fn, pre.ground_state_guess(), pre)
        assert res.converged
        assert abs(res.energy - e0) < 1e-8

    def test_eigenvector_quality(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = davidson_solve(sigma_fn, pre.ground_state_guess(), pre)
        r = sigma_fn(res.vector) - res.energy * res.vector
        assert np.linalg.norm(r) < 1e-4

    def test_restart_path(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 10)
        res = davidson_solve(
            sigma_fn, pre.ground_state_guess(), pre, max_subspace=3, max_iterations=80
        )
        assert res.converged
        assert abs(res.energy - e0) < 1e-8

    def test_energies_monotone_nonincreasing(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = davidson_solve(sigma_fn, pre.ground_state_guess(), pre)
        diffs = np.diff(res.energies)
        assert np.all(diffs < 1e-8)  # variational subspace growth

    def test_iteration_counting(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = davidson_solve(sigma_fn, pre.ground_state_guess(), pre)
        assert res.n_iterations == res.n_sigma == len(res.energies)


@pytest.fixture(scope="module")
def collapsing():
    """Random FCI(3+3,7) (1225 determinants) where Davidson(3) needs ~280
    iterations: the blocks are collapsed and refilled many times.  Returns
    the problem, its operator, its three lowest dense eigenvalues and a
    preconditioner."""
    prob = make_random_problem(7, 3, 3, seed=42, diag=np.linspace(-4.0, 3.0, 7) * 3)
    op = HamiltonianOperator(prob)
    H = np.array([op(row.reshape(prob.shape)).ravel() for row in np.eye(prob.dimension)])
    return prob, op, np.linalg.eigvalsh(H)[:3], ModelSpacePreconditioner(prob, 20)


@pytest.fixture
def block_log(monkeypatch):
    """Subspace sizes seen by Rayleigh-Ritz and the number of collapses,
    after checking at every Rayleigh-Ritz step that the incrementally kept
    H is V S^T recomputed from the block rows."""
    log = {"sizes": [], "collapses": 0}
    ritz_pairs, collapse = Subspace.ritz_pairs, Subspace.collapse

    def checked(self, n_roots):
        k = self.k
        assert self.ns == k
        full = self.V[:k] @ self.S[:k].T
        assert np.abs(self.H[:k, :k] - full).max() <= 1e-13 * np.abs(full).max()
        log["sizes"].append(k)
        return ritz_pairs(self, n_roots)

    def counted(self, *args):
        log["collapses"] += 1
        return collapse(self, *args)

    monkeypatch.setattr(Subspace, "ritz_pairs", checked)
    monkeypatch.setattr(Subspace, "collapse", counted)
    return log


class TestDavidsonBlocks:
    def test_projected_matrix_survives_collapses(self, collapsing, block_log):
        prob, op, evals, pre = collapsing
        res = davidson_solve(op, pre.ground_state_guess(), pre, max_subspace=3,
                             max_iterations=400, residual_tol=1e-6)
        assert res.converged
        assert block_log["collapses"] >= 10 and max(block_log["sizes"]) == 3
        assert abs(res.energy - evals[0]) < 1e-10

    def test_multiroot_projected_matrix_survives_collapses(self, collapsing, block_log):
        prob, op, evals, pre = collapsing
        res = davidson_multiroot(op, model_space_guesses(prob, pre, 4), pre, n_roots=2,
                                 max_subspace=5, max_iterations=300, residual_tol=1e-6)
        assert res.converged
        assert block_log["collapses"] >= 10 and max(block_log["sizes"]) <= 5
        assert np.abs(res.energies - evals[:2]).max() < 1e-10

    def test_store_kinds_are_bitwise_equal(self, collapsing, tmp_path):
        prob, op, evals, pre = collapsing
        runs = []
        for store in (None, make_store("dense", prob.shape),
                      make_store("mmap", prob.shape, directory=tmp_path)):
            one = davidson_solve(op, pre.ground_state_guess(), pre, max_subspace=3,
                                 max_iterations=30, store=store)
            block = davidson_multiroot(op, model_space_guesses(prob, pre, 4), pre,
                                       n_roots=2, max_subspace=5, max_iterations=10,
                                       store=store)
            runs.append((one, block))
            if store is not None:
                store.close()
        (one, block), *others = runs
        for other, other_block in others:
            assert other.energies == one.energies
            assert np.array_equal(other.vector, one.vector)
            assert np.array_equal(other_block.history, block.history)
            assert np.array_equal(other_block.vectors, block.vectors)

    @pytest.mark.parametrize("fail_at", [None, 5])
    def test_mmap_blocks_leave_no_file(self, collapsing, tmp_path, fail_at):
        prob, op, evals, pre = collapsing
        calls = []

        def sigma_fn(C):
            calls.append(1)
            if len(calls) == fail_at:
                raise RuntimeError("sigma failed")
            return op(C)

        template = make_store("mmap", prob.shape, directory=tmp_path)
        for solve in (
            lambda: davidson_solve(sigma_fn, pre.ground_state_guess(), pre,
                                   max_subspace=3, max_iterations=8, store=template),
            lambda: davidson_multiroot(sigma_fn, model_space_guesses(prob, pre, 4), pre,
                                       n_roots=2, max_iterations=3, store=template),
        ):
            calls.clear()
            if fail_at is None:
                solve()
            else:
                with pytest.raises(RuntimeError, match="sigma failed"):
                    solve()
            assert os.listdir(tmp_path) == [os.path.basename(template.path)]
        template.close()
        assert os.listdir(tmp_path) == []


class TestOlsenIteration:
    def test_olsen_converges_on_easy_problem(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = olsen_solve(sigma_fn, pre.ground_state_guess(), pre, step=1.0, max_iterations=100)
        # the random test Hamiltonian is diagonally dominant: Olsen should work
        assert res.converged
        assert abs(res.energy - e0) < 1e-7

    def test_damped_step_used(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = olsen_solve(sigma_fn, pre.ground_state_guess(), pre, step=0.7, max_iterations=100)
        assert res.method == "olsen(step=0.7)"

    def test_history_recorded(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = olsen_solve(sigma_fn, pre.ground_state_guess(), pre, max_iterations=20)
        assert len(res.energies) == len(res.residual_norms) == res.n_iterations


class TestAutoAdjusted:
    def test_converges_to_ground_state(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = auto_adjusted_solve(sigma_fn, pre.ground_state_guess(), pre)
        assert res.converged
        assert abs(res.energy - e0) < 1e-8

    def test_single_vector_storage_semantics(self, setup):
        # the method never stores subspaces: its result vector is normalized
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res = auto_adjusted_solve(sigma_fn, pre.ground_state_guess(), pre)
        assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-10

    def test_competitive_with_davidson(self, setup):
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 20)
        res_auto = auto_adjusted_solve(sigma_fn, pre.ground_state_guess(), pre)
        res_dav = davidson_solve(sigma_fn, pre.ground_state_guess(), pre)
        # paper: auto requires no more than ~2x the subspace method, usually less
        assert res_auto.n_iterations <= 2 * res_dav.n_iterations + 5

    def test_eq14_recovers_tht(self, setup):
        # the retroactive <t|H|t> identity must match the direct value
        prob, H, e0, sigma_fn = setup
        pre = ModelSpacePreconditioner(prob, 15)
        C = pre.ground_state_guess()
        sigma = sigma_fn(C)
        e = float(np.vdot(C, sigma))
        t = olsen_correction(C, sigma - e * C, e, pre)
        lam = 0.6
        tn2 = float(np.vdot(t, t))
        e_ct = float(np.vdot(sigma, t))
        s2 = 1.0 / (1.0 + lam * lam * tn2)
        Cn = (C + lam * t) * np.sqrt(s2)
        e_next = float(np.vdot(Cn, sigma_fn(Cn)))
        e_tt_rec = (e_next / s2 - e - 2 * lam * e_ct) / lam**2
        e_tt_direct = float(np.vdot(t, sigma_fn(t)))
        assert abs(e_tt_rec - e_tt_direct) < 1e-6 * max(1.0, abs(e_tt_direct))

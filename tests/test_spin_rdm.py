"""Tests for spin operators and reduced density matrices."""

import numpy as np
import pytest

from repro.core import (
    CIProblem,
    SpinOperator,
    apply_s2,
    build_dense_hamiltonian,
    natural_orbitals,
    one_rdm,
    s_squared,
)
from tests.conftest import make_random_mo


@pytest.fixture(scope="module")
def prob_and_eigs():
    mo = make_random_mo(5, seed=77)
    prob = CIProblem(mo, 3, 2)
    H = build_dense_hamiltonian(mo, prob.space_a, prob.space_b)
    evals, evecs = np.linalg.eigh(H)
    return mo, prob, evals, evecs


class TestSSquared:
    def test_eigenstates_are_spin_pure(self, prob_and_eigs):
        mo, prob, evals, evecs = prob_and_eigs
        na, nb = prob.shape
        for i in range(5):
            v = evecs[:, i].reshape(na, nb)
            s2 = s_squared(prob, v)
            # allowed S for Ms = 1/2: S = 1/2, 3/2, 5/2 -> S(S+1) in {.75, 3.75, 8.75}
            cands = [0.75, 3.75, 8.75]
            assert min(abs(s2 - c) for c in cands) < 1e-8

    def test_high_spin_determinant(self):
        mo = make_random_mo(4, seed=1)
        prob = CIProblem(mo, 2, 0)
        C = np.zeros(prob.shape)
        C[0, 0] = 1.0
        # all-alpha: S = Ms = 1 -> S(S+1) = 2
        assert abs(s_squared(prob, C) - 2.0) < 1e-12

    def test_closed_shell_determinant(self):
        mo = make_random_mo(4, seed=2)
        prob = CIProblem(mo, 2, 2)
        C = np.zeros(prob.shape)
        C[0, 0] = 1.0  # doubly-occupied lowest orbitals
        assert abs(s_squared(prob, C)) < 1e-12

    def test_open_shell_singlet_triplet_mix(self):
        # |ab| determinant with 2 open shells: <S^2> = 1
        mo = make_random_mo(4, seed=3)
        prob = CIProblem(mo, 1, 1)
        C = np.zeros(prob.shape)
        ia = prob.space_a.index(0b01)
        ib = prob.space_b.index(0b10)
        C[ia, ib] = 1.0
        assert abs(s_squared(prob, C) - 1.0) < 1e-12

    def test_zero_vector_rejected(self, prob_and_eigs):
        _, prob, _, _ = prob_and_eigs
        with pytest.raises(ValueError):
            s_squared(prob, np.zeros(prob.shape))

    def test_apply_s2_hermitian(self, prob_and_eigs):
        _, prob, _, _ = prob_and_eigs
        rng = np.random.default_rng(0)
        X = rng.standard_normal(prob.shape)
        Y = rng.standard_normal(prob.shape)
        assert abs(np.vdot(Y, apply_s2(prob, X)) - np.vdot(apply_s2(prob, Y), X)) < 1e-9

    def test_apply_s2_commutes_with_h(self, prob_and_eigs):
        from repro.core import sigma_dgemm

        mo, prob, _, _ = prob_and_eigs
        C = prob.random_vector(4)
        a = apply_s2(prob, sigma_dgemm(prob, C))
        b = sigma_dgemm(prob, apply_s2(prob, C))
        assert np.allclose(a, b, atol=1e-8)

    def test_expectation_matches_operator(self, prob_and_eigs):
        _, prob, _, _ = prob_and_eigs
        C = prob.random_vector(8)
        op = SpinOperator(prob)
        direct = float(np.vdot(C, op.apply_s2(C)))
        assert abs(direct - op.expectation(C)) < 1e-10


class TestOneRDM:
    def test_trace_is_electron_count(self, prob_and_eigs):
        _, prob, _, evecs = prob_and_eigs
        na, nb = prob.shape
        v = evecs[:, 0].reshape(na, nb)
        gamma = one_rdm(prob, v)
        assert abs(np.trace(gamma) - (prob.n_alpha + prob.n_beta)) < 1e-10

    def test_symmetric(self, prob_and_eigs):
        _, prob, _, evecs = prob_and_eigs
        v = evecs[:, 1].reshape(prob.shape)
        gamma = one_rdm(prob, v)
        assert np.allclose(gamma, gamma.T, atol=1e-10)

    def test_one_electron_energy_consistency(self, prob_and_eigs):
        # tr(gamma h) must equal <C| sum h_pq E_pq |C>
        mo, prob, _, evecs = prob_and_eigs
        from repro.core.kernels import one_electron_operators

        v = evecs[:, 0].reshape(prob.shape)
        gamma = one_rdm(prob, v)
        Ta, Tb = one_electron_operators(prob)
        direct = float(np.vdot(v, np.asarray(Ta @ v) + np.asarray(Tb @ v.T).T))
        assert abs(np.sum(gamma * mo.h) - direct) < 1e-9

    def test_hf_determinant_rdm(self):
        mo = make_random_mo(4, seed=5)
        prob = CIProblem(mo, 2, 1)
        C = np.zeros(prob.shape)
        C[0, 0] = 1.0  # alpha {0,1}, beta {0}
        gamma = one_rdm(prob, C)
        assert np.allclose(gamma, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_natural_occupations(self, prob_and_eigs):
        _, prob, _, evecs = prob_and_eigs
        v = evecs[:, 0].reshape(prob.shape)
        occ, vecs = natural_orbitals(prob, v)
        assert np.all(np.diff(occ) <= 1e-12)  # descending
        assert abs(occ.sum() * 2 - 2 * (prob.n_alpha + prob.n_beta)) < 1e-9
        assert np.all(occ > -1e-10)
        assert np.all(occ < 2.0 + 1e-10)

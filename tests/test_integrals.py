"""Tests for one- and two-electron molecular integrals."""

import math

import numpy as np
import pytest

from repro.basis import BasisSet, Shell, cartesian_components
from repro.integrals import (
    eri,
    hermite_coulomb,
    hermite_expansion,
    kinetic,
    nuclear_attraction,
    overlap,
)
from repro.molecule import Molecule
from tests.helpers import spd_basis, spd_charges


def s_basis(centers_alphas):
    return BasisSet(
        [Shell(0, [a], [1.0], np.asarray(c, dtype=float)) for c, a in centers_alphas]
    )


def case_basis(request, case):
    """``"spd"``: the two-centre s/p/d basis; otherwise a water basis by name."""
    if case == "spd":
        return spd_basis()
    return request.getfixturevalue("water").basis(case)


def case_charges(request, case):
    if case == "spd":
        return spd_charges()
    return request.getfixturevalue("water").charges()


def scalar_one_electron(basis, charges):
    """S, T and V by a primitive-pair, component-pair loop: the reference the
    class-batched one-electron routines are held to."""
    n = basis.nbf
    S, T, V = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    offs = basis.shell_offsets
    for ia, sa in enumerate(basis.shells):
        for ib, sb in enumerate(basis.shells):
            AB = sa.center - sb.center
            for a, ca in zip(sa.exponents, sa.coefficients * sa._norms):
                for b, cb in zip(sb.exponents, sb.coefficients * sb._norms):
                    p = a + b
                    P = (a * sa.center + b * sb.center) / p
                    E = [hermite_expansion(sa.l, sb.l + 2, a, b, AB[x]) for x in range(3)]
                    Rs = [
                        (Z, hermite_coulomb(sa.l + sb.l, p, P - np.asarray(C)))
                        for Z, C in charges
                    ]
                    for u, la in enumerate(cartesian_components(sa.l)):
                        for v, lb in enumerate(cartesian_components(sb.l)):
                            c = ca * cb * sa.component_norm(la) * sb.component_norm(lb)
                            s = [E[x][la[x], lb[x], 0] for x in range(3)]
                            k = []
                            for x in range(3):
                                i, j = la[x], lb[x]
                                val = -2 * b * b * E[x][i, j + 2, 0]
                                val += b * (2 * j + 1) * E[x][i, j, 0]
                                if j >= 2:
                                    val -= 0.5 * j * (j - 1) * E[x][i, j - 2, 0]
                                k.append(val)
                            row, col = offs[ia] + u, offs[ib] + v
                            ov = c * (math.pi / p) ** 1.5
                            S[row, col] += ov * s[0] * s[1] * s[2]
                            T[row, col] += ov * (
                                k[0] * s[1] * s[2] + s[0] * k[1] * s[2] + s[0] * s[1] * k[2]
                            )
                            for Z, R in Rs:
                                herm = sum(
                                    E[0][la[0], lb[0], t]
                                    * E[1][la[1], lb[1], w]
                                    * E[2][la[2], lb[2], z]
                                    * R[t, w, z]
                                    for t in range(la[0] + lb[0] + 1)
                                    for w in range(la[1] + lb[1] + 1)
                                    for z in range(la[2] + lb[2] + 1)
                                )
                                V[row, col] -= Z * c * 2.0 * math.pi / p * herm
    return S, T, V


class TestOneElectronReference:
    @pytest.mark.parametrize("case", ["6-31g", "spd"])
    def test_batched_matches_scalar_loop(self, request, case):
        basis, charges = case_basis(request, case), case_charges(request, case)
        S, T, V = scalar_one_electron(basis, charges)
        assert np.abs(overlap(basis) - S).max() <= 1e-12
        assert np.abs(kinetic(basis) - T).max() <= 1e-12
        assert np.abs(nuclear_attraction(basis, charges) - V).max() <= 1e-12


class TestHermiteExpansion:
    def test_e000_gaussian_product(self):
        a, b, abx = 0.9, 0.4, 1.7
        E = hermite_expansion(0, 0, a, b, abx)
        mu = a * b / (a + b)
        assert abs(E[0, 0, 0] - math.exp(-mu * abx * abx)) < 1e-14

    def test_same_center_e_simple(self):
        E = hermite_expansion(1, 1, 1.0, 1.0, 0.0)
        # P = A = B: E_0^{10} = PA = 0
        assert abs(E[1, 0, 0]) < 1e-14
        assert abs(E[1, 0, 1] - 0.25) < 1e-14  # 1/(2p) with p = 2

    def test_shape(self):
        E = hermite_expansion(2, 1, 0.5, 0.5, 0.3)
        assert E.shape == (3, 2, 4)


class TestOverlap:
    def test_two_s_primitives_analytic(self):
        a, b, R = 0.8, 1.1, 1.3
        basis = s_basis([((0, 0, 0), a), ((0, 0, R), b)])
        S = overlap(basis)
        # normalized s-s overlap: exp(-mu R^2) * (2 sqrt(ab)/(a+b))^{3/2}
        mu = a * b / (a + b)
        ref = math.exp(-mu * R * R) * (2 * math.sqrt(a * b) / (a + b)) ** 1.5
        assert abs(S[0, 1] - ref) < 1e-12

    @pytest.mark.parametrize("case", ["sto-3g", "spd"])
    def test_symmetric_positive_definite(self, request, case):
        S = overlap(case_basis(request, case))
        assert np.allclose(S, S.T, atol=1e-12)
        assert np.linalg.eigvalsh(S).min() > 0

    @pytest.mark.parametrize("case", ["6-31g", "spd"])
    def test_unit_diagonal(self, request, case):
        S = overlap(case_basis(request, case))
        assert np.allclose(np.diag(S), 1.0, atol=1e-9)

    def test_szabo_h2_value(self, h2):
        S = overlap(h2.basis("sto-3g"))
        assert abs(S[0, 1] - 0.6593) < 2e-4  # Szabo & Ostlund table 3.4

    def test_translation_invariance(self):
        b1 = s_basis([((0, 0, 0), 0.7), ((0.5, -0.2, 1.0), 1.3)])
        shift = np.array([1.1, -2.2, 0.7])
        b2 = s_basis([(shift, 0.7), (np.array([0.5, -0.2, 1.0]) + shift, 1.3)])
        assert np.allclose(overlap(b1), overlap(b2), atol=1e-12)

    def test_p_orthogonal_to_s_same_center(self):
        basis = BasisSet(
            [
                Shell(0, [0.8], [1.0], np.zeros(3)),
                Shell(1, [1.3], [1.0], np.zeros(3)),
            ]
        )
        S = overlap(basis)
        assert np.allclose(S[0, 1:4], 0.0, atol=1e-14)


class TestKinetic:
    def test_single_s_analytic(self):
        # <s|T|s> = 3a/2 for a normalized s gaussian
        a = 0.75
        T = kinetic(s_basis([((0, 0, 0), a)]))
        assert abs(T[0, 0] - 1.5 * a) < 1e-12

    def test_single_p_analytic(self):
        # <p|T|p> = 5a/2 for a normalized p gaussian
        a = 1.2
        T = kinetic(BasisSet([Shell(1, [a], [1.0], np.zeros(3))]))
        assert np.allclose(np.diag(T), 2.5 * a, atol=1e-12)

    @pytest.mark.parametrize("case", ["sto-3g", "spd"])
    def test_symmetric(self, request, case):
        T = kinetic(case_basis(request, case))
        assert np.allclose(T, T.T, atol=1e-12)

    @pytest.mark.parametrize("case", ["6-31g", "spd"])
    def test_positive_definite(self, request, case):
        T = kinetic(case_basis(request, case))
        assert np.linalg.eigvalsh(T).min() > 0

    def test_szabo_h2_value(self, h2):
        T = kinetic(h2.basis("sto-3g"))
        assert abs(T[0, 0] - 0.7600) < 2e-4


class TestNuclearAttraction:
    def test_s_on_nucleus_analytic(self):
        # <s| -1/r |s> centered at nucleus = -2 sqrt(2a/pi)
        a = 0.9
        basis = s_basis([((0, 0, 0), a)])
        V = nuclear_attraction(basis, [(1.0, np.zeros(3))])
        ref = -2.0 * math.sqrt(2.0 * a / math.pi)
        assert abs(V[0, 0] - ref) < 1e-12

    def test_scales_with_charge(self, h2):
        basis = h2.basis("sto-3g")
        V1 = nuclear_attraction(basis, [(1.0, np.zeros(3))])
        V2 = nuclear_attraction(basis, [(2.0, np.zeros(3))])
        assert np.allclose(V2, 2 * V1, atol=1e-12)

    def test_additive_over_nuclei(self, h2):
        basis = h2.basis("sto-3g")
        c1, c2 = (1.0, np.zeros(3)), (1.0, np.array([0, 0, 1.4]))
        Vsum = nuclear_attraction(basis, [c1]) + nuclear_attraction(basis, [c2])
        Vboth = nuclear_attraction(basis, [c1, c2])
        assert np.allclose(Vsum, Vboth, atol=1e-12)

    @pytest.mark.parametrize("case", ["sto-3g", "spd"])
    def test_negative_diagonal(self, request, case):
        V = nuclear_attraction(case_basis(request, case), case_charges(request, case))
        assert np.all(np.diag(V) < 0)


class TestERI:
    def test_szabo_h2_values(self, h2_ao):
        g = h2_ao.g
        assert abs(g[0, 0, 0, 0] - 0.7746) < 2e-4
        assert abs(g[0, 0, 1, 1] - 0.5697) < 2e-4
        assert abs(g[0, 1, 0, 1] - 0.2970) < 2e-4

    def test_8fold_symmetry(self, water_ao):
        g = water_ao.g
        assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-11)
        assert np.allclose(g, g.transpose(0, 1, 3, 2), atol=1e-11)
        assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-11)

    def test_positive_semidefinite_supermatrix(self, water_ao):
        n = water_ao.nbf
        M = water_ao.g.reshape(n * n, n * n)
        evals = np.linalg.eigvalsh(0.5 * (M + M.T))
        assert evals.min() > -1e-10

    def test_single_s_analytic(self):
        # self-repulsion of one normalized s gaussian: (ss|ss) = 2 sqrt(a/pi)
        a = 1.7
        g = eri(s_basis([((0, 0, 0), a)]))
        ref = 2.0 * math.sqrt(a / math.pi)
        assert abs(g[0, 0, 0, 0] - ref) < 1e-12

    def test_coulomb_decay_with_distance(self):
        a = 1.0
        vals = []
        for R in [2.0, 4.0, 8.0]:
            g = eri(s_basis([((0, 0, 0), a), ((0, 0, R), a)]))
            vals.append(g[0, 0, 1, 1])
        # (11|22) ~ 1/R at long range
        assert vals[0] > vals[1] > vals[2]
        assert abs(vals[2] * 8.0 - 1.0) < 0.05

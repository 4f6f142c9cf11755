"""Differential and screening tests for the batched ERI engine.

The batched :class:`repro.integrals.IntegralEngine` replaced the scalar
primitive-quad quadruple loop as the production ERI path.  The scalar loop
is retained verbatim as :func:`eri_reference` and acts as the oracle here:

* the engine must agree with the oracle to 1e-12 across sto-3g and 6-31g
  bases and a two-centre s/p/d basis, so p and d shells are covered,
* Schwarz screening at tau = 0 must be *bitwise* identical to the
  unscreened assembly (the screen may only ever skip quartets),
* when screening does skip quartets, the deviation must stay below tau,
* a quartet's block is bitwise the same whichever other quartets share its
  class sweep (screened batches, one-quartet chunks),
* the audited quartet/FLOP counters must match the closed-form model in
  ``repro.obs.accounting`` exactly.
"""

import numpy as np
import pytest

from repro.basis import BasisSet, Shell
from repro.integrals import (
    IntegralEngine,
    eri,
    eri_reference,
    kinetic,
    nuclear_attraction,
    overlap,
)
from repro.integrals import two_electron
from repro.integrals.two_electron import quartet_block
from repro.obs import MetricsRegistry
from repro.obs.accounting import eri_quartet_flops, mo_transform_flops
from repro.scf import compute_ao_integrals, rhf, transform
from tests.helpers import spd_basis


def s_basis(centers_alphas):
    return BasisSet(
        [Shell(0, [a], [1.0], np.asarray(c, dtype=float)) for c, a in centers_alphas]
    )


def far_dimer_basis(R=40.0):
    """Two tight s shells separated far enough that cross pairs vanish."""
    return s_basis([((0, 0, 0), 1.3), ((0, 0, R), 0.9)])


def far_spd_dimer_basis(R=30.0):
    """Two copies of the s/p/d basis ``R`` bohr apart: screening prunes the
    quartets touching an inter-copy shell pair, in every class."""
    return BasisSet(spd_basis().shells + spd_basis(shift=(R, 0.0, 0.0)).shells)


class TestDifferentialOracle:
    @pytest.mark.parametrize(
        "mol_fixture,basis_name",
        [
            ("h2", "sto-3g"),
            ("water", "sto-3g"),
            ("water", "6-31g"),  # s+p shells, general contractions
            ("oxygen_triplet", "6-31g"),
        ],
    )
    def test_engine_matches_scalar_oracle(self, request, mol_fixture, basis_name):
        basis = request.getfixturevalue(mol_fixture).basis(basis_name)
        g_ref = eri_reference(basis)
        g_new = IntegralEngine(basis).eri()
        assert np.abs(g_new - g_ref).max() <= 1e-12

    def test_engine_matches_scalar_oracle_on_d_shells(self):
        basis = spd_basis()
        assert np.abs(IntegralEngine(basis).eri() - eri_reference(basis)).max() <= 1e-12

    def test_quartet_kernel_matches_on_p_shells(self, water):
        # block-level differential: every quartet, not just the assembled g
        from repro.integrals.two_electron import (
            _flat_pairs,
            _quartet_reference,
            build_shell_pairs,
        )

        pairs = _flat_pairs(build_shell_pairs(water.basis("6-31g")))
        for pi, bra in enumerate(pairs):
            for ket in pairs[: pi + 1]:
                ref = _quartet_reference(bra, ket)
                new = quartet_block(bra, ket)
                assert np.abs(new - ref).max() <= 1e-13


class TestSchwarzScreening:
    def test_tau_zero_bitwise_identical(self, water):
        basis = water.basis("sto-3g")
        g_unscreened = IntegralEngine(basis).eri()
        g_tau0 = IntegralEngine(basis, screen_threshold=0.0).eri()
        assert np.array_equal(g_tau0, g_unscreened)  # bitwise

    def test_bounds_are_rigorous(self, h2):
        # bounds[i] * bounds[j] must dominate every element of quartet (i|j)
        engine = IntegralEngine(h2.basis("sto-3g"))
        pairs, bounds = engine.shell_pairs, engine.schwarz
        for pi, bra in enumerate(pairs):
            for ki, ket in enumerate(pairs[: pi + 1]):
                block = np.abs(quartet_block(bra, ket))
                assert block.max() <= bounds[pi] * bounds[ki] * (1 + 1e-12)

    def test_blocks_are_batch_independent(self, monkeypatch):
        basis = far_spd_dimer_basis()
        g = IntegralEngine(basis).eri()
        tau = 1e-10
        engine = IntegralEngine(basis, screen_threshold=tau)
        screened = engine.eri()
        assert engine.stats.quartets_screened > 0
        # kept elements: both function pairs' Schwarz bounds clear tau
        shell_of = np.repeat(
            np.arange(len(basis.shells)), [sh.nfunc for sh in basis.shells]
        )
        hi = np.maximum.outer(shell_of, shell_of)
        lo = np.minimum.outer(shell_of, shell_of)
        bound = engine.schwarz[hi * (hi + 1) // 2 + lo]
        kept = bound[:, :, None, None] * bound[None, None, :, :] >= tau
        assert np.array_equal(screened[kept], g[kept])  # bitwise
        assert not screened[~kept].any()
        # one quartet per chunk: every class sweep cut to single quartets
        monkeypatch.setattr(two_electron, "_CHUNK_DOUBLES", 1)
        assert np.array_equal(IntegralEngine(basis).eri(), g)  # bitwise

    def test_screening_skips_far_quartets_within_tau(self):
        basis = far_dimer_basis()
        tau = 1e-10
        engine = IntegralEngine(basis, screen_threshold=tau)
        g = engine.eri()
        assert engine.stats.quartets_screened > 0
        # every skipped quartet element is rigorously below tau
        assert np.abs(g - eri_reference(basis)).max() <= tau

    def test_screened_count_monotonic_in_tau(self):
        basis = far_dimer_basis()
        screened = []
        for tau in (0.0, 1e-14, 1e-8, 1e-2):
            engine = IntegralEngine(basis, screen_threshold=tau)
            engine.eri()
            screened.append(engine.stats.quartets_screened)
        assert screened[0] == 0
        assert screened == sorted(screened)

    def test_negative_threshold_rejected(self, h2):
        with pytest.raises(ValueError):
            IntegralEngine(h2.basis("sto-3g"), screen_threshold=-1e-8)

    def test_module_level_wrapper(self, h2):
        basis = h2.basis("sto-3g")
        assert np.array_equal(eri(basis), eri(basis, screen_threshold=0.0))


class TestAccounting:
    def test_stats_match_closed_form_flops(self, water):
        engine = IntegralEngine(water.basis("6-31g"))
        engine.eri()
        pairs = engine.shell_pairs
        expected = 0.0
        for pi, bra in enumerate(pairs):
            for ket in pairs[: pi + 1]:
                expected += eri_quartet_flops(
                    bra.coefs.size,
                    ket.coefs.size,
                    bra.ncomp,
                    ket.ncomp,
                    bra.nherm,
                    ket.nherm,
                )
        assert engine.stats.flops == expected
        npairs = len(pairs)
        assert engine.stats.quartets_total == npairs * (npairs + 1) // 2
        assert engine.stats.quartets_computed == engine.stats.quartets_total

    def test_registry_counters_published(self, water):
        reg = MetricsRegistry()
        engine = IntegralEngine(water.basis("sto-3g"), registry=reg)
        engine.eri()
        stats = engine.stats
        assert reg.get("integrals.eri.assemblies").value == 1.0
        assert reg.get("integrals.quartets.computed").value == stats.quartets_computed
        assert reg.get("integrals.quartets.screened").value == stats.quartets_screened
        assert reg.get("integrals.eri.flops").value == stats.flops
        assert stats.as_dict()["flops"] == stats.flops

    def test_mo_transform_accounted(self, h2):
        reg = MetricsRegistry()
        ints = compute_ao_integrals(h2, "sto-3g", registry=reg)
        scf = rhf(h2, ints)
        transform(ints, scf.mo_coeff)  # falls back to the engine's registry
        n = ints.nbf
        assert reg.get("integrals.mo_transform.calls").value == 1.0
        assert reg.get("integrals.mo_transform.flops").value == mo_transform_flops(n, n)


class TestEngineCaching:
    def test_eri_memoized(self, h2):
        engine = IntegralEngine(h2.basis("sto-3g"))
        assert engine.eri() is engine.eri()
        assert engine.stats.quartets_total > 0  # tallied once, not twice

    def test_one_electron_matches_module_functions(self, water):
        basis = water.basis("6-31g")
        engine = IntegralEngine(basis)
        charges = water.charges()
        assert np.array_equal(engine.overlap(), overlap(basis))
        assert np.array_equal(engine.kinetic(), kinetic(basis))
        assert np.array_equal(
            engine.nuclear_attraction(charges), nuclear_attraction(basis, charges)
        )
        # the pair-table cache is shared across the one-electron builds
        assert len(engine._one_electron_tables) > 0
        assert engine.overlap() is engine.overlap()

    def test_compute_ao_integrals_attaches_engine(self, h2):
        ints = compute_ao_integrals(h2, "sto-3g")
        assert isinstance(ints.engine, IntegralEngine)
        assert ints.g is ints.engine.eri()  # shared, not recomputed

    def test_prebuilt_engine_reused(self, h2):
        engine = IntegralEngine(h2.basis("sto-3g"))
        g = engine.eri()
        ints = compute_ao_integrals(h2, "sto-3g", engine=engine)
        assert ints.engine is engine
        assert ints.g is g

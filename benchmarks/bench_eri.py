"""ERI engine benchmark: class-batched/screened engine vs the scalar oracle.

Prices the integral layer that feeds every SCF/FCI pipeline.  The scalar
path is a pure-Python primitive-quad quadruple loop (~1.6 s for
water/6-31G).  The engine makes one sweep per angular-momentum class
(la, lb | lc, ld) - 16 for an s/p basis, instead of one Python call per
shell quartet (1 035 for water/6-31G): every primitive quad of the class's
unscreened quartets goes through one vectorized Hermite-Coulomb sweep and
two stacked contractions, ``np.add.reduceat`` sums primitives per quartet,
and eight fancy-index stores write the permutations.  Cauchy-Schwarz
screening skips negligible quartets.  Measured on a 2-CPU x86-64 box with
one BLAS thread: water/6-31G ERI 0.074 s with one call per quartet -> 0.015
s, CH3OH/6-31G 1.00 s -> 0.17 s.

Gates:

* **speedup** — engine >= 5x over the retained scalar path on water/6-31G
  (13 basis functions, s+p shells);
* **fidelity** — max-abs deviation <= 1e-12 against the scalar oracle with
  screening engaged at tau = 0 (which must also be bitwise-identical to the
  unscreened engine).

The CH3OH/6-31G row (26 basis functions) times the engine alone, ungated:
its scalar oracle would take about 20 s.
"""

import time

import numpy as np

from repro.integrals.two_electron import IntegralEngine, eri_reference
from repro.molecule import Molecule

from conftest import write_result

SPEEDUP_GATE = 5.0
DEVIATION_GATE = 1e-12

# far-dimer screening gates: tau bounds every skipped quartet's elements, so
# the screened tensor may deviate from the oracle by at most tau per element
SCREEN_TAU = 1e-10
SCREEN_FRACTION_GATE = 0.25  # >= this fraction of quartets must be screened

_WATER_ATOMS = [
    ("O", (0.0, 0.0, 0.2217)),
    ("H", (0.0, 1.4309, -0.8867)),
    ("H", (0.0, -1.4309, -0.8867)),
]


def _water():
    return Molecule.from_atoms(_WATER_ATOMS, name="H2O")


def _far_water_dimer(separation: float = 30.0):
    """Two waters ``separation`` bohr apart along x: inter-monomer bra/ket
    shell pairs have vanishing overlap, so their Schwarz bounds actually
    prune quartets (the compact single-molecule cases screen nothing)."""
    atoms = list(_WATER_ATOMS) + [
        (sym, (x + separation, y, z)) for sym, (x, y, z) in _WATER_ATOMS
    ]
    return Molecule.from_atoms(atoms, name="(H2O)2@30")


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_eri_engine_speedup_and_fidelity(methanol):
    basis = _water().basis("6-31g")
    t_scalar, g_scalar = _best_of(lambda: eri_reference(basis), repeats=2)

    # screening engaged at tau=0: skips nothing, exercises the full path
    def batched():
        return IntegralEngine(basis, screen_threshold=0.0).eri()

    t_batched, g_batched = _best_of(batched)
    speedup = t_scalar / t_batched
    deviation = float(np.abs(g_batched - g_scalar).max())
    bitwise_tau0 = bool(
        np.array_equal(g_batched, IntegralEngine(basis).eri())
    )

    engine = IntegralEngine(basis, screen_threshold=0.0)
    engine.eri()
    stats = engine.stats

    # engine only: the scalar oracle on 26 functions would take ~20 s
    meoh = methanol.basis("6-31g")
    t_meoh, _ = _best_of(lambda: IntegralEngine(meoh).eri())

    lines = [
        "ERI assembly: class-batched+screened engine vs scalar primitive-quad loop",
        f"{'molecule/basis':>18} {'scalar':>10} {'batched':>10} {'speedup':>8}",
        f"{'water/6-31G':>18} {t_scalar:10.4f} {t_batched:10.4f} {speedup:7.2f}x",
        f"{'CH3OH/6-31G':>18} {'-':>10} {t_meoh:10.4f} {'-':>8}",
        "",
        f"max-abs deviation vs oracle: {deviation:.3e} (gate {DEVIATION_GATE:.0e})",
        f"tau=0 bitwise-identical to unscreened: {bitwise_tau0}",
        f"shell quartets: {stats.quartets_computed} computed, "
        f"{stats.quartets_screened} screened of {stats.quartets_total}",
        f"contraction flops: {stats.flops:.3e}",
    ]
    write_result(
        "BENCH_eri",
        "\n".join(lines),
        rows=[
            {
                "molecule": "H2O",
                "basis": "6-31g",
                "nbf": basis.nbf,
                "scalar_s": t_scalar,
                "batched_s": t_batched,
                "speedup": speedup,
                "max_abs_deviation": deviation,
            },
            {
                "molecule": "CH3OH",
                "basis": "6-31g",
                "nbf": meoh.nbf,
                "batched_s": t_meoh,
            },
        ],
        metrics={
            "speedup": speedup,
            "speedup_gate": SPEEDUP_GATE,
            "max_abs_deviation": deviation,
            "deviation_gate": DEVIATION_GATE,
            "tau0_bitwise_identical": bitwise_tau0,
            "quartets_total": stats.quartets_total,
            "quartets_computed": stats.quartets_computed,
            "quartets_screened": stats.quartets_screened,
            "eri_flops": stats.flops,
            "eri_bytes": stats.bytes_moved,
        },
    )
    assert deviation <= DEVIATION_GATE, (
        f"engine deviates {deviation:.3e} from the scalar oracle"
    )
    assert bitwise_tau0, "tau=0 screening changed bits vs the unscreened engine"
    assert speedup >= SPEEDUP_GATE, (
        f"ERI speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate"
    )


def test_eri_screening_prunes_far_dimer():
    """Schwarz screening engaged for real: a separated dimer where tau prunes.

    The single-molecule fidelity case above screens nothing (0/1035 for
    water/6-31G) because every shell pair overlaps; here two waters sit 30
    bohr apart, so quartets touching an inter-monomer bra or ket pair fall
    under tau and are skipped, while the long-range (AA|BB) Coulomb blocks
    survive - the screened tensor still matches the scalar oracle to tau.
    """
    basis = _far_water_dimer().basis("6-31g")

    t_screened, g_screened = _best_of(
        lambda: IntegralEngine(basis, screen_threshold=SCREEN_TAU).eri()
    )
    t_unscreened, g_unscreened = _best_of(lambda: IntegralEngine(basis).eri())
    t_scalar, g_scalar = _best_of(lambda: eri_reference(basis), repeats=1)

    engine = IntegralEngine(basis, screen_threshold=SCREEN_TAU)
    engine.eri()
    stats = engine.stats
    fraction = stats.quartets_screened / stats.quartets_total
    dev_oracle = float(np.abs(g_screened - g_scalar).max())
    dev_unscreened = float(np.abs(g_screened - g_unscreened).max())

    lines = [
        "Schwarz screening on a far-separated water dimer (30 bohr, 6-31G)",
        f"{'path':>12} {'seconds':>10}",
        f"{'scalar':>12} {t_scalar:10.4f}",
        f"{'unscreened':>12} {t_unscreened:10.4f}",
        f"{'screened':>12} {t_screened:10.4f}  (tau={SCREEN_TAU:.0e})",
        "",
        f"shell quartets: {stats.quartets_screened} screened of "
        f"{stats.quartets_total} ({100 * fraction:.1f}%), "
        f"{stats.quartets_computed} computed",
        f"max-abs deviation vs oracle: {dev_oracle:.3e} (gate {SCREEN_TAU:.0e})",
        f"max-abs deviation vs unscreened engine: {dev_unscreened:.3e}",
    ]
    write_result(
        "BENCH_eri_screening",
        "\n".join(lines),
        rows=[
            {
                "molecule": "(H2O)2@30bohr",
                "basis": "6-31g",
                "nbf": basis.nbf,
                "tau": SCREEN_TAU,
                "scalar_s": t_scalar,
                "unscreened_s": t_unscreened,
                "screened_s": t_screened,
                "screened_fraction": fraction,
                "max_abs_deviation": dev_oracle,
            }
        ],
        metrics={
            "tau": SCREEN_TAU,
            "quartets_total": stats.quartets_total,
            "quartets_computed": stats.quartets_computed,
            "quartets_screened": stats.quartets_screened,
            "screened_fraction": fraction,
            "screened_fraction_gate": SCREEN_FRACTION_GATE,
            "max_abs_deviation": dev_oracle,
            "deviation_vs_unscreened": dev_unscreened,
            "eri_flops": stats.flops,
            "eri_bytes": stats.bytes_moved,
        },
    )
    assert stats.quartets_screened > 0, "far dimer screened no quartets"
    assert fraction >= SCREEN_FRACTION_GATE, (
        f"only {100 * fraction:.1f}% of quartets screened; expected "
        f">= {100 * SCREEN_FRACTION_GATE:.0f}% for a 30-bohr dimer"
    )
    assert dev_oracle <= SCREEN_TAU, (
        f"screened ERI deviates {dev_oracle:.3e} from the oracle (tau bound "
        f"{SCREEN_TAU:.0e})"
    )

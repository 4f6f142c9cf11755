"""Table 1: performance model of the alpha-beta routine, MOC vs DGEMM.

Regenerates the paper's model columns for the paper's own spaces, verifies
them against instrumented kernel runs on a laptop-scale space, and times the
two kernels (pytest-benchmark) so the kernel-speed gap the model predicts is
actually observable.
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import CIProblem, sigma_dgemm, sigma_moc
from repro.obs import dgemm_mixed_spin_flops, dgemm_same_spin_flops
from repro.parallel import alpha_beta_model, measured_counts
from repro.scf.mo import MOIntegrals

from conftest import write_result


def _random_problem(n=8, na=4, nb=4, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return CIProblem(MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n), na, nb)


def test_table1_model_rows():
    """Print Table 1 for the paper's benchmark spaces."""
    rows = []
    for label, n, na, nb, nci in [
        ("C2 cc-pVTZ(+1s,1p)", 66, 4, 4, 64_931_348_928),
        ("O- aug-cc-pVQZ", 43, 5, 4, 14_851_999_576),
        ("O aug-cc-pVQZ", 43, 5, 3, 1_484_871_696),
        ("CN+ (Table 2)", 18, 6, 6, 104_806_400),
    ]:
        m = alpha_beta_model(label, n, na, nb, nci)
        rows.append(
            [
                m.label,
                f"{m.moc_operations:.3e}",
                f"{m.dgemm_operations:.3e}",
                f"{m.moc_comm_elements:.3e}",
                f"{m.dgemm_comm_elements:.3e}",
                f"{m.comm_ratio:.1f}x",
            ]
        )
    text = format_table(
        ["space", "MOC ops", "DGEMM ops", "MOC comm", "DGEMM comm", "comm ratio"],
        rows,
        title="Table 1: alpha-beta routine performance model (elements)",
    )
    # headline check: C2 DGEMM communication = 6.2 TB per iteration
    m = alpha_beta_model("C2", 66, 4, 4, 64_931_348_928)
    text += f"\nC2 DGEMM comm volume: {m.dgemm_comm_elements * 8 / 1e12:.2f} TB/iter (paper: 6.2 TB)"
    write_result("table1_model", text)


def test_table1_measured_counts():
    """Check the model's scaling against instrumented kernel counters."""
    prob = _random_problem(7, 3, 3, seed=5)
    counts = measured_counts(prob)
    model = alpha_beta_model("measured", 7, 3, 3, prob.dimension)
    na, nb = prob.shape
    mixed = dgemm_mixed_spin_flops(7, 3, prob.dimension)
    same = dgemm_same_spin_flops(7, 3, nb) + dgemm_same_spin_flops(7, 3, na)
    # the kernel multiplies only what a string's occupation allows, so its
    # counter is the closed form exactly and the alpha-beta part sits on
    # Table 1's order of magnitude (one multiply-add = 2 flops = 1 model op)
    assert counts["dgemm"]["dgemm_flops"] == mixed + same
    text = format_table(
        ["quantity", "value"],
        [
            ["CI dimension", prob.dimension],
            ["DGEMM flops (measured)", counts["dgemm"]["dgemm_flops"]],
            ["DGEMM flops (closed form, alpha-beta + same-spin)", f"{int(mixed)} + {int(same)}"],
            ["DGEMM alpha-beta multiply-adds (measured)", int(mixed) // 2],
            ["DGEMM alpha-beta ops (model, Nci n^2 na nb)", int(model.dgemm_operations)],
            ["DGEMM gathers (measured)", counts["dgemm"]["gather_elements"]],
            ["MOC indexed ops (measured)", counts["moc"]["indexed_ops"]],
            ["MOC ops (model)", int(model.moc_operations)],
            ["kernel agreement", f'{counts["agreement_error"]:.2e}'],
        ],
        title="Table 1 (measured counters, FCI(6,7) random integrals)",
    )
    write_result("table1_measured", text)
    assert counts["agreement_error"] < 1e-9


@pytest.fixture(scope="module")
def kernel_problem():
    prob = _random_problem(8, 4, 4, seed=9)
    C = prob.random_vector(0)
    # warm the cached tables so the benchmark times the kernel only
    sigma_dgemm(prob, C)
    sigma_moc(prob, C)
    return prob, C


def test_bench_sigma_dgemm(benchmark, kernel_problem):
    prob, C = kernel_problem
    benchmark(sigma_dgemm, prob, C)


def test_bench_sigma_moc(benchmark, kernel_problem):
    prob, C = kernel_problem
    benchmark(sigma_moc, prob, C)

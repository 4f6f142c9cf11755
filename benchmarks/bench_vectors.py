"""CI-vector storage layer: the dense-vs-mmap overhead gate.

On an in-RAM size the identical Davidson solve is run through plain
ndarrays and through :class:`MmapStore`; the two must agree to 1e-10 and
the out-of-core run must cost <10% extra - the storage layer is a
representation change, not a slowdown, when the space still fits.  The
result is written to ``BENCH_vectors.json``.
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.core import CIProblem, ModelSpacePreconditioner, davidson_solve, sigma_dgemm
from repro.core.vectors import MmapStore
from repro.scf.mo import MOIntegrals

from conftest import write_result


def _random_problem(n, na, nb, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T)
    g = rng.standard_normal((n,) * 4)
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return CIProblem(MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n), na, nb)


def test_bench_vectors(tmp_path):
    rows = []
    metrics = {}

    # dense-vs-mmap overhead on an in-RAM size (dim 44100)
    prob = _random_problem(10, 4, 4, seed=5)
    precond = ModelSpacePreconditioner(prob, 200)
    guess = precond.ground_state_guess()

    def sigma(C):
        return sigma_dgemm(prob, C)

    sigma(guess)  # compile tables outside the timed region

    def timed(store_factory):
        best, energy = np.inf, None
        for _ in range(3):
            store = store_factory()
            t0 = time.perf_counter()
            # random integrals lack the diagonal dominance of molecular
            # Hamiltonians, so the residual gate is the wall-clock driver
            res = davidson_solve(
                sigma, guess, precond, store=store,
                residual_tol=1e-4, max_iterations=150,
            )
            best = min(best, time.perf_counter() - t0)
            if store is not None:
                store.close()
            assert res.converged
            energy = res.energy
        return best, energy

    t_dense, e_dense = timed(lambda: None)
    t_mmap, e_mmap = timed(lambda: MmapStore(prob.shape, directory=str(tmp_path)))
    overhead = t_mmap / t_dense - 1.0
    assert abs(e_mmap - e_dense) < 1e-10
    rows.append(
        ["davidson dense", prob.dimension, "-", f"{e_dense:.10f}", f"{t_dense:.2f}"]
    )
    rows.append(
        [
            "davidson mmap",
            prob.dimension,
            f"{abs(e_mmap - e_dense):.1e}",
            f"{e_mmap:.10f}",
            f"{t_mmap:.2f}",
        ]
    )
    metrics["mmap_overhead_frac"] = round(overhead, 4)
    metrics["in_ram_dimension"] = prob.dimension

    text = format_table(
        ["run", "held dets", "|dE| vs dense", "energy", "wall s"],
        rows,
        title="CI-vector stores: mmap overhead on an in-RAM size",
    )
    text += f"\nmmap overhead on in-RAM size: {100 * overhead:+.1f}% (gate: <10%)"
    write_result("BENCH_vectors", text, rows=rows, metrics=metrics)

    assert overhead < 0.10, f"mmap overhead {100 * overhead:.1f}% exceeds 10%"

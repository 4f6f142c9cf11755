"""Per-layer measurements of the traced run.

Two kinds live here.  :func:`targets` names the public functions of each
layer that a traced run wraps in spans (layers are this repo's modules);
the ``*_lanes`` functions time one layer directly on the workload's own
inputs - a sweep, a store, a checkpoint, a worker pool - so a number exists
for the layer even where a whole operation hides it.

Every lane returns ``{metric name: harness.metric(...)}`` and appends
human-readable failures to ``failures`` when a result it produced is wrong.
"""

from __future__ import annotations

import os
import shutil
import statistics

import numpy as np

from harness import clock, last_level_cache_bytes, metric, scratch_dir, timing

# -- which calls become spans ---------------------------------------------------


def _keep_eri_stats(tracer, span, ao):
    span.info["eri_quartets"] = int(ao.engine.stats.quartets_computed)


def _rank_tracks(tracer, span, run):
    """One track per rank, its reported phase durations laid end to end."""
    span.info["imbalance"] = float(run.load_imbalance)
    span.info["bytes"] = float(sum(s.bytes_sent + s.bytes_received for s in run.stats))
    span.info["ranks"] = [dict(s.phase_times) for s in run.stats]
    for rank, stats in enumerate(run.stats):
        t = span.start
        for phase in ("one-electron", "alpha-alpha", "beta-beta", "alpha-beta"):
            dt = stats.phase_times.get(phase)
            if dt:
                tracer.add(phase, "parallel", t, t + dt, parent=span.index,
                           track=f"rank {rank}")
                t += dt


def targets() -> list[tuple]:
    """``(owner, attribute, span name, layer[, after])`` rows for ``instrument``."""
    import repro.core.solver as driver
    from repro.core.checkpoint import Checkpointer
    from repro.core.kernels import DgemmKernel
    from repro.core.operator import HamiltonianOperator
    from repro.core.plans import SigmaPlan
    from repro.core.vectors import MmapStore
    from repro.parallel import ParallelSigma
    from repro.parallel.backend import ShmBackend, SocketsBackend

    return [
        (driver, "compute_ao_integrals", "integrals.ao", "integrals", _keep_eri_stats),
        (driver, "rhf", "scf.rhf", "scf"),
        (driver, "transform", "scf.mo_transform", "scf"),
        (driver, "freeze_core", "scf.mo_transform", "scf"),
        (SigmaPlan, "for_problem", "core.plans.for_problem", "core.plans"),
        (driver, "ModelSpacePreconditioner", "core.solver.precond_build", "core.solver"),
        (driver, "auto_adjusted_solve", "core.solver.solve", "core.solver"),
        (driver, "davidson_solve", "core.solver.solve", "core.solver"),
        (HamiltonianOperator, "apply", "core.operator.apply", "core.operator"),
        (HamiltonianOperator, "__call__", "core.operator.apply", "core.operator"),
        (DgemmKernel, "apply", "core.kernels.apply", "core.kernels"),
        (MmapStore, "allocate", "core.vectors.allocate", "core.vectors"),
        (MmapStore, "write", "core.vectors.write", "core.vectors"),
        (MmapStore, "close", "core.vectors.close", "core.vectors"),
        (Checkpointer, "save", "core.checkpoint.save", "core.checkpoint"),
        (Checkpointer, "restore", "core.checkpoint.restore", "core.checkpoint"),
        (ParallelSigma, "__call__", "parallel.sigma", "parallel"),
        (ShmBackend, "run_sigma", "parallel.shm.run_sigma", "parallel", _rank_tracks),
        (SocketsBackend, "run_sigma", "parallel.sockets.run_sigma", "parallel",
         _rank_tracks),
    ]


# -- reading spans ------------------------------------------------------------------


def per_root(tracer, roots, name) -> list[float]:
    """For each operation, the summed duration of its spans called ``name``."""
    return [sum(s.duration for s in tracer.named(name, r)) for r in roots]


def span_durations(tracer, roots, name) -> list[float]:
    return [s.duration for r in roots for s in tracer.named(name, r)]


def timed(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = clock()
        fn()
        out.append(clock() - t0)
    return out


# -- yardsticks ---------------------------------------------------------------------


def probe_lanes(plan, block_columns: int) -> dict:
    """What this box can do: DGEMM rate (square and sweep-shaped), memory rate."""
    rng = np.random.default_rng(7)
    out = {}

    a = rng.standard_normal((1024, 1024))
    b = rng.standard_normal((1024, 1024))
    c = np.empty((1024, 1024))
    np.matmul(a, b, out=c)
    t = statistics.median(timed(lambda: np.matmul(a, b, out=c), 5))
    out["probe.dgemm_gflops"] = metric(2 * 1024**3 / t / 1e9, "GF/s")

    # the mixed-spin sweep's own GEMM: (n^2 x n^2) . (n^2 x m*na)
    nn = plan.n * plan.n
    na, nb = plan.shape
    cols = min(block_columns, nb) * na
    g = rng.standard_normal((nn, nn))
    d = rng.standard_normal((nn, cols))
    e = np.empty((nn, cols))
    np.matmul(g, d, out=e)
    t = statistics.median(timed(lambda: np.matmul(g, d, out=e), 3))
    out["probe.dgemm_shape_gflops"] = metric(
        2.0 * nn * nn * cols / t / 1e9, "GF/s", shape=[nn, nn, cols]
    )
    del a, b, c, g, d, e

    # a = b + s*c in two NumPy passes; arrays are >= 4x the last-level cache
    llc = last_level_cache_bytes() or 64 * 2**20
    n = 4 * llc // 8
    x, y, z = np.ones(n), np.ones(n), np.ones(n)

    def triad():
        np.multiply(z, 3.0, out=x)
        np.add(x, y, out=x)

    t = statistics.median(timed(triad, 3))
    out["probe.triad_gbs"] = metric(
        5 * 8.0 * n / t / 1e9, "GB/s", array_bytes=8 * n, llc_bytes=llc,
        note="two NumPy passes, 5 array transits counted",
    )
    return out


# -- core.plans / core.kernels / core.operator ----------------------------------------


def plan_lanes(problem) -> dict:
    """Compile every table and integral matrix of the plan from scratch."""
    from repro.core import CIProblem, SigmaPlan

    fresh = CIProblem(problem.mo, problem.n_alpha, problem.n_beta)
    t0 = clock()
    plan = SigmaPlan(fresh, reuse_problem_cache=False)
    dt = clock() - t0
    return {
        "core.plans.compile_s": metric(dt, "s"),
        "core.plans.nbytes": metric(int(plan.nbytes), "bytes"),
    }


def _gemm_replay(a, widths, rng) -> float:
    """Seconds of ``a @ D`` for a D of each width, allocating E as the sweep does."""
    total = 0.0
    operands = {w: rng.standard_normal((a.shape[1], w)) for w in set(widths)}
    for w in widths:
        t0 = clock()
        np.matmul(a, operands[w])
        total += clock() - t0
    return total


def kernel_lanes(kernel, C, apply_samples, cold_apply_s, shape_gflops, failures,
                 reps: int = 3) -> dict:
    """The sweeps of one sigma, timed one by one on the workload's own vector.

    ``apply_samples`` are whole-apply timings the workload already took;
    the phases here must add up to the kernel's own sigma.
    """
    from repro.core.kernels import (
        SigmaCounters,
        column_blocks,
        mixed_spin_sigma_stack,
        same_spin_sigma_stack,
    )

    plan = kernel.plan
    bc = kernel.block_columns
    na, nb = plan.shape
    stack = np.ascontiguousarray(C)[None]
    rows = np.ascontiguousarray(stack.transpose(0, 2, 1))
    counters = SigmaCounters()
    phases = {"one": [], "aa": [], "bb": [], "mixed": []}
    for rep in range(reps):
        count = counters if rep == 0 else None
        t0 = clock()
        sigma = np.asarray(plan.Ta @ C) + np.asarray(plan.Tb @ C.T).T
        t1 = clock()
        if plan.same_a is not None:
            sigma += same_spin_sigma_stack(plan.same_a, plan.w_matrix, stack, bc, count)[0]
        t2 = clock()
        if plan.same_b is not None:
            sigma += same_spin_sigma_stack(plan.same_b, plan.w_matrix, rows, bc, count)[0].T
        t3 = clock()
        sigma += mixed_spin_sigma_stack(plan, stack, bc, count)[0]
        t4 = clock()
        for key, dt in zip(phases, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            phases[key].append(dt)
    reference = kernel.apply(C)
    if not np.allclose(sigma, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max()):
        failures.append("kernel lanes: the four sweeps do not add up to kernel.apply")

    def gemm_bytes(a, widths):
        # per call: A read, D zero-filled then read, E written
        return 8.0 * sum(a.size + 3 * a.shape[1] * w for w in widths)

    rng = np.random.default_rng(11)
    mixed_widths = [(hi - lo) * na for lo, hi in column_blocks(nb, bc)]
    mixed_replay = _gemm_replay(plan.g_matrix, mixed_widths, rng)
    dgemm_bytes = gemm_bytes(plan.g_matrix, mixed_widths)
    same_replay = 0.0
    for splan, n_cols in ((plan.same_a, nb), (plan.same_b, na)):
        if splan is None:
            continue
        widths = [(hi - lo) * splan.n_reduced for lo, hi in column_blocks(n_cols, bc)]
        same_replay += _gemm_replay(plan.w_matrix, widths, rng)
        dgemm_bytes += gemm_bytes(plan.w_matrix, widths)

    med = {k: statistics.median(v) for k, v in phases.items()}
    sweeps = med["aa"] + med["bb"] + med["mixed"]
    # array sizes only: the DGEMM operands, and a read + a write per gathered
    # or scattered element
    nbytes = dgemm_bytes + 16.0 * (counters.gather_elements + counters.scatter_elements)
    apply_s = statistics.median(apply_samples)
    gflops = counters.dgemm_flops / apply_s / 1e9

    scales = (1.0, 0.5, 0.25, 0.125)  # exact in binary: batch slice i == s_i * sigma
    t0 = clock()
    batch = kernel.apply_batch(np.stack([s * C for s in scales]))
    batch_s = clock() - t0
    if not all(np.array_equal(batch[i], s * reference) for i, s in enumerate(scales)):
        failures.append("kernel lanes: apply_batch differs from scaled single applies")

    return {
        "core.kernels.apply_s": timing(apply_samples),
        "core.kernels.cold_apply_s": metric(cold_apply_s, "s"),
        "core.kernels.one_electron_s": timing(phases["one"]),
        "core.kernels.same_aa_s": timing(phases["aa"]),
        "core.kernels.same_bb_s": timing(phases["bb"]),
        "core.kernels.mixed_s": timing(phases["mixed"]),
        "core.kernels.mixed_gemm_replay_s": metric(mixed_replay, "s"),
        "core.kernels.same_gemm_replay_s": metric(same_replay, "s"),
        "core.kernels.index_share": metric(1.0 - (mixed_replay + same_replay) / sweeps,
                                           "ratio"),
        "core.kernels.dgemm_flops": metric(int(counters.dgemm_flops), "count"),
        "core.kernels.dgemm_calls": metric(int(counters.dgemm_calls), "count"),
        "core.kernels.gather_elements": metric(int(counters.gather_elements), "count"),
        "core.kernels.scatter_elements": metric(int(counters.scatter_elements), "count"),
        "core.kernels.bytes_computed": metric(int(nbytes), "bytes",
                                              note="from array sizes, not measured"),
        "core.kernels.flops_per_byte": metric(counters.dgemm_flops / nbytes, "flop/byte",
                                              note="from array sizes, not measured"),
        "core.kernels.gflops": metric(gflops, "GF/s"),
        "core.kernels.peak_frac": metric(gflops / shape_gflops, "ratio"),
        "core.kernels.batch4_per_vec_s": metric(batch_s / len(scales), "s"),
        "core.kernels.block_columns": metric(int(bc), "count"),
    }


def operator_lane(tracer, problem, kernel, C) -> dict:
    """What ``HamiltonianOperator.apply`` adds on top of ``kernel.apply``."""
    from repro.core import HamiltonianOperator

    op = HamiltonianOperator(problem, kernel)
    with tracer.span("operator lane", "harness") as lane:
        op.apply(C)
    (span,) = tracer.named("core.operator.apply", lane)
    return {"core.operator.overhead_s": metric(tracer.self_time(span), "s")}


# -- core.vectors / core.checkpoint ---------------------------------------------------


def storage_lanes(shape, seed: int, failures) -> dict:
    """axpy / dot on an in-RAM and a mapped vector; one checkpoint round trip."""
    from repro.core import Checkpointer, CheckpointState, make_store

    rng = np.random.default_rng([seed, 99])
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    expect = float(x.ravel() @ y.ravel())
    out = {}
    directory = scratch_dir("lanes-")
    try:
        for kind, options in (("dense", {}), ("mmap", {"directory": directory})):
            store = make_store(kind, shape, **options)
            other = store.allocate()
            try:
                store.write(x)
                other.write(y)
                dots = timed(lambda: store.dot(other), 5)
                if abs(store.dot(other) - expect) > 1e-9 * abs(expect):
                    failures.append(f"storage lanes: {kind} dot is wrong")
                axpys = timed(lambda: store.axpy(0.5, other), 5)
                out[f"core.vectors.{kind}_axpy_s"] = timing(axpys)
                out[f"core.vectors.{kind}_dot_s"] = timing(dots)
                if kind == "dense":
                    out["core.vectors.resident_bytes"] = metric(
                        int(store.resident_nbytes), "bytes")
                else:
                    out["core.vectors.file_bytes"] = metric(
                        os.path.getsize(store.path), "bytes")
            finally:
                other.close()
                store.close()

        ck = Checkpointer(os.path.join(directory, "lane.npz"))
        state = CheckpointState(method="davidson", iteration=1, n_sigma=1, vector=x)
        out["core.checkpoint.save_s"] = timing(timed(lambda: ck.save(state), 3))
        out["core.checkpoint.bytes"] = metric(os.path.getsize(ck.path), "bytes")
        loads = timed(ck.load, 3)
        out["core.checkpoint.load_s"] = timing(loads)
        if not np.array_equal(ck.load().vector, x):
            failures.append("storage lanes: checkpoint did not round-trip the vector")
        ck.clear()
        if os.listdir(directory):
            failures.append(f"storage lanes: files left behind: {os.listdir(directory)}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


# -- parallel -------------------------------------------------------------------------


def pool_lane(problem, C, reference, backend: str, n_workers: int, reps: int, failures):
    """Spawn a pool, one cold call, ``reps`` warm calls; returns the timings."""
    from repro.parallel import ParallelSigma

    with ParallelSigma(problem, backend=backend, n_workers=n_workers) as ps:
        t0 = clock()
        ps.backend.engine(ps.plan, ps.block_columns)
        spawn_s = clock() - t0
        ps(C)
        calls = timed(lambda: ps(C), reps)
        if not np.array_equal(ps(C), reference):
            failures.append(f"{backend} x{n_workers}: sigma differs from the serial kernel")
        bytes_per_call = ps.report.bytes_communicated / ps.report.n_calls
    return spawn_s, calls, bytes_per_call


def sockets_verb_lanes(iters: int = 200) -> dict:
    """Loopback round trip of each DDI verb against a live coordinator."""
    from repro.parallel.sockets import Coordinator, SocketComm

    co = Coordinator({"a": (64, 64)}, n_ranks=1)
    client = SocketComm.connect(co.spec(), 0)
    window, patch = (0, slice(0, 8)), np.ones(8)

    def fence():
        client.acc("a", window, patch)
        client.quiet()

    try:
        for _ in range(20):
            client.get("a", window)
            client.fetch_add()
            fence()
        return {
            "parallel.sockets.get_us": timing(
                timed(lambda: client.get("a", window), iters), "us", 1e6),
            "parallel.sockets.fetch_add_us": timing(timed(client.fetch_add, iters), "us", 1e6),
            "parallel.sockets.acc_quiet_us": timing(timed(fence, iters), "us", 1e6),
        }
    finally:
        client.close()
        co.close()


# -- optional lanes -------------------------------------------------------------------


def optional_lanes(problem, C, dgemm_apply_s: float, skipped: list) -> dict:
    """Lanes that need a package this image may not have; absent, never zero."""
    out = {}
    try:
        import numba  # noqa: F401
    except ImportError as exc:
        skipped.append({"name": "core.kernels.compiled_vs_dgemm", "reason": str(exc)})
    else:
        from repro.core import SigmaPlan, make_kernel

        compiled = make_kernel("compiled", SigmaPlan.for_problem(problem))
        compiled.apply(C)  # JIT compilation
        t = statistics.median(timed(lambda: compiled.apply(C), 3))
        out["core.kernels.compiled_vs_dgemm"] = metric(dgemm_apply_s / t, "ratio")
    try:
        from pyscf import fci
    except ImportError as exc:
        skipped.append({"name": "ext.pyscf.contract_2e_s", "reason": str(exc)})
    else:
        # pyscf's own sigma on the same h/g (after its 2-benchmark/fci_iteration.py)
        n, nelec = problem.n, (problem.n_alpha, problem.n_beta)
        h2 = fci.direct_spin1.absorb_h1e(problem.mo.h, problem.mo.g, n, nelec, 0.5)
        fci.direct_spin1.contract_2e(h2, C, n, nelec)
        t = statistics.median(
            timed(lambda: fci.direct_spin1.contract_2e(h2, C, n, nelec), 3))
        out["ext.pyscf.contract_2e_s"] = metric(t, "s")
    return out

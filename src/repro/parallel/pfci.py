"""Numeric-mode parallel DGEMM sigma, on a pluggable execution backend.

Implements the paper's parallel strategy (section 3) with real arithmetic:

* the CI coefficient matrix is block-distributed over MSPs along the alpha
  string axis (the paper's "columns"; see :mod:`repro.core.problem` for the
  transposed bookkeeping),
* **beta-beta** same-spin term: purely local, statically balanced - every
  rank loops the full N-2 beta intermediate space for its own rows, no
  communication (paper section 3.3),
* **alpha-alpha** term and the alpha one-electron term: handled in
  transposed column blocks gathered with DDI_GET and accumulated back with
  DDI_ACC (the "transposed local C / sigma" device of Fig. 2a generalized to
  a distributed transpose),
* **mixed-spin** (alpha-beta) term: a dynamically load-balanced task pool
  over spans of target alpha strings; each task gathers the single-
  excitation source rows one-sidedly, runs the D -> DGEMM -> E pipeline
  locally, and DDI_ACCs the sigma rows to their owner,
* per-rank virtual time is charged with the X1 kernel cost models, so the
  numeric run and the paper-scale trace run share one timing machinery.

The result is bit-identical (to roundoff) with the serial
:func:`repro.core.kernels.sigma_dgemm`, which the test suite enforces for
many rank counts.

Execution is delegated to a :class:`repro.parallel.backend.Backend`
(``backend="simulated"`` — the discrete-event X1 above; ``backend="shm"``
— real OS processes over POSIX shared memory, :mod:`repro.parallel.shm`;
or ``backend="sockets"`` — real OS processes behind a TCP coordinator,
:mod:`repro.parallel.sockets`), chosen at construction with no algorithm
changes; the real-process paths are additionally *bitwise*-identical to
the serial kernel.  ``ParallelSigma`` also satisfies the
:class:`repro.core.kernels.SigmaKernel` protocol, so it drops into
:class:`repro.core.operator.HamiltonianOperator` and
``FCISolver(..., parallel=...)`` like any serial kernel.

Resilient mode (``faults=`` attached, or ``resilient=True``) runs the same
three phase bodies as the fault-free program, but every unit of work is a
*named, tagged task* published with exactly-once DDI semantics (commit
flags written atomically with the data), and each phase ends with recovery
rounds instead of a barrier:

    barrier -> gather commit tags (write-quiescent) -> barrier ->
    identical uncommitted-work decision on every rank ->
    claim via a per-round DLB counter -> recompute + tagged publish -> repeat

so any single (or multiple, up to the round budget) rank death still yields
the reference sigma: live ranks detect the dead rank via the engine's
virtual-time heartbeat, requeue its unfinished work, and the idempotent
accumulate guards make double delivery impossible.  NaN-poisoned gather
payloads are detected and refetched at this layer; non-NaN bit-flips are
the solvers' watchdog's problem.  With ``faults=None`` (or
``resilient=False``) every tag is None and the original fault-free
schedule runs unchanged (bit-identical schedule and result).  If *every*
rank dies there is no survivor to recover: the call raises a
``RuntimeError`` naming the dead ranks rather than assembling sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.kernels import (
    SigmaCounters,
    apply_batch_loop,
    as_ci_matrix,
    mixed_spin_sigma,
    same_spin_sigma,
)
from ..core.plans import MixedSpinHalfPlan, SigmaPlan
from ..core.problem import CIProblem
from ..core.vectors import make_store, publish_store_metrics, store_kinds
from ..obs.accounting import account_parallel_report, account_sigma_dgemm
from ..x1.ddi import DDIArray, DynamicLoadBalancer, block_ranges
from ..x1.engine import Engine, RankStats, SymmetricHeap
from ..x1.machine import X1Config
from .backend import Backend, SigmaRun, make_backend
from .taskpool import Task, build_task_pool, publish_pool_metrics

__all__ = ["ParallelSigma", "ParallelReport"]

_MAX_RECOVERY_ROUNDS = 4
_PHASE_NAMES = ("beta-beta", "alpha-alpha", "alpha-beta")


@dataclass
class ParallelReport:
    """Virtual-time breakdown of one (or accumulated) parallel sigma runs."""

    elapsed: float = 0.0
    phase_times: dict[str, float] = field(default_factory=dict)
    load_imbalance: float = 0.0
    bytes_communicated: float = 0.0
    flops: float = 0.0
    n_calls: int = 0

    def merge(self, stats: list[RankStats], elapsed: float, imbalance: float) -> None:
        self.elapsed += elapsed
        # worst imbalance over the merged calls: imbalance is a per-call
        # statistic (max finish - mean finish), so summing it across calls
        # would grow without bound and mean nothing
        self.load_imbalance = max(self.load_imbalance, imbalance)
        self.bytes_communicated += sum(s.bytes_received + s.bytes_sent for s in stats)
        self.flops += sum(s.flops for s in stats)
        self.n_calls += 1
        # max-over-ranks per phase (the critical path of that phase)
        per_phase: dict[str, float] = {}
        for s in stats:
            for k, v in s.phase_times.items():
                per_phase[k] = max(per_phase.get(k, 0.0), v)
        for k, v in per_phase.items():
            self.phase_times[k] = self.phase_times.get(k, 0.0) + v

    def gflops_rate(self) -> float:
        return self.flops / self.elapsed / 1e9 if self.elapsed else 0.0


class ParallelSigma:
    """Parallel sigma operator; call it like a function on CI matrices.

    All coupling tables come from the problem's cached
    :class:`repro.core.plans.SigmaPlan` (one compile, replicated on every
    simulated rank), and the same-spin kernels are shared with the serial
    :class:`repro.core.kernels.DgemmKernel`.  ``block_columns=None`` (the
    default) takes the plan's cache-sized column blocks,
    :meth:`SigmaPlan.default_block_columns`.

    ``kernel`` names the sigma sweep every rank runs: ``"dgemm"``, or its
    alias ``"compiled"`` (a retired lane's name); anything else is refused
    because only the DGEMM decomposition is distributed.

    ``backend`` selects the execution substrate: ``"simulated"`` (the
    discrete-event X1, default), ``"shm"`` (real OS processes over shared
    memory), ``"sockets"`` (real OS processes behind a TCP coordinator —
    loopback today, multi-node tomorrow), or a ready
    :class:`repro.parallel.backend.Backend` instance.
    ``n_workers``/``blas_threads``/``shm_timeout`` configure any
    real-process pool; ``backend_options`` passes extra substrate-specific
    keywords through to the backend constructor (e.g. the sockets
    backend's ``host``/``port``/``spawn``/``heartbeat_interval``).  A
    real-process backend holds worker processes until :meth:`close` (also
    a context manager), and rejects ``faults``/``tracer`` — fault
    injection and virtual-time traces are properties of the simulated
    machine.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) routes per-call FLOP and
    byte accounting into its metrics registry; ``tracer`` (a
    :class:`repro.obs.tracer.SpanTracer`, defaulting to the telemetry's
    tracer) records the per-rank virtual-time timeline of every engine run.
    ``faults`` (a :class:`repro.faults.FaultInjector`) perturbs the engine
    and switches on the resilient tagged-task program (override with
    ``resilient=``).  All three default to off and cost nothing when off.
    """

    def __init__(
        self,
        problem: CIProblem,
        config: X1Config | None = None,
        *,
        backend: str | Backend = "simulated",
        kernel: str = "dgemm",
        n_workers: int | None = None,
        blas_threads: int = 1,
        shm_timeout: float = 300.0,
        backend_options: dict | None = None,
        block_columns: int | None = None,
        n_fine_per_proc: int = 8,
        n_large_per_proc: int = 3,
        n_small_per_proc: int = 4,
        vector_store: str | dict | None = None,
        telemetry=None,
        tracer=None,
        faults=None,
        resilient: bool | None = None,
    ):
        self.problem = problem
        if kernel not in ("dgemm", "compiled"):
            raise ValueError(
                "parallel execution distributes the DGEMM sigma decomposition; "
                f"kernel must be 'dgemm' or 'compiled', got {kernel!r}"
            )
        # every rank replicates the problem's one precompiled plan
        # (paper section 3: replicated integrals + coupling tables per rank)
        self.plan = SigmaPlan.for_problem(problem)
        self.block_columns = (
            block_columns
            if block_columns is not None
            else self.plan.default_block_columns()
        )
        self.telemetry = telemetry
        self.tracer = tracer if tracer is not None else (telemetry.tracer if telemetry else None)
        self.faults = faults
        self.resilient = (faults is not None) if resilient is None else bool(resilient)
        if isinstance(backend, Backend):
            self.backend = backend
        elif backend == "simulated":
            self.backend = make_backend(
                "simulated", config=config, **(backend_options or {})
            )
        else:
            self.backend = make_backend(
                backend,
                n_workers=n_workers,
                blas_threads=blas_threads,
                timeout=shm_timeout,
                **(backend_options or {}),
            )
        if vector_store is not None:
            if isinstance(vector_store, str):
                vector_store = {"kind": vector_store}
            kind = vector_store.get("kind")
            if kind not in store_kinds():
                raise ValueError(
                    f"vector_store must be one of {', '.join(store_kinds())}; "
                    f"got {kind!r}"
                )
            if self.backend.name != "simulated":
                raise ValueError(
                    "store-backed distributed segments require the simulated "
                    "backend; a real-process backend's segments live in its "
                    "own substrate (POSIX shared memory for shm, the TCP "
                    "coordinator's heap for sockets) "
                    f"(got backend={self.backend.name!r})"
                )
        self.vector_store = vector_store
        if self.backend.name != "simulated":
            if self.faults is not None or self.resilient:
                raise ValueError(
                    "fault injection / resilient mode require the simulated "
                    f"backend (got backend={self.backend.name!r})"
                )
            if tracer is not None:
                raise ValueError(
                    "virtual-time span tracing requires the simulated backend "
                    f"(got backend={self.backend.name!r})"
                )
        self.config = getattr(self.backend, "config", config)
        self.report = ParallelReport()
        if self.backend.name == "simulated":
            self._build_simulated_decomposition(
                n_fine_per_proc, n_large_per_proc, n_small_per_proc
            )

    def _build_simulated_decomposition(
        self, n_fine_per_proc: int, n_large_per_proc: int, n_small_per_proc: int
    ) -> None:
        """Rank ranges, task pool, and gather metadata of the simulated X1.

        The real-process backends run the column-block decomposition of
        :func:`repro.parallel.rankwork.build_sigma_decomposition` (built
        inside :class:`repro.parallel.engine.RankEngine`); everything here
        belongs to the virtual machine's alpha-row distribution.
        """
        problem = self.problem
        P = self.config.n_msps
        na, nb = problem.shape
        self.row_ranges = block_ranges(na, P)
        self.col_ranges = block_ranges(nb, P)

        # replicated tables come straight off the plan: the one-electron CSR
        # operators and the target-sorted mixed-spin halves are compiled once
        # per problem, not rebuilt per ParallelSigma (or per call)
        self.Ta, self.Tb = self.plan.Ta, self.plan.Tb
        self._per_a = self.plan.scatter_a.per

        # task pool over alpha rows for the mixed-spin phase; per-unit cost
        # estimated as the GEMM work of one target row (uniform without
        # symmetry; symmetry-blocked spaces get their real per-row block
        # sizes)
        mask = problem.symmetry_mask
        if mask is None:
            unit_costs = np.full(na, float(nb))
        else:
            unit_costs = mask.sum(axis=1).astype(float) + 1.0
        self.tasks: list[Task] = build_task_pool(
            unit_costs,
            P,
            n_fine_per_proc=n_fine_per_proc,
            n_large_per_proc=n_large_per_proc,
            n_small_per_proc=n_small_per_proc,
        )
        if self.telemetry:
            publish_pool_metrics(self.telemetry.registry, self.tasks, "taskpool.mixed")
        # per-task gather metadata, sliced from the plan's target-sorted
        # alpha scatter half (constant entries per target string): the C rows
        # the task fetches, and its own half with sources numbered into them
        sa = self.plan.scatter_a
        self._task_meta = []
        for t in self.tasks:
            entries = slice(t.start * self._per_a, t.stop * self._per_a)
            rows_needed, src_local = np.unique(sa.source[entries], return_inverse=True)
            self._task_meta.append(
                {
                    "rows": rows_needed,
                    "half": MixedSpinHalfPlan.from_entries(
                        self.plan.n,
                        rows_needed.size,
                        t.stop - t.start,
                        src_local,
                        sa.target[entries] - t.start,
                        sa.p[entries],
                        sa.q[entries],
                        sa.sign[entries],
                    ),
                }
            )
        # which sigma owners each mixed-spin task touches (for commit checks)
        self._task_owners = [
            [
                r
                for r, (lo, hi) in enumerate(self.row_ranges)
                if hi > lo and lo < t.stop and hi > t.start
            ]
            for t in self.tasks
        ]

    # -- kernels -------------------------------------------------------------
    def _beta_beta_block(self, Cblk: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Local-phase sigma rows for one C block: one-electron beta +
        beta-beta doubles; returns (sigma_block, model_seconds, flops)."""
        plan = self.plan
        cfg = self.config
        m = Cblk.shape[0]
        nb = self.problem.space_b.size
        npair = plan.w_matrix.shape[0]
        sig_local = np.zeros((m, nb))
        sig_local += np.asarray(self.Tb @ Cblk.T).T
        if plan.same_b is not None:
            sig_local += same_spin_sigma(
                plan.same_b,
                plan.w_matrix,
                np.ascontiguousarray(Cblk.T),
                self.block_columns,
                None,
            ).T
        nkb = plan.same_b.n_reduced if plan.same_b is not None else 0
        flops = 2.0 * npair * npair * nkb * m
        t = cfg.dgemm_time(npair, max(nkb * m, 1), npair) if nkb else 0.0
        t += cfg.gather_time(
            2.0 * (plan.same_b.n_entries if plan.same_b is not None else 0)
            * m
            / max(nb, 1)
            * nb
        )
        return sig_local, t, flops

    def _alpha_block(self, colC: np.ndarray, w: int) -> tuple[np.ndarray, float, float]:
        """Alpha one-electron + alpha-alpha doubles on one transposed column
        block; returns (X, model_seconds, flops)."""
        plan = self.plan
        cfg = self.config
        npair = plan.w_matrix.shape[0]
        X = np.asarray(self.Ta @ colC)
        if plan.same_a is not None:
            X += same_spin_sigma(
                plan.same_a, plan.w_matrix, colC, self.block_columns, None
            )
        nka = plan.same_a.n_reduced if plan.same_a is not None else 0
        flops = 2.0 * npair * npair * nka * w
        t = cfg.dgemm_time(npair, max(nka * w, 1), npair) if nka else 0.0
        return X, t, flops

    def _mixed_subset(self, Csub: np.ndarray, meta: dict) -> np.ndarray:
        """Mixed-spin sigma rows for one task from gathered source rows."""
        return mixed_spin_sigma(
            self.plan, Csub, self.block_columns, None, scatter=meta["half"]
        )

    def _mixed_task_time(self, meta: dict) -> tuple[float, float]:
        """(seconds, flops) cost-model charge for one mixed-spin task.

        The virtual clock is charged the paper's n^2 x n^2 DGEMM (its Table
        1/3 are what the simulated X1 reproduces), not the pair-packed
        product this box actually multiplies.
        """
        cfg = self.config
        n = self.problem.n
        nb = self.problem.space_b.size
        g_rows = meta["rows"].size
        flops = 2.0 * (n * n) * (n * n) * nb * g_rows
        t = cfg.dgemm_time(n * n, nb * g_rows, n * n)
        t += cfg.gather_time(self.plan.gather_b.n_entries / max(nb, 1) * nb * g_rows)
        t += cfg.gather_time(meta["half"].n_entries * nb)
        return t, flops

    # -- main entry -----------------------------------------------------------
    def __call__(self, C: np.ndarray) -> np.ndarray:
        C = as_ci_matrix(C, self.problem.shape)
        run = self.backend.run_sigma(self, C)
        self.report.merge(run.stats, run.elapsed, run.load_imbalance)
        if self.telemetry:
            one = ParallelReport()
            one.merge(run.stats, run.elapsed, run.load_imbalance)
            account_parallel_report(
                self.telemetry.registry, one, self.backend.n_ranks
            )
            segments = self.backend.segment_stores()
            if segments:
                # real-process path: residency of the backend's segments
                # (POSIX shm, or the TCP coordinator's heap), reported
                # through transient DenseStore views (same gauge schema as
                # the solvers' store metrics)
                publish_store_metrics(
                    self.telemetry.registry, segments, prefix="parallel.segments"
                )
        return run.sigma

    def close(self) -> None:
        """Release backend resources (a real-process backend's worker pool
        and heap; simulated: no-op)."""
        self.backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- SigmaKernel protocol --------------------------------------------------
    # ParallelSigma drops into HamiltonianOperator (and therefore FCISolver)
    # like any serial kernel; counters are fed from the report deltas the
    # backends measure.
    @property
    def name(self) -> str:
        return f"parallel-{self.backend.name}"

    def make_counters(self) -> SigmaCounters:
        return SigmaCounters()

    def account(self, registry, counters, seconds: float):
        return account_sigma_dgemm(registry, counters, seconds)

    def apply(self, C: np.ndarray, counters: SigmaCounters | None = None) -> np.ndarray:
        flops0 = self.report.flops
        bytes0 = self.report.bytes_communicated
        sigma = self(C)
        if counters is not None:
            counters.dgemm_flops += int(self.report.flops - flops0)
            counters.dgemm_calls += 1
            # one-sided traffic, reported as gather-side elements
            counters.gather_elements += int(
                (self.report.bytes_communicated - bytes0) / 8
            )
        return sigma

    apply_batch = apply_batch_loop

    # -- simulated execution (invoked through SimulatedBackend) ---------------
    def _run_simulated(self, C: np.ndarray) -> SigmaRun:
        problem = self.problem
        cfg = self.config
        P = cfg.n_msps
        na, nb = problem.shape

        heap = SymmetricHeap(P)
        fi = self.faults
        stores = []
        if self.vector_store is not None:
            # the distributed C and sigma live inside CI-vector stores; every
            # rank's heap segment is a row-block view into them, so an mmap
            # store keeps the whole "distributed memory" on disk
            opts = {k: v for k, v in self.vector_store.items() if k != "kind"}
            stores = [
                make_store(self.vector_store["kind"], (na, nb), **opts)
                for _ in range(2)
            ]
        Cstore = stores[0] if stores else None
        Sstore = stores[1] if stores else None
        Cd = DDIArray(
            heap, "C", na, nb, msps_per_node=cfg.msps_per_node, faults=fi,
            store=Cstore,
        )
        Sd = DDIArray(
            heap, "sigma", na, nb, msps_per_node=cfg.msps_per_node, faults=fi,
            store=Sstore,
        )
        dlb = DynamicLoadBalancer(heap)
        for r, (lo, hi) in enumerate(self.row_ranges):
            Cd.set_local(r, C[lo:hi])

        program = self._program(Cd, Sd, dlb, heap)

        engine = Engine(cfg, heap, tracer=self.tracer, faults=fi)
        try:
            stats = engine.run([program] * P)
            if len(engine.dead_ranks) == P:
                # recovery is run by the survivors; with none, the heap
                # holds whatever was committed before the last death
                raise RuntimeError(
                    f"every rank died before sigma was complete (dead ranks: "
                    f"{sorted(engine.dead_ranks)}); no survivor to run recovery"
                )

            sigma = np.empty_like(C)
            for r, (lo, hi) in enumerate(self.row_ranges):
                if hi > lo:
                    sigma[lo:hi] = Sd.local_block(r)
        finally:
            if stores and self.telemetry:
                publish_store_metrics(
                    self.telemetry.registry, stores, prefix="parallel.vectors"
                )
            for s in stores:
                s.close()
        return SigmaRun(
            sigma=sigma,
            stats=stats,
            elapsed=engine.elapsed(),
            load_imbalance=engine.load_imbalance(),
        )

    # -- the rank program ------------------------------------------------------
    def _program(self, Cd: DDIArray, Sd: DDIArray, dlb: DynamicLoadBalancer, heap):
        """Build the rank program: beta-beta, alpha-alpha, mixed-spin.

        The fault-free and the resilient (self-healing) schedule run the
        same three phase bodies and differ in two places only: how a
        beta-beta block is published (local store vs tagged put) and how a
        phase ends (barrier vs recovery rounds).  Fault-free, every ``tag``
        is None and the schedule is the original bit-stable one.

        Commit-tag layout on ``Sd`` (tag ``t`` lives on each owner's heap):
        ``[0, P)`` beta-beta block publications, ``[P, 2P)`` alpha-alpha
        column-block accumulations, ``[2P, 2P + n_tasks)`` mixed-spin tasks.
        """
        P = self.config.n_msps
        fi = self.faults
        n_tasks = len(self.tasks)
        resilient = self.resilient

        def tag_of(phase, i):
            return phase * P + i if resilient else None

        def beta_block(proc, owner, Cblk, tag):
            sig_local, t, flops = self._beta_beta_block(Cblk)
            yield proc.compute(t, flops=flops, label="beta-beta", name="DGEMM beta-beta")
            if tag is None:
                # fault-free, only the owner computes its rows: a local store
                Sd.local_block(owner)[...] = sig_local
            else:
                yield from Sd.iput_block_once(proc, owner, sig_local, tag=tag, label="beta-beta")

        def alpha_block(proc, c, tag, label="alpha-alpha"):
            clo, chi = self.col_ranges[c]
            colC = yield from Cd.iget_col_block(proc, clo, chi, label=label)
            X, t, flops = self._alpha_block(colC, chi - clo)
            yield proc.compute(t, flops=flops, label="alpha-alpha", name="DGEMM alpha-alpha")
            yield from Sd.iacc_col_block(proc, clo, chi, X, label=label, tag=tag)

        def mixed_task(proc, tid, tag, label="alpha-beta"):
            task = self.tasks[tid]
            meta = self._task_meta[tid]
            Csub = yield from Cd.iget_rows(proc, meta["rows"], label=label)
            out = self._mixed_subset(Csub, meta)
            t, flops = self._mixed_task_time(meta)
            yield proc.compute(t, flops=flops, label="alpha-beta", name="DGEMM alpha-beta")
            yield from Sd.iacc_rows(
                proc, np.arange(task.start, task.stop), out, label=label, tag=tag
            )

        if not resilient:

            def end_phase(proc, _phase):
                yield proc.barrier()

        else:
            # -- resilient: tagged tasks + recovery rounds --
            Sd.alloc_commit_tags(2 * P + n_tasks)
            # claim counters for every possible recovery round, allocated up
            # front so all ranks agree on them without communication
            rq = {
                (phase, rnd): DynamicLoadBalancer(heap, name=f"_rq_{phase}_{rnd}")
                for phase in range(3)
                for rnd in range(_MAX_RECOVERY_ROUNDS)
            }
            row_owners = [r for r, (lo, hi) in enumerate(self.row_ranges) if hi > lo]

            def redo_beta_block(proc, owner, tag):
                lo, hi = self.row_ranges[owner]
                Cblk = yield from Cd.iget_rows(proc, np.arange(lo, hi), label="beta-beta:requeue")
                yield from beta_block(proc, owner, Cblk, tag)

            redo = (redo_beta_block, alpha_block, mixed_task)
            # per phase, every unit of work and the sigma owners it writes to;
            # a unit is committed once each of them holds its flag
            units = (
                [(r, [r]) for r in row_owners],
                [(c, row_owners) for c, (clo, chi) in enumerate(self.col_ranges) if chi > clo],
                [(t, self._task_owners[t]) for t in range(n_tasks)],
            )

            def end_phase(proc, phase):
                """Requeue-until-committed; every rank runs this in lockstep.

                Control flow is driven *only* by the gathered commit tags (read
                in a write-quiescent window between two barriers), so all live
                ranks take identical decisions; the heartbeat probe is for the
                trace and the fault counters, never for branching.
                """
                label = f"{_PHASE_NAMES[phase]}:recover"
                for rnd in range(_MAX_RECOVERY_ROUNDS + 1):
                    yield proc.barrier()
                    T = yield from Sd.iget_tags(proc, label=label)
                    yield proc.barrier()
                    uncommitted = [
                        i
                        for i, owners in units[phase]
                        if not all(T[o, tag_of(phase, i)] for o in owners)
                    ]
                    if not uncommitted:
                        break
                    if rnd == _MAX_RECOVERY_ROUNDS:
                        raise RuntimeError(
                            f"{label}: {len(uncommitted)} tasks still uncommitted "
                            f"after {_MAX_RECOVERY_ROUNDS} recovery rounds"
                        )
                    yield proc.failures(label=label)  # heartbeat: dead set -> trace
                    counter = rq[(phase, rnd)]
                    while True:
                        idx = yield from counter.inext(proc, label=label)
                        if idx >= len(uncommitted):
                            break
                        if fi is not None:
                            fi.note_recovered("task_requeue")
                        i = uncommitted[idx]
                        yield from redo[phase](proc, i, tag_of(phase, i))

        def program(proc, _heap):
            r = proc.rank
            lo, hi = self.row_ranges[r]

            # ---- local phase: one-electron beta + beta-beta (static) ----
            if hi > lo:
                yield from beta_block(proc, r, Cd.local_block(r), tag_of(0, r))
            yield from end_phase(proc, 0)

            # ---- alpha-alpha + alpha one-electron on transposed blocks ----
            clo, chi = self.col_ranges[r]
            if chi > clo:
                yield from alpha_block(proc, r, tag_of(1, r))
            yield from end_phase(proc, 1)

            # ---- mixed-spin: dynamic task pool ----
            while True:
                tid = yield from dlb.inext(proc, label="alpha-beta")
                if tid >= n_tasks:
                    break
                yield from mixed_task(proc, tid, tag_of(2, tid))
            yield from end_phase(proc, 2)
            if resilient:
                # the last recovery round already left the ranks in step;
                # this closing barrier is part of the pinned resilient
                # schedule (virtual elapsed time, trace digests)
                yield proc.barrier()

        return program

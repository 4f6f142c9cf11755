"""Trace-mode parallel FCI: paper-scale runs on the simulated Cray-X1.

The paper's headline results (Fig. 4, Fig. 5, Table 3) are measured on CI
spaces of 1.5 to 65 *billion* determinants - far beyond what real arithmetic
in this package (or any single machine) can hold.  Trace mode executes the
*same parallel schedule* as the numeric driver (static beta-beta phase,
DDI-gathered dynamically load-balanced mixed-spin task pool, vector
symmetrization, Davidson-step vector operations, restart I/O) through the
same discrete-event engine, but charges kernel cost models with *exact
combinatorial sizes* instead of doing arithmetic:

* string counts per irrep come from the dynamic-programming counter in
  :mod:`repro.core.strings` (no enumeration - works at n = 66),
* DGEMM/indexed-update/gather/communication times come from the calibrated
  :class:`repro.x1.machine.X1Config` rates,
* communication volumes follow the paper's own model (Table 1): the
  mixed-spin routine moves 3 * Nci * n_alpha elements per iteration with the
  DGEMM algorithm (gather of the N-1 intermediate plus a get+put accumulate)
  versus Nci * n_alpha * (n - n_alpha) with the MOC algorithm's collective
  gathers, which is what makes the paper's "communication cost reduced by
  about a factor of 25" claim reproducible,
* the MOC same-spin routine charges the *replicated* double-excitation-list
  regeneration identically on every rank - the Amdahl term that makes its
  Fig. 4 curve flat.

The "vector symmetrization" this schedule charges (``label="vector-symm"``:
for n_alpha = n_beta only the beta-beta and mixed-spin phases run and sigma
is completed by transpose, as in the paper's Table 3) is also what the
numeric modes on real processes execute: the serial kernel, and the shm and
sockets ranks, evaluate a C = +-C^T from its alpha half and add the
transpose (:mod:`repro.core.kernels`, :mod:`repro.parallel.rankwork`).
The simulated X1's *numeric* decomposition (:mod:`repro.parallel.pfci`)
keeps the general algorithm; its contract is agreement to round-off.

Symmetry blocking reduces both vector sizes (factor ~|G|) and the dense
block dimensions (the (pq) x (rs) integral blocks shrink by ~|G| per side),
which is how a 62%-of-peak sustained rate emerges rather than an
unconditional-peak fantasy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from ..core.strings import count_strings_by_irrep
from ..molecule.symmetry import PointGroup
from ..obs.accounting import account_trace_result
from ..x1.ddi import DynamicLoadBalancer, block_ranges
from ..x1.engine import DROPPED, Engine, SymmetricHeap
from ..x1.machine import X1Config
from .taskpool import Task, build_task_pool, publish_pool_metrics

__all__ = ["FCISpaceSpec", "TraceResult", "TraceFCI", "homonuclear_diatomic_irreps", "atom_irreps"]


def homonuclear_diatomic_irreps(n_orbitals: int, seed: int = 0) -> np.ndarray:
    """Synthetic but realistic D2h orbital-irrep assignment for X2 molecules.

    A correlation-consistent basis on a homonuclear diatomic yields roughly
    equal sigma_g/sigma_u stacks, pi_u/pi_g pairs split over (B2u, B3u) /
    (B2g, B3g), and small delta contributions in (B1g, Au).  Proportions
    below follow cc-pVTZ-like shell composition; the CI-space *sizes* they
    generate match the paper's quoted dimensions to within a few percent,
    which is what the cost model needs.
    """
    # D2h irrep ids: 0 Ag, 1 B1g, 2 B2g, 3 B3g, 4 Au, 5 B1u, 6 B2u, 7 B3u
    weights = np.array([0.22, 0.045, 0.10, 0.10, 0.045, 0.22, 0.135, 0.135])
    counts = np.floor(weights * n_orbitals).astype(int)
    while counts.sum() < n_orbitals:
        counts[int(np.argmax(weights * n_orbitals - counts))] += 1
    rng = np.random.default_rng(seed)
    irreps = np.repeat(np.arange(8), counts)
    rng.shuffle(irreps)
    return irreps


def atom_irreps(n_orbitals: int, seed: int = 0) -> np.ndarray:
    """Synthetic D2h orbital irreps for an atom (s+p+d+f shells).

    Gerade irreps dominate (s and d shells); ungerade ones hold the p and f
    stacks.
    """
    weights = np.array([0.28, 0.07, 0.07, 0.07, 0.06, 0.15, 0.15, 0.15])
    counts = np.floor(weights * n_orbitals).astype(int)
    while counts.sum() < n_orbitals:
        counts[int(np.argmax(weights * n_orbitals - counts))] += 1
    rng = np.random.default_rng(seed)
    irreps = np.repeat(np.arange(8), counts)
    rng.shuffle(irreps)
    return irreps


@dataclass
class FCISpaceSpec:
    """Combinatorial description of a (possibly huge) FCI space."""

    n_orbitals: int
    n_alpha: int
    n_beta: int
    point_group: str = "C1"
    orbital_irreps: np.ndarray | None = None
    target_irrep: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        self.group = PointGroup.get(self.point_group)
        if self.orbital_irreps is None:
            self.orbital_irreps = np.zeros(self.n_orbitals, dtype=np.int64)
        self.orbital_irreps = np.asarray(self.orbital_irreps, dtype=np.int64)
        if self.orbital_irreps.size != self.n_orbitals:
            raise ValueError("need one irrep per orbital")
        pt = self.group.product_table()
        self.product_table = pt
        G = self.group.n_irreps
        self.na_by_irrep = np.array(
            [
                int(c)
                for c in count_strings_by_irrep(
                    self.n_orbitals, self.n_alpha, self.orbital_irreps, pt, G
                )
            ],
            dtype=float,
        )
        self.nb_by_irrep = np.array(
            [
                int(c)
                for c in count_strings_by_irrep(
                    self.n_orbitals, self.n_beta, self.orbital_irreps, pt, G
                )
            ],
            dtype=float,
        )
        if self.n_beta >= 2:
            self.nk_b_by_irrep = np.array(
                [
                    int(c)
                    for c in count_strings_by_irrep(
                        self.n_orbitals, self.n_beta - 2, self.orbital_irreps, pt, G
                    )
                ],
                dtype=float,
            )
        else:
            self.nk_b_by_irrep = np.zeros(G)
        if self.n_alpha >= 2:
            self.nk_a_by_irrep = np.array(
                [
                    int(c)
                    for c in count_strings_by_irrep(
                        self.n_orbitals, self.n_alpha - 2, self.orbital_irreps, pt, G
                    )
                ],
                dtype=float,
            )
        else:
            self.nk_a_by_irrep = np.zeros(G)
        # orbital-pair counts per irrep
        self.pair_by_irrep = np.zeros(G)
        for q in range(self.n_orbitals):
            for s in range(q):
                r = pt[self.orbital_irreps[q], self.orbital_irreps[s]]
                self.pair_by_irrep[r] += 1
        self.orbpair_by_irrep = np.zeros(G)  # ordered (p, q) pairs incl p == q
        for p in range(self.n_orbitals):
            for q in range(self.n_orbitals):
                r = pt[self.orbital_irreps[p], self.orbital_irreps[q]]
                self.orbpair_by_irrep[r] += 1

    # -- dimensions ----------------------------------------------------------
    @property
    def n_alpha_strings(self) -> float:
        return float(comb(self.n_orbitals, self.n_alpha))

    @property
    def n_beta_strings(self) -> float:
        return float(comb(self.n_orbitals, self.n_beta))

    def ci_dimension(self) -> float:
        """Symmetry-blocked determinant count of the target irrep."""
        pt = self.product_table
        G = self.group.n_irreps
        total = 0.0
        for ra in range(G):
            rb = int(pt[ra, self.target_irrep])
            total += self.na_by_irrep[ra] * self.nb_by_irrep[rb]
        return total

    def beta_len_for_alpha_irrep(self, ra: int) -> float:
        rb = int(self.product_table[ra, self.target_irrep])
        return self.nb_by_irrep[rb]

    def describe(self) -> str:
        return (
            f"{self.name or 'FCI'}({self.n_alpha + self.n_beta},{self.n_orbitals}) "
            f"{self.group.name}/{self.group.irrep_names[self.target_irrep]}: "
            f"{self.ci_dimension():,.0f} determinants"
        )


@dataclass
class TraceResult:
    """One simulated sigma-build (+ update step) at paper scale."""

    spec_name: str
    n_msps: int
    algorithm: str
    elapsed: float
    phase_seconds: dict[str, float]
    phase_gflops_per_msp: dict[str, float]
    load_imbalance: float
    comm_bytes: float
    total_flops: float
    io_seconds: float

    @property
    def sustained_gflops_per_msp(self) -> float:
        return self.total_flops / self.elapsed / self.n_msps / 1e9 if self.elapsed else 0.0

    @property
    def aggregate_tflops(self) -> float:
        return self.total_flops / self.elapsed / 1e12 if self.elapsed else 0.0


class TraceFCI:
    """Cost-model execution of one FCI iteration on the simulated X1."""

    def __init__(
        self,
        spec: FCISpaceSpec,
        config: X1Config,
        *,
        algorithm: str = "dgemm",
        n_fine_per_proc: int = 16,
        n_large_per_proc: int = 3,
        n_small_per_proc: int = 4,
        mixed_flop_factor: float = 1.1,
        samespin_flop_factor: float = 1.15,
        io_bytes_per_iteration: float | None = None,
        units_per_pool: int | None = None,
        telemetry=None,
        tracer=None,
        faults=None,
    ):
        if algorithm not in ("dgemm", "moc"):
            raise ValueError("algorithm must be 'dgemm' or 'moc'")
        self.spec = spec
        self.config = config
        self.algorithm = algorithm
        self.telemetry = telemetry
        self.faults = faults
        self.tracer = tracer if tracer is not None else (telemetry.tracer if telemetry else None)
        self.mixed_flop_factor = mixed_flop_factor
        self.samespin_flop_factor = samespin_flop_factor
        # restart/checkpoint traffic per iteration: calibrated against the
        # paper's Table 3 disk-I/O entry (11 s at 246 MB/s for the 64.9e9-
        # determinant C2 run -> ~0.042 bytes per determinant per iteration)
        if io_bytes_per_iteration is None:
            io_bytes_per_iteration = 0.042 * spec.ci_dimension()
        self.io_bytes = io_bytes_per_iteration
        P = config.n_msps
        G = spec.group.n_irreps

        # --- per-rank row census: each irrep block distributed separately ---
        self.rows_per_rank = [
            {
                ra: _share(spec.na_by_irrep[ra], P, r)
                for ra in range(G)
                if spec.na_by_irrep[ra] > 0
            }
            for r in range(P)
        ]
        self.local_elements = [
            sum(cnt * spec.beta_len_for_alpha_irrep(ra) for ra, cnt in rows.items())
            for rows in self.rows_per_rank
        ]
        self.ci_dim = spec.ci_dimension()

        # --- mixed-spin task pool over "alpha occupation set" units ---
        # one unit = a bundle of alpha rows of one irrep; unit cost = its
        # sigma elements.  Units per irrep proportional to block size.
        n_units = units_per_pool or max(P * n_fine_per_proc * 2, 64)
        unit_irreps = []
        unit_costs = []
        for ra in range(G):
            na_r = spec.na_by_irrep[ra]
            if na_r <= 0:
                continue
            share = max(int(round(n_units * na_r / spec.n_alpha_strings)), 1)
            rows_each = na_r / share
            blen = spec.beta_len_for_alpha_irrep(ra)
            for _ in range(share):
                unit_irreps.append(ra)
                unit_costs.append(rows_each * max(blen, 1.0))
        self.unit_irreps = np.array(unit_irreps)
        self.unit_rows = np.array(
            [
                spec.na_by_irrep[ra] / max(1, (self.unit_irreps == ra).sum())
                for ra in self.unit_irreps
            ]
        )
        self.tasks: list[Task] = build_task_pool(
            np.asarray(unit_costs),
            P,
            n_fine_per_proc=n_fine_per_proc,
            n_large_per_proc=n_large_per_proc,
            n_small_per_proc=n_small_per_proc,
        )
        self._unit_costs = np.asarray(unit_costs)
        if self.telemetry:
            publish_pool_metrics(self.telemetry.registry, self.tasks, "taskpool.mixed")

    # -- cost helpers --------------------------------------------------------
    def _bb_cost(self, elements: float, spin: str = "b") -> tuple[float, float]:
        """(seconds, flops) of the same-spin DGEMM routine over `elements`
        local sigma elements (sum over rows of their beta-block lengths)."""
        spec, cfg = self.spec, self.config
        G = spec.group.n_irreps
        nk = spec.nk_b_by_irrep if spin == "b" else spec.nk_a_by_irrep
        if nk.sum() <= 0:
            return 0.0, 0.0
        pt = spec.product_table
        # per sigma element: sum_rk NK[rk] * npair_irr[rk x rb]^2 * 2 / Nb[rb]
        # averaged over the target blocks; we fold it into an effective
        # flops-per-element rate computed exactly from the irrep census.
        flops_per_elem = 0.0
        weight = 0.0
        for ra in range(G):
            na_r = spec.na_by_irrep[ra]
            if na_r <= 0:
                continue
            rb = int(pt[ra, spec.target_irrep])
            nb_r = spec.nb_by_irrep[rb]
            if nb_r <= 0:
                continue
            per_row = 2.0 * sum(
                nk[rk] * spec.pair_by_irrep[int(pt[rk, rb])] ** 2
                for rk in range(G)
            )
            flops_per_elem += na_r * per_row  # per row; convert below
            weight += na_r * nb_r
        if weight <= 0:
            return 0.0, 0.0
        flops_per_elem /= weight
        flops = self.samespin_flop_factor * flops_per_elem * elements
        avg_pair_block = float(np.mean(spec.pair_by_irrep[spec.pair_by_irrep > 0]))
        rate = cfg.dgemm_rate(
            int(avg_pair_block), int(max(elements / max(avg_pair_block, 1), 1)), int(avg_pair_block)
        )
        k2 = spec.n_beta if spin == "b" else spec.n_alpha
        kk2 = k2 * (k2 - 1) / 2
        gather = 2.0 * elements * kk2  # D build + sigma scatter
        seconds = flops / rate + cfg.gather_time(gather)
        return seconds, flops

    def _bb_cost_moc(self, elements: float, spin: str = "b") -> tuple[float, float]:
        """MOC same-spin: replicated element generation + indexed updates."""
        spec, cfg = self.spec, self.config
        k = spec.n_beta if spin == "b" else spec.n_alpha
        if k < 2:
            return 0.0, 0.0
        n = spec.n_orbitals
        nstr = spec.n_beta_strings if spin == "b" else spec.n_alpha_strings
        kk2 = k * (k - 1) / 2
        vv2 = (n - k + 2) * (n - k + 1) / 2
        # regenerating the entire double-excitation list: *scalar* code,
        # replicated on every rank (the Amdahl bottleneck the paper Fig. 4
        # exposes) - this term does NOT shrink with P
        n_elements_list = nstr * kk2 * vv2
        t_replicated = n_elements_list / cfg.scalar_element_rate
        # indexed multiply-add updates over local sigma elements
        connected = kk2 * vv2 / spec.group.n_irreps
        updates = elements * connected
        flops = 2.0 * updates
        t_updates = cfg.indexed_update_time(updates)
        return t_replicated + t_updates, flops

    def _mixed_task_cost(self, task: Task) -> tuple[float, float, float, float]:
        """(compute_s, flops, gather_bytes, acc_bytes) for one task."""
        spec, cfg = self.spec, self.config
        G = spec.group.n_irreps
        n = spec.n_orbitals
        elements = float(self._unit_costs[task.start : task.stop].sum())
        if self.algorithm == "dgemm":
            # paper Table 1: operation count ~ Nci n^2 na nb, further reduced
            # by the integral-block symmetry factor 1/G
            flops = (
                self.mixed_flop_factor
                * elements
                * n
                * n
                * spec.n_alpha
                * spec.n_beta
                / G
            )
            blk = n * n / G
            rate = cfg.dgemm_rate(int(blk), int(max(elements * spec.n_alpha / blk, 1)), int(blk))
            seconds = flops / rate
            seconds += cfg.gather_time(2.0 * elements * spec.n_alpha)
            gather_bytes = 8.0 * elements * spec.n_alpha  # paper Table 1: Nci*Na
            acc_bytes = 2.0 * 8.0 * elements * spec.n_alpha  # DDI_ACC get+put
        else:
            na, nb = spec.n_alpha, spec.n_beta
            ops = elements * na * (n - na) * nb * (n - nb) / G
            flops = 2.0 * ops
            seconds = cfg.indexed_update_time(ops)
            gather_bytes = 8.0 * elements * na * (n - na)  # no N-1 reuse
            acc_bytes = 2.0 * 8.0 * elements * spec.n_alpha
        return seconds, flops, gather_bytes, acc_bytes

    # -- one simulated iteration ----------------------------------------------
    def run_iteration(self, davidson_vector_ops: int = 6) -> TraceResult:
        spec, cfg = self.spec, self.config
        P = cfg.n_msps
        heap = SymmetricHeap(P)
        dlb = DynamicLoadBalancer(heap)
        n_tasks = len(self.tasks)
        tasks = self.tasks
        rng = np.random.default_rng(1234)
        gather_targets = rng.integers(0, P, size=n_tasks)
        acc_targets = rng.integers(0, P, size=n_tasks)
        same_spin_both = spec.n_alpha != spec.n_beta
        algo = self.algorithm
        kern = "DGEMM" if algo == "dgemm" else "MOC"

        def program(proc, _heap):
            r = proc.rank
            local_elems = self.local_elements[r]

            # ---- same-spin phase (static, local) ----
            if algo == "dgemm":
                t, fl = self._bb_cost(local_elems, "b")
            else:
                t, fl = self._bb_cost_moc(local_elems, "b")
            if t > 0:
                yield proc.compute(t, flops=fl, label="beta-beta", name=f"{kern} beta-beta")
            if same_spin_both:
                if algo == "dgemm":
                    t, fl = self._bb_cost(local_elems, "a")
                    # transposed access: gather a column block (distributed
                    # transpose), accumulate back
                    nbytes = 8.0 * local_elems
                    yield proc.get(int((r + 1) % P), "", n_bytes=nbytes, label="alpha-alpha")
                else:
                    t, fl = self._bb_cost_moc(local_elems, "a")
                if t > 0:
                    yield proc.compute(t, flops=fl, label="alpha-alpha", name=f"{kern} alpha-alpha")
                if algo == "dgemm":
                    yield proc.get(int((r + 2) % P), "", n_bytes=local_elems * 8.0, label="alpha-alpha")
                    yield proc.put(int((r + 2) % P), "", n_bytes=local_elems * 8.0, label="alpha-alpha")
            yield proc.barrier()

            # ---- mixed-spin phase (dynamic task pool) ----
            while True:
                tid = yield from dlb.inext(proc, label="alpha-beta")
                if tid >= n_tasks:
                    break
                task = tasks[tid]
                seconds, flops, gbytes, abytes = self._mixed_task_cost(task)
                yield proc.span_begin("DDI_GET", label="alpha-beta")
                yield proc.get(
                    int(gather_targets[tid]), "", n_bytes=gbytes, label="alpha-beta"
                )
                yield proc.span_end()
                yield proc.compute(seconds, flops=flops, label="alpha-beta", name=f"{kern} alpha-beta")
                owner = int(acc_targets[tid])
                mutex = 777000 + owner // cfg.msps_per_node
                yield proc.span_begin("DDI_ACC", label="alpha-beta")
                yield proc.lock(mutex, label="alpha-beta")
                yield proc.get(owner, "", n_bytes=abytes / 2, label="alpha-beta")
                yield proc.put(owner, "", n_bytes=abytes / 2, label="alpha-beta")
                yield proc.quiet(label="alpha-beta")
                yield proc.unlock(mutex, label="alpha-beta")
                yield proc.span_end()
            yield proc.barrier()

            # ---- vector symmetrization ----
            if not same_spin_both and algo == "dgemm":
                # spin-symmetry completion sigma += eps * sigma_bb^T: a
                # distributed transpose of the local block plus stream passes
                yield proc.get(int((r + 3) % P), "", n_bytes=8.0 * local_elems, label="vector-symm")
                yield proc.compute(
                    cfg.stream_time(local_elems, 3.0), label="vector-symm"
                )
            else:
                yield proc.compute(
                    cfg.stream_time(local_elems, 2.0), label="vector-symm"
                )
            yield proc.barrier()

            # ---- eigensolver vector operations (axpy/dot/normalize) ----
            yield proc.compute(
                cfg.stream_time(local_elems, float(davidson_vector_ops)),
                label="vector-ops",
            )
            yield proc.barrier()

            # ---- restart I/O (shared filesystem, serialized) ----
            fi = self.faults
            retries = fi.max_retries if fi is not None else 1
            for attempt in range(retries):
                res = yield proc.io(self.io_bytes / P, write=True, label="disk-io")
                if res is not DROPPED:
                    if fi is not None and attempt:
                        fi.note_recovered("retried_io", attempt)
                    break
            else:
                raise RuntimeError(
                    f"rank {r}: restart write failed after {retries} attempts"
                )

        engine = Engine(cfg, heap, tracer=self.tracer, faults=self.faults)
        stats = engine.run([program] * P)
        phase: dict[str, float] = {}
        for s in stats:
            for k, v in s.phase_times.items():
                phase[k] = max(phase.get(k, 0.0), v)
        # per-phase sustained rate: aggregate flops of the phase / (P * t_max)
        flops_by_phase: dict[str, float] = {}
        for s in stats:
            for k, v in s.phase_flops.items():
                flops_by_phase[k] = flops_by_phase.get(k, 0.0) + v
        phase_rates = {
            k: flops_by_phase.get(k, 0.0) / (P * phase[k]) / 1e9 if phase[k] else 0.0
            for k in phase
        }
        total_flops = sum(s.flops for s in stats)
        comm_bytes = sum(s.bytes_received + s.bytes_sent for s in stats)
        io_seconds = max(s.io for s in stats)
        result = TraceResult(
            spec_name=spec.name or spec.describe(),
            n_msps=P,
            algorithm=self.algorithm,
            elapsed=engine.elapsed(),
            phase_seconds=phase,
            phase_gflops_per_msp=phase_rates,
            load_imbalance=engine.load_imbalance(),
            comm_bytes=comm_bytes,
            total_flops=total_flops,
            io_seconds=io_seconds,
        )
        if self.telemetry:
            account_trace_result(self.telemetry.registry, result)
        return result


    def run_calculation(self, n_iterations: int = 25) -> dict:
        """Simulate a full tightly-converged calculation.

        The paper's C2 run needed 25 iterations of the automatically
        adjusted single-vector method to reach a 1e-5 residual norm;
        returns aggregate wall-clock, flops and traffic for ``n_iterations``
        identical sigma-build/update cycles (the per-iteration schedule is
        stationary for a single-vector method).
        """
        if n_iterations < 1:
            raise ValueError("need at least one iteration")
        one = self.run_iteration()
        return {
            "iterations": n_iterations,
            "seconds_per_iteration": one.elapsed,
            "total_seconds": one.elapsed * n_iterations,
            "total_hours": one.elapsed * n_iterations / 3600.0,
            "total_comm_bytes": one.comm_bytes * n_iterations,
            "aggregate_tflops": one.aggregate_tflops,
            "iteration": one,
        }


def _share(total: float, n_parts: int, part: int) -> float:
    base = total / n_parts
    return base

"""Tests for repro.obs: metrics, tracing, accounting, and solver telemetry."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import threading
from math import comb

import numpy as np
import pytest

from repro import FCISolver, Telemetry
from repro.core import CIProblem, HamiltonianOperator, sigma_dgemm, sigma_moc
from repro.core.kernels import SigmaCounters
from repro.obs import (
    ChromeTracer,
    MetricsRegistry,
    NullTracer,
    account_parallel_report,
    account_sigma_dgemm,
    dgemm_mixed_spin_flops,
    dgemm_same_spin_flops,
    get_registry,
    gflops_rate,
    set_registry,
    NULL_TELEMETRY,
)
from repro.parallel import ParallelSigma
from repro.x1 import X1Config
from tests.conftest import make_random_mo


# -- metrics registry ---------------------------------------------------------


class TestMetrics:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert reg.counter("a.b") is c  # same object on re-request
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_semantics(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_histogram_welford_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        data = [1.0, 2.0, 4.0, 8.0, 16.0]
        for x in data:
            h.observe(x)
        assert h.count == len(data)
        assert h.sum == sum(data)
        assert h.min == 1.0 and h.max == 16.0
        assert h.mean == pytest.approx(np.mean(data))
        assert h.std == pytest.approx(np.std(data))

    def test_timer_context_manager(self):
        reg = MetricsRegistry()
        t = reg.timer("t")
        with t.time():
            pass
        t.observe(0.5)  # explicit (virtual) duration
        assert t.count == 2
        assert t.max >= 0.5

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_timer_satisfies_histogram(self):
        reg = MetricsRegistry()
        t = reg.timer("dur")
        assert reg.histogram("dur") is t  # a Timer is-a Histogram

    def test_series_records(self):
        reg = MetricsRegistry()
        s = reg.series("iters")
        s.append(iteration=1, energy=-1.0)
        s.append(iteration=2, energy=-1.1)
        assert len(s) == 2
        assert s.records[1]["energy"] == -1.1

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3.0)
        reg.series("s").append(k="v")
        doc = json.loads(reg.to_json())
        assert doc["c"] == {"kind": "counter", "value": 2.0}
        assert doc["g"]["value"] == 1.5
        assert doc["h"]["count"] == 1
        assert doc["s"]["records"] == [{"k": "v"}]
        assert sorted(reg) == ["c", "g", "h", "s"]

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        c = reg.counter("n")

        def worker():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000

    def test_global_registry_singleton(self):
        old = set_registry(None)
        try:
            r1 = get_registry()
            assert get_registry() is r1
            mine = MetricsRegistry()
            assert set_registry(mine) is r1
            assert get_registry() is mine
        finally:
            set_registry(old)


# -- Chrome tracer ------------------------------------------------------------


class TestChromeTracer:
    def test_nesting_and_unmatched_end(self):
        tr = ChromeTracer()
        tr.begin(0, "outer", 0.0)
        tr.begin(0, "inner", 1.0)
        tr.end(0, 2.0)
        tr.end(0, 3.0)
        tr.end(0, 4.0)  # unmatched: must be tolerated
        names = [e["name"] for e in tr.events(0)]
        assert names == ["outer", "inner", "inner", "outer"]

    def test_min_duration_filter(self):
        tr = ChromeTracer(min_duration=1e-3)
        tr.complete(0, "tiny", "op", 0.0, 1e-6)
        tr.complete(0, "big", "op", 0.0, 1.0)
        assert tr.span_names() == {"big"}
        assert tr.total_duration("big") == pytest.approx(1.0)

    def test_export_structure(self, tmp_path):
        tr = ChromeTracer(process_name="test machine")
        tr.complete(1, "work", "op", 0.0, 2.0, args={"flops": 8.0})
        tr.instant(0, "mark", 0.5)
        doc = json.loads(tr.to_json())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name", "thread_sort_index"} <= {
            m["name"] for m in metas
        }
        x = [e for e in events if e["ph"] == "X"]
        assert x[0]["ts"] == 0.0 and x[0]["dur"] == pytest.approx(2e6)
        path = tr.write(tmp_path / "trace.json")
        assert json.loads(pathlib.Path(path).read_text())["traceEvents"]


class TestEngineTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        mo = make_random_mo(5, seed=7)
        problem = CIProblem(mo, 2, 2)
        tracer = ChromeTracer()
        ps = ParallelSigma(problem, X1Config(n_msps=4), tracer=tracer)
        C = problem.random_vector(0)
        sigma = ps(C)
        return problem, C, sigma, tracer

    def test_trace_has_expected_spans(self, traced):
        _, _, _, tracer = traced
        names = tracer.span_names()
        assert "DDI_GET" in names
        assert "DDI_ACC" in names
        assert any(n.startswith("DGEMM") for n in names)
        assert "barrier" in names

    def test_all_ranks_have_tracks(self, traced):
        _, _, _, tracer = traced
        assert {e["tid"] for e in tracer.events()} == {0, 1, 2, 3}

    def test_export_per_rank_timestamps_monotone(self, traced):
        _, _, _, tracer = traced
        doc = json.loads(tracer.to_json())
        assert isinstance(doc["traceEvents"], list)
        per_rank: dict[int, list[float]] = {}
        for e in doc["traceEvents"]:
            if e["ph"] in ("X", "B", "E", "i"):
                assert e["pid"] == 0
                per_rank.setdefault(e["tid"], []).append(e["ts"])
        for rank, ts in per_rank.items():
            assert ts == sorted(ts), f"rank {rank} timestamps out of order"

    def test_tracing_does_not_change_numerics(self, traced):
        problem, C, sigma, _ = traced
        plain = ParallelSigma(problem, X1Config(n_msps=4))(C)
        assert np.array_equal(sigma, plain)

    def test_null_tracer_accepts_everything(self):
        tr = NullTracer()
        tr.complete(0, "a", "op", 0.0, 1.0)
        tr.instant(0, "b", 0.0)
        tr.begin(0, "c", 0.0)
        tr.end(0, 1.0)


# -- FLOP accounting vs the analytic Table-1 model ----------------------------


class TestFlopAccounting:
    def test_mixed_spin_only_matches_closed_form(self):
        # one electron of each spin: no same-spin terms, so the counter must
        # equal the analytic mixed-spin DGEMM count exactly.
        n = 4
        mo = make_random_mo(n, seed=5)
        problem = CIProblem(mo, 1, 1)
        counters = SigmaCounters()
        sigma_dgemm(problem, counters=counters, C=problem.random_vector(0))
        nci = problem.dimension
        # per beta string: 10 packed pairs x the 4 singles that reach it
        assert counters.dgemm_flops == dgemm_mixed_spin_flops(n, 1, nci) == 2 * 10 * 4 * nci

    def test_full_space_matches_closed_form(self):
        n = 6
        mo = make_random_mo(n, seed=13)
        problem = CIProblem(mo, 3, 3)
        counters = SigmaCounters()
        sigma_dgemm(problem, problem.random_vector(1), counters=counters)
        na, nb = problem.shape
        expected = dgemm_mixed_spin_flops(n, 3, na * nb)
        expected += dgemm_same_spin_flops(n, 3, nb)
        expected += dgemm_same_spin_flops(n, 3, na)
        assert counters.dgemm_flops == expected
        # mixed: 21 packed pairs x 3 * 4 singles per beta string; same-spin:
        # the 6 one-electron strings each allow C(5, 2) = 10 pairs
        assert expected == 2 * 21 * 12 * 400 + 2 * (2 * 10**2 * 6 * 20)
        # gather/scatter traffic counts table entries x block width, whatever
        # the layout of the intermediates: neither pair packing nor dropping
        # the structural zeros moves them
        plan = problem.sigma_plan
        same = plan.same_a.n_entries * nb + plan.same_b.n_entries * na
        assert counters.gather_elements == plan.gather_b.n_entries * na + same
        assert counters.scatter_elements == plan.scatter_a.n_entries * nb + same

    def test_closed_forms_on_the_benchmark_spaces(self):
        """What the kernel multiplies on the e2e workloads' spaces, from (n,
        n_alpha, n_beta) alone, beside the full pair space it used to."""

        def sigma_flops(n, n_alpha, n_beta):
            na, nb = comb(n, n_alpha), comb(n, n_beta)
            return (
                dgemm_mixed_spin_flops(n, n_beta, na * nb)
                + dgemm_same_spin_flops(n, n_alpha, nb)
                + dgemm_same_spin_flops(n, n_beta, na)
            )

        assert sigma_flops(12, 6, 6) == 7_028_284_032  # was 18_358_135_488
        assert sigma_flops(12, 6, 5) == 5_708_102_400  # was 14_091_067_584
        assert sigma_flops(12, 4, 4) == 1_640_687_400  # was 3_550_706_280
        # a spin with fewer than two electrons has no same-spin term
        assert dgemm_same_spin_flops(8, 1, 70) == dgemm_same_spin_flops(8, 0, 70) == 0
        # k = 2: the one empty string allows every pair - the whole of W
        assert dgemm_same_spin_flops(8, 2, 70) == 2 * 28**2 * 70
        # a full shell allows one pair per N-2 string
        assert dgemm_same_spin_flops(8, 8, 70) == 2 * 1 * 28 * 70

    def test_telemetry_routes_through_registry(self):
        mo = make_random_mo(5, seed=2)
        problem = CIProblem(mo, 2, 2)
        tel = Telemetry()
        sigma_dgemm(problem, problem.random_vector(0), telemetry=tel)
        reg = tel.registry
        assert reg.counter("sigma.dgemm.calls").value == 1
        assert reg.counter("sigma.dgemm.flops").value > 0
        assert reg.timer("sigma.dgemm.seconds").count == 1

        sigma_moc(problem, problem.random_vector(0), telemetry=tel)
        assert reg.counter("sigma.moc.calls").value == 1
        indexed = reg.counter("sigma.moc.indexed_ops").value
        assert indexed > 0
        assert reg.counter("sigma.moc.flops").value == 2 * indexed

    @pytest.mark.parametrize("algo", ["dgemm", "moc"])
    def test_batch_of_three_is_three_calls_and_three_timer_samples(self, algo):
        """One timer sample per sigma: the call counter and the timer's
        sample count agree, and a batch accounts exactly 3x one apply."""
        problem = CIProblem(make_random_mo(5, seed=2), 2, 2)
        C = problem.random_vector(0)
        metrics = [f"sigma.{algo}.flops"] + {
            "dgemm": ["sigma.dgemm.gemm_calls", "sigma.dgemm.gather_elems",
                      "sigma.dgemm.scatter_elems"],
            "moc": ["sigma.moc.indexed_ops", "sigma.moc.matrix_elements"],
        }[algo]

        one = Telemetry()
        HamiltonianOperator(problem, algo, telemetry=one).apply(C)
        tel = Telemetry()
        op = HamiltonianOperator(problem, algo, telemetry=tel)
        op.apply_batch(np.stack([C, 0.5 * C, 0.25 * C]))

        reg = tel.registry
        assert op.n_calls == 3
        assert reg.counter(f"sigma.{algo}.calls").value == 3
        assert reg.timer(f"sigma.{algo}.seconds").count == 3
        for name in metrics:
            single = one.registry.counter(name).value
            assert single > 0
            assert reg.counter(name).value == 3 * single

    def test_ledger_and_rates(self):
        reg = MetricsRegistry()
        counters = SigmaCounters()
        counters.dgemm_flops = 1000
        counters.gather_elements = 10
        counters.scatter_elements = 20
        ledger = account_sigma_dgemm(reg, counters, 2.0)
        assert ledger.flops == 1000
        assert ledger.bytes_moved == 8.0 * 30
        assert ledger.gflops == gflops_rate(1000, 2.0)
        assert ledger.arithmetic_intensity == pytest.approx(1000 / 240)
        assert gflops_rate(1e9, 1.0) == 1.0
        assert gflops_rate(1.0, 0.0) == 0.0

    def test_parallel_report_accounting(self):
        mo = make_random_mo(5, seed=4)
        problem = CIProblem(mo, 2, 2)
        ps = ParallelSigma(problem, X1Config(n_msps=4))
        ps(problem.random_vector(0))
        reg = MetricsRegistry()
        ledger = account_parallel_report(reg, ps.report, 4)
        assert reg.counter("x1.runs").value == 1
        assert reg.counter("x1.bytes_communicated").value == ps.report.bytes_communicated
        assert reg.gauge("x1.gflops_per_msp").value == pytest.approx(
            ps.report.gflops_rate() / 4
        )
        assert ledger.seconds == ps.report.elapsed
        assert any(name.startswith("x1.phase.") for name in reg)


# -- solver telemetry and the disabled-is-identical guarantee -----------------


class TestSolverTelemetry:
    def test_per_iteration_records(self, h2, h2_ao, h2_scf):
        tel = Telemetry()
        res = FCISolver(
            h2, "sto-3g", ao_integrals=h2_ao, scf_result=h2_scf, telemetry=tel
        ).run()
        iters = tel.iterations()
        assert len(iters) == res.solve.n_iterations
        assert iters[0]["method"] == "auto"
        assert iters[-1]["residual_norm"] < 1e-5
        assert iters[-1]["energy"] == pytest.approx(res.energy - res.mo.e_core)
        reg = tel.registry
        assert reg.counter("solver.solves").value == 1
        assert reg.gauge("solver.converged").value == 1.0
        assert reg.gauge("solver.ci_dimension").value == res.problem.dimension
        assert reg.counter("sigma.dgemm.calls").value == res.n_sigma

    @pytest.mark.parametrize("method", ["auto", "davidson", "olsen-damped"])
    def test_disabled_telemetry_bitwise_identical(self, h2, h2_ao, h2_scf, method):
        kwargs = dict(ao_integrals=h2_ao, scf_result=h2_scf, method=method)
        plain = FCISolver(h2, "sto-3g", **kwargs).run()
        nulled = FCISolver(
            h2, "sto-3g", telemetry=NULL_TELEMETRY, **kwargs
        ).run()
        traced = FCISolver(
            h2,
            "sto-3g",
            telemetry=Telemetry(tracer=ChromeTracer()),
            **kwargs,
        ).run()
        assert plain.energy == nulled.energy == traced.energy
        assert np.array_equal(plain.vector, nulled.vector)
        assert np.array_equal(plain.vector, traced.vector)

    def test_null_telemetry_is_falsy_and_inert(self):
        assert not NULL_TELEMETRY
        assert NULL_TELEMETRY.counter("x") is None
        NULL_TELEMETRY.solver_iteration("m", 1, -1.0, 1e-3)
        NULL_TELEMETRY.solver_result("m", -1.0, True, 1, 1)
        assert NULL_TELEMETRY.iterations() == []
        assert NULL_TELEMETRY.snapshot() == {}


# -- benchmark results writer -------------------------------------------------


def test_write_result_emits_structured_json(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_conftest",
        pathlib.Path(__file__).parent.parent / "benchmarks" / "conftest.py",
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.RESULTS_DIR = tmp_path / "nested" / "results"

    paths = mod.write_result(
        "unit",
        "a table",
        rows=[["metric", 1.0, 2.0]],
        metrics={"x1.flops": {"kind": "counter", "value": 3.0}},
    )
    assert [p.name for p in paths] == ["unit.txt", "unit.json"]
    assert all(p.exists() for p in paths)
    doc = json.loads(paths[1].read_text())
    assert doc["name"] == "unit"
    assert doc["text"] == "a table"
    assert doc["rows"] == [["metric", 1.0, 2.0]]
    assert doc["metrics"]["x1.flops"]["value"] == 3.0
    assert "timestamp" in doc
    assert "a table" in capsys.readouterr().out

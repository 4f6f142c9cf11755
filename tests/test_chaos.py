"""Chaos scenarios, their composition, the fuzzer, and its shrinker.

The load-bearing test here is the *mutation-catch proof*: with the
recovery machinery deliberately disabled (``_RECOVERY_ENABLED = False``),
the fuzzer must find a violating plan within a small seed range and shrink
it to a 1-minimal reproducer - evidence the property-based search can
catch real recovery bugs, not merely rubber-stamp a healthy stack.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.faults import BACKEND_SCENARIOS, SCENARIOS, ChaosConfig, FaultPlan
from repro.faults import fuzz as fuzz_mod
from repro.faults.cli import main as chaos_main
from repro.faults.fuzz import FuzzBudget, FuzzCase, FuzzRunner, shrink

ENV = ChaosConfig(horizon=1e-3)  # 4 ranks, 8 spans
CASE = object()  # stands for the reproducer file path in CLI argv rows


def x1_plan(names, seed):
    """The X1 plan ``names`` compose to on ENV's run."""
    return replace(ENV, scenarios=list(names), seed=seed).build_plan()


@pytest.fixture(scope="module")
def runner():
    return FuzzRunner(FuzzBudget())


class TestScenarioRegistry:
    def test_names_sorted_and_populated(self):
        names = SCENARIOS.names()
        assert list(names) == sorted(names)
        assert {"correlated_failures", "adversarial_stalls", "calm", "dead_rank"} <= set(names)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="correlated_failures"):
            x1_plan(["nope"], 1)

    def test_duplicate_registration_rejected(self):
        name = SCENARIOS.names()[0]
        with pytest.raises(ValueError, match="already registered"):
            SCENARIOS.register(name)(lambda env, rng: {})

    def test_registration_roundtrip(self, monkeypatch):
        monkeypatch.setattr(SCENARIOS, "_entries", dict(SCENARIOS._entries))

        @SCENARIOS.register("_test_only")
        def _gen(env, rng):
            return {"io_error": 0.25}

        plan = x1_plan(["_test_only"], 0)
        assert plan.io_error == 0.25


class TestComposition:
    def test_same_seed_same_plan(self):
        names = ["correlated_failures", "adversarial_stalls", "flaky_interconnect"]
        a = x1_plan(names, 7)
        b = x1_plan(names, 7)
        assert a.to_dict() == b.to_dict()
        c = x1_plan(names, 8)
        assert c.to_dict() != a.to_dict()

    def test_compose_merges_deaths_and_stalls(self):
        plan = x1_plan(
            ["correlated_failures", "adversarial_stalls", "heavy_tail_latency"], 3
        )
        assert plan.deaths  # correlated_failures contributed
        assert plan.stalls  # adversarial_stalls contributed
        assert plan.delay_prob > 0  # heavy_tail_latency contributed

    def test_stalls_align_to_span_boundaries(self):
        dt = ENV.horizon / ENV.n_spans
        for seed in range(5):
            plan = x1_plan(["adversarial_stalls"], seed)
            for w in plan.stalls:
                assert abs(w.t0 / dt - round(w.t0 / dt)) < 1e-9

    def test_calm_is_empty(self):
        assert not x1_plan(["calm"], 5).any_faults()


class TestPlanJSONRoundTrip:
    def test_fault_plan_roundtrip(self):
        plan = x1_plan(
            ["correlated_failures", "adversarial_stalls", "silent_bitflips"], 13
        )
        d = json.loads(json.dumps(plan.to_dict()))  # through real JSON
        back = FaultPlan.from_dict(d)
        assert back.to_dict() == plan.to_dict()
        assert back.deaths == plan.deaths  # int keys restored

    def test_infinite_stall_end_roundtrips(self):
        from repro.faults import StallWindow

        plan = FaultPlan(stalls=[StallWindow(rank=1, t0=0.0, t1=float("inf"), slowdown=3.0)])
        back = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert back.stalls[0].t1 == float("inf")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"seed": 0, "warp_drive": 1.0})


class TestBudget:
    def test_clamp_bounds_probabilities_and_deaths(self):
        budget = FuzzBudget(max_deaths=1, max_drop=0.05, max_io_error=0.1)
        plan = FaultPlan(
            seed=1, deaths={0: 1e-4, 2: 2e-4}, drop_get=0.5, drop_put=0.5, io_error=0.9
        )
        clamped = budget.clamp(plan)
        assert len(clamped.deaths) == 1
        assert clamped.drop_get <= 0.05 and clamped.drop_put <= 0.05
        assert clamped.io_error <= 0.1
        assert clamped.max_retries >= budget.min_retries


class TestGeneration:
    def test_same_seed_same_case(self, runner):
        for seed in (0, 3, 9, 17):
            a = runner.case_for_seed(seed)
            b = runner.case_for_seed(seed)
            assert a.to_dict() == b.to_dict()

    def test_case_json_roundtrip(self, runner):
        for seed in range(20):
            case = runner.case_for_seed(seed)
            back = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
            assert back.to_dict() == case.to_dict()

    def test_all_harnesses_reachable(self, runner):
        kinds = {runner.case_for_seed(s).harness for s in range(60)}
        assert kinds == {"sigma", "solver"}

    def test_solver_cases_draw_only_runnable_methods(self, runner):
        methods = {
            runner.case_for_seed(s).knobs["method"]
            for s in range(200)
            if runner.case_for_seed(s).harness == "solver"
        }
        assert methods == set(fuzz_mod.SolverHarness._METHODS)
        assert methods == {"olsen", "auto", "davidson", "davidson-mmap"}


class TestInvariantsHold:
    """A small deterministic batch of the CI invariants (the full 200-seed
    sweep runs in the chaos-fuzz CI job; this keeps the tier-1 suite fast)."""

    def test_sigma_batch_clean(self, runner):
        report = runner.fuzz(
            [s for s in range(40) if runner.case_for_seed(s).harness == "sigma"],
            do_shrink=False,
        )
        assert report.violations == []
        assert report.executed >= 20

    def test_solver_case_clean(self, runner):
        seeds = [s for s in range(80) if runner.case_for_seed(s).harness == "solver"]
        report = runner.fuzz(seeds[:2], do_shrink=False)
        assert report.violations == []
        assert report.executed == 2


# Shrunk reproducer of nightly seed 1239: a finite bit-flip overflows a DGEMM
# and the Inf is accumulated into the global sigma.  Every later get of that
# window is a faithful non-finite copy of its source, which the get-payload
# check used to blame on the network until its retry budget ran out.
SEED_1239 = {
    "seed": 1239,
    "harness": "sigma",
    "scenarios": ["adversarial_stalls", "silent_bitflips"],
    "knobs": {},
    "service_plan": None,
    "plan": {
        "seed": 1239,
        "corrupt": 0.12156894000050504,
        "corrupt_mode": "bitflip",
        "deaths": {},
        "stalls": [],
        "drop_get": 0.0,
        "drop_put": 0.0,
        "delay_prob": 0.0,
        "delay_seconds": 0.0,
        "mutex_jitter": 0.0,
        "io_error": 0.0,
        "op_timeout": None,
        "mutex_lease": 0.00025,
        "max_retries": 8,
        "retry_backoff": 5e-06,
    },
}


class TestRegressions:
    def test_seed_1239_nonfinite_source_is_not_refetched(self, runner):
        case = FuzzCase.from_dict(json.loads(json.dumps(SEED_1239)))
        assert runner.run_case(case) is None


class TestMutationCatch:
    def test_disabled_recovery_is_caught_and_shrunk(self, runner, monkeypatch):
        monkeypatch.setattr(fuzz_mod, "_RECOVERY_ENABLED", False)
        found = None
        for seed in range(60):
            case = runner.case_for_seed(seed)
            if case.harness != "sigma" or not case.plan.any_faults():
                continue
            if case.plan.corrupt and case.plan.corrupt_mode == "bitflip":
                continue  # bitflip lane only asserts reproducibility
            failure = runner.run_case(case)
            if failure is not None:
                found = (case, failure)
                break
        assert found is not None, "fuzzer failed to catch disabled recovery"
        case, (invariant, _detail) = found
        assert invariant in ("exact_recovery", "no_crash")

        shrunk, iters = shrink(case, runner.run_case)
        assert iters > 0
        # still failing, and 1-minimal: every further simplification passes
        assert runner.run_case(shrunk) is not None
        for candidate in fuzz_mod._shrink_moves(shrunk):
            assert runner.run_case(candidate) is None
        # and the healthy stack is exonerated by the same reproducer
        monkeypatch.setattr(fuzz_mod, "_RECOVERY_ENABLED", True)
        assert runner.run_case(shrunk) is None

    def test_reproducer_persisted_and_replayable(self, runner, monkeypatch, tmp_path):
        monkeypatch.setattr(fuzz_mod, "_RECOVERY_ENABLED", False)
        seeds = [
            s
            for s in range(60)
            if runner.case_for_seed(s).harness == "sigma"
            and runner.case_for_seed(s).plan.deaths
        ]
        report = runner.fuzz(seeds[:3], reproducer_dir=tmp_path)
        assert report.violations
        files = sorted(tmp_path.glob("seed*.json"))
        assert files
        payload = json.loads(files[0].read_text())
        assert "shrunk" in payload and "invariant" in payload
        # the persisted reproducer replays green once recovery is back on
        monkeypatch.setattr(fuzz_mod, "_RECOVERY_ENABLED", True)
        rc = chaos_main(["replay", "--file", str(files[0])])
        assert rc == 0


class TestCLI:
    def test_scenarios_command(self, capsys):
        assert chaos_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in (*SCENARIOS, *BACKEND_SCENARIOS):
            assert f"  {name}\n" in out
        assert "service" not in out

    def test_fuzz_command_small_batch(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = chaos_main(
            ["fuzz", "--seeds", "4", "--start", "0", "--report", str(report_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["executed"] == 4
        assert report["violations"] == []
        capsys.readouterr()  # drain

    def test_replay_seed(self, capsys):
        assert chaos_main(["replay", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, text, match",
        [
            (["replay", "--file", CASE], "{not json", "not a fuzz case"),
            (["replay", "--file", CASE], '{"seed": 1}', "KeyError: 'harness'"),
            (
                ["replay", "--file", CASE],
                '{"seed": 1, "harness": "sigma", "plan": null}',
                "needs a 'plan'",
            ),
            (
                ["replay", "--file", CASE],
                '{"seed": 1, "harness": "sigma", "plan": {"drop_get": 7}}',
                "probabilities",
            ),
            (["replay", "--file", CASE], "[1, 2]", "JSON object"),
            (
                ["replay", "--file", CASE],
                '{"seed": 1, "harness": "solver", "knobs": {"method": "cdfci"}}',
                "olsen, auto, davidson, davidson-mmap; got method 'cdfci'",
            ),
            (
                ["replay", "--file", CASE],
                '{"seed": 1, "harness": "service", "knobs": {"n_jobs": 2}}',
                "sigma, solver; got harness 'service'",
            ),
            (["fuzz", "--seeds", "-3"], None, "--seeds must be at least 1; got -3"),
            (["fuzz", "--seeds", "0"], None, "--seeds must be at least 1; got 0"),
            (["fuzz", "--start", "-1"], None, "--start must be a non-negative seed"),
            (["replay", "-5"], None, "replay seed must be non-negative; got -5"),
            (["scenario", "slow_rank", "--n-msps", "0"], None, "--n-msps must be at least 1"),
            (["scenario", "slow_rank", "--seeds", "0", "-1"], None, "--seeds must be non-negative"),
        ],
        ids=[
            "malformed",
            "no-harness",
            "null-plan",
            "bad-probability",
            "not-an-object",
            "unknown-solver-method",
            "retired-service-harness",
            "fuzz-negative-seeds",
            "fuzz-zero-seeds",
            "fuzz-negative-start",
            "replay-negative-seed",
            "scenario-no-msps",
            "scenario-negative-seed",
        ],
    )
    def test_bad_input_is_exit_2(self, tmp_path, capsys, argv, text, match):
        path = tmp_path / "case.json"
        if text is not None:
            path.write_text(text)
        assert chaos_main([str(path) if a is CASE else a for a in argv]) == 2
        captured = capsys.readouterr()
        err = captured.err
        assert match in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "max|diff|" not in captured.out  # refused before any case ran

    def test_replay_missing_file_is_exit_2(self, tmp_path, capsys):
        assert chaos_main(["replay", "--file", str(tmp_path / "absent.json")]) == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["dead_rank", "correlated_failures"])
    def test_scenario_command(self, tmp_path, capsys, name):
        """Fixed and generator names both run; first seed leaves a trace."""
        rc = chaos_main(
            ["scenario", name, "--seeds", "0", "1", "--trace-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("max|diff|=") == 2 and "injected.rank_death=" in out
        trace = json.loads((tmp_path / f"{name}-seed0.json").read_text())
        assert trace["traceEvents"]
        assert not (tmp_path / f"{name}-seed1.json").exists()

    def test_scenario_without_survivor_is_refused(self, capsys):
        """One MSP and a dead victim is outside the recovery contract: refused
        up front, naming the dead rank, not reported as a broken invariant."""
        assert chaos_main(["scenario", "dead_rank", "--n-msps", "1", "--seeds", "0"]) == 2
        captured = capsys.readouterr()
        assert "kills rank(s) [0] of 1" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "FAIL" not in captured.out and "max|diff|" not in captured.out

    def test_scenario_command_unknown_name(self, capsys):
        assert chaos_main(["scenario", "meteor_strike"]) == 2
        err = capsys.readouterr().err
        assert "dead_rank" in err and "correlated_failures" in err

    def test_min_executed_gate(self, capsys):
        rc = chaos_main(
            ["fuzz", "--seeds", "5", "--time-budget", "0", "--min-executed", "5"]
        )
        assert rc == 2
        capsys.readouterr()

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.faults", "scenarios"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "adversarial_stalls" in proc.stdout

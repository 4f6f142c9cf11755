"""End-to-end tests of ``repro.service``: cached, journaled, resumable jobs.

* concurrent identical submissions dedupe onto one solve (content-addressed
  keys),
* a result-cache hit and a forced warm re-solve (plan-cache hit) are
  bitwise-identical to the cold solve on the golden-energy problems,
* a preempted, timed-out or cancelled job resumes to the uninterrupted
  energy within 1e-10 (observed bitwise-equal),
* the client surface (submit forms, wait / result / vector on unfinished
  jobs, resubmit, resume budgets, a closed service) does what it says,
* a restart re-adopts journaled jobs,
* a job killed mid-solve by injected checkpoint I/O errors is recovered
  by a *restarted* service and resumed to the uninterrupted answer.
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.service import FCIService, JobRecord, JobSpec, JobState, JobStateError
from tests.helpers import Gate, wait_for

GOLDEN_H2 = -1.137275943785  # tests/test_golden_energies.py, 1e-8
GOLDEN_H2O = -75.012586552381


def spec_for(mol, **options) -> JobSpec:
    return JobSpec.from_molecule(mol, "sto-3g", **options)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path / "svc"


@pytest.fixture(scope="module")
def water_reference(water):
    """Uninterrupted service solve of water: the resume/crash baseline."""
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        with FCIService(d, max_workers=1) as svc:
            job = svc.submit(molecule=water, basis="sto-3g")
            result = svc.result(job.key, timeout=300)
            vector = np.array(svc.vector(job.key))
    return result["energy"], vector


# -- job model ----------------------------------------------------------------


class TestJobSpec:
    def test_job_key_is_stable_and_canonical(self, h2):
        a = spec_for(h2)
        b = JobSpec.from_dict(a.to_dict())
        assert a == b
        assert a.job_key == b.job_key
        assert a.space_key == b.space_key

    def test_label_does_not_affect_identity(self, h2):
        a = spec_for(h2)
        b = JobSpec.from_dict({**a.to_dict(), "label": "something else"})
        assert a.job_key == b.job_key

    def test_solver_config_changes_job_key_but_not_space_key(self, h2):
        a = spec_for(h2, method="auto")
        b = spec_for(h2, method="davidson")
        assert a.job_key != b.job_key
        assert a.space_key == b.space_key

    def test_geometry_changes_space_key(self, h2, water):
        assert spec_for(h2).space_key != spec_for(water).space_key

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown job spec fields"):
            JobSpec.from_dict({"atoms": [["H", [0, 0, 0]]], "n_oops": 3})

    def test_empty_atoms_rejected(self):
        with pytest.raises(ValueError, match="atoms"):
            JobSpec.from_dict({"atoms": []})

    def test_parallel_options_are_frozen_and_round_trip(self, h2):
        a = spec_for(h2, parallel={"backend": "shm", "n_workers": 2})
        assert isinstance(a.parallel, tuple)
        assert a.solver_kwargs()["parallel"] == {"backend": "shm", "n_workers": 2}
        b = JobSpec.from_dict(a.to_dict())
        assert a.job_key == b.job_key


class TestJobLifecycle:
    def test_illegal_transition_raises(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2))
        with pytest.raises(JobStateError):
            rec.transition(JobState.COMPLETED)  # queued cannot jump to completed

    def test_resume_clears_interruption_state(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2))
        rec.transition(JobState.RUNNING)
        rec.cancel_event.set()
        rec.error = "preempted"
        rec.transition(JobState.PREEMPTED)
        assert rec.done.is_set()
        rec.transition(JobState.QUEUED)
        assert not rec.done.is_set()
        assert not rec.cancel_event.is_set()
        assert rec.error is None


# -- the service --------------------------------------------------------------


class TestServiceSolves:
    def test_submit_solves_golden_energy(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g")
            result = svc.result(job.key, timeout=300)
            assert abs(result["energy"] - GOLDEN_H2) < 1e-8
            assert result["converged"]
            # per-iteration telemetry streamed into the record and onto disk
            events = svc.iterations(job.key)
            assert events and {"energy", "residual_norm"} <= set(events[0])
            jsonl = svc.executor.telemetry_path(job.key)
            lines = [json.loads(ln) for ln in open(jsonl) if ln.strip()]
            assert len(lines) == len(events)
            # the journal survives on disk
            assert os.path.exists(svc._journal_path(job.key))

    def test_identical_submissions_dedupe_to_one_solve(self, workdir, water):
        # more submitters and pool threads than cores, and a short switch
        # interval, so a check-then-act race in submit would fork a solve
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with FCIService(workdir, max_workers=4) as svc:
                start = threading.Barrier(8)
                records = []

                def submit():
                    start.wait(60)
                    records.append(svc.submit(molecule=water, basis="sto-3g"))

                threads = [threading.Thread(target=submit) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60)
                    assert not t.is_alive()
                first = records[0]
                assert len(records) == 8 and all(rec is first for rec in records)
                assert first.deduped == 7
                result = svc.result(first.key, timeout=300)
                assert abs(result["energy"] - GOLDEN_H2O) < 1e-8
                assert svc.executor.solves == 1  # one solve for eight submissions
        finally:
            sys.setswitchinterval(switch)

    def test_result_cache_hit_and_warm_resolve_are_bitwise_identical(
        self, workdir, h2
    ):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g")
            cold = svc.result(job.key, timeout=300)
            cold_vec = np.array(svc.vector(job.key))

            # resubmission: served from the result cache, no new solve
            again = svc.submit(molecule=h2, basis="sto-3g")
            assert again.cache_hit
            assert again.result["energy"] == cold["energy"]  # bitwise
            assert svc.executor.solves == 1

            # force=True re-solves on the cached workspace (plan-cache hit):
            # the warm solve must be bitwise-identical to the cold one
            forced = svc.submit(molecule=h2, basis="sto-3g", force=True)
            warm = svc.result(forced.key, timeout=300)
            assert svc.executor.solves == 2
            assert warm["workspace_hit"] is True
            assert warm["energy"] == cold["energy"]  # bitwise
            assert np.array_equal(svc.vector(job.key), cold_vec)  # bitwise

    def test_workspace_shared_across_solver_configs(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            auto = svc.submit(molecule=h2, basis="sto-3g", method="auto")
            dav = svc.submit(molecule=h2, basis="sto-3g", method="davidson")
            assert auto.key != dav.key
            e_auto = svc.result(auto.key, timeout=300)["energy"]
            res_dav = svc.result(dav.key, timeout=300)
            assert res_dav["workspace_hit"] is True  # same space digest
            assert abs(e_auto - res_dav["energy"]) < 1e-8
            assert svc.cache.stats()["workspace_hits"] >= 1


class TestPreemptionAndResume:
    def test_preempted_then_resumed_matches_uninterrupted(
        self, workdir, water, water_reference
    ):
        e_ref, v_ref = water_reference
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=water, basis="sto-3g", preempt_after=3)
            rec = svc.wait(job.key, timeout=300)
            assert rec.state == JobState.PREEMPTED
            status = svc.status(job.key)
            assert status["checkpoint"]["iteration"] == 3
            svc.resume(job.key)
            result = svc.result(job.key, timeout=300)
            assert abs(result["energy"] - e_ref) <= 1e-10
            assert np.array_equal(svc.vector(job.key), v_ref)

    def test_timeout_then_resume_without_budget(self, workdir, water, water_reference):
        e_ref, _ = water_reference
        with FCIService(workdir, max_workers=1) as svc:
            # a zero budget trips at the very first iteration checkpoint
            job = svc.submit(molecule=water, basis="sto-3g", timeout=0.0)
            rec = svc.wait(job.key, timeout=300)
            assert rec.state == JobState.TIMED_OUT
            svc.resume(job.key, timeout=None)  # lift the budget for the retry
            result = svc.result(job.key, timeout=300)
            assert abs(result["energy"] - e_ref) <= 1e-10

    def test_cancelled_jobs_resume_to_the_uninterrupted_energy(
        self, workdir, water, h2, water_reference
    ):
        e_ref, v_ref = water_reference
        gate = Gate()
        with FCIService(workdir, max_workers=1, checkpoint_faults=gate) as svc:
            running = svc.submit(molecule=water, basis="sto-3g")
            assert gate.entered.wait(60)
            queued = svc.submit(molecule=h2, basis="sto-3g")  # the one thread is busy
            assert svc.get(queued.key).state == JobState.QUEUED
            assert svc.cancel(queued.key) == JobState.CANCELLED
            assert svc.cancel(running.key) == JobState.RUNNING  # preempts at next save
            gate.release.set()
            assert svc.wait(running.key, timeout=300).state == JobState.PREEMPTED
            assert svc.get(queued.key).state == JobState.CANCELLED
            assert svc.executor.solves == 0

            svc.resume(queued.key)
            svc.resume(running.key)
            assert abs(svc.result(queued.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
            assert abs(svc.result(running.key, timeout=300)["energy"] - e_ref) <= 1e-10
            assert np.array_equal(svc.vector(running.key), v_ref)

    def test_close_preempts_and_a_new_service_continues(
        self, workdir, water, water_reference
    ):
        e_ref, _ = water_reference
        gate = Gate()
        svc = FCIService(workdir, max_workers=1, checkpoint_faults=gate)
        job = svc.submit(molecule=water, basis="sto-3g")
        assert gate.entered.wait(60)
        closer = threading.Thread(target=svc.close)
        closer.start()
        wait_for(lambda: svc.get(job.key).cancel_event.is_set())
        gate.release.set()
        closer.join(60)
        assert not closer.is_alive()
        assert svc.get(job.key).state == JobState.PREEMPTED
        with pytest.raises(RuntimeError, match="closed"):
            svc.resume(job.key)

        with FCIService(workdir, max_workers=1) as svc2:
            assert svc2.get(job.key).state == JobState.PREEMPTED
            svc2.resume(job.key)
            assert abs(svc2.result(job.key, timeout=300)["energy"] - e_ref) <= 1e-10


class TestValidation:
    def test_invalid_specs_and_keys_fail_fast(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            with pytest.raises(ValueError, match="method"):
                svc.submit(molecule=h2, basis="sto-3g", method="nope")
            with pytest.raises(ValueError, match="algorithm|kernel"):
                svc.submit(molecule=h2, basis="sto-3g", algorithm="nope")
            with pytest.raises(KeyError):
                svc.status("not-a-job")

    def test_stats_shape(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g")
            svc.wait(job.key, timeout=300)
            stats = svc.stats()
            assert stats["jobs"] == {JobState.COMPLETED: 1}
            assert stats["solves_executed"] == 1
            assert stats["cache"]["workspaces"] == 1


class TestClientSurface:
    def test_a_spec_dict_or_a_leading_molecule_names_the_same_job(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(h2, method="davidson")
            svc.wait(job.key, timeout=300)
            again = svc.submit(spec_for(h2, method="davidson").to_dict())
            assert again is job and again.cache_hit

    def test_submit_needs_exactly_one_description(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            with pytest.raises(ValueError, match="not both"):
                svc.submit(spec_for(h2), method="olsen")
            with pytest.raises(ValueError, match="needs a JobSpec"):
                svc.submit()
            assert svc.stats()["jobs"] == {}

    def test_result_of_an_interrupted_job_names_its_state(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g", preempt_after=1)
            with pytest.raises(RuntimeError, match="preempted"):
                svc.result(job.key, timeout=300)
            with pytest.raises(KeyError, match="no cached result"):
                svc.vector(job.key)

    def test_wait_times_out_on_a_queued_job(self, workdir, h2, heh_plus):
        gate = Gate()
        with FCIService(workdir, max_workers=1, checkpoint_faults=gate) as svc:
            svc.submit(molecule=h2, basis="sto-3g")  # holds the one thread
            assert gate.entered.wait(60)
            queued = svc.submit(molecule=heh_plus, basis="sto-3g")
            with pytest.raises(TimeoutError, match="still queued"):
                svc.wait(queued.key, timeout=0.05)
            gate.release.set()
            assert svc.wait(queued.key, timeout=300).state == JobState.COMPLETED

    def test_resubmitting_an_interrupted_job_continues_it(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g", preempt_after=1)
            assert svc.wait(job.key, timeout=300).state == JobState.PREEMPTED
            again = svc.submit(molecule=h2, basis="sto-3g")
            assert again is job
            assert abs(svc.result(job.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
            assert job.attempts == 2
            # the durable artifact is now the cached result, not the checkpoint
            assert not os.path.exists(svc.executor.checkpoint_path(job.key))
            assert "checkpoint" not in svc.status(job.key)

    def test_resume_keeps_the_budget_unless_told_otherwise(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g", timeout=0.0)
            assert svc.wait(job.key, timeout=300).state == JobState.TIMED_OUT
            svc.resume(job.key)
            assert svc.wait(job.key, timeout=300).state == JobState.TIMED_OUT
            assert job.timeout == 0.0
            svc.resume(job.key, timeout=None)
            assert abs(svc.result(job.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
            assert job.timeout is None and job.attempts == 3

    def test_resuming_a_completed_job_solves_it_again_bitwise(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g")
            first = svc.result(job.key, timeout=300)["energy"]
            svc.resume(job.key)
            assert svc.result(job.key, timeout=300)["energy"] == first
            assert svc.executor.solves == 2

    def test_a_closed_service_serves_its_cache_but_solves_nothing(
        self, workdir, h2, heh_plus
    ):
        svc = FCIService(workdir, max_workers=1)
        job = svc.submit(molecule=h2, basis="sto-3g")
        svc.wait(job.key, timeout=300)
        svc.close()
        assert svc.submit(molecule=h2, basis="sto-3g").cache_hit
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(molecule=heh_plus, basis="sto-3g")
        assert svc.stats()["solves_executed"] == 1

    def test_telemetry_events_are_tagged_with_their_job(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g")
            n_iterations = svc.result(job.key, timeout=300)["n_iterations"]
            events = svc.iterations(job.key)
            assert {e["job"] for e in events} == {job.key}
            assert len(events) >= n_iterations
            assert svc.status(job.key)["n_events"] == len(events)


class TestDurability:
    def test_restart_recovers_journaled_jobs(
        self, workdir, water, h2, water_reference
    ):
        e_ref, _ = water_reference
        # a process whose one thread is inside a solve, with a second job
        # queued behind it, when a new service opens the same workdir
        gate = Gate()
        svc1 = FCIService(workdir, max_workers=1, checkpoint_faults=gate)
        running = svc1.submit(molecule=water, basis="sto-3g")
        assert gate.entered.wait(60)
        queued = svc1.submit(molecule=h2, basis="sto-3g")

        svc2 = FCIService(workdir, max_workers=1)
        try:
            assert svc2.recovery == {"readopted": 2, "skipped_journals": 0}
            for key in (running.key, queued.key):
                rec = svc2.get(key)
                assert rec.state == JobState.PREEMPTED
                assert rec.error == "server restarted"
            # retire the old process before the new one touches the jobs
            closer = threading.Thread(target=svc1.close)
            closer.start()
            wait_for(lambda: svc1.get(running.key).cancel_event.is_set())
            gate.release.set()
            closer.join(60)
            assert not closer.is_alive()

            svc2.resume(running.key)
            svc2.resume(queued.key)
            assert abs(svc2.result(running.key, timeout=300)["energy"] - e_ref) <= 1e-10
            assert abs(svc2.result(queued.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
        finally:
            svc2.close()

    def test_resume_refuses_a_journaled_spec_that_no_longer_builds(
        self, workdir, h2, heh_plus
    ):
        # a workdir written by an older version may journal a method this
        # one no longer registers: resume must reject it the way submit
        # would, not hand it to a worker to fail there
        with FCIService(workdir, max_workers=1) as svc1:
            job = svc1.submit(molecule=h2, basis="sto-3g", timeout=0.0)
            assert svc1.wait(job.key, timeout=300).state == JobState.TIMED_OUT
        journal = workdir / "jobs" / f"{job.key}.json"
        data = json.loads(journal.read_text())
        data["spec"]["method"] = "cdfci"
        journal.write_text(json.dumps(data))

        svc2 = FCIService(workdir, max_workers=1)
        try:
            with pytest.raises(ValueError, match="auto, davidson, olsen, olsen-damped"):
                svc2.resume(job.key)
            rec = svc2.get(job.key)
            assert rec.state == JobState.TIMED_OUT
            assert json.loads(journal.read_text())["state"] == JobState.TIMED_OUT
            fresh = svc2.submit(molecule=heh_plus, basis="sto-3g")
            assert svc2.wait(fresh.key, timeout=300).state == JobState.COMPLETED
            assert svc2.stats()["solves_executed"] == 1
        finally:
            svc2.close()

    def test_resume_refuses_a_journaled_store_that_no_longer_exists(
        self, workdir, h2
    ):
        # the store kind is checked by the same validate() as the method
        with FCIService(workdir, max_workers=1) as svc1:
            job = svc1.submit(molecule=h2, basis="sto-3g", timeout=0.0)
            assert svc1.wait(job.key, timeout=300).state == JobState.TIMED_OUT
        journal = workdir / "jobs" / f"{job.key}.json"
        data = json.loads(journal.read_text())
        data["spec"]["vector_store"] = "sparse"
        journal.write_text(json.dumps(data))

        with FCIService(workdir, max_workers=1) as svc2:
            with pytest.raises(ValueError, match="one of dense, mmap; got 'sparse'"):
                svc2.resume(job.key)
            assert svc2.get(job.key).state == JobState.TIMED_OUT
            assert svc2.stats()["solves_executed"] == 0

    def test_journal_naming_an_unbuildable_field_is_refused_by_name(
        self, workdir, h2, caplog
    ):
        with FCIService(workdir, max_workers=1) as svc1:
            job = svc1.submit(molecule=h2, basis="sto-3g", timeout=0.0)
            svc1.wait(job.key, timeout=300)
        journal = workdir / "jobs" / f"{job.key}.json"
        good = json.loads(journal.read_text())
        for broken, field in (
            ({**good, "lane": "gpu"}, "lane"),
            ({**good, "spec": {**good["spec"], "n_roots": 3}}, "n_roots"),
            ({**good, "state": "paused"}, "paused"),
        ):
            with pytest.raises(ValueError, match=field):
                JobRecord.from_journal(broken)
            journal.write_text(json.dumps(broken))
            caplog.clear()
            with FCIService(workdir, max_workers=1) as svc2:
                assert svc2.recovery["skipped_journals"] == 1
                with pytest.raises(KeyError):
                    svc2.get(job.key)
            assert field in caplog.text

    def test_crash_on_injected_io_error_then_restart_and_resume(
        self, workdir, water, water_reference
    ):
        """The satellite crash-resume drill, through the full service path.

        Seeded checkpoint I/O faults (repro.faults) kill the solve mid-run
        after at least one good checkpoint; a *new* service instance on the
        same workdir adopts the failed job and resumes it from the surviving
        checkpoint to the uninterrupted answer.
        """
        e_ref, v_ref = water_reference
        injector = FaultInjector(FaultPlan(io_error=0.3, seed=0))
        svc1 = FCIService(workdir, max_workers=1, checkpoint_faults=injector)
        try:
            job = svc1.submit(molecule=water, basis="sto-3g")
            rec = svc1.wait(job.key, timeout=300)
            assert rec.state == JobState.FAILED
            assert "I/O error" in rec.error
            # the crash left a durable earlier checkpoint behind
            ckpt = svc1.executor.checkpoint_path(job.key)
            assert os.path.exists(ckpt)
            assert injector.counts().get("faults.injected.io_error", 0) >= 1
        finally:
            svc1.close()

        # restart: a fresh, fault-free service on the same durable state
        svc2 = FCIService(workdir, max_workers=1)
        try:
            assert svc2.get(job.key).state == JobState.FAILED
            svc2.resume(job.key)
            result = svc2.result(job.key, timeout=300)
            assert abs(result["energy"] - e_ref) <= 1e-10
            assert np.array_equal(svc2.vector(job.key), v_ref)
        finally:
            svc2.close()

"""End-to-end tests of ``repro.service``: the FCI job server.

Covers the acceptance criteria of the service tentpole:

* two identical submissions dedupe onto one solve (content-addressed keys),
* a preempted-then-resumed job reproduces the uninterrupted energy to
  1e-10 (observed bitwise-equal),
* a result-cache hit and a forced warm re-solve (plan-cache hit) are
  bitwise-identical to the cold solve on the golden-energy problems,
* the queue rejects on backpressure and honors priority tiers,
* a job killed mid-solve by injected checkpoint I/O errors is recovered
  by a *restarted* service and resumed to the uninterrupted answer.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.service import (
    FCIService,
    JobQueue,
    JobRecord,
    JobSpec,
    JobState,
    JobStateError,
    QueueFullError,
)

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


class TestJobQueue:
    def test_priority_then_fifo_order(self):
        q = JobQueue(maxsize=10)
        q.push("batch-1", 2)
        q.push("high-1", 0)
        q.push("normal-1", 1)
        q.push("high-2", 0)
        assert [q.pop() for _ in range(4)] == ["high-1", "high-2", "normal-1", "batch-1"]

    def test_backpressure_raises_queue_full(self):
        q = JobQueue(maxsize=2)
        q.push("a", 1)
        q.push("b", 1)
        with pytest.raises(QueueFullError):
            q.push("c", 1)

    def test_remove_and_timeout_pop(self):
        q = JobQueue(maxsize=4)
        q.push("a", 1)
        assert q.remove("a")
        assert not q.remove("a")
        assert q.pop(timeout=0.01) is None


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
        svc = FCIService(workdir, max_workers=2, autostart=False)
        try:
            first = svc.submit(molecule=water, basis="sto-3g")
            second = svc.submit(molecule=water, basis="sto-3g")
            assert second is first
            assert first.deduped == 1
            svc.start()
            result = svc.result(first.key, timeout=300)
            assert abs(result["energy"] - GOLDEN_H2O) < 1e-8
            assert svc.executor.solves == 1  # one solve for two submissions
        finally:
            svc.close()

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

    def test_cancel_queued_then_resume(self, workdir, h2):
        svc = FCIService(workdir, max_workers=1, autostart=False)
        try:
            job = svc.submit(molecule=h2, basis="sto-3g")
            assert svc.cancel(job.key) == JobState.CANCELLED
            svc.start()
            svc.resume(job.key)
            assert abs(svc.result(job.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
        finally:
            svc.close()

    def test_stop_preempts_and_restart_continues(self, workdir, water, water_reference):
        e_ref, _ = water_reference
        svc = FCIService(workdir, max_workers=1)
        try:
            job = svc.submit(molecule=water, basis="sto-3g", preempt_after=2)
            svc.wait(job.key, timeout=300)
            svc.stop()  # fleet down; queue refuses pushes while stopped
            svc.start()  # ...and reopens on restart
            svc.resume(job.key)
            assert abs(svc.result(job.key, timeout=300)["energy"] - e_ref) <= 1e-10
        finally:
            svc.close()


class TestSchedulingPolicies:
    def test_priority_tiers_order_execution(self, workdir, h2, heh_plus, water):
        svc = FCIService(workdir, max_workers=1, autostart=False)
        try:
            batch = svc.submit(molecule=h2, basis="sto-3g", priority="batch")
            high = svc.submit(molecule=water, basis="sto-3g", priority="high")
            normal = svc.submit(molecule=heh_plus, basis="sto-3g", priority="normal")
            svc.start()
            for rec in (batch, high, normal):
                svc.wait(rec.key, timeout=300)
            assert svc.scheduler.execution_order == [high.key, normal.key, batch.key]
        finally:
            svc.close()

    def test_queue_full_rejects_submission(self, workdir, h2, water):
        svc = FCIService(workdir, max_workers=1, queue_size=1, autostart=False)
        try:
            kept = svc.submit(molecule=h2, basis="sto-3g")
            with pytest.raises(QueueFullError):
                svc.submit(molecule=water, basis="sto-3g")
            # the rejected job leaves no record behind; the first survives
            assert [r["key"] for r in svc.jobs()] == [kept.key]
            svc.start()
            assert abs(svc.result(kept.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
        finally:
            svc.close()

    def test_invalid_specs_and_keys_fail_fast(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            with pytest.raises(ValueError, match="method"):
                svc.submit(molecule=h2, basis="sto-3g", method="nope")
            with pytest.raises(ValueError, match="algorithm|kernel"):
                svc.submit(molecule=h2, basis="sto-3g", algorithm="nope")
            with pytest.raises(ValueError, match="priority"):
                svc.submit(molecule=h2, basis="sto-3g", priority="sometime")
            with pytest.raises(KeyError):
                svc.status("not-a-job")

    def test_stats_shape(self, workdir, h2):
        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(molecule=h2, basis="sto-3g")
            svc.wait(job.key, timeout=300)
            stats = svc.stats()
            assert stats["jobs"] == {JobState.COMPLETED: 1}
            assert stats["solves_executed"] == 1
            assert "shm" in stats["backends_available"]
            assert stats["cache"]["workspaces"] == 1


class TestDurability:
    def test_restart_recovers_journaled_jobs(self, workdir, water, water_reference):
        e_ref, _ = water_reference
        # a service that dies with the job still queued (never stopped cleanly)
        svc1 = FCIService(workdir, max_workers=1, autostart=False)
        job = svc1.submit(molecule=water, basis="sto-3g")
        del svc1  # no stop(): simulates the process dying

        svc2 = FCIService(workdir, max_workers=1)
        try:
            rec = svc2.get(job.key)
            assert rec.state == JobState.PREEMPTED
            assert rec.error == "server restarted"
            svc2.resume(job.key)
            assert abs(svc2.result(job.key, timeout=300)["energy"] - e_ref) <= 1e-10
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
        svc1 = FCIService(workdir, max_workers=1, autostart=False)
        job = svc1.submit(molecule=h2, basis="sto-3g")
        del svc1  # dies with the job still queued
        journal = workdir / "jobs" / f"{job.key}.json"
        data = json.loads(journal.read_text())
        data["spec"]["vector_store"] = "sparse"
        journal.write_text(json.dumps(data))

        svc2 = FCIService(workdir, max_workers=1)
        try:
            assert svc2.get(job.key).state == JobState.PREEMPTED
            with pytest.raises(ValueError, match="one of dense, mmap; got 'sparse'"):
                svc2.resume(job.key)
            assert svc2.get(job.key).state == JobState.PREEMPTED
            assert svc2.stats()["solves_executed"] == 0
        finally:
            svc2.close()

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

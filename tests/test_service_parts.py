"""Unit tests of the service's parts, without a solve.

* :class:`JobSpec` digests: which fields move the job key, which move the
  CI-space key, and how option values are canonicalized;
* :class:`JobRecord`: the lifecycle's bookkeeping and the journal round
  trip a restart depends on;
* :class:`ArtifactCache`: the LRU workspace tier and the on-disk result
  tier;
* :class:`ServiceCheckpointer`: cancellation, deadline and deterministic
  preemption each save the state before they interrupt.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time

import numpy as np
import pytest

from repro.core.checkpoint import Checkpointer, CheckpointState
from repro.service import (
    ArtifactCache,
    JobPreempted,
    JobRecord,
    JobSpec,
    JobState,
    JobStateError,
    JobTimeout,
    ServiceCheckpointer,
    Workspace,
)


def spec_for(mol, **options) -> JobSpec:
    return JobSpec.from_molecule(mol, "sto-3g", **options)


# -- JobSpec digests ----------------------------------------------------------


class TestJobSpecDigests:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("charge", 1),
            ("multiplicity", 3),
            ("basis", "6-31g"),
            ("frozen_core", 1),
            ("n_active", 2),
            ("point_group", "d2h"),
            ("wavefunction_irrep", "b1u"),
        ],
    )
    def test_every_space_field_moves_both_keys(self, h2, field, value):
        base = spec_for(h2)
        moved = dataclasses.replace(base, **{field: value})
        assert moved.space_key != base.space_key
        assert moved.job_key != base.job_key

    @pytest.mark.parametrize(
        "field, value",
        [
            ("algorithm", "moc"),
            ("method", "olsen"),
            ("energy_tol", 1e-8),
            ("residual_tol", 1e-6),
            ("max_iterations", 10),
            ("olsen_step", 0.5),
            ("vector_store", "mmap"),
        ],
    )
    def test_solver_fields_move_the_job_key_only(self, h2, field, value):
        base = spec_for(h2)
        moved = dataclasses.replace(base, **{field: value})
        assert moved.job_key != base.job_key
        assert moved.space_key == base.space_key

    def test_kernel_aliases_share_one_job(self, h2):
        keys = {spec_for(h2, kernel=k).job_key for k in (None, "dgemm", "compiled")}
        assert keys == {spec_for(h2).job_key}

    def test_a_kernel_outside_the_dgemm_sweep_is_refused(self, h2):
        with pytest.raises(ValueError, match="kernel must be"):
            spec_for(h2, kernel="moc")

    def test_json_numbers_are_canonicalized(self, h2):
        data = spec_for(h2).to_dict()
        # what a hand-written or re-encoded spec may carry instead of the
        # canonical types: ints for floats and floats for ints
        data.update(charge=0.0, spin_penalty=0, max_iterations=60.0)
        respec = JobSpec.from_dict(json.loads(json.dumps(data)))
        assert isinstance(respec.charge, int)
        assert isinstance(respec.spin_penalty, float)
        assert isinstance(respec.max_iterations, int)
        assert respec.job_key == spec_for(h2).job_key

    def test_store_kind_string_and_dict_stay_distinct(self, h2):
        bare = spec_for(h2, vector_store="mmap")
        full = spec_for(h2, vector_store={"kind": "mmap"})
        assert bare.job_key != full.job_key
        assert bare.solver_kwargs()["vector_store"] == "mmap"
        assert full.solver_kwargs()["vector_store"] == {"kind": "mmap"}
        assert JobSpec.from_dict(full.to_dict()) == full

    def test_label_defaults_to_the_molecule_name(self, h2):
        assert spec_for(h2).label == "H2"
        assert spec_for(h2, label="bond scan 1").label == "bond scan 1"

    def test_molecule_round_trips_the_problem(self, heh_plus):
        spec = spec_for(heh_plus)
        mol = spec.molecule()
        assert (mol.charge, mol.multiplicity, mol.name) == (1, 1, "HeH+")
        assert JobSpec.from_molecule(mol, "sto-3g") == spec

    def test_repr_names_the_job(self, h2):
        spec = spec_for(h2, method="davidson")
        assert repr(spec) == f"JobSpec(H2/sto-3g, method=davidson, key={spec.job_key[:12]})"


# -- JobRecord ----------------------------------------------------------------


class TestJobRecord:
    def test_an_unknown_state_is_refused(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2))
        with pytest.raises(JobStateError, match="unknown job state"):
            rec.transition("paused")
        assert rec.state == JobState.QUEUED

    def test_terminal_states_stamp_the_finish_and_release_waiters(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2))
        rec.transition(JobState.RUNNING)
        assert rec.started_at is not None and rec.finished_at is None
        assert not rec.done.is_set()
        rec.result = {"energy": -1.5}
        rec.transition(JobState.COMPLETED)
        assert rec.finished_at >= rec.started_at
        assert rec.done.is_set()
        assert rec.energy == -1.5

    def test_requeue_clears_the_preemption_hook(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2), preempt_after=3)
        rec.transition(JobState.RUNNING)
        rec.transition(JobState.PREEMPTED)
        rec.transition(JobState.QUEUED)
        assert rec.preempt_after is None
        assert rec.finished_at is None

    def test_journal_round_trip_keeps_the_lifecycle(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2, method="olsen"), timeout=12.5)
        rec.transition(JobState.RUNNING)
        rec.attempts = 2
        rec.deduped = 3
        rec.error = "timed out at iteration 4 (checkpoint saved)"
        rec.transition(JobState.TIMED_OUT)
        back = JobRecord.from_journal(json.loads(json.dumps(rec.to_journal())))
        assert back.summary() == rec.summary()
        assert back.spec == rec.spec
        assert back.done.is_set()

    def test_an_active_journal_is_not_done(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2))
        back = JobRecord.from_journal(rec.to_journal())
        assert back.state == JobState.QUEUED
        assert not back.done.is_set()

    def test_summary_carries_no_vector_or_geometry(self, h2):
        rec = JobRecord(key="k", spec=spec_for(h2))
        rec.events.extend([{"energy": -1.0}, {"energy": -1.1}])
        summary = rec.summary()
        assert "spec" not in summary and "events" not in summary
        assert summary["label"] == "H2"
        assert summary["n_events"] == 2
        assert rec.energy is None


# -- ArtifactCache ------------------------------------------------------------


def _workspace(key: str) -> Workspace:
    return Workspace(space_key=key, scf=None, mo=None, problem=None)


def _never():
    raise AssertionError("a workspace hit must not rebuild")


class TestArtifactCache:
    def test_a_workspace_hit_does_not_rebuild(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built, hit = cache.workspace("s1", lambda: _workspace("s1"))
        assert not hit
        again, hit = cache.workspace("s1", _never)
        assert hit and again is built
        stats = cache.stats()
        assert (stats["workspace_hits"], stats["workspace_misses"]) == (1, 1)
        assert stats["workspaces"] == 1

    def test_the_workspace_tier_evicts_the_least_recently_used(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        n = ArtifactCache.MAX_WORKSPACES
        for i in range(n):
            cache.workspace(f"s{i}", lambda i=i: _workspace(f"s{i}"))
        cache.workspace("s0", _never)  # s0 is now the most recent
        cache.workspace("new", lambda: _workspace("new"))
        assert cache.counts["workspace_evictions"] == 1
        assert cache.stats()["workspaces"] == n
        cache.workspace("s0", _never)  # kept
        _, hit = cache.workspace("s1", lambda: _workspace("s1"))
        assert not hit  # the least recently used one went

    def test_a_result_outlives_its_cache(self, tmp_path):
        vec = np.random.default_rng(0).standard_normal((4, 3))
        ArtifactCache(tmp_path).put_result("k", {"energy": -1.25}, vec)
        meta, back = ArtifactCache(tmp_path).get_result("k")
        assert meta == {"energy": -1.25}
        assert np.array_equal(back, vec)  # bitwise

    def test_an_absent_result_is_a_counted_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get_result("nothing") is None
        assert cache.counts["result_misses"] == 1
        assert cache.counts["result_corrupt"] == 0

    def test_drop_result_forgets_memory_and_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_result("k", {"energy": -1.0}, np.ones(3))
        cache.drop_result("k")
        cache.drop_result("never-stored")  # benign
        assert cache.get_result("k") is None
        assert ArtifactCache(tmp_path).get_result("k") is None

    def test_a_result_of_another_version_is_dropped(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        vec = np.ones(3)
        header = {"version": 99, "meta": {}, "shape": [3], "crc32": 0}
        path = cache._result_path("k")
        with open(path, "wb") as f:
            np.savez(
                f,
                vector=vec,
                header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            )
        assert cache.get_result("k") is None
        assert cache.counts["result_corrupt"] == 1


# -- ServiceCheckpointer ------------------------------------------------------


def _state(iteration: int) -> CheckpointState:
    return CheckpointState(
        method="auto",
        iteration=iteration,
        n_sigma=iteration,
        vector=np.full(4, float(iteration)),
        energies=[-1.0] * iteration,
    )


class TestServiceCheckpointer:
    def test_without_an_interrupt_it_saves_every_iteration(self, tmp_path):
        cp = ServiceCheckpointer(tmp_path / "c.npz", cancel_event=threading.Event())
        assert cp.maybe_save(_state(1))
        assert cp.maybe_save(_state(2))
        assert Checkpointer(cp.path).load().iteration == 2

    def test_cancellation_saves_then_preempts(self, tmp_path):
        cancel = threading.Event()
        cp = ServiceCheckpointer(tmp_path / "c.npz", cancel_event=cancel)
        cp.maybe_save(_state(1))
        cancel.set()
        with pytest.raises(JobPreempted, match="iteration 2"):
            cp.maybe_save(_state(2))
        assert Checkpointer(cp.path).load().iteration == 2

    def test_a_passed_deadline_saves_then_times_out(self, tmp_path):
        cp = ServiceCheckpointer(tmp_path / "c.npz", deadline=time.monotonic() - 1.0)
        with pytest.raises(JobTimeout, match="iteration 1"):
            cp.maybe_save(_state(1))
        assert Checkpointer(cp.path).load().iteration == 1

    def test_preempt_after_fires_at_that_iteration(self, tmp_path):
        cp = ServiceCheckpointer(tmp_path / "c.npz", preempt_after=3)
        assert cp.maybe_save(_state(1))
        assert cp.maybe_save(_state(2))
        with pytest.raises(JobPreempted, match="iteration 3"):
            cp.maybe_save(_state(3))
        state = Checkpointer(cp.path).load()
        assert state.iteration == 3
        assert np.array_equal(state.vector, np.full(4, 3.0))

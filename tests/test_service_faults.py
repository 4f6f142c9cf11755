"""Service recovery paths, driven by breaking the files on disk.

Pins the corruption discipline of every durable reader -
``Checkpointer.peek/load/restore``, ``ArtifactCache`` and the job-journal
reader turn damage into a counted miss, never a crash and never a served
garbage value - and the service's answer to each: a torn journal is
skipped and counted on restart, a rotten result file is a counted miss
followed by a re-solve, and a telemetry stream that cannot be written
does not kill the solve.  Also audits two JobRecord lifecycle races:
cancel-after-complete and double resume.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.checkpoint import Checkpointer, CheckpointError, CheckpointState
from repro.service import FCIService, JobSpec, JobState
from repro.service.cache import ArtifactCache
from tests.helpers import Gate

GOLDEN_H2 = -1.137275943785  # tests/test_golden_energies.py, 1e-8


def spec_for(mol, **options) -> JobSpec:
    return JobSpec.from_molecule(mol, "sto-3g", **options)


# -- durable readers under corruption -----------------------------------------


class TestCheckpointerCorruption:
    def _saved(self, tmp_path):
        cp = Checkpointer(tmp_path / "c.npz")
        cp.save(
            CheckpointState(
                method="auto",
                iteration=3,
                n_sigma=3,
                vector=np.arange(8.0),
                energies=[-1.0, -1.1, -1.11],
            )
        )
        return cp

    def test_truncated_file(self, tmp_path):
        cp = self._saved(tmp_path)
        blob = open(cp.path, "rb").read()
        with open(cp.path, "wb") as f:
            f.write(blob[: len(blob) // 2])
        assert cp.peek() is None  # miss, not a crash
        with pytest.raises(CheckpointError):
            cp.load()
        assert cp.restore("auto") is None  # degraded to fresh start

    def test_header_only_garbage(self, tmp_path):
        cp = self._saved(tmp_path)
        with open(cp.path, "wb") as f:
            f.write(b"PK\x03\x04")  # a zip magic and nothing else
        assert cp.peek() is None
        assert cp.restore("auto") is None

    def test_crc_mismatch(self, tmp_path):
        cp = self._saved(tmp_path)
        blob = bytearray(open(cp.path, "rb").read())
        blob[-20] ^= 0xFF  # damage inside the vector payload
        with open(cp.path, "wb") as f:
            f.write(bytes(blob))
        # header may still parse; the verified paths must reject it
        with pytest.raises(CheckpointError):
            cp.load()
        assert cp.restore("auto") is None

    def test_peek_failure_is_counted(self, tmp_path):
        from repro.obs import Telemetry

        tel = Telemetry()
        cp = Checkpointer(tmp_path / "c.npz", telemetry=tel)
        cp.save(CheckpointState(method="auto", iteration=1, n_sigma=1, vector=np.ones(4)))
        with open(cp.path, "wb") as f:
            f.write(b"torn")
        assert cp.peek() is None
        assert tel.registry.counter("solver.checkpoint.peek_failed").value == 1


class TestArtifactCacheCorruption:
    def _cache_with_result(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_result("k1", {"energy": -1.5}, np.arange(16.0))
        cache._results_mem.clear()  # force the next get through the disk path
        return cache, cache._result_path("k1")

    @pytest.mark.parametrize("damage", ["truncate", "bitflip", "header_only"])
    def test_damage_is_a_counted_miss(self, tmp_path, damage):
        cache, path = self._cache_with_result(tmp_path)
        blob = bytearray(open(path, "rb").read())
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        elif damage == "header_only":
            blob = blob[:4]
        else:
            # flip a byte *inside the stored vector payload* (zip structure
            # slack is not CRC-protected, so a random offset may be ignored)
            offset = blob.find(np.arange(16.0).tobytes())
            assert offset > 0
            blob[offset + 8] ^= 0x40
        with open(path, "wb") as f:
            f.write(bytes(blob))
        assert cache.get_result("k1") is None
        assert cache.counts["result_corrupt"] == 1
        assert not os.path.exists(path)  # the rotten file is dropped

    def test_intact_result_still_served(self, tmp_path):
        cache, _ = self._cache_with_result(tmp_path)
        meta, vec = cache.get_result("k1")
        assert meta["energy"] == -1.5
        assert np.array_equal(vec, np.arange(16.0))


# -- the service on damaged files ---------------------------------------------


def _solved_workdir(tmp_path, mol):
    """A workdir holding one completed job of ``mol``; returns (dir, key)."""
    workdir = tmp_path / "svc"
    with FCIService(workdir, max_workers=1) as svc:
        job = svc.submit(spec_for(mol))
        assert abs(svc.result(job.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
    return workdir, job.key


class TestTornJournals:
    def test_restart_skips_torn_journal_and_counts_it(self, tmp_path, h2):
        workdir, key = _solved_workdir(tmp_path, h2)
        journal = workdir / "jobs" / f"{key}.json"
        blob = journal.read_bytes()
        journal.write_bytes(blob[: len(blob) // 2])  # a crash mid-write

        with FCIService(workdir, max_workers=1) as svc:
            assert svc.recovery == {"readopted": 0, "skipped_journals": 1}
            with pytest.raises(KeyError):
                svc.get(key)  # never adopted from garbage
            # the job is simply resubmitted - same spec, same key - and its
            # intact result is still served without a solve
            again = svc.submit(spec_for(h2))
            assert again.key == key and again.cache_hit
            assert svc.stats()["solves_executed"] == 0

    def test_intact_journals_unaffected(self, tmp_path, h2):
        workdir, key = _solved_workdir(tmp_path, h2)
        with FCIService(workdir, max_workers=1) as svc:
            assert svc.recovery == {"readopted": 0, "skipped_journals": 0}
            assert svc.get(key).state == JobState.COMPLETED


class TestResultRot:
    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_rotten_result_is_a_counted_miss_then_a_resolve(self, tmp_path, h2, damage):
        workdir, key = _solved_workdir(tmp_path, h2)
        path = workdir / "results" / f"{key}.npz"
        blob = bytearray(path.read_bytes())
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        else:
            with np.load(path) as z:
                offset = blob.find(z["vector"].tobytes())
            assert offset > 0
            blob[offset + 8] ^= 0x40  # one bit inside the stored CI vector
        path.write_bytes(bytes(blob))

        with FCIService(workdir, max_workers=1) as svc:
            resub = svc.submit(spec_for(h2))
            assert resub.key == key
            assert not resub.cache_hit
            assert svc.cache.counts["result_corrupt"] == 1
            assert abs(svc.result(key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
            assert svc.stats()["solves_executed"] == 1


class TestTelemetryStream:
    @pytest.mark.parametrize("blocker", ["directory", "full-disk"])
    def test_unwritable_stream_does_not_kill_the_solve(self, tmp_path, h2, blocker):
        workdir = tmp_path / "svc"
        key = spec_for(h2).job_key
        stream = workdir / "telemetry" / f"{key}.jsonl"
        stream.parent.mkdir(parents=True)
        if blocker == "directory":
            stream.mkdir()  # open() fails
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            stream.symlink_to("/dev/full")  # every write fails with ENOSPC

        with FCIService(workdir, max_workers=1) as svc:
            job = svc.submit(spec_for(h2))
            result = svc.result(job.key, timeout=300)
            assert abs(result["energy"] - GOLDEN_H2) < 1e-8
            events = svc.iterations(job.key)
            assert events  # the in-memory events still flowed
            assert svc.stats()["telemetry_io_errors"] == len(events)


# -- JobRecord lifecycle audit ------------------------------------------------


class TestLifecycleRaces:
    def test_cancel_after_complete_is_benign(self, tmp_path, h2):
        with FCIService(tmp_path / "svc", max_workers=1) as svc:
            job = svc.submit(spec_for(h2))
            svc.wait(job.key, timeout=300)
            assert svc.cancel(job.key) == JobState.COMPLETED  # no transition, no raise
            assert svc.get(job.key).state == JobState.COMPLETED

    def test_double_resume_is_idempotent(self, tmp_path, h2, water):
        gate = Gate()
        with FCIService(tmp_path / "svc", max_workers=1, checkpoint_faults=gate) as svc:
            svc.submit(spec_for(water))  # holds the one thread
            assert gate.entered.wait(60)
            job = svc.submit(spec_for(h2))
            svc.cancel(job.key)
            assert svc.get(job.key).state == JobState.CANCELLED
            first = svc.resume(job.key)
            assert first.state == JobState.QUEUED
            second = svc.resume(job.key)  # already on its way: a no-op
            assert second is first
            assert second.state == JobState.QUEUED
            gate.release.set()
            assert abs(svc.result(job.key, timeout=300)["energy"] - GOLDEN_H2) < 1e-8
            assert first.attempts == 1  # not run twice

"""FCIService: cached, journaled, resumable FCI jobs as a library.

Composes content-addressed job keys (:mod:`.jobs`), the artifact cache
(:mod:`.cache`) and the preemptible executor (:mod:`.executor`) on a
stdlib :class:`~concurrent.futures.ThreadPoolExecutor`:

* **submit** is idempotent: a spec hashing to an in-flight job dedupes
  onto it; one hashing to a cached result returns at once as a cache hit.
* **every job is preemptible**: cancellation, per-job timeouts and
  :meth:`FCIService.close` interrupt at the next solver iteration *after*
  the restart state is durably checkpointed.
* **every job is resumable**: ``resume`` re-enqueues an interrupted job
  and the solver replays the exact iteration sequence from its
  checkpoint - including across restarts, because the job journal (one
  JSON per job under ``<workdir>/jobs``) and the checkpoint files survive
  the process.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.checkpoint import Checkpointer
from ..molecule.geometry import Molecule
from .cache import ArtifactCache
from .executor import JobPreempted, JobTimeout, SolveExecutor
from .jobs import JobRecord, JobSpec, JobState

__all__ = ["FCIService"]

logger = logging.getLogger(__name__)

_KEEP_TIMEOUT = object()  # resume() sentinel: keep the job's existing budget


def _log_runner_error(future) -> None:
    """Surface a failure of the job runner itself (journal I/O, a bug),
    which the future would otherwise hold unread; a solve's own failure is
    already recorded on its job."""
    if not future.cancelled() and future.exception() is not None:
        logger.error("job runner failed", exc_info=future.exception())


class FCIService:
    """A deduplicating, preemptible, resumable FCI job runner.

    Parameters
    ----------
    workdir:
        Durable state root: ``jobs/`` (journal), ``checkpoints/``,
        ``results/`` (artifact cache), ``telemetry/`` (JSON-lines streams).
    max_workers:
        Thread-pool width: how many solves run concurrently.
    checkpoint_faults:
        Optional :class:`repro.faults.FaultInjector` threaded into every
        job's checkpointer - the hook the crash-resume tests use.
    """

    def __init__(self, workdir, *, max_workers: int = 2, checkpoint_faults=None):
        self.workdir = os.fspath(workdir)
        self.jobs_dir = os.path.join(self.workdir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.checkpoint_faults = checkpoint_faults
        self.cache = ArtifactCache(self.workdir)
        self.executor = SolveExecutor(self.cache, self.workdir)
        self._pool = ThreadPoolExecutor(max_workers, thread_name_prefix="fci-job")
        self._records: dict[str, JobRecord] = {}
        self._lock = threading.RLock()
        self._closed = False
        self.recovery = {"readopted": 0, "skipped_journals": 0}
        self._recover()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Preempt every running job at its next iteration and stop the pool.

        Jobs still waiting for a thread are marked PREEMPTED; a later
        service on the same workdir resumes any of them from its journal
        and checkpoint.
        """
        with self._lock:
            self._closed = True
            for rec in self._records.values():
                if rec.state == JobState.RUNNING:
                    rec.cancel_event.set()
        self._pool.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            for rec in self._records.values():
                if rec.state == JobState.QUEUED:
                    rec.transition(JobState.PREEMPTED)
                    rec.error = "service closed"
                    self._journal(rec)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        spec=None,
        *,
        molecule: Molecule | None = None,
        basis: str = "sto-3g",
        timeout: float | None = None,
        force: bool = False,
        preempt_after: int | None = None,
        **solver_options,
    ) -> JobRecord:
        """Submit a job; returns its (possibly pre-existing) record.

        ``spec`` may be a :class:`JobSpec`, a spec dict, or None with
        ``molecule=``/solver options instead.  ``timeout`` is the job's
        wall-clock budget in seconds.  ``force=True`` invalidates any
        cached result and re-solves (still deduping onto an in-flight run
        of the same key).  ``preempt_after`` preempts the job
        deterministically at that iteration (a testing hook).

        Raises :class:`ValueError` for an invalid spec.
        """
        spec = self._coerce_spec(spec, molecule, basis, solver_options)
        self.executor.validate(spec)  # reject unbuildable specs at the door
        key = spec.job_key
        with self._lock:
            rec = self._records.get(key)
            if rec is not None and rec.state in JobState.ACTIVE:
                rec.deduped += 1
                logger.info("deduped submission onto %s job %s", rec.state, key[:12])
                return rec
            cached = None if force else self.cache.get_result(key)
            if cached is not None:
                if rec is None:
                    rec = JobRecord(key=key, spec=spec, state=JobState.COMPLETED)
                    rec.finished_at = time.time()
                    rec.done.set()
                    self._records[key] = rec
                else:
                    rec.deduped += 1
                rec.result = dict(cached[0])
                rec.cache_hit = True
                self._journal(rec)
                logger.info("result-cache hit for job %s", key[:12])
                return rec
            self._check_open()
            if rec is None:
                rec = self._records[key] = JobRecord(key=key, spec=spec)
            else:
                # resubmission of a terminal job (or force on a completed one)
                if force:
                    self.cache.drop_result(key)
                rec.transition(JobState.QUEUED)
                rec.cache_hit = False
                rec.result = None
            rec.timeout = timeout
            rec.preempt_after = preempt_after
            self._enqueue(rec)
            return rec

    def _coerce_spec(self, spec, molecule, basis, solver_options) -> JobSpec:
        if isinstance(spec, JobSpec):
            if molecule is not None or solver_options:
                raise ValueError("pass either a JobSpec or molecule/options, not both")
            return spec
        if isinstance(spec, dict):
            return JobSpec.from_dict(spec)
        if spec is None and molecule is not None:
            return JobSpec.from_molecule(molecule, basis, **solver_options)
        if isinstance(spec, Molecule):
            return JobSpec.from_molecule(spec, basis, **solver_options)
        raise ValueError(
            "submit() needs a JobSpec, a spec dict, or a Molecule (via the "
            "first argument or molecule=)"
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the service is closed; open a new one on the workdir")

    def _enqueue(self, rec: JobRecord) -> None:
        """Journal a QUEUED record and hand it to the pool.

        Every transition to QUEUED submits one future, and a future runs
        the job only if the record is still QUEUED when a thread takes it,
        so a job cancelled while queued leaves a future that does nothing.
        """
        self._journal(rec)
        self._pool.submit(self._run, rec.key).add_done_callback(_log_runner_error)

    def _run(self, key: str) -> None:
        with self._lock:
            rec = self._records[key]
            if rec.state != JobState.QUEUED or self._closed:
                return
            rec.transition(JobState.RUNNING)
            rec.attempts += 1
            self._journal(rec)
        try:
            payload, error = self.executor.execute(rec, faults=self.checkpoint_faults), None
        except Exception as exc:  # preemption, timeout, or a real failure
            payload, error = None, exc
        with self._lock:
            if payload is not None:
                rec.result = payload
                rec.transition(JobState.COMPLETED)
            elif isinstance(error, JobTimeout):
                rec.error = str(error)
                rec.transition(JobState.TIMED_OUT)
            elif isinstance(error, JobPreempted):
                rec.error = str(error)
                rec.transition(JobState.PREEMPTED)
            else:
                rec.error = f"{type(error).__name__}: {error}"
                rec.transition(JobState.FAILED)
                logger.warning("job %s failed: %s", key[:12], rec.error)
            self._journal(rec)

    # -- client surface ------------------------------------------------------
    def get(self, key: str) -> JobRecord:
        with self._lock:
            try:
                return self._records[key]
            except KeyError:
                raise KeyError(f"unknown job {key!r}") from None

    def status(self, key: str) -> dict:
        """Status snapshot; interrupted jobs include their checkpoint header."""
        rec = self.get(key)
        out = rec.summary()
        if rec.state in JobState.RESUMABLE:
            header = Checkpointer(self.executor.checkpoint_path(key)).peek()
            if header:
                out["checkpoint"] = {
                    "iteration": header.get("iteration"),
                    "method": header.get("method"),
                    "last_energy": (header.get("energies") or [None])[-1],
                }
        return out

    def wait(self, key: str, timeout: float | None = None) -> JobRecord:
        """Block until the job reaches a terminal state (or timeout)."""
        rec = self.get(key)
        if not rec.done.wait(timeout):
            raise TimeoutError(f"job {key[:12]} still {rec.state} after {timeout}s")
        return rec

    def result(self, key: str, timeout: float | None = None) -> dict:
        """The result payload, waiting for completion; raises on failure."""
        rec = self.wait(key, timeout)
        if rec.state != JobState.COMPLETED:
            raise RuntimeError(f"job {key[:12]} is {rec.state}: {rec.error}")
        return rec.result

    def vector(self, key: str):
        """The converged CI vector of a completed job (from the cache)."""
        cached = self.cache.get_result(key)
        if cached is None:
            raise KeyError(f"no cached result for job {key!r}")
        return cached[1]

    def iterations(self, key: str) -> list[dict]:
        """Per-iteration telemetry events streamed by the job so far."""
        return list(self.get(key).events)

    def cancel(self, key: str) -> str:
        """Cancel a job: drop it if queued, or preempt it at its next iteration."""
        with self._lock:
            rec = self.get(key)
            if rec.state == JobState.QUEUED:
                rec.transition(JobState.CANCELLED)
                rec.error = "cancelled while queued"
                self._journal(rec)
            elif rec.state == JobState.RUNNING:
                rec.cancel_event.set()  # -> PREEMPTED at the next iteration
            return rec.state

    def resume(self, key: str, *, timeout: float | None = _KEEP_TIMEOUT) -> JobRecord:
        """Re-enqueue an interrupted/failed/cancelled (or completed) job.

        The executor picks the job's checkpoint back up, so the solve
        continues from its last durable iteration rather than starting
        over; the checkpointed energy is honored even when the remaining
        iteration budget is zero.  ``timeout`` replaces the job's budget
        for the retry (None removes it); by default the old one is kept.

        Raises :class:`ValueError`, leaving the record untouched, when the
        journaled spec can no longer be built (e.g. a method this version
        does not register) - the check :meth:`submit` makes at the door.
        """
        with self._lock:
            rec = self.get(key)
            if rec.state == JobState.RUNNING:
                raise RuntimeError(f"job {key[:12]} is running; cancel it first")
            if rec.state == JobState.QUEUED:
                return rec  # double resume is idempotent: already on its way
            self.executor.validate(rec.spec)
            self._check_open()
            if timeout is not _KEEP_TIMEOUT:
                rec.timeout = timeout
            rec.transition(JobState.QUEUED)
            self._enqueue(rec)
            return rec

    def stats(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            for rec in self._records.values():
                by_state[rec.state] = by_state.get(rec.state, 0) + 1
            return {
                "jobs": by_state,
                "solves_executed": self.executor.solves,
                "telemetry_io_errors": self.executor.telemetry_io_errors,
                "recovery": dict(self.recovery),
                "cache": self.cache.stats(),
            }

    # -- durability ----------------------------------------------------------
    def _journal_path(self, key: str) -> str:
        return os.path.join(self.jobs_dir, f"{key}.json")

    def _journal(self, rec: JobRecord) -> None:
        path = self._journal_path(rec.key)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(rec.to_journal(), f)
        os.replace(tmp, path)

    def _recover(self) -> None:
        """Re-adopt journaled jobs after a restart.

        Jobs that were queued or running when the previous process died are
        marked PREEMPTED - their checkpoints (if any) are intact, so
        :meth:`resume` continues them; terminal jobs come back as-is, with
        completed results re-served from the artifact cache.  A journal
        that cannot be read - torn by a crash, or naming a field this
        version cannot build - is skipped with a warning that names the
        problem and counted under ``recovery["skipped_journals"]``, never
        a startup crash.
        """
        for name in sorted(os.listdir(self.jobs_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, name)
            try:
                with open(path) as f:
                    rec = JobRecord.from_journal(json.load(f))
            except Exception as exc:
                logger.warning("skipping unreadable job journal %s: %s", path, exc)
                self.recovery["skipped_journals"] += 1
                continue
            if rec.state in JobState.ACTIVE:
                rec.state = JobState.PREEMPTED
                rec.error = "server restarted"
                rec.finished_at = rec.finished_at or time.time()
                rec.done.set()
                self._journal(rec)
                self.recovery["readopted"] += 1
                logger.info("re-adopted interrupted job %s as preempted", rec.key[:12])
            self._records[rec.key] = rec

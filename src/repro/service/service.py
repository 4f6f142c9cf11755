"""FCIService: the long-running FCI job server, as a programmatic API.

Composes the pieces of this package - content-addressed job keys
(:mod:`.jobs`), the artifact cache (:mod:`.cache`), the bounded priority
queue and worker fleet (:mod:`.scheduler`), and the preemptible executor
(:mod:`.executor`) - into one object with the request lifecycle the
ROADMAP's service item asks for:

* **submit** is idempotent: a spec hashing to an in-flight job dedupes
  onto it; one hashing to a cached result returns instantly as a cache
  hit; a full queue rejects with backpressure semantics.
* **every job is preemptible**: cancellation, per-job timeouts, and
  server shutdown all interrupt at the next solver iteration *after* the
  restart state is durably checkpointed.
* **every job is resumable**: ``resume`` re-enqueues any interrupted job
  and the solver replays the exact iteration sequence from its
  checkpoint - including across full server restarts, because the job
  journal (one JSON per job under ``<workdir>/jobs``) and the checkpoint
  files survive the process.

The HTTP daemon (:mod:`.httpd`) and CLI (:mod:`.cli`) are thin skins over
this class.
"""

from __future__ import annotations

import json
import logging
import os
import time

import threading

from ..molecule.geometry import Molecule
from ..parallel.backend import backend_names
from .cache import ArtifactCache
from .executor import JobPreempted, JobTimeout, SolveExecutor
from .jobs import PRIORITY_TIERS, JobRecord, JobSpec, JobState
from .scheduler import JobQueue, QueueFullError, Scheduler

__all__ = ["FCIService", "QueueFullError"]

logger = logging.getLogger(__name__)

_KEEP_TIMEOUT = object()  # resume() sentinel: keep the job's existing budget


class FCIService:
    """An asynchronous, deduplicating, preemptible FCI job server.

    Parameters
    ----------
    workdir:
        Durable state root: ``jobs/`` (journal), ``checkpoints/``,
        ``results/`` (artifact cache), ``telemetry/`` (JSON-lines streams).
    max_workers:
        Worker-fleet width: how many solves run concurrently.
    queue_size:
        Backpressure bound on *pending* jobs; submissions beyond it raise
        :class:`QueueFullError`.
    default_timeout:
        Wall-clock budget (seconds) applied to jobs submitted without one;
        None means unbounded.
    default_parallel:
        ``FCISolver(parallel=...)`` options applied to jobs whose spec does
        not choose a backend - e.g. ``{"backend": "shm", "n_workers": 4}``
        turns every fleet slot into an shm process-pool front end.
    max_workspaces:
        LRU bound on cached compiled workspaces (plans + integrals).
    checkpoint_faults:
        Optional :class:`repro.faults.FaultInjector` threaded into every
        job's checkpointer - the chaos hook the crash-resume tests use.
    service_faults:
        Optional :class:`repro.faults.ServiceFaultInjector` driving the
        service-layer chaos hooks: worker-thread death mid-solve, result
        corruption after persist, torn journal writes, telemetry-stream
        I/O errors, checkpoint I/O crashes.  None (default) leaves every
        path untouched.
    autostart:
        Start the worker fleet immediately (default).  Tests that need to
        stage the queue deterministically pass False and call
        :meth:`start` themselves.
    """

    def __init__(
        self,
        workdir,
        *,
        max_workers: int = 2,
        queue_size: int = 64,
        default_timeout: float | None = None,
        default_parallel: dict | None = None,
        max_workspaces: int = 8,
        checkpoint_faults=None,
        service_faults=None,
        autostart: bool = True,
    ):
        self.workdir = os.fspath(workdir)
        self.jobs_dir = os.path.join(self.workdir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.default_timeout = default_timeout
        self.checkpoint_faults = checkpoint_faults
        self.service_faults = service_faults
        self.cache = ArtifactCache(
            self.workdir, max_workspaces=max_workspaces, faults=service_faults
        )
        self.executor = SolveExecutor(
            self.cache, self.workdir, default_parallel=default_parallel
        )
        self.queue = JobQueue(maxsize=queue_size)
        self.scheduler = Scheduler(self, self.queue, n_workers=max_workers)
        self._records: dict[str, JobRecord] = {}
        self._lock = threading.RLock()
        self._started_at = time.time()
        self.recovery = {"readopted": 0, "skipped_journals": 0, "reaped": 0}
        self.late_finishes = 0  # outcomes reported for already-terminal jobs
        self._recover()
        if autostart:
            self.start()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Start (or restart) the worker fleet."""
        self.scheduler.start()

    def stop(self, *, preempt: bool = True, timeout: float = 60.0) -> None:
        """Shut the fleet down.

        ``preempt=True`` (default) asks every running job to checkpoint and
        stop at its next iteration, so a subsequent service (or the same
        one after :meth:`start`) can resume it; False lets running solves
        finish before workers exit.
        """
        if preempt:
            with self._lock:
                for rec in self._records.values():
                    if rec.state == JobState.RUNNING:
                        rec.cancel_event.set()
        self.scheduler.stop(wait=True, timeout=timeout)

    def close(self) -> None:
        self.stop(preempt=True)

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
        priority: str | int = "normal",
        timeout: float | None = None,
        force: bool = False,
        preempt_after: int | None = None,
        **solver_options,
    ) -> JobRecord:
        """Submit a job; returns its (possibly pre-existing) record.

        ``spec`` may be a :class:`JobSpec`, a dict (the HTTP payload
        shape), or None with ``molecule=``/solver options instead.
        ``force=True`` invalidates any cached result and re-solves (still
        dedupes onto an in-flight run of the same key).  ``preempt_after``
        is the deterministic chaos hook forwarded to the executor.

        Raises :class:`ValueError` for an invalid spec and
        :class:`QueueFullError` when the queue is at capacity.
        """
        spec = self._coerce_spec(spec, molecule, basis, solver_options)
        self.executor.validate(spec)  # reject unbuildable specs at the door
        tier = self._tier(priority)
        key = spec.job_key
        with self._lock:
            rec = self._records.get(key)
            if rec is not None and rec.state in JobState.ACTIVE:
                rec.deduped += 1
                logger.info("deduped submission onto %s job %s", rec.state, key[:12])
                return rec
            if not force:
                cached = self.cache.get_result(key)
                if cached is not None:
                    meta, _vector = cached
                    if rec is None:
                        rec = JobRecord(key=key, spec=spec, priority=str(priority), tier=tier)
                        rec.state = JobState.COMPLETED
                        rec.finished_at = time.time()
                        rec.done.set()
                        self._records[key] = rec
                    else:
                        rec.deduped += 1
                    rec.result = dict(meta)
                    rec.cache_hit = True
                    self._journal(rec)
                    logger.info("result-cache hit for job %s", key[:12])
                    return rec
            if rec is None:
                rec = JobRecord(key=key, spec=spec, priority=str(priority), tier=tier)
                self._records[key] = rec
            else:
                # resubmission of a terminal job (or force on a completed one)
                if force:
                    self.cache.drop_result(key)
                rec.transition(JobState.QUEUED)
                rec.priority, rec.tier = str(priority), tier
                rec.cache_hit = False
                rec.result = None
            rec.timeout = timeout if timeout is not None else self.default_timeout
            rec.preempt_after = preempt_after
            try:
                self.queue.push(key, tier)
            except QueueFullError:
                # reject-on-full: the record must not linger as QUEUED
                if rec.attempts == 0 and rec.deduped == 0:
                    self._records.pop(key, None)
                else:
                    rec.transition(JobState.PREEMPTED)
                    rec.error = "rejected: queue full"
                    self._journal(rec)
                raise
            self._journal(rec)
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

    @staticmethod
    def _tier(priority: str | int) -> int:
        if isinstance(priority, int):
            return priority
        try:
            return PRIORITY_TIERS[str(priority).lower()]
        except KeyError:
            raise ValueError(
                f"unknown priority {priority!r}; use one of "
                f"{', '.join(sorted(PRIORITY_TIERS))} or an integer tier"
            ) from None

    # -- scheduler callbacks -------------------------------------------------
    def _begin(self, key: str, worker_id: int) -> JobRecord | None:
        with self._lock:
            rec = self._records.get(key)
            if rec is None or rec.state != JobState.QUEUED:
                return None  # cancelled while queued, or stale heap entry
            rec.transition(JobState.RUNNING)
            rec.worker = worker_id
            rec.attempts += 1
            self._journal(rec)
            return rec

    def _finish(self, rec: JobRecord, *, payload=None, error=None) -> None:
        with self._lock:
            if rec.state != JobState.RUNNING:
                # the job was reaped/preempted out from under its worker and
                # the outcome arrived late: the record's terminal state wins
                # (a completed payload is already in the artifact cache, so
                # a resume turns into a cache hit - nothing is lost)
                self.late_finishes += 1
                logger.warning(
                    "dropping late %s for %s job %s",
                    "result" if payload is not None else f"error ({error})",
                    rec.state,
                    rec.key[:12],
                )
                return
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
                logger.warning("job %s failed: %s", rec.key[:12], rec.error)
            rec.worker = None
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
            from ..core.checkpoint import Checkpointer

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
        """Cancel a job: dequeue it, or preempt it at its next iteration."""
        with self._lock:
            rec = self.get(key)
            if rec.state == JobState.QUEUED:
                self.queue.remove(key)
                rec.transition(JobState.CANCELLED)
                rec.error = "cancelled while queued"
                self._journal(rec)
            elif rec.state == JobState.RUNNING:
                rec.cancel_event.set()  # -> PREEMPTED at the next iteration
            return rec.state

    def resume(
        self,
        key: str,
        *,
        priority: str | int | None = None,
        timeout: float | None = _KEEP_TIMEOUT,
    ) -> JobRecord:
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
                # double resume is idempotent: the job is already on its way
                if priority is not None:
                    rec.priority, rec.tier = str(priority), self._tier(priority)
                return rec
            self.executor.validate(rec.spec)
            if priority is not None:
                rec.priority, rec.tier = str(priority), self._tier(priority)
            if timeout is not _KEEP_TIMEOUT:
                rec.timeout = timeout
            rec.transition(JobState.QUEUED)
            self.queue.push(key, rec.tier)
            self._journal(rec)
            return rec

    def reap(self) -> dict:
        """Recover jobs abandoned by dead worker threads, then heal the fleet.

        A worker thread that dies abruptly (injected
        :class:`~repro.faults.WorkerCrashed`, or anything fatal a real
        deployment does to a thread) leaves its job RUNNING forever and a
        fleet slot empty.  This sweep (1) transitions every RUNNING job
        whose worker thread is no longer alive to PREEMPTED - its last
        on-grid checkpoint is intact, so :meth:`resume` continues it - and
        (2) respawns the dead fleet slots.  Order matters: jobs are reaped
        *before* slots are refilled, so a respawned thread can never mask
        an abandoned job.

        Returns ``{"reaped": [keys], "respawned": n}``.
        """
        reaped: list[str] = []
        with self._lock:
            for rec in self._records.values():
                if (
                    rec.state == JobState.RUNNING
                    and rec.worker is not None
                    and not self.scheduler.worker_alive(rec.worker)
                ):
                    rec.transition(JobState.PREEMPTED)
                    rec.error = "worker died; job reaped (checkpoint intact)"
                    rec.worker = None
                    self._journal(rec)
                    reaped.append(rec.key)
            self.recovery["reaped"] += len(reaped)
        respawned = self.scheduler.ensure_workers()
        if reaped:
            logger.warning(
                "reaped %d abandoned job(s), respawned %d worker(s)",
                len(reaped),
                respawned,
            )
            if self.service_faults is not None:
                self.service_faults.note_recovered("reaped_job", len(reaped))
        return {"reaped": reaped, "respawned": respawned}

    def jobs(self) -> list[dict]:
        with self._lock:
            return [rec.summary() for rec in self._records.values()]

    def stats(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            for rec in self._records.values():
                by_state[rec.state] = by_state.get(rec.state, 0) + 1
            return {
                "uptime_s": time.time() - self._started_at,
                "jobs": by_state,
                "total_jobs": len(self._records),
                "queue_depth": len(self.queue),
                "workers": self.scheduler.n_workers,
                "workers_running": self.scheduler.running,
                "worker_crashes": self.scheduler.crashes,
                "worker_respawns": self.scheduler.respawns,
                "solves_executed": self.executor.solves,
                "telemetry_io_errors": self.executor.telemetry_io_errors,
                "late_finishes": self.late_finishes,
                "recovery": dict(self.recovery),
                "cache": self.cache.stats(),
                "backends_available": list(backend_names()),
                "default_parallel": self.executor.default_parallel,
                "service_faults": (
                    self.service_faults.counts()
                    if self.service_faults is not None
                    else None
                ),
            }

    # -- durability ----------------------------------------------------------
    def _journal_path(self, key: str) -> str:
        return os.path.join(self.jobs_dir, f"{key}.json")

    def _journal(self, rec: JobRecord) -> None:
        path = self._journal_path(rec.key)
        blob = json.dumps(rec.to_journal()).encode()
        if self.service_faults is not None and self.service_faults.torn_journal_write(
            path, blob
        ):
            return  # the injector left a half-written journal in place
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)

    def _recover(self) -> None:
        """Re-adopt journaled jobs after a restart.

        Jobs that were queued or running when the previous process died are
        marked PREEMPTED - their checkpoints (if any) are intact, so
        :meth:`resume` continues them; terminal jobs come back as-is, with
        completed results re-served from the artifact cache.  A journal a
        crash left torn (partial JSON) is skipped and counted under
        ``recovery["skipped_journals"]`` - never a startup crash.
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

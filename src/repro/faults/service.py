"""Seeded fault injection for the service layer (``repro.service``).

:class:`FaultPlan`/:class:`FaultInjector` perturb the *simulated* X1 - a
virtual-time world where rank death and dropped SHMEM ops are engine
events.  The job service runs on real threads, real files, and a real
queue, so its failure modes are different: a worker thread dies mid-solve,
a cached result file rots on disk, a journal write is torn by a crash, the
telemetry stream hits a full filesystem.  :class:`ServiceFaultPlan`
describes those, and :class:`ServiceFaultInjector` is the seeded oracle the
service layer consults at its injection points:

* ``worker_crashes()`` - consulted by the per-iteration checkpoint hook;
  when it fires the executor raises :class:`WorkerCrashed`, which the
  scheduler deliberately does *not* convert into a job failure: the worker
  thread dies with the job still RUNNING, exactly like a real thread
  killed by the OS.  :meth:`FCIService.reap` is the recovery path.
* ``io_fails(rank)`` - the same duck-typed hook
  :class:`~repro.core.checkpoint.Checkpointer` already takes via
  ``faults=``, so one injector drives both checkpoint I/O crashes and the
  service-specific faults.
* ``corrupt_result(path)`` - after the artifact cache persists a result,
  truncate it, flip a byte, or replace it with a header-only husk; the
  cache's CRC discipline must turn the damage into a miss, never a wrong
  answer.
* ``torn_journal_write(path, blob)`` - replace an atomic journal write
  with a half-written file (a crash between ``open`` and ``os.replace`` on
  a non-atomic filesystem); restart recovery must skip it and count it.
* ``telemetry_write_fails()`` - the per-iteration telemetry stream raises
  :class:`OSError`; the solve must shrug it off (telemetry is observability,
  never correctness).

Determinism: one ``random.Random(seed)`` stream, consulted *only* by hooks
whose probability is non-zero - an idle injector (default plan) draws
nothing, so attaching it leaves every code path bitwise identical.

Counters live on the :class:`FaultLedger` base shared with
:class:`FaultInjector`: every injection under ``faults.injected.<kind>``
and every recovery the service reports under ``faults.recovered.<kind>``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields

from ..obs.metrics import MetricsRegistry
from .injector import FaultLedger

__all__ = ["ServiceFaultPlan", "ServiceFaultInjector", "WorkerCrashed"]

_CORRUPT_MODES = ("truncate", "bitflip", "header_only")


class WorkerCrashed(Exception):
    """Injected worker-thread death: the thread exits, the job stays RUNNING.

    Raised by the executor's checkpoint hook and recognized by the
    scheduler, which lets the thread die *without* reporting an outcome -
    the abandoned job is what :meth:`FCIService.reap` exists to recover.
    """


@dataclass
class ServiceFaultPlan:
    """Declarative service-layer chaos; the default plan injects nothing.

    Probabilities are per-opportunity: ``worker_crash`` per checkpoint
    save, ``checkpoint_io_error`` per checkpoint write,
    ``result_corrupt`` per persisted result, ``journal_torn_write`` per
    journal write, ``telemetry_io_error`` per streamed iteration event.
    """

    seed: int = 0
    worker_crash: float = 0.0
    checkpoint_io_error: float = 0.0
    result_corrupt: float = 0.0
    result_corrupt_mode: str = "bitflip"  # "truncate" | "bitflip" | "header_only"
    journal_torn_write: float = 0.0
    telemetry_io_error: float = 0.0

    def __post_init__(self) -> None:
        if self.result_corrupt_mode not in _CORRUPT_MODES:
            raise ValueError(
                f"result_corrupt_mode must be one of {_CORRUPT_MODES}"
            )
        for p in (
            self.worker_crash,
            self.checkpoint_io_error,
            self.result_corrupt,
            self.journal_torn_write,
            self.telemetry_io_error,
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError("fault probabilities must be in [0, 1]")

    def any_faults(self) -> bool:
        return bool(
            self.worker_crash
            or self.checkpoint_io_error
            or self.result_corrupt
            or self.journal_torn_write
            or self.telemetry_io_error
        )

    # -- JSON round-trip ------------------------------------------------------
    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceFaultPlan":
        data = dict(data)
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ServiceFaultPlan fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


class ServiceFaultInjector(FaultLedger):
    """Stateful, seeded oracle for a :class:`ServiceFaultPlan`.

    Uses the stdlib :class:`random.Random` (the service layer never needs
    numpy draws), and never touches the stream for zero-probability hooks,
    so an idle injector is bitwise-invisible.
    """

    def __init__(
        self, plan: ServiceFaultPlan | None = None, registry: MetricsRegistry | None = None
    ):
        super().__init__(registry)
        self.plan = plan if plan is not None else ServiceFaultPlan()
        self.rng = random.Random(self.plan.seed)

    # -- injection points -----------------------------------------------------
    def worker_crashes(self) -> bool:
        """Consulted once per checkpoint save; True kills the worker thread."""
        p = self.plan.worker_crash
        if p and self.rng.random() < p:
            self.note_injected("worker_crash")
            return True
        return False

    def io_fails(self, rank: int) -> bool:
        """Checkpoint-write I/O error (the ``Checkpointer(faults=)`` hook)."""
        p = self.plan.checkpoint_io_error
        if p and self.rng.random() < p:
            self.note_injected("io_error")
            return True
        return False

    def telemetry_write_fails(self) -> bool:
        p = self.plan.telemetry_io_error
        if p and self.rng.random() < p:
            self.note_injected("telemetry_io_error")
            return True
        return False

    def corrupt_result(self, path) -> bool:
        """Possibly damage a just-persisted result file in place.

        Returns True when damage was done.  Modes: ``truncate`` chops the
        file mid-payload (torn write), ``bitflip`` XORs one byte (bit-rot),
        ``header_only`` keeps a prefix so short only the npz magic survives.
        """
        p = self.plan.result_corrupt
        if not p or self.rng.random() >= p:
            return False
        path = os.fspath(path)
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as f:
                mode = self.plan.result_corrupt_mode
                if mode == "truncate":
                    f.truncate(max(1, size // 2))
                elif mode == "header_only":
                    f.truncate(min(6, size))
                else:  # bitflip
                    # damage the payload half, past the npz member headers
                    offset = self.rng.randrange(size // 2, size) if size > 1 else 0
                    f.seek(offset)
                    byte = f.read(1)
                    f.seek(offset)
                    f.write(bytes([byte[0] ^ 0x40]) if byte else b"\x40")
        except OSError:
            return False
        self.note_injected(f"result_corrupt.{self.plan.result_corrupt_mode}")
        return True

    def torn_journal_write(self, path, blob: bytes) -> bool:
        """Possibly replace an atomic journal write with a torn one.

        When it fires, writes only the first half of ``blob`` directly to
        ``path`` (no tmp+rename) and returns True: the caller skips the
        real write, leaving the journal exactly as a crash mid-write on a
        non-atomic filesystem would.
        """
        p = self.plan.journal_torn_write
        if not p or self.rng.random() >= p:
            return False
        with open(os.fspath(path), "wb") as f:
            f.write(blob[: max(1, len(blob) // 2)])
        self.note_injected("journal_torn_write")
        return True

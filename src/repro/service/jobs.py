"""Job model: content-addressed FCI jobs and their lifecycle state machine.

A job is *what* to solve (:class:`JobSpec` - molecule, basis, CI space,
solver configuration) plus *how it is doing* (:class:`JobRecord` - state,
timestamps, telemetry, result).  Two digests make the service idempotent
and cache-friendly:

* :attr:`JobSpec.job_key` - SHA-256 of the canonical JSON of every field
  that affects the *answer*.  Two submissions with the same key are the
  same job: the service dedupes them onto one solve and one cached result.
* :attr:`JobSpec.space_key` - digest of the subset that defines the CI
  *problem* (geometry, charge/multiplicity, basis, frozen/active space,
  symmetry).  Jobs that share it share one compiled workspace - AO
  integrals, SCF, excitation tables, and the cached
  :class:`~repro.core.plans.SigmaPlan` - through the artifact cache.

Scheduling metadata (priority tier, timeout) deliberately stays *out* of
the digests: re-submitting the same physics at a different priority must
dedupe onto the in-flight solve, not fork a second one.

Float fields are canonicalized through ``repr`` round-tripping (Python
floats serialize losslessly through JSON), so keys are stable across
processes and sessions.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field, fields

from ..molecule.geometry import Molecule

__all__ = ["JobSpec", "JobRecord", "JobState", "JobStateError", "PRIORITY_TIERS"]


PRIORITY_TIERS = {
    "interactive": 0,
    "high": 0,
    "normal": 1,
    "default": 1,
    "batch": 2,
    "low": 2,
}
"""Priority names -> scheduler tiers (lower runs first)."""


class JobState:
    """Lifecycle states and the legal transitions between them."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    PREEMPTED = "preempted"
    TIMED_OUT = "timed_out"
    CANCELLED = "cancelled"

    #: states that occupy (or will occupy) a worker - submissions dedupe here
    ACTIVE = frozenset({QUEUED, RUNNING})
    #: states a job can be re-enqueued from (checkpoint, if any, is reused)
    RESUMABLE = frozenset({PREEMPTED, TIMED_OUT, FAILED, CANCELLED})
    #: states where the job is finished for the purposes of waiting clients
    TERMINAL = frozenset({COMPLETED, FAILED, PREEMPTED, TIMED_OUT, CANCELLED})

    ALLOWED = {
        QUEUED: frozenset({RUNNING, CANCELLED, PREEMPTED}),
        RUNNING: frozenset({COMPLETED, FAILED, PREEMPTED, TIMED_OUT}),
        PREEMPTED: frozenset({QUEUED}),
        TIMED_OUT: frozenset({QUEUED}),
        FAILED: frozenset({QUEUED}),
        CANCELLED: frozenset({QUEUED}),
        # force=True resubmission re-solves a completed job
        COMPLETED: frozenset({QUEUED}),
    }

    ALL = frozenset(
        {QUEUED, RUNNING, COMPLETED, FAILED, PREEMPTED, TIMED_OUT, CANCELLED}
    )


class JobStateError(RuntimeError):
    """An illegal lifecycle transition was requested."""


# spec fields that define the CI *problem* (and therefore the compiled
# workspace: integrals, SCF, excitation tables, SigmaPlan)
_SPACE_FIELDS = (
    "atoms",
    "charge",
    "multiplicity",
    "basis",
    "frozen_core",
    "n_active",
    "point_group",
    "wavefunction_irrep",
)


@dataclass(frozen=True)
class JobSpec:
    """Everything that determines an FCI answer, in hashable canonical form.

    ``atoms`` holds ``(symbol, (x, y, z))`` tuples in Bohr.  ``parallel``
    and ``vector_store`` option dicts are frozen to tuples of sorted
    ``(option, value)`` pairs (a bare store kind string stays a string) so
    the spec stays hashable; :meth:`solver_kwargs` converts them back to
    what :class:`~repro.core.solver.FCISolver` takes.  ``vector_store``
    stays part of the job key although the dense and mmap backends are
    bitwise interchangeable: dropping it from the digest would re-key every
    existing job and orphan its cached result, so "different storage
    config, different job key" holds until a change makes that migration
    on purpose.  ``label`` is a display name only and is excluded from the
    digests.  ``kernel`` is likewise answer-neutral: "dgemm" and its alias
    "compiled" (a retired lane's name) are one sigma sweep, so two
    submissions differing only in ``kernel`` share one job key (and one
    cached result).
    """

    atoms: tuple
    charge: int = 0
    multiplicity: int = 1
    basis: str = "sto-3g"
    frozen_core: int | str = 0
    n_active: int | None = None
    point_group: str | None = None
    wavefunction_irrep: str | None = None
    algorithm: str = "dgemm"
    method: str = "auto"
    vector_store: tuple | str | None = None
    block_columns: int | None = None
    model_space_size: int = 50
    spin_penalty: float = 0.0
    olsen_step: float = 0.7
    energy_tol: float = 1e-10
    residual_tol: float = 1e-5
    max_iterations: int = 60
    parallel: tuple | None = None
    kernel: str | None = None
    label: str = ""

    def __post_init__(self):
        # only names of the one bitwise-identical DGEMM sweep may ride the
        # answer-neutral field; anything else (e.g. "moc") must go through
        # `algorithm`, which is part of the job key
        if self.kernel not in (None, "dgemm", "compiled"):
            raise ValueError(
                "kernel must be None, 'dgemm', or 'compiled' (bitwise-"
                f"identical sweeps only); got {self.kernel!r}"
            )

    # -- construction --------------------------------------------------------
    @classmethod
    def from_molecule(cls, mol: Molecule, basis: str = "sto-3g", **options) -> "JobSpec":
        """Build a spec from a :class:`~repro.molecule.Molecule`."""
        atoms = tuple((a.symbol, tuple(float(x) for x in a.position)) for a in mol.atoms)
        options.setdefault("label", mol.name)
        return cls(
            atoms=atoms,
            charge=mol.charge,
            multiplicity=mol.multiplicity,
            basis=basis,
            **{k: _freeze(k, v) for k, v in options.items()},
        )

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Build a spec from a JSON-decoded dict (the HTTP submit payload)."""
        data = dict(data)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown job spec fields: {', '.join(sorted(unknown))}")
        if "atoms" not in data or not data["atoms"]:
            raise ValueError("job spec requires a non-empty 'atoms' list")
        data["atoms"] = tuple(
            (str(sym), tuple(float(x) for x in pos)) for sym, pos in data["atoms"]
        )
        return cls(**{k: _freeze(k, v) for k, v in data.items()})

    def to_dict(self) -> dict:
        """JSON-friendly representation (inverse of :meth:`from_dict`)."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["atoms"] = [[sym, list(pos)] for sym, pos in self.atoms]
        if self.parallel is not None:
            d["parallel"] = dict(self.parallel)
        if isinstance(self.vector_store, tuple):
            d["vector_store"] = dict(self.vector_store)
        return d

    # -- consumption ---------------------------------------------------------
    def molecule(self) -> Molecule:
        return Molecule.from_atoms(
            [(sym, pos) for sym, pos in self.atoms],
            charge=self.charge,
            multiplicity=self.multiplicity,
            name=self.label,
        )

    def solver_kwargs(self) -> dict:
        """Keyword arguments for :class:`~repro.core.solver.FCISolver`."""
        return dict(
            frozen_core=self.frozen_core,
            n_active=self.n_active,
            point_group=self.point_group,
            wavefunction_irrep=self.wavefunction_irrep,
            algorithm=self.algorithm,
            method=self.method,
            vector_store=(
                dict(self.vector_store)
                if isinstance(self.vector_store, tuple)
                else self.vector_store
            ),
            block_columns=self.block_columns,
            model_space_size=self.model_space_size,
            spin_penalty=self.spin_penalty,
            olsen_step=self.olsen_step,
            energy_tol=self.energy_tol,
            residual_tol=self.residual_tol,
            max_iterations=self.max_iterations,
            parallel=dict(self.parallel) if self.parallel is not None else None,
            kernel=self.kernel,
        )

    # -- content addressing --------------------------------------------------
    def canonical(self) -> dict:
        """Every answer-affecting field, in canonical JSON-ready form."""
        d = self.to_dict()
        d.pop("label", None)
        # kernel selects between bitwise-identical sweeps: not answer-affecting
        d.pop("kernel", None)
        return d

    @property
    def job_key(self) -> str:
        """SHA-256 digest of the canonical spec: the idempotent job identity."""
        return _digest(self.canonical())

    @property
    def space_key(self) -> str:
        """Digest of the CI-problem-defining subset: the workspace identity."""
        c = self.canonical()
        return _digest({k: c[k] for k in _SPACE_FIELDS})

    def __repr__(self) -> str:
        label = self.label or "".join(sym for sym, _ in self.atoms)
        return (
            f"JobSpec({label}/{self.basis}, method={self.method}, "
            f"key={self.job_key[:12]})"
        )


def _freeze(name: str, value):
    """Coerce JSON-decoded values into the spec's hashable canonical types."""
    if name in ("parallel", "vector_store") and isinstance(value, dict):
        return tuple(sorted(value.items()))
    if name in ("spin_penalty", "olsen_step", "energy_tol", "residual_tol"):
        return float(value)
    if name in ("charge", "multiplicity", "model_space_size", "max_iterations"):
        return int(value)
    return value


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class JobRecord:
    """One job's mutable lifecycle: state, timing, telemetry, outcome.

    The owning :class:`~repro.service.service.FCIService` serializes all
    state mutations under its lock; ``events`` is appended to from the
    worker thread (list appends are atomic) and read by status endpoints.
    """

    key: str
    spec: JobSpec
    priority: str = "normal"
    tier: int = 1
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    timeout: float | None = None
    worker: int | None = None
    attempts: int = 0
    deduped: int = 0
    cache_hit: bool = False
    error: str | None = None
    result: dict | None = None
    #: chaos/testing hook - preempt deterministically at this iteration;
    #: cleared when the job is resumed so the retry runs to completion
    preempt_after: int | None = None
    events: list = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event, repr=False)
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def transition(self, new_state: str) -> None:
        """Move to ``new_state``, enforcing the lifecycle state machine."""
        if new_state not in JobState.ALL:
            raise JobStateError(f"unknown job state {new_state!r}")
        if new_state not in JobState.ALLOWED.get(self.state, frozenset()):
            raise JobStateError(
                f"job {self.key[:12]} cannot go {self.state} -> {new_state}"
            )
        self.state = new_state
        now = time.time()
        if new_state == JobState.RUNNING:
            self.started_at = now
        if new_state in JobState.TERMINAL:
            self.finished_at = now
            self.done.set()
        elif new_state == JobState.QUEUED:  # resume/resubmit
            self.finished_at = None
            self.error = None
            self.preempt_after = None
            self.done.clear()
            self.cancel_event.clear()

    @property
    def energy(self) -> float | None:
        return self.result.get("energy") if self.result else None

    def summary(self) -> dict:
        """JSON-friendly status snapshot (no CI vector, no spec geometry)."""
        return {
            "key": self.key,
            "label": self.spec.label or None,
            "state": self.state,
            "priority": self.priority,
            "tier": self.tier,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "timeout": self.timeout,
            "worker": self.worker,
            "attempts": self.attempts,
            "deduped": self.deduped,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "result": self.result,
            "n_events": len(self.events),
        }

    def to_journal(self) -> dict:
        """Everything the on-disk job journal persists across restarts."""
        d = self.summary()
        d["spec"] = self.spec.to_dict()
        return d

    @classmethod
    def from_journal(cls, data: dict) -> "JobRecord":
        spec = JobSpec.from_dict(data["spec"])
        rec = cls(
            key=data["key"],
            spec=spec,
            priority=data.get("priority", "normal"),
            tier=int(data.get("tier", 1)),
            state=data.get("state", JobState.QUEUED),
            submitted_at=data.get("submitted_at") or time.time(),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            timeout=data.get("timeout"),
            attempts=int(data.get("attempts", 0)),
            deduped=int(data.get("deduped", 0)),
            cache_hit=bool(data.get("cache_hit", False)),
            error=data.get("error"),
            result=data.get("result"),
        )
        if rec.state in JobState.TERMINAL:
            rec.done.set()
        return rec

"""Preemptible job execution: one FCI solve, checkpointed and observable.

The executor is where the service composes the library machinery built in
earlier layers into a single cancellable unit of work:

* the **workspace cache** hands it a compiled problem (integrals, SCF,
  excitation tables, cached :class:`~repro.core.plans.SigmaPlan`) shared
  with every job in the same CI-space family;
* a :class:`ServiceCheckpointer` - the stock atomic CRC-verified
  :class:`~repro.core.checkpoint.Checkpointer` plus cooperative
  interruption - persists the solver's restart state every iteration and
  turns cancellation, per-job timeouts, and deterministic chaos-style
  preemption into *durable* interruptions: the state that raised is the
  state already on disk, so a resumed job replays the exact iteration
  sequence an uninterrupted one would have run;
* a per-job :class:`~repro.obs.Telemetry` streams every solver iteration
  (energy, residual norm, step length) into the job record and an
  append-only JSON-lines file clients can tail.

Preemption is iteration-granular by design: the solvers call
``checkpoint.maybe_save`` exactly once per iteration, which is the only
point where the whole restart state is coherent.  Finer-grained
interruption would tear eq. 14-15's retroactive bookkeeping.
"""

from __future__ import annotations

import json
import logging
import os
import time

from ..core.checkpoint import Checkpointer, CheckpointState
from ..core.solver import FCISolver
from ..obs import Telemetry
from .cache import Workspace

__all__ = ["JobPreempted", "JobTimeout", "ServiceCheckpointer", "SolveExecutor"]

logger = logging.getLogger(__name__)


class JobPreempted(RuntimeError):
    """The job was interrupted cooperatively; its checkpoint is durable."""


class JobTimeout(RuntimeError):
    """The job exceeded its wall-clock budget; its checkpoint is durable."""


class ServiceCheckpointer(Checkpointer):
    """A Checkpointer that doubles as the solve's cooperative interrupt point.

    Parameters beyond the base class:

    cancel_event:
        A :class:`threading.Event`; once set, the next per-iteration save
        persists the state and raises :class:`JobPreempted`.
    deadline:
        ``time.monotonic()`` instant after which the next save persists
        the state and raises :class:`JobTimeout`.
    preempt_after:
        Deterministic chaos hook: preempt as soon as ``state.iteration``
        reaches this count.  Tests use it to interrupt a solve at an exact,
        reproducible iteration instead of racing a wall clock.
    """

    def __init__(
        self,
        path,
        *,
        telemetry=None,
        faults=None,
        cancel_event=None,
        deadline: float | None = None,
        preempt_after: int | None = None,
    ):
        super().__init__(path, telemetry=telemetry, faults=faults)
        self.cancel_event = cancel_event
        self.deadline = deadline
        self.preempt_after = preempt_after

    def maybe_save(self, state: CheckpointState, *, force: bool = False) -> bool:
        preempt = (self.cancel_event is not None and self.cancel_event.is_set()) or (
            self.preempt_after is not None and state.iteration >= self.preempt_after
        )
        timed_out = self.deadline is not None and time.monotonic() > self.deadline
        if not (preempt or timed_out):
            return super().maybe_save(state, force=force)
        # durability before interruption: the exception only fires once the
        # interrupting state is safely on disk
        self.save(state)
        if preempt:
            raise JobPreempted(f"preempted at iteration {state.iteration} (checkpoint saved)")
        raise JobTimeout(f"timed out at iteration {state.iteration} (checkpoint saved)")


class SolveExecutor:
    """Runs one job record end to end on the calling (pool) thread."""

    def __init__(self, cache, workdir):
        self.cache = cache
        self.checkpoint_dir = os.path.join(workdir, "checkpoints")
        self.telemetry_dir = os.path.join(workdir, "telemetry")
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        os.makedirs(self.telemetry_dir, exist_ok=True)
        self.solves = 0  # completed solves actually executed (not cache hits)
        self.telemetry_io_errors = 0  # stream writes swallowed (observability)

    def checkpoint_path(self, job_key: str) -> str:
        return os.path.join(self.checkpoint_dir, f"{job_key}.npz")

    def telemetry_path(self, job_key: str) -> str:
        return os.path.join(self.telemetry_dir, f"{job_key}.jsonl")

    @staticmethod
    def _solver(spec, **kwargs) -> FCISolver:
        return FCISolver(spec.molecule(), spec.basis, **spec.solver_kwargs(), **kwargs)

    def validate(self, spec) -> None:
        """Fail fast on an unbuildable spec (bad algorithm/method/backend).

        Constructing the solver runs all constructor-time validation but no
        SCF or integrals, so a bad submission is rejected at submit time
        instead of failing on a pool thread.
        """
        self._solver(spec)

    def execute(self, record, *, faults=None) -> dict:
        """Solve ``record``'s job; returns the result payload on success.

        Raises :class:`JobPreempted` / :class:`JobTimeout` for durable
        interruptions and lets genuine failures (including injected
        checkpoint I/O crashes) propagate.  ``faults`` is the
        :class:`~repro.core.checkpoint.Checkpointer` I/O-fault hook.

        Telemetry streaming is observability, never correctness: an I/O
        error on the JSON-lines file (full disk, lost mount) is counted in
        :attr:`telemetry_io_errors` and the solve continues; the in-memory
        event list still fills.
        """
        spec = record.spec
        stream_path = self.telemetry_path(record.key)

        def stream(event: dict) -> None:
            event = {"job": record.key, **event}
            record.events.append(event)
            try:
                with open(stream_path, "a") as f:
                    f.write(json.dumps(event) + "\n")
            except OSError:
                self.telemetry_io_errors += 1

        telemetry = Telemetry(on_iteration=stream)
        deadline = (
            time.monotonic() + record.timeout if record.timeout is not None else None
        )
        checkpoint = ServiceCheckpointer(
            self.checkpoint_path(record.key),
            telemetry=telemetry,
            faults=faults,
            cancel_event=record.cancel_event,
            deadline=deadline,
            preempt_after=record.preempt_after,
        )

        def build_workspace():
            solver = self._solver(spec, telemetry=telemetry)
            problem, scf, mo = solver.build_problem()
            store = spec.solver_kwargs()["vector_store"]
            if isinstance(store, dict):
                store = store.get("kind")
            return Workspace(
                space_key=spec.space_key,
                scf=scf,
                mo=mo,
                problem=problem,
                store_kind=store or "dense",
            )

        workspace, ws_hit = self.cache.workspace(spec.space_key, build_workspace)
        solver = self._solver(spec, telemetry=telemetry, checkpoint=checkpoint)
        result = solver.run(prebuilt=(workspace.problem, workspace.scf, workspace.mo))

        payload = {
            "energy": result.energy,
            "scf_energy": result.scf_energy,
            "correlation_energy": result.correlation_energy,
            "converged": bool(result.solve.converged),
            "n_iterations": int(result.solve.n_iterations),
            "n_sigma": int(result.n_sigma),
            "s_squared": float(result.s_squared),
            "dimension": int(result.problem.dimension),
            "method": result.solve.method,
            "workspace_hit": bool(ws_hit),
            "store_kind": workspace.store_kind,
        }
        self.cache.put_result(record.key, payload, result.vector)
        checkpoint.clear()  # the durable artifact is now the cached result
        self.solves += 1
        logger.info(
            "job %s solved: E=%.10f in %d iterations (workspace %s)",
            record.key[:12],
            result.energy,
            result.solve.n_iterations,
            "hit" if ws_hit else "compiled",
        )
        return payload

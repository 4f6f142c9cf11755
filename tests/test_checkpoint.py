"""Checkpoint/restart and solver-guard tests.

The paper's single-vector methods exist so that a multi-week calculation
can survive on one stored CI vector.  The contract here:

* a checkpoint round-trips its full restart state bit-for-bit,
* corruption is detected (CRC) and degrades to a fresh start, never to a
  silently wrong resume,
* a solve killed mid-run and restarted from its checkpoint replays the
  exact iteration sequence (olsen/auto) or costs at most one extra
  iteration (davidson, which restarts from the collapsed Ritz vector),
* iterate guards catch NaN/Inf sigmas and runaway energies instead of
  letting them converge to garbage.
"""

import os

import numpy as np
import pytest

from repro.core import (
    Checkpointer,
    CheckpointError,
    CheckpointState,
    CIProblem,
    EnergyDivergenceError,
    FCISolver,
    IterateGuard,
    ModelSpacePreconditioner,
    NonFiniteIterateError,
    DenseStore,
    auto_adjusted_solve,
    davidson_multiroot,
    davidson_solve,
    make_store,
    olsen_solve,
    sigma_dgemm,
)
from repro.obs import Telemetry

from tests.conftest import make_random_mo
from tests.helpers import model_space_guesses


@pytest.fixture(scope="module")
def ci():
    mo = make_random_mo(6, seed=31)
    mo.h += np.diag(np.linspace(-3, 2, 6)) * 2
    problem = CIProblem(mo, 3, 3)
    precond = ModelSpacePreconditioner(problem, 50)
    return problem, precond, precond.ground_state_guess()


def _state(vec, it=3):
    return CheckpointState(
        method="auto",
        iteration=it,
        n_sigma=it,
        vector=vec,
        meta={"lambda": 0.8, "prev": {"energy": -1.5, "s2": 0.9}},
        energies=[-1.0, -1.4, -1.5],
        residual_norms=[0.5, 0.1, 0.02],
    )


class TestCheckpointer:
    def test_round_trip_bitwise(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        vec = np.random.default_rng(0).standard_normal((20, 20))
        cp.save(_state(vec))
        state = cp.load()
        assert state.method == "auto"
        assert state.iteration == 3
        assert state.n_sigma == 3
        assert np.array_equal(state.vector, vec)  # bitwise
        assert state.meta["lambda"] == 0.8
        assert state.meta["prev"]["energy"] == -1.5
        assert state.energies == [-1.0, -1.4, -1.5]
        assert state.residual_norms == [0.5, 0.1, 0.02]

    def test_load_missing_returns_none(self, tmp_path):
        assert Checkpointer(tmp_path / "nope.npz").load() is None

    def test_exists_and_clear(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        assert not cp.exists()
        cp.save(_state(np.ones(4)))
        assert cp.exists()
        cp.clear()
        assert not cp.exists()

    def test_no_tmp_file_left_behind(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        cp.save(_state(np.ones(4)))
        leftovers = [f for f in os.listdir(tmp_path) if f != "ck.npz"]
        assert leftovers == []

    def test_every_skips_iterations(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz", every=5)
        assert not cp.maybe_save(_state(np.ones(4), it=3))
        assert not cp.exists()
        assert cp.maybe_save(_state(np.ones(4), it=5))
        assert cp.exists()

    def test_force_save_bypasses_every_grid(self, tmp_path):
        # regression: converged/loop-exit states falling off the ``every``
        # grid used to be dropped; ``force=True`` must always persist
        cp = Checkpointer(tmp_path / "ck.npz", every=5)
        assert cp.maybe_save(_state(np.ones(4), it=3), force=True)
        assert cp.exists()

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "ck.npz"
        cp = Checkpointer(path, telemetry=Telemetry())
        cp.save(_state(np.arange(16.0)))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            cp.load()
        # restore degrades to a fresh start instead of raising
        assert cp.restore("auto") is None
        assert cp.telemetry.registry.get("solver.checkpoint.rejected").value == 1.0

    def test_method_mismatch_keeps_vector_only(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz")
        vec = np.arange(9.0).reshape(3, 3)
        cp.save(_state(vec))
        state = cp.restore("davidson")
        assert np.array_equal(state.vector, vec)
        assert state.iteration == 0  # restart the iteration count
        assert state.energies == []

    def test_restore_counts(self, tmp_path):
        cp = Checkpointer(tmp_path / "ck.npz", telemetry=Telemetry())
        cp.save(_state(np.ones(4)))
        assert cp.restore("auto") is not None
        reg = cp.telemetry.registry
        assert reg.get("solver.checkpoint.saves").value == 1.0
        assert reg.get("solver.checkpoint.restores").value == 1.0


class _Killed(Exception):
    pass


class TestKillAndRestart:
    @pytest.mark.parametrize(
        "name,solve,kw",
        [
            ("olsen", olsen_solve, dict(step=0.7, max_iterations=250)),
            ("auto", auto_adjusted_solve, {}),
            ("davidson", davidson_solve, {}),
            ("olsen", olsen_solve, dict(step=1.0)),
        ],
    )
    def test_resume_matches_uninterrupted(self, ci, tmp_path, name, solve, kw):
        problem, precond, guess = ci

        def sig(C):
            return sigma_dgemm(problem, C)

        ref = solve(sig, guess, precond, **kw)
        assert ref.converged

        path = tmp_path / f"{name}.npz"
        kill_at = max(2, ref.n_iterations // 2)
        calls = [0]

        def sig_killing(C):
            calls[0] += 1
            if calls[0] > kill_at:
                raise _Killed
            return sigma_dgemm(problem, C)

        with pytest.raises(_Killed):
            solve(sig_killing, guess, precond, checkpoint=Checkpointer(path), **kw)

        res = solve(sig, guess, precond, checkpoint=Checkpointer(path), **kw)
        assert res.converged
        assert abs(res.energy - ref.energy) < 1e-10
        # at most one extra iteration total, despite the mid-run kill
        assert res.n_iterations <= ref.n_iterations + 1
        if name in ("olsen", "auto"):
            # single-vector methods replay the exact iteration sequence
            assert res.energies == ref.energies
            assert res.n_iterations == ref.n_iterations


_SOLVERS = [
    ("olsen", olsen_solve, dict(step=0.7, max_iterations=250)),
    ("auto", auto_adjusted_solve, {}),
    ("davidson", davidson_solve, {}),
]


class TestFinalStateDurability:
    @pytest.mark.parametrize("name,solve,kw", _SOLVERS)
    def test_converged_state_saved_off_grid(self, ci, tmp_path, name, solve, kw):
        # regression: with a sparse ``every`` grid, the converged iteration
        # used to be silently dropped unless it happened to land on the grid
        problem, precond, guess = ci

        def sig(C):
            return sigma_dgemm(problem, C)

        path = tmp_path / f"{name}.npz"
        res = solve(
            sig, guess, precond, checkpoint=Checkpointer(path, every=10**6), **kw
        )
        assert res.converged
        state = Checkpointer(path).restore(name)
        assert state is not None
        assert state.iteration == res.n_iterations
        assert state.energies[-1] == res.energy

    @pytest.mark.parametrize("name,solve", [(n, s) for n, s, _ in _SOLVERS])
    def test_exhausted_budget_resume_reports_checkpointed_energy(
        self, ci, tmp_path, name, solve
    ):
        # regression: a resume whose iteration budget was already spent used
        # to report energy=0.0 (auto/davidson) instead of the stored energy
        problem, precond, guess = ci

        def sig(C):
            return sigma_dgemm(problem, C)

        cp = Checkpointer(tmp_path / f"{name}.npz")
        cp.save(
            CheckpointState(
                method=name,
                iteration=7,
                n_sigma=7,
                vector=guess,
                meta={},
                energies=[-1.0, -1.25],
                residual_norms=[0.5, 0.2],
            )
        )
        res = solve(sig, guess, precond, checkpoint=cp, max_iterations=5)
        assert not res.converged
        assert res.energy == -1.25
        assert res.n_sigma == 7


    @pytest.mark.parametrize("name,solve,kw", _SOLVERS)
    def test_exhausted_budget_saved_off_grid(self, ci, tmp_path, name, solve, kw):
        # the other half of the final-state rule: a budget that runs out on
        # an iteration the ``every`` grid skips still leaves its last state
        problem, precond, guess = ci
        cp = Checkpointer(tmp_path / f"{name}.npz", every=10**6)
        kw = {**kw, "max_iterations": 3}
        res = solve(lambda C: sigma_dgemm(problem, C), guess, precond, checkpoint=cp, **kw)
        assert not res.converged and res.n_iterations == 3
        header = cp.peek()
        assert header["iteration"] == 3
        assert header["energies"][-1] == res.energy


class _Recording(Checkpointer):
    """Remembers what the solver offered; optionally dies at an iteration."""

    def __init__(self, path, *, die_at=None, **kw):
        super().__init__(path, **kw)
        self.calls = []
        self.die_at = die_at

    def maybe_save(self, state, *, force=False):
        self.calls.append((state.iteration, force))
        if state.iteration == self.die_at:
            raise _Killed
        return super().maybe_save(state, force=force)


# every single-root solver: the contracts below are the solve session's, so
# each is stated once and run for all of them
_ALL = [("olsen-original", olsen_solve, dict(step=1.0))] + _SOLVERS
_ALL_AND_BLOCK = _ALL + [("multiroot", None, {})]


def _two_roots(problem):
    """davidson_multiroot behind the single-root call shape."""

    def solve(sigma_fn, guess, precond, **kw):
        guesses = model_space_guesses(problem, precond, 4)
        return davidson_multiroot(sigma_fn, guesses, precond, n_roots=2, **kw)

    return solve


class TestSolveSessionContracts:
    @pytest.mark.parametrize("name,solve,kw", _ALL)
    def test_one_save_offer_per_iteration_last_one_forced(self, ci, tmp_path, name, solve, kw):
        # the (iteration, force) sequence ServiceCheckpointer preempts on
        problem, precond, guess = ci
        cp = _Recording(tmp_path / "ck.npz")
        res = solve(lambda C: sigma_dgemm(problem, C), guess, precond, checkpoint=cp, **kw)
        assert res.converged
        n = res.n_iterations
        assert cp.calls == [(i, False) for i in range(1, n)] + [(n, True)]

    @pytest.mark.parametrize("name,solve,kw", _ALL_AND_BLOCK)
    def test_trajectory_is_bitwise_independent_of_the_store(self, ci, tmp_path, name, solve, kw):
        problem, precond, guess = ci
        solve = solve or _two_roots(problem)
        runs = []
        for template in (
            None,
            DenseStore(problem.shape),
            make_store("mmap", problem.shape, directory=str(tmp_path)),
        ):
            runs.append(
                solve(lambda C: sigma_dgemm(problem, C), guess, precond, store=template, **kw)
            )
            if template is not None:
                template.close()
        assert os.listdir(tmp_path) == []
        ref = runs[0]
        for run in runs[1:]:
            assert run.n_iterations == ref.n_iterations and run.n_sigma == ref.n_sigma
            assert np.array_equal(run.energies, ref.energies)
            assert np.array_equal(run.residual_norms, ref.residual_norms)
            if name == "multiroot":
                assert np.array_equal(run.history, ref.history)
                assert np.array_equal(run.vectors, ref.vectors)
            else:
                assert np.array_equal(run.vector, ref.vector)

    # regression: buffers were closed on the return paths only, so a
    # preempted / timed-out / guard-tripped out-of-core solve leaked its
    # iterate (davidson: two vectors per iteration) into the directory
    @staticmethod
    def _interrupt(ci, tmp_path, solve, kw, sigma_dies_at=None):
        problem, precond, guess = ci
        solve = solve or _two_roots(problem)
        vectors = tmp_path / "vectors"
        template = make_store("mmap", problem.shape, directory=str(vectors))
        calls = [0]

        def sig(C):
            calls[0] += 1
            if calls[0] == sigma_dies_at:
                raise _Killed
            return sigma_dgemm(problem, C)

        with pytest.raises(_Killed):
            solve(sig, guess, precond, store=template, **kw)
        template.close()
        assert os.listdir(vectors) == []

    @pytest.mark.parametrize("name,solve,kw", _ALL_AND_BLOCK)
    def test_failing_sigma_leaves_no_vector_file(self, ci, tmp_path, name, solve, kw):
        self._interrupt(ci, tmp_path, solve, kw, sigma_dies_at=5)

    @pytest.mark.parametrize("name,solve,kw", _ALL)
    def test_interrupting_checkpointer_leaves_no_vector_file(self, ci, tmp_path, name, solve, kw):
        kw = dict(kw, checkpoint=_Recording(tmp_path / "ck.npz", die_at=3))
        self._interrupt(ci, tmp_path, solve, kw)


class TestFCISolverIntegration:
    def test_checkpoint_path_roundtrip(self, h2, tmp_path):
        path = tmp_path / "h2.npz"
        first = FCISolver(h2, checkpoint=path).run()
        assert path.exists()
        tele = Telemetry()
        solver = FCISolver(h2, checkpoint=Checkpointer(path, telemetry=tele))
        second = solver.run()
        assert abs(second.energy - first.energy) < 1e-10
        assert tele.registry.get("solver.checkpoint.restores").value == 1.0


class TestGuards:
    def test_nan_sigma_raises(self, ci):
        problem, precond, guess = ci

        def sig_nan(C):
            out = sigma_dgemm(problem, C)
            out.flat[0] = np.nan
            return out

        with pytest.raises(NonFiniteIterateError):
            auto_adjusted_solve(sig_nan, guess, precond)

    def test_energy_divergence_raises(self):
        guard = IterateGuard(divergence_threshold=10.0)
        guard.check(1, -5.0, 0.1)
        guard.check(2, -4.0, 0.1)  # small wobble is fine
        with pytest.raises(EnergyDivergenceError) as e:
            guard.check(3, 200.0, 0.1)
        assert e.value.iteration == 3

    def test_guard_counts_detections(self):
        tele = Telemetry()
        guard = IterateGuard(telemetry=tele)
        with pytest.raises(NonFiniteIterateError):
            guard.check(1, float("nan"), 0.1)
        assert tele.registry.get("faults.detected.nonfinite_iterate").value == 1.0

    def test_divergence_check_disabled(self):
        guard = IterateGuard(divergence_threshold=None)
        guard.check(1, -5.0, 0.1)
        guard.check(2, 1e6, 0.1)  # no watchdog when disabled

    def test_lambda_fallback_counted(self, ci):
        from repro.core.auto_single import _optimal_step

        reasons = []
        lam = _optimal_step(np.nan, 0.1, 0.1, 1.0, reasons.append)
        assert lam == 1.0
        assert reasons == ["non_finite_2x2"]
        lam = _optimal_step(-1.0, 0.1, -2.0, 0.0, reasons.append)
        assert lam == 1.0
        assert reasons[-1] == "non_finite_2x2"

    def test_lambda_fallback_reaches_the_registry_through_a_solve(self, ci):
        problem, precond, guess = ci

        class BlindFirstStep:
            """The preconditioner, except that <t|H0|t> comes out non-finite."""

            def __getattr__(self, name):
                return getattr(precond, name)

            def apply_h0(self, t):
                return np.full_like(t, np.inf)

        tele = Telemetry()
        res = auto_adjusted_solve(
            lambda C: sigma_dgemm(problem, C), guess, BlindFirstStep(), telemetry=tele
        )
        assert res.converged
        assert tele.registry.get("faults.recovered.lambda_fallback").value == 1.0
        assert tele.registry.get("faults.detected.non_finite_2x2").value == 1.0
        lams = [r["lam"] for r in tele.registry.snapshot()["solver.iterations"]["records"]]
        assert lams[:2] == [1.0, 1.0]  # the initial step, then the fallback

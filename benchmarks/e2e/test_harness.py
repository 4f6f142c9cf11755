"""The harness on FCI(3+3,6)-sized inputs: ``pytest benchmarks/e2e`` (< 30 s).

What the benchmark's numbers rest on: the span arithmetic, the statistics,
that the emitted names are exactly BENCHMARK.json's, that inputs follow the
seed, that a wrong output is counted and fails the command, and that a
failed workload leaves no process or file behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent.parent / "src")]

import harness  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
SMALL = {
    "sigma_cs12": lambda seed: workloads.SigmaSerial(seed, space=(6, 3, 3)),
    "sigma_shm2_os12": lambda seed: workloads.SigmaShm(seed, space=(6, 3, 2)),
    "solve_h2o_631g": lambda seed: workloads.SolveWater(seed, basis="sto-3g"),
    "solve_ooc_h2o_631g": lambda seed: workloads.SolveWaterOutOfCore(seed, basis="sto-3g"),
}


@pytest.fixture
def small(monkeypatch):
    """run.py builds the small workloads instead of the full-size ones."""
    for name, make in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, make)


def leftovers() -> list[str]:
    if not harness.OUT_DIR.exists():
        return []
    return [p for p in os.listdir(harness.OUT_DIR) if p.startswith(("ooc-", "lanes-",
                                                                    "service-"))]


# -- arithmetic ---------------------------------------------------------------------


def test_self_time_with_nested_and_overlapping_children():
    t = harness.Tracer("w")
    root = t.add("op", "harness", 0.0, 10.0)
    a = t.add("a", "core.solver", 1.0, 5.0, parent=root.index)
    t.add("a1", "core.kernels", 2.0, 3.0, parent=a.index)
    t.add("b", "core.vectors", 4.0, 7.0, parent=root.index)  # overlaps a on [4, 5]
    t.add("c", "core.vectors", 9.0, 12.0, parent=root.index)  # clipped to [9, 10]
    t.add("rank", "parallel", 0.0, 10.0, parent=root.index, track="rank 0")  # covers nothing
    assert t.self_time(root) == pytest.approx(10.0 - (6.0 + 1.0))
    assert t.self_time(a) == pytest.approx(3.0)
    by_layer = t.layer_self_times(root)
    assert by_layer["core.kernels"] == pytest.approx(1.0)
    assert by_layer["core.vectors"] == pytest.approx(3.0 + 3.0)
    assert "parallel" not in by_layer  # another track is not this track's time
    assert harness.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_nested_spans_sum_to_the_root():
    ticks = iter(range(100))
    t = harness.Tracer("w", clock=lambda: float(next(ticks)))
    with t.span("op", "harness") as root:
        with t.span("solve", "core.solver"):
            with t.span("apply", "core.kernels"):
                pass
            with t.span("apply", "core.kernels"):
                pass
    assert sum(t.layer_self_times(root).values()) == pytest.approx(root.duration)
    assert [s.parent for s in t.spans] == [None, 0, 1, 1]
    doc = t.chrome()
    tracks = {e["args"]["name"] for e in doc["traceEvents"] if e["name"] == "thread_name"}
    assert tracks == {"harness", "core.solver", "core.kernels"}


def test_summarize():
    s = harness.summarize([4.0, 1.0, 3.0, 2.0, 100.0])
    assert (s["value"], s["q1"], s["q3"]) == (3.0, 2.0, 4.0)
    assert (s["min"], s["max"], s["n"]) == (1.0, 100.0, 5)
    one = harness.summarize([7.0])
    assert one["value"] == one["q1"] == one["q3"] == 7.0
    assert harness.summarize([1.0, 2.0])["value"] == 1.5
    assert isinstance(harness.metric(3, "count")["value"], int)


# -- inputs -------------------------------------------------------------------------


def test_inputs_follow_the_seed():
    def blob(seed):
        mo = inputs.random_integrals(6, seed)
        vecs = inputs.ci_vectors((20, 20), seed)
        mol = inputs.water(seed)
        return b"".join([mo.h.tobytes(), mo.g.tobytes(), *(v.tobytes() for v in vecs),
                         np.array([a.position for a in mol.atoms]).tobytes()])

    assert blob(42) == blob(42)
    assert blob(42) != blob(43)
    assert 0.0 <= inputs.water_stretch(43) <= inputs.MAX_STRETCH_BOHR
    inputs.random_integrals(6, 42).validate_symmetries()


# -- names --------------------------------------------------------------------------


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_exactly_the_declared_metrics(name, trace, small, capsys):
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:  # all five are printed by name with a unit, fail_frac among them
        for metric in ("setup_s", "wall_s", "wall_per_probe", "peak_rss_mb", "fail_frac"):
            assert any(line.split()[:2] == [name, metric] for line in out)
    assert multiprocessing.active_children() == []
    assert leftovers() == []


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


# -- failures -----------------------------------------------------------------------


def test_wrong_sigma_is_counted_and_fails_the_command(small, monkeypatch, capsys):
    from repro.core import DgemmKernel

    honest = DgemmKernel.apply
    monkeypatch.setattr(DgemmKernel, "apply",
                        lambda self, C, counters=None: honest(self, C, counters) * (1 + 1e-6))
    code = run.main(["--workload", "sigma_cs12", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    last = json.loads(out.splitlines()[-1])
    assert code == 1 and not last["correct"] and last["failed"] >= 1
    assert "differs from the dense Hamiltonian" in out
    fail_frac = next(ln for ln in out.splitlines() if ln.split()[1:2] == ["fail_frac"])
    assert float(fail_frac.split()[3]) > 0


def test_wrong_energy_is_counted_and_fails_the_command(small, monkeypatch, capsys):
    import repro.core.solver as driver

    honest = driver.auto_adjusted_solve

    def off_by_a_microhartree(*args, **kwargs):
        result = honest(*args, **kwargs)
        result.energy += 1e-6
        return result

    monkeypatch.setattr(driver, "auto_adjusted_solve", off_by_a_microhartree)
    code = run.main(["--workload", "solve_h2o_631g", "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and last["failed"] == last["attempted"] >= 2


def test_failed_workloads_leave_nothing_behind(monkeypatch):
    from repro.core import Checkpointer

    pool = SMALL["sigma_shm2_os12"](5)
    pool.setup()
    assert len(multiprocessing.active_children()) == 2
    pool.close()
    monkeypatch.setattr(pool, "operation", lambda: 1 / 0)
    record = harness.measure(pool, 0.0, import_s=0.0)
    assert record["failed"] == record["repetitions"]["operations"] == harness.MIN_OPS
    assert record["end_to_end"]["fail_frac"]["value"] > 0
    assert "ZeroDivisionError" in record["failures"][0]
    assert pool.pool is None and multiprocessing.active_children() == []

    def disk_full(self, state):
        if state.iteration > workloads.SolveWater.cold_iterations:  # a timed solve only
            raise OSError("no space left on device")
        return honest_save(self, state)

    honest_save = Checkpointer.save
    monkeypatch.setattr(Checkpointer, "save", disk_full)
    record = harness.measure(SMALL["solve_ooc_h2o_631g"](5), 0.0, import_s=0.0)
    assert record["failed"] >= 1 and "no space left" in "".join(record["failures"])
    assert leftovers() == []


def test_the_command_leaves_no_process_behind():
    """A lost worker and multiprocessing's resource tracker are both waited for."""
    import subprocess

    script = (
        "import multiprocessing as mp, os, sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "if __name__ == '__main__':\n"
        "    lost = mp.get_context('spawn').Process(target=time.sleep, args=(60,))\n"
        "    lost.start()\n"
        "    from multiprocessing.resource_tracker import _resource_tracker as tracker\n"
        "    print(lost.pid, tracker._pid)\n"
        "    run.stop_children()\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        print('no children')\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    pids, verdict = done.stdout.splitlines()
    assert verdict == "no children", done.stderr
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids.split())

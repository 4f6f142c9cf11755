"""Measurement plumbing: statistics, probe GEMM, spans, provenance, loops.

Nothing here knows a workload by name.  A workload is any object with
``setup()``, ``operation()``, ``check(result)`` and ``close()``
(:class:`workloads.Workload`); this module times it from outside, and in a
traced run wraps calls into the program's public functions in in-memory
spans.  No file under ``src/`` is touched: instrumentation is attribute
patching for the duration of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT_DIR = HERE / "out"  # gitignored; traces, reports and every temporary file

SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_OPS = 2  # timed operations per run, however short --seconds is
PROBE_SHAPE = (144, 144, 65536)

clock = time.perf_counter


# -- statistics ---------------------------------------------------------------


def summarize(values) -> dict:
    """Median with quartiles, extremes and the sample count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "value": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def metric(value, unit: str, **extra) -> dict:
    """One reported number.  Counts stay ``int`` so they compare exactly."""
    out = {"value": value if isinstance(value, int) else float(value), "unit": unit}
    out.update(extra)
    return out


def timing(samples, unit: str = "s", scale: float = 1.0) -> dict:
    """A timing metric: the median of ``samples`` with its spread."""
    s = summarize([x * scale for x in samples])
    return metric(s.pop("value"), unit, **s)


# -- the probe ----------------------------------------------------------------


class Probe:
    """The fixed GEMM every timed operation is divided by (``wall_per_probe``).

    The output buffer is allocated once: a fresh 75 MB result per call would
    make the probe a page-fault benchmark instead of a DGEMM one.
    """

    def __init__(self):
        m, k, n = PROBE_SHAPE
        rng = np.random.default_rng(144)
        self.a = rng.standard_normal((m, k))
        self.b = rng.standard_normal((k, n))
        self.out = np.empty((m, n))
        self()

    def __call__(self) -> float:
        """Seconds of one probe GEMM (median of three back-to-back)."""
        times = []
        for _ in range(3):
            t0 = clock()
            np.matmul(self.a, self.b, out=self.out)
            times.append(clock() - t0)
        return statistics.median(times)


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    index: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    workload: str
    track: str = "main"
    info: dict = field(default_factory=dict)  # what an ``after`` hook kept of the result

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    edge = -float("inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


class Tracer:
    """In-memory spans of one workload, written out when the run ends."""

    def __init__(self, workload: str, *, clock=clock):
        self.workload = workload
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def add(self, name, layer, start, end, *, parent=None, track="main") -> Span:
        """Record a span timed elsewhere (e.g. a rank's reported phase)."""
        span = Span(len(self.spans), name, layer, start, end, parent, self.workload, track)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else None
        span = self.add(name, layer, self.clock(), float("nan"), parent=parent)
        self._stack.append(span.index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval the same-track children cover.

        Children are clipped to the parent and may overlap each other; other
        tracks (worker ranks) run beside the parent and cover nothing of it.
        """
        kids = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children(span)
            if c.track == span.track
        ]
        return span.duration - covered([k for k in kids if k[1] > k[0]])

    def within(self, root: Span) -> list[Span]:
        """``root`` and all its descendants."""
        keep = {root.index}
        out = [root]
        for s in self.spans[root.index + 1 :]:
            if s.parent in keep:
                keep.add(s.index)
                out.append(s)
        return out

    def layer_self_times(self, root: Span) -> dict[str, float]:
        """Self seconds per layer under ``root``, main track only."""
        totals: dict[str, float] = {}
        for s in self.within(root):
            if s.track == "main":
                totals[s.layer] = totals.get(s.layer, 0.0) + self.self_time(s)
        return totals

    def named(self, name: str, root: Span | None = None) -> list[Span]:
        pool = self.spans if root is None else self.within(root)
        return [s for s in pool if s.name == name]

    def chrome(self) -> dict:
        """Chrome trace-event document: one track per layer, one per rank."""
        from repro.obs import ChromeTracer

        tracks: dict[str, int] = {}
        ct = ChromeTracer(process_name=f"e2e benchmark: {self.workload}")
        t0 = min((s.start for s in self.spans), default=0.0)
        for s in self.spans:
            label = s.layer if s.track == "main" else s.track
            tid = tracks.setdefault(label, len(tracks))
            args = {"layer": s.layer, "workload": s.workload, "span": s.index}
            if s.parent is not None:
                args["parent"] = s.parent
            ct.complete(tid, s.name, s.layer, s.start - t0, s.end - t0, args)
        doc = ct.export()
        names = {tid: label for label, tid in tracks.items()}
        for ev in doc["traceEvents"]:
            if ev.get("name") == "thread_name":
                ev["args"]["name"] = names[ev["tid"]]
        return doc


_INHERITED = object()


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap ``owner.attr`` in spans for the duration of the block.

    ``targets`` rows are ``(owner, attr, span_name, layer[, after])`` where
    ``owner`` is a module or class and ``after(tracer, span, result)`` may
    add spans from what the call returned.
    """
    saved = []
    try:
        for owner, attr, name, layer, *rest in targets:
            after = rest[0] if rest else None
            raw = vars(owner).get(attr, _INHERITED)
            saved.append((owner, attr, raw))
            is_classmethod = isinstance(raw, classmethod)
            if raw is _INHERITED:
                fn = getattr(owner, attr)  # a base class's method: shadow it here
            else:
                fn = raw.__func__ if is_classmethod else raw

            def wrapper(*args, _fn=fn, _name=name, _layer=layer, _after=after, **kwargs):
                with tracer.span(_name, _layer) as span:
                    result = _fn(*args, **kwargs)
                if _after is not None:
                    _after(tracer, span, result)
                return result

            functools.update_wrapper(wrapper, fn)
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# -- the machine --------------------------------------------------------------


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads_in_effect() -> tuple[int | None, str]:
    """Ask the loaded OpenBLAS how many threads it runs, else quote the env."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn()), f"{os.path.basename(path)}:{sym}"
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return (int(env) if env else None), "OPENBLAS_NUM_THREADS (library not queried)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def last_level_cache_bytes() -> int:
    """Sum of the largest-level caches of cpu0 as sysfs reports them (0 if hidden)."""
    best_level, size = -1, 0
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1], 1)
        nbytes = int(text.rstrip("KMG")) * mult
        if level > best_level:
            best_level, size = level, nbytes
    return size


def provenance(seed: int, pinned_env) -> dict:
    """Where these numbers came from: commit, interpreter, BLAS, machine."""
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, source = _blas_threads_in_effect()
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "blas_threads_source": source,
        "pinned_env": {k: os.environ.get(k) for k in pinned_env},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` of this process, plus the largest reaped child's."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``out/`` (the benchmark writes nowhere else)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


# -- measuring a workload -----------------------------------------------------


def _attempt(workload, tracer=None):
    """One operation plus its output check; returns (seconds, failures, span)."""
    span = None
    t0 = clock()
    try:
        if tracer is None:
            result = workload.operation()
        else:
            with tracer.span("operation", "harness") as span:
                result = workload.operation()
        seconds = clock() - t0
        failures = workload.check(result)
    except Exception:
        seconds = clock() - t0
        failures = ["operation raised:\n" + traceback.format_exc()]
    return seconds, failures, span


def _setups(workload, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        workload.close()  # the previous set-up's pool and files
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)
    return times


def measure(workload, seconds: float, *, import_s: float) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    probe = Probe()
    failures: list[str] = []
    walls, ratios = [], []
    try:
        setup_times = _setups(workload, SETUP_REPS)
        failures += workload.setup_failures
        started = clock()
        while len(walls) < MIN_OPS or (
            clock() - started + statistics.median(walls) <= seconds
        ):
            p = probe()
            wall, failed, _ = _attempt(workload)
            walls.append(wall)
            ratios.append(wall / p)
            if failed:
                failures.append(f"op {len(walls)}: " + "; ".join(failed))
    finally:
        workload.close()  # joins the pool, so its RSS is in RUSAGE_CHILDREN
    attempted = len(walls) + workload.setup_checks
    setup = summarize([import_s + t for t in setup_times])
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "repetitions": {"setup": SETUP_REPS, "operations": len(walls), "probe_per_op": 3},
        "end_to_end": {
            "setup_s": metric(setup.pop("value"), "s", import_s=import_s, **setup),
            "wall_s": timing(walls),
            "wall_per_probe": timing(ratios, "ratio"),
            "peak_rss_mb": metric(peak_rss_mb(workload.has_children), "MB"),
            "fail_frac": metric(len(failures) / attempted, "ratio"),
        },
    }


def measure_traced(workload, seconds: float) -> dict:
    """The traced run: spans around the program's layers, then the lanes.

    Operations alternate untraced/traced so ``trace.overhead_frac`` compares
    like with like inside one process.
    """
    tracer = workload.tracer = Tracer(workload.name)
    targets = workload.targets()
    failures: list[str] = []
    plain, traced, roots = [], [], []
    try:
        with instrument(tracer, targets):
            with tracer.span("setup", "harness") as setup_span:
                workload.setup()
        failures += workload.setup_failures
        started = clock()
        while not traced or clock() - started + plain[-1] + traced[-1] <= seconds:
            wall, failed, _ = _attempt(workload)
            plain.append(wall)
            failures += failed
            with instrument(tracer, targets):
                wall, failed, root = _attempt(workload, tracer)
            traced.append(wall)
            roots.append(root)
            failures += failed
        with instrument(tracer, targets):
            per_layer, skipped, lane_failures = workload.layer_metrics(
                tracer, setup_span, roots, statistics.median(plain))
        failures += lane_failures
    finally:
        workload.close()
    by_layer = [tracer.layer_self_times(r) for r in roots]
    per_layer["trace.wall_s"] = timing(traced)
    per_layer["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"
    )
    per_layer["trace.self_sum_frac"] = metric(
        sum(sum(d.values()) for d in by_layer) / sum(traced), "ratio"
    )
    for layer in {layer for d in by_layer for layer in d}:
        per_op = sum(d.get(layer, 0.0) for d in by_layer) / len(roots)
        per_layer[f"self.{layer}_s"] = metric(per_op, "s")
    attempted = len(plain) + len(traced) + workload.setup_checks
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "repetitions": {"setup": 1, "operations_untraced": len(plain),
                        "operations_traced": len(traced)},
        "per_layer": per_layer,
        "skipped": skipped,
        "trace_events": tracer.chrome(),
    }


def write_json(path, payload) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

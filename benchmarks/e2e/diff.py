"""Compare two benchmark reports: ``python3 benchmarks/e2e/diff.py A.json B.json``.

Per workload, every end-to-end and per-layer metric as old -> new with the
ratio new/old (the base is always A).  End-to-end metrics are judged against
their ``BENCHMARK.json`` bound; where the spread inside either run is wider
than the bound the verdict is "unresolved", never "unchanged".  Exact counts
are compared as counts.  Exits 1 when an end-to-end metric regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent


def load(path) -> dict:
    """``{workload: {"end_to_end": {...}, "per_layer": {...}, "seed": n}}``."""
    with open(path) as fh:
        report = json.load(fh)
    out: dict = {}
    for run in report["runs"]:
        entry = out.setdefault(run["workload"], {"end_to_end": {}, "per_layer": {}})
        entry["seed"] = run["seed"]
        for section in ("end_to_end", "per_layer"):
            entry[section].update(run.get(section, {}))
    return out


def spread(m: dict) -> float:
    """Interquartile range over the median inside one run, 0 where unknown."""
    if "q1" not in m or not m["value"]:
        return 0.0
    return (m["q3"] - m["q1"]) / abs(m["value"])


def fmt(value) -> str:
    return f"{value:d}" if isinstance(value, int) else f"{value:.6g}"


def judge(old: dict, new: dict, better: str, bound: float) -> tuple[str, bool]:
    """Verdict on one bounded metric and whether it is a flagged regression."""
    if not old["value"]:
        return "no base", False
    ratio = new["value"] / old["value"]
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return f"REGRESSED beyond bound {bound:g}", True
    if -worse > bound:
        return f"improved beyond bound {bound:g}", False
    wide = max(spread(old), spread(new))
    if wide > bound:
        return f"unresolved: spread {wide:.3f} > bound {bound:g}", False
    return f"unchanged within bound {bound:g}", False


def row(name, old, new, verdict) -> str:
    if old is None or new is None:
        side = "A" if new is None else "B"
        m = old or new
        return f"  {name:<38} only in {side}: {fmt(m['value'])} {m['unit']}"
    a, b = old["value"], new["value"]
    if isinstance(a, int) and isinstance(b, int):
        # a count repeats exactly or it changed; a ratio would blur that
        text = "same" if a == b else f"CHANGED by {b - a:+d}"
        return f"  {name:<38} {fmt(a):>14} -> {fmt(b):>14} {old['unit']:<9} {text}"
    ratio = f"x{b / a:.4f} of {fmt(a)}" if a else "no base"
    return (f"  {name:<38} {fmt(a):>14} -> {fmt(b):>14} {old['unit']:<9} "
            f"{ratio:<24} {verdict}")


def diff(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines, flagged = [], False
    for workload in [w["name"] for w in spec["workloads"] if w["name"] in a or w["name"] in b]:
        old, new = a.get(workload), b.get(workload)
        if old is None or new is None:
            lines.append(f"== {workload}: only in {'A' if new is None else 'B'}")
            continue
        lines.append(f"== {workload}   seed {old['seed']} -> {new['seed']}")
        for section in ("end_to_end", "per_layer"):
            names = sorted(set(old[section]) | set(new[section]))
            if names:
                lines.append(f" {section.replace('_', ' ')}")
            for name in names:
                m_old, m_new = old[section].get(name), new[section].get(name)
                verdict = ""
                if m_old and m_new and name in bounds:
                    verdict, bad = judge(m_old, m_new, bounds[name]["better"],
                                         bounds[name]["bound"])
                    flagged |= bad
                elif m_old and m_new and name == "fail_frac":
                    bad = m_new["value"] > m_old["value"]  # bound: 0, absolute
                    verdict = "REGRESSED: more operations fail" if bad else ""
                    flagged |= bad
                lines.append(row(name, m_old, m_new, verdict))
    return lines, flagged


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    lines, flagged = diff(load(argv[0]), load(argv[1]), spec)
    print(f"A = {argv[0]}\nB = {argv[1]}\n" + "\n".join(lines))
    if flagged:
        print("\nat least one end-to-end metric regressed beyond its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

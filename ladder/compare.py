"""Two result documents against the catalogue's bounds.

``python -m ladder compare base.json cand.json`` prints one row per
(workload, end-to-end metric):

* ``ok`` — the candidate's median is no worse than the base's by more
  than the metric's bound;
* ``regression`` — it is, and by more than the run-to-run spread;
* ``unresolved`` — the spread between a side's own runs is wider than
  the bound (or than the apparent regression), so the runs cannot tell;
  it counts as ``ok`` only if every candidate run beats every base run.

A document holds one or more *sets* (``--sets K``); spread is the range of
a side's sets over its median.  The quality metrics are compared
bit-for-bit on the synchronous workloads when both documents ran the
same seed.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Tuple

from ladder.catalog import END_TO_END, SYNC, WORKLOADS, Metric

__all__ = ["bound_for", "worse_by", "compare_docs", "agreement", "main"]


def bound_for(metric: Metric, workload: str, same_seed: bool) -> float:
    if same_seed and metric.same_seed is not None:
        return metric.same_seed[0 if workload in SYNC else 1]
    return metric.bound


def worse_by(metric: Metric, base: float, cand: float) -> float:
    """How much worse ``cand`` is than ``base``, as a share of ``base``
    (absolute when ``base`` is 0); negative when it is better."""
    delta = cand - base if metric.better == "lower" else base - cand
    return delta / abs(base) if base else delta


def _values(doc: dict, workload: str, metric: str) -> List[float]:
    out = []
    for run_set in doc["sets"]:
        value = run_set.get(workload, {}).get("end_to_end", {}).get(metric)
        if value is not None:
            out.append(value)
    return out


def _spread(values: List[float]) -> float:
    med = statistics.median(values)
    return (max(values) - min(values)) / abs(med) if med else max(values) - min(values)


def compare_docs(base: dict, cand: dict) -> List[Tuple[str, str, float, float, float, float, str]]:
    """Rows ``(workload, metric, base median, candidate median, worse-by,
    bound, verdict)``."""
    same_seed = base["manifest"]["seed"] == cand["manifest"]["seed"]
    rows = []
    for w in WORKLOADS:
        for metric in END_TO_END:
            b, c = _values(base, w.name, metric.name), _values(cand, w.name, metric.name)
            if not b or not c:
                continue
            bound = bound_for(metric, w.name, same_seed)
            b_med, c_med = statistics.median(b), statistics.median(c)
            by = worse_by(metric, b_med, c_med)
            spread = max(_spread(b), _spread(c))
            all_better = max(c) < min(b) if metric.better == "lower" else min(c) > max(b)
            if by > bound:
                verdict = "regression" if by > spread else "unresolved"
            else:
                verdict = "ok" if spread <= bound or all_better else "unresolved"
            rows.append((w.name, metric.name, b_med, c_med, by, bound, verdict))
    return rows


def format_rows(rows) -> str:
    lines = [f"{'workload':<18} {'metric':<16} {'base':>14} {'candidate':>14} {'worse by':>9} {'bound':>7}  verdict"]
    for workload, metric, b, c, by, bound, verdict in rows:
        lines.append(f"{workload:<18} {metric:<16} {b:>14.6g} {c:>14.6g} {by:>+9.2%} {bound:>7.1%}  {verdict}")
    return "\n".join(lines)


def agreement(doc: dict) -> Tuple[bool, str]:
    """Do the first two sets of one document agree?  Symmetric: neither
    may be worse than the other by more than the bound, and the quality
    metrics of the synchronous workloads must be bit-for-bit equal."""
    first, second = doc["sets"][0], doc["sets"][1]
    lines = [f"{'workload':<18} {'metric':<16} {'set 1':>14} {'set 2':>14} {'differ by':>9} {'bound':>7}  agree"]
    ok = True
    for w in WORKLOADS:
        for metric in END_TO_END:
            a = first.get(w.name, {}).get("end_to_end", {}).get(metric.name)
            b = second.get(w.name, {}).get("end_to_end", {}).get(metric.name)
            if a is None or b is None:
                continue
            bound = bound_for(metric, w.name, same_seed=True)
            by = max(worse_by(metric, a, b), worse_by(metric, b, a))
            agree = by <= bound
            ok = ok and agree
            lines.append(f"{w.name:<18} {metric.name:<16} {a:>14.6g} {b:>14.6g} {by:>9.2%} {bound:>7.1%}  "
                         f"{'yes' if agree else 'NO'}")
    return ok, "\n".join(lines)


def main(base_path: str, cand_path: str) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(cand_path, encoding="utf-8") as fh:
        cand = json.load(fh)
    if base["manifest"]["seed"] != cand["manifest"]["seed"]:
        print("ladder: seeds differ; the quality metrics fall back to their cross-seed bounds")
    rows = compare_docs(base, cand)
    print(format_rows(rows))
    verdicts = [row[-1] for row in rows]
    print(f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('regression')} regression")
    return 1 if "regression" in verdicts else 0

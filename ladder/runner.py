"""Run one workload in this process, or all of them in subprocesses."""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from ladder import catalog
from ladder.catalog import END_TO_END, PER_LAYER, WORKLOADS, driver_end_to_end, metric

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: set-up is repeated so that ``setup_s`` is a median, not one draw.
SETUPS = 3


def _print_metrics(title: str, values: Dict[str, float], extra: str = "") -> None:
    print(f"{title}{extra}")
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6g} {metric(name).unit}")


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool,
            doc_path: Optional[str], t0: float) -> int:
    """One workload, here.  The last line printed is the driver's JSON."""
    from ladder.harness import REFERENCE_S, end_to_end, host_reference, manifest
    from ladder.spans import SpanLog, layer_summary
    from ladder.workloads import REGISTRY

    import_s = time.perf_counter() - t0
    workload = REGISTRY[name]
    sizes = workload.sizes(seconds, smoke)
    info = manifest(seed, seconds, smoke, sizes)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        setups = []
        state = None
        for _ in range(SETUPS):
            state = None
            t = time.perf_counter()
            state = workload.setup(seed, sizes, tmp)
            setups.append(time.perf_counter() - t)
        # the inputs are the harness's objects, not the program's garbage:
        # keep the collector from walking them inside the timed region
        gc.collect()
        gc.freeze()
        doc = {"workload": name, "manifest": info, "end_to_end": {}, "per_layer": {}}
        if traced:
            log = SpanLog()
            reference = [host_reference() for _ in range(5)]
            layers, traced_s, untraced_s = workload.trace(state, log)
            reference += [host_reference() for _ in range(5)]
            layers.update(layer_summary(log, catalog.workload(name).layer, traced_s, untraced_s))
            layers["trace.host_speed"] = REFERENCE_S / min(reference)
            doc["per_layer"] = layers
            roots = sum(1 for row in log.rows if row[3] is None)
            log.write_jsonl(os.path.join(OUT_DIR, f"trace-{name}.jsonl"))
            doc.update(correct=True, attempted=max(roots, 1), failed=0, violations=[], spans=len(log.rows))
            _print_metrics(f"{name} (traced, {len(log.rows)} spans)", doc["per_layer"])
            driver = {m.name: doc["per_layer"].get(m.name, 0.0) for m in PER_LAYER}
        else:
            m = workload.measure(state, seconds)
            setup_s = import_s + statistics.median(setups) + m.prepare_s
            e2e = doc["end_to_end"] = end_to_end(m, setup_s)
            doc.update(correct=not m.violations, attempted=m.attempted,
                       failed=m.attempted if m.violations else m.failed,
                       violations=m.violations, detail=m.detail,
                       units=m.units, reference=m.reference, latency=m.latency,
                       latency_samples=m.latency_samples,
                       setup_parts={"import_s": import_s, "generate_s": setups, "prepare_s": m.prepare_s})
            extra = f" ({len(m.units)} {'units' if not m.latency else 'windows'}"
            extra += f", {m.latency_samples} latency samples per window)" if m.latency else ")"
            _print_metrics(name, e2e, extra)
            for key, value in m.detail.items():
                print(f"  ({key} {value:.6g})")
            for line in m.violations:
                print(f"  CHECK FAILED: {line}")
            driver = dict(e2e)
            driver["served_share"] = 1.0 - driver.pop("failed_share")
            # a synchronous replay has one caller: its per-request latency is the service time
            service_us = 1e6 / e2e["throughput_rps"]
            driver.setdefault("latency_p50_us", service_us)
            driver.setdefault("latency_p99_us", service_us)
            driver = {d.name: driver[d.name] for d in driver_end_to_end()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if doc_path:
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    units = {m.name: m.unit for m in driver_end_to_end() + PER_LAYER}
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in driver.items()},
    }))
    return 0 if doc["correct"] else 1


def _spawn(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """One workload in its own process, so ``peak_rss_mb`` is its own and
    nothing leaks into the next."""
    doc_path = os.path.join(OUT_DIR, f"{name}{'.traced' if traced else ''}.json")
    cmd = [sys.executable, "-m", "ladder", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced)), "--doc", doc_path]
    if smoke:
        cmd.append("--smoke")
    if os.path.exists(doc_path):
        os.remove(doc_path)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # the child's table, without the driver's JSON line
    sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
    sys.stdout.flush()
    if not os.path.exists(doc_path):
        print(f"ladder: {name} exited {proc.returncode} without a result", file=sys.stderr)
        return {"workload": name, "correct": False, "end_to_end": {}, "per_layer": {},
                "violations": [f"exit {proc.returncode} without a result"]}
    with open(doc_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(names: List[str], seed: int, seconds: float, traced: bool, smoke: bool,
            sets: int, check_agreement: bool, out_path: Optional[str]) -> int:
    from ladder import compare
    from ladder.harness import manifest

    os.makedirs(OUT_DIR, exist_ok=True)
    doc = {"schema": 1, "manifest": manifest(seed, seconds, smoke, {}, warn=True), "sets": []}
    correct = True
    for k in range(sets):
        if sets > 1:
            print(f"== set {k + 1} of {sets}")
        run_set: Dict[str, dict] = {}
        for name in names:
            result = _spawn(name, seed, seconds, False, smoke)
            if traced:
                result["per_layer"] = _spawn(name, seed, seconds, True, smoke)["per_layer"]
            correct = correct and result["correct"]
            run_set[name] = result
        doc["sets"].append(run_set)
    out_path = out_path or os.path.join(OUT_DIR, "ladder.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"wrote {out_path}")
    missing = [
        f"{w.name}: {m.name}"
        for run_set in doc["sets"]
        for w in WORKLOADS if w.name in run_set
        for m in END_TO_END + (PER_LAYER if traced else ())
        if m.measured_on(w.name)
        and m.name not in run_set[w.name]["end_to_end" if m in END_TO_END else "per_layer"]
    ]
    for line in missing:
        print(f"ladder: MISSING {line}", file=sys.stderr)
    if not correct:
        print("ladder: a correctness check failed", file=sys.stderr)
    agreed = True
    if check_agreement:
        agreed, report = compare.agreement(doc)
        print(report)
        print("the two sets agree" if agreed else "the two sets DISAGREE")
    return 0 if correct and agreed and not missing else 1

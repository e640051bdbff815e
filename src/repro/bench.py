"""The bench surface: one registry, one document, one writer, one reproducer.

``repro bench <target>`` runs one of five quality benches (``serve``,
``orchestrate``, ``cluster``, ``net``, ``tenancy``; speed lives in
``python -m ladder``).  Every ``run_<target>_bench`` returns — and
``BENCH_<target>.json`` holds — the same **envelope** (schema
:data:`BENCH_RESULT_SCHEMA`), a :class:`BenchResult`:

.. code-block:: text

    {
      "schema":        1,            # envelope version
      "target":        "serve",     # registry key
      "target_schema": 1,            # version of this target's results block
      "config":        {...},        # the run's knobs, derived values included
      "results":       {...},        # the target's measurements
      "manifest":      {...}         # run manifest; config again under extra
    }

Runners build it with :func:`bench_result`, :func:`write_bench_doc` is
the only writer, the subsystem formatters read it, and
:func:`config_from_doc` turns a persisted one back into the runner's
keywords from data on the target's :class:`BenchSpec` row.  Tooling that
gates on metrics (``tools/check_bench_regression.py``) addresses them
uniformly as ``results.<dotted.path>`` regardless of target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "BENCH_RESULT_SCHEMA",
    "BenchSpec",
    "BenchResult",
    "bench_registry",
    "bench_result",
    "run_bench",
    "config_from_doc",
    "write_bench_doc",
    "load_bench_doc",
]

#: Version of the envelope; bump on breaking envelope changes (results
#: blocks version themselves via ``target_schema``).
BENCH_RESULT_SCHEMA = 1


@dataclass(frozen=True)
class BenchSpec:
    """One registry row: where a target lives and how its recorded
    config maps back onto its runner's keywords."""

    target: str
    description: str
    #: Module exporting ``run_<target>_bench`` and ``format_<target>_doc``;
    #: imported on first use, so listing the registry imports no subsystem.
    module: str
    #: Config keys the run computes from the others (recorded for the
    #: reader, recomputed — not replayed — on reproduction).
    derived: Tuple[str, ...] = ("capacity_bytes",)
    #: ``(config key, runner keyword)`` where the two differ.
    renames: Tuple[Tuple[str, str], ...] = (("cache_fraction", "fraction"),)
    #: Where the config sits under ``manifest.extra``.
    manifest_key: str = ""

    @property
    def default_output(self) -> str:
        """Canonical artifact path for ``repro bench <target>``."""
        return f"BENCH_{self.target}.json"

    @property
    def runner(self) -> Callable[..., "BenchResult"]:
        """``(quick=..., **knobs) -> BenchResult``."""
        return getattr(import_module(self.module), f"run_{self.target}_bench")

    @property
    def formatter(self) -> Callable[["BenchResult"], str]:
        """``BenchResult -> str`` human summary for the CLI."""
        return getattr(import_module(self.module), f"format_{self.target}_doc")


@dataclass
class BenchResult:
    """One bench run (what ``BENCH_<target>.json`` holds)."""

    target: str
    target_schema: Optional[int]
    config: Dict[str, Any]
    results: Dict[str, Any]
    manifest: Optional[Dict[str, Any]] = None
    schema: int = BENCH_RESULT_SCHEMA
    path: Optional[str] = None  # where it was persisted, if anywhere

    def as_doc(self) -> dict:
        return {
            "schema": self.schema,
            "target": self.target,
            "target_schema": self.target_schema,
            "config": self.config,
            "results": self.results,
            "manifest": self.manifest,
        }

    @classmethod
    def from_doc(cls, doc: dict, path: Optional[str] = None) -> "BenchResult":
        if doc.get("schema") != BENCH_RESULT_SCHEMA or "target" not in doc:
            raise ValueError(
                f"not a unified bench doc (schema {doc.get('schema')!r}, "
                f"expected {BENCH_RESULT_SCHEMA})"
            )
        return cls(
            target=doc["target"],
            target_schema=doc.get("target_schema"),
            config=doc.get("config") or {},
            results=doc["results"],
            manifest=doc.get("manifest"),
            schema=doc["schema"],
            path=path,
        )


_DIP = ("victim", "kill_at", "restart_at")

_REGISTRY = {
    spec.target: spec
    for spec in (
        BenchSpec(
            "serve",
            "concurrent cache service + closed-loop load generator",
            "repro.serve",
            renames=(
                ("cache_fraction", "fraction"),
                ("origin_latency_s", "origin_latency"),
                ("timeout_s", "timeout"),
            ),
            manifest_key="serve_config",
        ),
        BenchSpec(
            "orchestrate",
            "shadow-cache policy orchestration vs fixed candidates",
            "repro.orchestrate.bench",
        ),
        BenchSpec(
            "cluster",
            "replicated multi-node cluster under a fault schedule",
            "repro.cluster.bench",
            derived=("capacity_bytes",) + _DIP,
        ),
        BenchSpec(
            "net",
            "placement x edge-policy grid over a cache tree",
            "repro.net.bench",
            derived=("capacities", "total_capacity_bytes") + _DIP,
        ),
        BenchSpec(
            "tenancy",
            "online multi-tenant capacity allocation vs static split",
            "repro.tenancy.bench",
        ),
    )
}


def bench_registry() -> Dict[str, BenchSpec]:
    """``target -> BenchSpec`` for every bench the toolkit ships."""
    return dict(_REGISTRY)


def _spec(target) -> BenchSpec:
    try:
        return _REGISTRY[target]
    except KeyError:
        raise KeyError(
            f"unknown bench target {target!r}; available: {sorted(_REGISTRY)}"
        ) from None


def bench_result(
    target: str,
    target_schema: int,
    config: dict,
    results: dict,
    trace=None,
    seed: Optional[int] = None,
) -> BenchResult:
    """Wrap one run's ``config`` and ``results`` in the envelope, with a
    run manifest (git SHA, platform, trace identity, ``config`` under
    ``extra``) attached — the one place a run becomes a document."""
    from repro.obs.manifest import build_manifest

    key = _spec(target).manifest_key or target
    manifest = build_manifest(trace=trace, seed=seed, extra={key: config})
    return BenchResult(target, target_schema, config, results, manifest)


def run_bench(
    target: str,
    output: Optional[str] = "",
    quick: bool = False,
    seed: Optional[int] = None,
    **kwargs,
) -> BenchResult:
    """Run one registered bench target and persist its document.

    Parameters
    ----------
    target:
        Registry key (``serve``, ``orchestrate``, ``cluster``, ``net``,
        ``tenancy``).
    output:
        Document path; ``""`` (the default) means the target's canonical
        ``BENCH_<target>.json``, ``None`` skips writing.
    quick:
        The target's CI smoke shape.
    seed:
        Seed forwarded to the runner; ``None`` keeps the target's own
        default so unseeded runs reproduce the historical streams.
    kwargs:
        Target-specific knobs, passed through to the runner verbatim.
    """
    spec = _spec(target)
    if seed is not None:
        kwargs["seed"] = seed
    result = spec.runner(quick=quick, **kwargs)
    if output == "":
        output = spec.default_output
    if output:
        result.path = write_bench_doc(result.as_doc(), output)
    return result


def config_from_doc(doc: dict) -> dict:
    """Rebuild the runner's keyword set from a persisted document.

    The reproducibility contract, for every target: the ``config`` block
    (the manifest's ``extra`` carries the same one) minus the keys the
    run derives, under the runner's own keyword names — so
    ``spec.runner(**config_from_doc(doc))`` is the same run again.
    """
    spec = _spec(doc.get("target"))
    renames = dict(spec.renames)
    return {
        renames.get(key, key): value
        for key, value in doc["config"].items()
        if key not in spec.derived
    }


def write_bench_doc(doc: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return str(path)


def load_bench_doc(path: str) -> BenchResult:
    with open(path, encoding="utf-8") as fh:
        return BenchResult.from_doc(json.load(fh), path=path)

#!/usr/bin/env python3
"""Compare one numeric metric between two bench JSON docs; exit 1 on a drop.

Usage::

    python tools/check_bench_regression.py \
        --baseline BENCH_serve.quick.json \
        --candidate BENCH_serve.json \
        --schema 1 \
        --metric results.loadgen.throughput_rps \
        --max-drop 0.25

``--metric`` is a dotted path into the JSON document (list indices allowed:
``results.0.tps``) and is repeatable — every given metric is checked and
the worst verdict wins, so one invocation can gate several headline
numbers of the same doc.  The check fails when a candidate value has
dropped by more than ``--max-drop`` (a fraction) relative to the
baseline.  Higher-is-better is assumed; pass ``--lower-is-better`` for
latency-style metrics, where the check instead fails on a >``max-drop``
*increase* (the flag applies to every metric in the invocation).

Bench artifacts are unified envelopes (``repro bench <target>``, schema
:data:`repro.bench.BENCH_RESULT_SCHEMA`): the target's own document lives
under ``results``, so gate metrics address it as ``results.<path>``.
Pass ``--schema N`` to assert both docs carry that top-level envelope
version — the guard that fails **loudly** (exit 2, naming the file and
the schema it actually has) when a layout migration would otherwise make
a dotted path silently resolve against the wrong shape.
"""

from __future__ import annotations

import argparse
import json
import sys


def resolve(doc, dotted: str):
    node = doc
    for part in dotted.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            if part not in node:
                raise KeyError(f"{dotted!r}: no key {part!r} (have {sorted(node)})")
            node = node[part]
        else:
            raise KeyError(f"{dotted!r}: {part!r} reached a leaf {node!r}")
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise TypeError(f"{dotted!r} is {type(node).__name__}, not a number")
    return float(node)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="committed reference JSON")
    ap.add_argument("--candidate", required=True, help="freshly measured JSON")
    ap.add_argument(
        "--metric",
        required=True,
        action="append",
        help="dotted path, e.g. results.loadgen.throughput_rps (repeatable; all must pass)",
    )
    ap.add_argument(
        "--max-drop",
        type=float,
        default=0.15,
        help="tolerated relative regression (fraction, default 0.15)",
    )
    ap.add_argument(
        "--lower-is-better",
        action="store_true",
        help="treat increases (not drops) as regressions",
    )
    ap.add_argument(
        "--schema",
        type=int,
        default=None,
        help="require this top-level 'schema' in both docs (exit 2 on mismatch)",
    )
    args = ap.parse_args(argv)
    if not 0.0 < args.max_drop < 1.0:
        print(f"--max-drop must be in (0, 1), got {args.max_drop}")
        return 2

    try:
        with open(args.baseline) as fh:
            base_doc = json.load(fh)
        with open(args.candidate) as fh:
            cand_doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot compare: {exc}")
        return 2

    if args.schema is not None:
        for label, path, doc in (
            ("baseline", args.baseline, base_doc),
            ("candidate", args.candidate, cand_doc),
        ):
            have = doc.get("schema") if isinstance(doc, dict) else None
            if have != args.schema:
                print(
                    f"schema mismatch: {label} {path} has schema {have!r}, "
                    f"expected {args.schema} — refusing to compare metrics "
                    "against the wrong document layout"
                )
                return 2

    failed = False
    for metric in args.metric:
        try:
            base = resolve(base_doc, metric)
            cand = resolve(cand_doc, metric)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            print(f"cannot compare: {exc}")
            return 2
        if base <= 0:
            print(f"baseline {metric} is {base}; nothing to compare against")
            return 2
        change = (cand - base) / base
        regression = -change if not args.lower_is_better else change
        verdict = "FAIL" if regression > args.max_drop else "ok"
        failed = failed or verdict == "FAIL"
        print(
            f"{metric}: baseline {base:,.2f} -> candidate {cand:,.2f} "
            f"({change:+.1%}; tolerated regression {args.max_drop:.0%}) {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

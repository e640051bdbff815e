"""Command-line interface.

The subcommands mirror the library's workflow::

    python -m repro simulate    --policy SCIP --workload CDN-T --fraction 0.02 \\
                                [--trace-file big.bin] \\
                                [--trace-out events.jsonl --obs-summary]
    python -m repro experiment  fig8 [--scale bench]
    python -m repro workload    --name CDN-W -n 50000 -o cdnw.tr [--analyze]
    python -m repro trace       gen|convert|info ... (binary trace files)
    python -m repro report      [--scale bench] -o EXPERIMENTS.md
    python -m repro bench       serve|orchestrate|cluster|net|tenancy \\
                                [--quick] [--seed N] [-o BENCH_<target>.json]
    python -m repro obs         events.jsonl [--rows 24]
    python -m repro trace-report spans.jsonl [--trace ID] [--waterfalls 1]

`simulate` replays one policy on one workload (optionally recording a
schema-versioned JSONL event stream, registry snapshots, and a run
manifest); a ``.bin`` trace file streams chunk by chunk, in bounded memory
at paper scale, for every registry policy (only an observability flag or a
Belady oracle materialises it); `experiment` prints a paper
table; `workload` generates/analyses/saves traces; `trace` generates,
converts (text<->binary, streaming both ways), and inspects binary trace
files; `report` regenerates the full paper-vs-measured document; `obs`
reads an event stream back into the ω_m/ω_l and λ learner trajectories;
`trace-report` renders per-stage latency tables, critical-path
breakdowns, and span waterfalls from the stream ``--span-out`` records
on the serving benches.

`bench <target>` drives every quality benchmark through one registry
(:func:`repro.bench.bench_registry`) with uniform ``--quick`` /
``--seed`` / ``-o`` conventions, and persists the one bench document
(:data:`repro.bench.BENCH_RESULT_SCHEMA`: top-level ``schema`` /
``target`` / ``config`` / ``results`` / ``manifest``).  Targets:
``serve`` (asyncio cache service + load generator), ``orchestrate``
(shadow-cache policy switching), ``cluster`` (replication under faults),
``net`` (cache-tree placement grid), and ``tenancy`` (online multi-tenant
capacity allocation).  Speed is measured by ``python -m ladder``.

Policy names everywhere come from the unified registry
(:func:`repro.cache.registry.available_policies`); every subcommand exits
2 on invalid arguments (unknown policy/trace names, out-of-range knobs).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main"]


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.cache.registry import resolve_policy
    from repro.sim.batch import simulate_batch
    from repro.sim.engine import simulate
    from repro.traces.binfmt import BinTraceReader, TraceFormatError, is_bin_trace, read_bin
    from repro.traces.cdn import make_workload
    from repro.traces.io import read_lrb

    try:
        factory = resolve_policy(args.policy)
    except KeyError as exc:
        print(str(exc).strip('"\''))
        return 2
    if args.snapshot_every < 0:
        print(f"--snapshot-every must be >= 0, got {args.snapshot_every}")
        return 2
    obs = None
    if args.trace_out or args.obs_summary or args.snapshot_every or args.manifest_out:
        from repro.obs import ObsConfig

        manifest_out = args.manifest_out
        if manifest_out is None and args.trace_out:
            manifest_out = args.trace_out + ".manifest.json"
        obs = ObsConfig(
            trace_out=args.trace_out,
            snapshot_every=args.snapshot_every,
            manifest_out=manifest_out,
        )

    # A .bin streams chunk by chunk, whatever the policy, with capacity
    # planned from the header's working-set estimate (no preparatory scan;
    # the same file + fraction gives the same cache streamed or
    # materialised).  Only a run that wants per-request events, or an oracle
    # that wants the annotated trace, materialises it.
    trace = wss = None
    try:
        if args.trace_file and is_bin_trace(args.trace_file):
            with BinTraceReader(args.trace_file) as reader:
                wss = reader.wss_estimate
            if obs is not None or getattr(factory, "needs_future", False):
                trace = read_bin(args.trace_file)
        elif args.trace_file:
            trace = read_lrb(args.trace_file)
        else:
            trace = make_workload(args.workload, n_requests=args.requests)
    except (TraceFormatError, ValueError, OSError) as exc:
        print(f"cannot read trace: {exc}" if args.trace_file else exc)
        return 2
    if wss is None:
        wss = trace.working_set_size
    cap = args.cache_bytes or max(int(wss * args.fraction), 1)

    if trace is None:
        res = simulate_batch(args.policy, args.trace_file, cap, warmup=args.warmup)
    else:
        try:
            res = simulate(factory(cap), trace, warmup=args.warmup, obs=obs)
        except OSError as exc:
            if obs is None:
                raise
            print(f"cannot write observability output: {exc}")
            return 2
    print(
        f"{res.policy} on {res.trace}{' [batch]' if trace is None else ''}: "
        f"miss_ratio={res.miss_ratio:.4f} "
        f"byte_miss_ratio={res.byte_miss_ratio:.4f} tps={res.tps:,.0f} "
        f"cache={cap / 1e9:.3f} GB"
    )
    if obs is not None:
        if args.trace_out:
            print(f"wrote {args.trace_out} ({res.obs['events_written']} events)")
        if obs.manifest_out:
            print(f"wrote {obs.manifest_out}")
        if args.obs_summary:
            print(_format_registry(res.obs["registry"]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.traces.binfmt import TraceFormatError

    try:
        return args.trace_func(args)
    except TraceFormatError as exc:
        print(f"invalid trace: {exc}")
        return 2
    except (ValueError, KeyError) as exc:
        print(str(exc).strip('"\''))
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}")
        return 2


def _format_header(h: dict) -> str:
    count = h.get("count", h.get("total_requests", 0))
    msize = h.get("max_size", h.get("max_object_size", 0))
    return (
        f"{count:,} requests, ~{h['unique_estimate']:,} objects, "
        f"WSS ~{h['wss_estimate'] / 1e9:.2f} GB, "
        f"{h['total_bytes'] / 1e9:.2f} GB requested, max object {msize:,} B"
    )


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    if args.requests < 1:
        print(f"-n/--requests must be >= 1, got {args.requests}")
        return 2
    if args.stream:
        from repro.traces.streaming import make_stream_spec, stream_to_bin

        spec = make_stream_spec(args.workload, args.requests, seed=args.seed)
        header = stream_to_bin(spec, args.output)
    else:
        from repro.traces.cdn import workload_to_bin

        header = workload_to_bin(args.workload, args.requests, args.output, seed=args.seed)
    mode = "stream" if args.stream else "classic"
    print(f"wrote {args.output} ({args.workload} {mode}): {_format_header(header)}")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.traces.binfmt import is_bin_trace
    from repro.traces.io import bin_to_text, text_to_bin

    if is_bin_trace(args.src):
        n = bin_to_text(args.src, args.dst, fmt=args.format)
        print(f"wrote {args.dst}: {n:,} requests (text)")
    else:
        header = text_to_bin(args.src, args.dst, fmt=args.format)
        print(f"wrote {args.dst} (binary): {_format_header(header)}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.traces.binfmt import BinTraceReader

    with BinTraceReader(args.path) as reader:
        summary = reader.summary()
        for field in (
            "name",
            "path",
            "version",
            "total_requests",
            "key_min",
            "key_max",
            "total_bytes",
            "max_object_size",
            "unique_estimate",
            "wss_estimate",
            "checksum",
        ):
            print(f"{field:<16} {summary[field]}")
        if args.verify:
            reader.verify()
            print("checksum         OK (payload verified)")
    if args.receivers:
        if args.receivers < 1 or args.edges < 1:
            print("--receivers and --edges must be >= 1")
            return 2
        from repro.net.bench import _edge_wss
        from repro.net.receivers import ZipfReceivers, receiver_wss_from_bin

        rx = ZipfReceivers(args.receivers, beta=args.receiver_beta, seed=args.seed)
        rows = receiver_wss_from_bin(args.path, args.receivers, receivers=rx)
        print(
            f"per-edge WSS     {args.receivers} receivers "
            f"(beta={args.receiver_beta}) on {args.edges} edges (SHARDS estimates)"
        )
        for row in _edge_wss(rows, args.edges):
            print(
                f"  {row['edge']:<7} {row['receivers']:3d} receivers "
                f"rate={row['rate']:.3f} requests={row['requests']:,} "
                f"wss={row['wss_lower_bytes']:,}..{row['wss_upper_bytes']:,} bytes"
            )
    return 0


def _format_registry(registry: dict) -> str:
    """Render a registry snapshot as an aligned name/labels/value table."""
    lines = [f"{'metric':<24} {'labels':<24} {'value':>14}"]
    for name, by_label in registry.items():
        for label_str, payload in by_label.items():
            if payload["type"] == "histogram":
                value = (
                    f"n={payload['count']} mean={payload['mean']:.1f} "
                    f"p99={payload['p99']:.0f}"
                )
                lines.append(f"{name:<24} {label_str:<24} {value:>14}")
            else:
                value = payload["value"]
                formatted = f"{value:.4f}" if isinstance(value, float) else str(value)
                lines.append(f"{name:<24} {label_str:<24} {formatted:>14}")
    return "\n".join(lines)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        event_counts,
        format_learner_table,
        format_summary,
        learner_series,
        read_events,
    )

    try:
        events = list(read_events(args.events))
    except FileNotFoundError:
        print(f"no such event stream: {args.events}")
        return 2
    except ValueError as exc:
        print(f"cannot read {args.events}: {exc}")
        return 2
    print(format_summary(event_counts(events)))
    print()
    print(format_learner_table(learner_series(events), max_rows=args.rows))
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs.tracereport import format_trace_report

    if args.waterfalls < 0:
        print(f"--waterfalls must be >= 0, got {args.waterfalls}")
        return 2
    try:
        report = format_trace_report(
            args.spans, trace_id=args.trace, waterfalls=args.waterfalls
        )
    except FileNotFoundError:
        print(f"no such span stream: {args.spans}")
        return 2
    except (ValueError, KeyError) as exc:
        print(f"cannot read {args.spans}: {exc}")
        return 2
    print(report)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as E

    modules = {
        "table1": E.table1_workloads,
        "fig1": E.fig1_zro,
        "fig3": E.fig3_theoretical,
        "fig4": E.fig4_models,
        "fig6": E.fig6_tdc,
        "fig7": E.fig7_scip_vs_sci,
        "fig8": E.fig8_insertion,
        "fig9": E.fig9_resources_ins,
        "fig10": E.fig10_replacement,
        "fig11": E.fig11_resources_repl,
        "fig12": E.fig12_enhance,
        "ablations": E.ablations,
        "convergence": E.convergence,
    }
    if args.name == "all":
        for mod in modules.values():
            mod.main(scale=args.scale)
        return 0
    if args.name not in modules:
        print(f"unknown experiment {args.name!r}; available: {sorted(modules)} or 'all'")
        return 2
    modules[args.name].main(scale=args.scale)
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.traces.cdn import make_workload
    from repro.traces.io import write_lrb

    try:
        trace = make_workload(args.name, n_requests=args.requests)
    except ValueError as exc:
        print(exc)
        return 2
    summary = trace.summary()
    print(
        f"{args.name}: {summary['total_requests']:,} requests, "
        f"{summary['unique_objects']:,} objects, "
        f"WSS {summary['working_set_size'] / 1e9:.2f} GB"
    )
    if args.analyze:
        from repro.traces.analysis import fig1_panel

        for row in fig1_panel(trace, fractions=(0.01, 0.05)):
            print(
                f"  cache {row.cache_fraction:.0%}: mr(LRU)={row.miss_ratio_lru:.3f} "
                f"ZRO%={row.zro_share_of_misses:.1%} "
                f"PZRO%={row.pzro_share_of_hits:.1%}"
            )
    if args.output:
        write_lrb(trace, args.output)
        print(f"wrote {args.output}")
    return 0


def _run_unified_bench(target: str, args: argparse.Namespace, **kwargs) -> int:
    """Drive one registry target through :func:`repro.bench.run_bench`,
    print its human summary, and persist its document."""
    from repro.bench import bench_registry, run_bench

    spec = bench_registry()[target]
    try:
        result = run_bench(
            target,
            output=args.output or None,
            quick=args.quick,
            seed=getattr(args, "seed", None),
            **kwargs,
        )
    except KeyError as exc:
        print(str(exc).strip('"\''))
        return 2
    except ValueError as exc:
        print(str(exc))
        return 2
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}")
        return 2
    print(spec.formatter(result))
    if result.path:
        print(f"wrote {result.path}")
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    if args.shards < 1:
        print(f"--shards must be >= 1, got {args.shards}")
        return 2
    if args.concurrency is not None and args.concurrency < 1:
        print(f"--concurrency must be >= 1, got {args.concurrency}")
        return 2
    if not 0.0 <= args.trace_sample <= 1.0:
        print(f"--trace-sample must be in [0, 1], got {args.trace_sample}")
        return 2
    # None-valued knobs fall through to the library (and quick-mode) defaults.
    knobs = {
        "workload": args.workload,
        "n_requests": args.requests,
        "concurrency": args.concurrency,
        "rate": args.rate,
        "origin_latency": (
            args.origin_latency / 1000.0 if args.origin_latency is not None else None
        ),
        "failure_rate": args.failure_rate,
    }
    return _run_unified_bench(
        "serve",
        args,
        policy=args.policy,
        fraction=args.fraction,
        n_shards=args.shards,
        queue_depth=args.queue_depth,
        timeout=args.timeout,
        max_retries=args.max_retries,
        trace_sample=args.trace_sample,
        span_out=args.span_out or None,
        tail_latency_us=(
            args.tail_latency_ms * 1000.0 if args.tail_latency_ms is not None else None
        ),
        **{k: v for k, v in knobs.items() if v is not None},
    )


def _cmd_bench_orchestrate(args: argparse.Namespace) -> int:
    candidates = tuple(c.strip() for c in args.candidates.split(",") if c.strip())
    if len(candidates) < 2:
        print("--candidates needs at least two policy names")
        return 2
    if not 0.0 < args.sample_rate <= 1.0:
        print(f"--sample-rate must be in (0, 1], got {args.sample_rate}")
        return 2
    return _run_unified_bench(
        "orchestrate",
        args,
        trace=args.trace,
        n_requests=args.requests,
        fraction=args.fraction,
        candidates=candidates,
        sample_rate=args.sample_rate,
        window=args.window,
        hysteresis=args.hysteresis,
        min_gap=args.min_gap,
        cooldown=args.cooldown,
        objective=args.objective,
    )


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    if args.nodes < 1:
        print(f"--nodes must be >= 1, got {args.nodes}")
        return 2
    try:
        replications = tuple(
            int(r.strip()) for r in args.replications.split(",") if r.strip()
        )
    except ValueError:
        print(f"--replications must be comma-separated ints, got {args.replications!r}")
        return 2
    if not replications:
        print("--replications needs at least one replication factor")
        return 2
    for r in replications:
        if not 1 <= r <= args.nodes:
            print(f"--replications entries must be in [1, --nodes={args.nodes}], got {r}")
            return 2
    if not 0.0 < args.kill_frac < args.restart_frac <= 1.0:
        print(
            "--kill-frac and --restart-frac must satisfy "
            f"0 < kill < restart <= 1, got {args.kill_frac} / {args.restart_frac}"
        )
        return 2
    if not 0.0 <= args.trace_sample <= 1.0:
        print(f"--trace-sample must be in [0, 1], got {args.trace_sample}")
        return 2
    return _run_unified_bench(
        "cluster",
        args,
        trace=args.trace,
        n_requests=args.requests,
        n_nodes=args.nodes,
        policy=args.policy,
        fraction=args.fraction,
        n_shards=args.shards,
        kill_frac=args.kill_frac,
        restart_frac=args.restart_frac,
        window=args.window,
        replications=replications,
        trace_sample=args.trace_sample,
        span_out=args.span_out or None,
    )


def _cmd_bench_net(args: argparse.Namespace) -> int:
    try:
        branching = tuple(
            int(b.strip()) for b in args.branching.split(",") if b.strip()
        )
        placements = tuple(
            p.strip().upper() for p in args.placements.split(",") if p.strip()
        )
        edge_policies = tuple(
            p.strip() for p in args.edge_policies.split(",") if p.strip()
        )
    except ValueError:
        print(f"--branching must be comma-separated ints, got {args.branching!r}")
        return 2
    if not branching or any(b < 1 for b in branching):
        print(f"--branching factors must be >= 1, got {args.branching!r}")
        return 2
    if not placements or not edge_policies:
        print("--placements and --edge-policies need at least one entry each")
        return 2
    if args.receivers < 1:
        print(f"--receivers must be >= 1, got {args.receivers}")
        return 2
    if not 0.0 < args.kill_frac < args.restart_frac <= 1.0:
        print(
            "--kill-frac and --restart-frac must satisfy "
            f"0 < kill < restart <= 1, got {args.kill_frac} / {args.restart_frac}"
        )
        return 2
    return _run_unified_bench(
        "net",
        args,
        trace=args.trace,
        n_requests=args.requests,
        branching=branching,
        fraction=args.fraction,
        edge_policies=edge_policies,
        upper_policy=args.upper_policy,
        placements=placements,
        prob_p=args.prob_p,
        n_receivers=args.receivers,
        receiver_beta=args.receiver_beta,
        kill_frac=args.kill_frac,
        restart_frac=args.restart_frac,
        window=args.window,
    )


def _cmd_bench_tenancy(args: argparse.Namespace) -> int:
    tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
    if len(tenants) < 2:
        print("--tenants needs at least two trace families")
        return 2
    if not 0.0 < args.mr_slo < 1.0:
        print(f"--mr-slo must be in (0, 1), got {args.mr_slo}")
        return 2
    if not 0.0 < args.sample_rate <= 1.0:
        print(f"--sample-rate must be in (0, 1], got {args.sample_rate}")
        return 2
    if not 0.0 <= args.min_share <= 1.0 / len(tenants):
        print(
            f"--min-share must be in [0, 1/{len(tenants)}], got {args.min_share}"
        )
        return 2
    return _run_unified_bench(
        "tenancy",
        args,
        tenants=tenants,
        n_requests=args.requests,
        fraction=args.fraction,
        mr_slo=args.mr_slo,
        burn_threshold=args.burn_threshold,
        objective=args.objective,
        sample_rate=args.sample_rate,
        window=args.window,
        cooldown=args.cooldown,
        eval_every=args.eval_every,
        min_share=args.min_share,
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    write_report(args.output, scale=args.scale)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SCIP (ICPP 2023) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="replay one policy on one workload")
    p.add_argument("--policy", default="SCIP")
    p.add_argument("--workload", default="CDN-T", choices=["CDN-T", "CDN-W", "CDN-A"])
    p.add_argument(
        "--trace-file",
        help="trace file instead of synthetic (LRB text or .bin, sniffed by magic; "
        "a .bin streams in bounded memory unless an event-stream flag is set)",
    )
    p.add_argument("-n", "--requests", type=int, default=100_000)
    p.add_argument("--fraction", type=float, default=0.02, help="cache size as WSS fraction")
    p.add_argument(
        "--cache-bytes",
        type=int,
        default=0,
        help="absolute capacity in bytes (overrides --fraction)",
    )
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument(
        "--trace-out",
        help="record a JSONL observability event stream here (.gz to compress)",
    )
    p.add_argument(
        "--obs-summary",
        action="store_true",
        help="print the final metrics-registry snapshot after the run",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="emit a registry snapshot into the event stream every N requests",
    )
    p.add_argument(
        "--manifest-out",
        help="run-manifest path (default: <trace-out>.manifest.json when tracing)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a paper table/figure")
    p.add_argument("name", help="table1, fig1…fig12, ablations, convergence, or all")
    p.add_argument("--scale", default="bench", choices=["smoke", "bench", "default"])
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("workload", help="generate / analyse / save a workload")
    p.add_argument("--name", default="CDN-T", choices=["CDN-T", "CDN-W", "CDN-A"])
    p.add_argument("-n", "--requests", type=int, default=100_000)
    p.add_argument("-o", "--output", help="write LRB-format trace here")
    p.add_argument("--analyze", action="store_true", help="run the Figure 1 analysis")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser(
        "trace", help="binary trace files: generate, convert, inspect"
    )
    p.set_defaults(func=_cmd_trace)
    tsub = p.add_subparsers(dest="trace_command", required=True)

    t = tsub.add_parser("gen", help="generate a workload straight into a .bin file")
    t.add_argument("--workload", default="CDN-T", choices=["CDN-T", "CDN-W", "CDN-A"])
    t.add_argument("-n", "--requests", type=int, default=1_000_000)
    t.add_argument("-o", "--output", required=True, help="output .bin path")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument(
        "--stream",
        action="store_true",
        help="constant-memory streaming generator (paper-scale; different trace "
        "family from the classic in-memory generator)",
    )
    t.set_defaults(trace_func=_cmd_trace_gen)

    t = tsub.add_parser(
        "convert", help="text (LRB/CSV) -> .bin or .bin -> text, streaming both ways"
    )
    t.add_argument("src", help="source trace (direction sniffed from its magic)")
    t.add_argument("dst", help="destination path")
    t.add_argument(
        "--format",
        choices=["lrb", "csv"],
        default=None,
        help="text side's format (default: sniffed from the text file's suffix)",
    )
    t.set_defaults(trace_func=_cmd_trace_convert)

    t = tsub.add_parser("info", help="print a .bin trace's header summary")
    t.add_argument("path")
    t.add_argument(
        "--verify",
        action="store_true",
        help="re-read the payload and check it against the header checksum",
    )
    t.add_argument(
        "--receivers", type=int, default=0, metavar="N",
        help="also stream the payload through N Zipf-rated receivers and "
             "print per-edge SHARDS working-set estimates",
    )
    t.add_argument(
        "--receiver-beta", type=float, default=0.8,
        help="Zipf skew of the receiver request rates (0 = uniform)",
    )
    t.add_argument(
        "--edges", type=int, default=8,
        help="edge-node count the receivers attach to (receiver r -> edge r%%edges)",
    )
    t.add_argument("--seed", type=int, default=0, help="receiver assignment seed")
    t.set_defaults(trace_func=_cmd_trace_info)

    p = sub.add_parser(
        "bench",
        help="run one registered bench target; writes its document "
        "(schema BENCH_RESULT_SCHEMA) to BENCH_<target>.json",
    )
    bsub = p.add_subparsers(dest="bench_target", required=True)

    p = bsub.add_parser(
        "serve",
        help="concurrent cache service + closed-loop load generator (one process)",
    )
    p.add_argument("--policy", default="SCIP")
    p.add_argument("--workload", default=None, choices=["CDN-T", "CDN-W", "CDN-A"],
                   help="workload profile (default CDN-T; --quick defaults to CDN-W)")
    p.add_argument("-n", "--requests", type=int, default=None,
                   help="trace length (default 50000; --quick caps at 20000)")
    p.add_argument("--fraction", type=float, default=0.02, help="cache size as WSS fraction")
    p.add_argument("--shards", type=int, default=4, help="key-shard count")
    p.add_argument("--concurrency", type=int, default=None,
                   help="closed-loop client count (default 64)")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="per-shard bound on requests held unanswered, i.e. waiting on "
                        "an origin fetch; at the bound a request is shed "
                        "(0 = unbounded, no shedding)")
    p.add_argument("--rate", type=float, default=None,
                   help="target arrival rate, req/s (default: unpaced closed loop)")
    p.add_argument("--origin-latency", type=float, default=None, metavar="MS",
                   help="mean simulated origin latency in milliseconds (default 2)")
    p.add_argument("--failure-rate", type=float, default=None,
                   help="probability an origin fetch attempt fails (default 0)")
    p.add_argument("--timeout", type=float, default=0.5,
                   help="per-attempt origin timeout, seconds")
    p.add_argument("--max-retries", type=int, default=3,
                   help="origin fetch retries after the first attempt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-sample", type=float, default=0.0, metavar="P",
                   help="head-sample this fraction of requests into spans "
                        "(0 disables tracing; tail-keep retains error/slow "
                        "traces regardless)")
    p.add_argument("--span-out", default=None,
                   help="write kept traces as JSONL span records here "
                        "(.gz to compress; implies tracing even at sample 0)")
    p.add_argument("--tail-latency-ms", type=float, default=None, metavar="MS",
                   help="tail-keep threshold: retain any trace slower than "
                        "this end-to-end (default: 5x origin latency)")
    p.add_argument("-o", "--output", default="BENCH_serve.json",
                   help="result JSON path ('' to skip)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: 20k-request CDN-W, 2 ms origin (~seconds)")
    p.set_defaults(func=_cmd_bench_serve)

    p = bsub.add_parser(
        "orchestrate",
        help="shadow-cache policy orchestration vs fixed candidates on a drift trace",
    )
    p.add_argument("--trace", default="diurnal",
                   choices=["churn", "sizeshift", "flash", "diurnal"],
                   help="nonstationary trace family")
    p.add_argument("-n", "--requests", type=int, default=120_000,
                   help="trace length (--quick caps at 40000)")
    p.add_argument("--fraction", type=float, default=0.02, help="cache size as WSS fraction")
    p.add_argument("--candidates", default="LRU,SCIP,SIEVE,S4LRU,GDSF",
                   help="comma-separated candidate policies; the live cache starts "
                        "on the first (--quick narrows the default menu to LRU,GDSF)")
    p.add_argument("--sample-rate", type=float, default=0.2,
                   help="SHARDS spatial sampling rate R for the shadow rack")
    p.add_argument("--window", type=int, default=400,
                   help="effective decay window for shadow miss-ratio scores, "
                        "in sampled requests")
    p.add_argument("--hysteresis", type=float, default=0.06,
                   help="relative score margin a challenger must win by")
    p.add_argument("--min-gap", type=float, default=0.015,
                   help="absolute score margin required on top of hysteresis")
    p.add_argument("--cooldown", type=int, default=10_000,
                   help="live requests between switches")
    p.add_argument("--objective", default="object", choices=["object", "byte"],
                   help="miss-ratio objective the controller optimises")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="BENCH_orchestrate.json",
                   help="result JSON path ('' to skip)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: 40k requests, two-candidate menu (~seconds)")
    p.set_defaults(func=_cmd_bench_orchestrate)

    p = bsub.add_parser(
        "cluster",
        help="replicated multi-node cluster under a kill/restart fault schedule",
    )
    p.add_argument("--trace", default="flash",
                   choices=["churn", "sizeshift", "flash", "diurnal"],
                   help="drift trace family replayed through the cluster")
    p.add_argument("-n", "--requests", type=int, default=60_000,
                   help="trace length (--quick caps at 24000)")
    p.add_argument("--nodes", type=int, default=3, help="fleet size")
    p.add_argument("--policy", default="LRU", help="per-node cache policy")
    p.add_argument("--fraction", type=float, default=0.1,
                   help="total cluster capacity as WSS fraction")
    p.add_argument("--shards", type=int, default=1, help="shards per node service")
    p.add_argument("--replications", default="1,2",
                   help="comma-separated replication factors to compare")
    p.add_argument("--kill-frac", type=float, default=0.4,
                   help="kill the busiest node at this fraction of the trace")
    p.add_argument("--restart-frac", type=float, default=0.7,
                   help="restart it (cold) at this fraction of the trace")
    p.add_argument("--window", type=int, default=2_000,
                   help="hit-ratio window size for dip/recovery measurement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-sample", type=float, default=0.0, metavar="P",
                   help="head-sample this fraction of requests into spans "
                        "(tail-keep retains every failover/error trace)")
    p.add_argument("--span-out", default=None,
                   help="write kept traces as JSONL span records here "
                        "(.gz to compress; multi-replication runs infix .R<r>)")
    p.add_argument("-o", "--output", default="BENCH_cluster.json",
                   help="result JSON path ('' to skip)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: 24k requests, 1k windows (~seconds)")
    p.set_defaults(func=_cmd_bench_cluster)

    p = bsub.add_parser(
        "net",
        help="placement x edge-policy grid over a multi-tier cache tree + PoP kill",
    )
    p.add_argument("--trace", default="CDN-T", choices=["CDN-T", "CDN-W", "CDN-A"],
                   help="named CDN workload replayed through the tree")
    p.add_argument("-n", "--requests", type=int, default=120_000,
                   help="trace length (--quick caps at 24000)")
    p.add_argument("--branching", default="4,2",
                   help="tree fan-in per tier, edge side first (4,2 = 8/2/1)")
    p.add_argument("--fraction", type=float, default=0.15,
                   help="total network capacity as WSS fraction")
    p.add_argument("--edge-policies", default="LRU,GDSF,SCIP",
                   help="comma-separated edge-tier policies to grid over")
    p.add_argument("--upper-policy", default="LRU",
                   help="policy for every non-edge tier")
    p.add_argument("--placements", default="LCE,LCD,PROB",
                   help="comma-separated on-path placement strategies")
    p.add_argument("--prob-p", type=float, default=0.7,
                   help="edge admit probability for PROB placement")
    p.add_argument("--receivers", type=int, default=32,
                   help="Zipf-rated receiver population size")
    p.add_argument("--receiver-beta", type=float, default=0.8,
                   help="Zipf skew of receiver request rates (0 = uniform)")
    p.add_argument("--kill-frac", type=float, default=0.4,
                   help="kill the busiest edge PoP at this fraction of the trace")
    p.add_argument("--restart-frac", type=float, default=0.7,
                   help="restart it (cold) at this fraction of the trace")
    p.add_argument("--window", type=int, default=2_000,
                   help="hit-ratio window size for dip/recovery measurement")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="BENCH_net.json",
                   help="result JSON path ('' to skip)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: 24k requests, 1k windows (~seconds)")
    p.set_defaults(func=_cmd_bench_net)

    p = bsub.add_parser(
        "tenancy",
        help="online multi-tenant capacity allocation vs static partitioning",
    )
    p.add_argument("--tenants", default="churn,flash,diurnal",
                   help="comma-separated drift families, one per tenant "
                        "(choose from churn, sizeshift, flash, diurnal)")
    p.add_argument("-n", "--requests", type=int, default=120_000,
                   help="total trace length across tenants (--quick caps at 45000)")
    p.add_argument("--fraction", type=float, default=0.05,
                   help="total cache capacity as WSS fraction")
    p.add_argument("--mr-slo", type=float, default=0.5,
                   help="per-tenant miss-ratio objective in (0, 1)")
    p.add_argument("--burn-threshold", type=float, default=1.5,
                   help="SLO burn rate that forces a re-allocation")
    p.add_argument("--objective", default="fairness",
                   choices=["fairness", "utilization"],
                   help="waterfilling objective for the capacity split")
    p.add_argument("--sample-rate", type=float, default=0.2,
                   help="SHARDS sampling rate R for the per-tenant MRC grids")
    p.add_argument("--window", type=int, default=400,
                   help="decay window for live MRC points, in sampled requests")
    p.add_argument("--cooldown", type=int, default=8_000,
                   help="live requests between re-allocations")
    p.add_argument("--eval-every", type=int, default=500,
                   help="live requests between allocator evaluations")
    p.add_argument("--min-share", type=float, default=0.05,
                   help="protected per-tenant capacity floor (fraction of total)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="BENCH_tenancy.json",
                   help="result JSON path ('' to skip)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: 45k requests (~seconds)")
    p.set_defaults(func=_cmd_bench_tenancy)

    p = sub.add_parser("obs", help="render learner trajectories from a JSONL event stream")
    p.add_argument("events", help="events.jsonl[.gz] written by simulate --trace-out")
    p.add_argument("--rows", type=int, default=24, help="max table rows (evenly sampled)")
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "trace-report",
        help="per-stage latency table, critical-path breakdown, and waterfalls "
        "from a span stream",
    )
    p.add_argument("spans", help="spans.jsonl[.gz] written via --span-out")
    p.add_argument("--trace", default=None,
                   help="render this trace id's waterfall (default: slowest)")
    p.add_argument("--waterfalls", type=int, default=1,
                   help="how many waterfalls to render, slowest first (0 = table only)")
    p.set_defaults(func=_cmd_trace_report)

    p = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p.add_argument("--scale", default="default", choices=["smoke", "bench", "default"])
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

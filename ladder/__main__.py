"""``python -m ladder`` — see ``ladder/README.md``.

Two ways in:

* ``python -m ladder [--seed S] [--traced] [--sets K] [--check-agreement]``
  runs the seven workloads, each in its own subprocess, prints every
  metric by name with its unit and writes ``ladder/out/ladder.json``;
* ``python -m ladder --workload W --seed S --seconds N --trace 0|1`` runs
  one workload in this process and prints, as its last line, the JSON
  object ``BENCHMARK.json``'s driver reads.

``python -m ladder compare base.json cand.json`` applies the bounds.
"""

import time

_T0 = time.perf_counter()  # before the imports: they are part of setup_s

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the benchmark is run from a plain checkout: the package under src/ is not installed
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from ladder import compare

        if len(argv) != 3:
            print("usage: python -m ladder compare base.json cand.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2])

    from ladder.catalog import RUN_SECONDS, WORKLOADS

    names = [w.name for w in WORKLOADS]
    ap = argparse.ArgumentParser(prog="python -m ladder", description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of every generated input (default 1)")
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"timed region per workload (default {RUN_SECONDS}; 1 with --smoke)")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one second: for tests, not for numbers")
    ap.add_argument("--workload", choices=names, help="run this one workload in-process (the driver's entry)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 = end-to-end metrics, 1 = the traced run's per-layer metrics")
    ap.add_argument("--doc", help="with --workload: also write the full result document here")
    ap.add_argument("--traced", action="store_true", help="also make the traced run of every workload")
    ap.add_argument("--only", help="comma-separated workloads to run (default: all seven)")
    ap.add_argument("--sets", type=int, default=1, help="repeat the whole ladder K times")
    ap.add_argument("--check-agreement", action="store_true",
                    help="with --sets 2: exit non-zero unless the two sets agree within the bounds")
    ap.add_argument("--out", help="result document (default ladder/out/ladder.json)")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(RUN_SECONDS)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    from ladder import runner

    if args.workload:
        return runner.run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke, args.doc, _T0)
    if args.check_agreement and args.sets < 2:
        ap.error("--check-agreement needs --sets 2")
    only = args.only.split(",") if args.only else names
    unknown = [w for w in only if w not in names]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; one of {names}")
    return runner.run_all(only, args.seed, args.seconds, args.traced, args.smoke,
                          args.sets, args.check_agreement, args.out)


if __name__ == "__main__":
    sys.exit(main())

"""``ladder`` — the performance ledger of the SCIP reproduction.

Seven workloads drive the stack from outside (``repro.api`` and the
layers' public functions only), one process per workload, and report ten
end-to-end metrics plus per-layer rungs from policy to net.  The names in
:mod:`ladder.catalog` are the names every later speed claim uses; see
``ladder/README.md`` for the tables and how to run, trace and compare.

Run from the repository root::

    PYTHONPATH=src python -m ladder --seed 1            # all seven
    PYTHONPATH=src python -m ladder --seed 1 --traced   # + per-layer rungs
    python -m ladder compare base.json cand.json
"""

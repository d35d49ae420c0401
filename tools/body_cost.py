"""Per-call cost of the fused KG body's layers, in process (no Ray).

    python tools/body_cost.py [--conversations 50 100 1000] [--reps 5]
                              [--seed 1]

For each corpus size it builds one sorted block of candidate facts and
runs, on it, the chain the fused assembly body runs
(``finalize_bucket`` → ``EntityLinker`` → ``build_triples`` →
``add_bucket_and_combine``), then ``dedup_bucket`` over the combined
rows sorted on their bucket, as the dedup exchange hands them over.
It prints one JSON line: per size, the rows each body took in and its
wall time in ms, the min of ``--reps`` calls after one warm-up call
(the warm-up fills the linker's per-process fuzzy memo, as an earlier
build does in a Ray worker). The difference between sizes is the
per-row cost; what is left at the smallest size is mostly the fixed
cost of one call.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

# repo root on sys.path: the package lives there
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _min_ms(fn, arg, reps: int):
    """(min wall ms over ``reps`` calls after one warm-up, result)."""
    out = fn(arg)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3), out


def measure(conversations: int, reps: int, seed: int) -> dict:
    """One size: rows in and min ms per call of each body."""
    from rdf_extraction_ray import synth
    from rdf_extraction_ray.pipelines.kg import _get_linker
    from rdf_extraction_ray.stages.dedup import (add_bucket_and_combine,
                                                 dedup_bucket)
    from rdf_extraction_ray.stages.extract import (detect_facts,
                                                   finalize_bucket)
    from rdf_extraction_ray.stages.template import build_triples

    turns, _ = synth.generate(conversations, seed=seed, mega_every=0)
    cands = (detect_facts(turns).to_pandas()
             .sort_values("bucket", kind="stable", ignore_index=True))
    ms, rows = {}, {}
    chain = (("finalize", finalize_bucket), ("link", _get_linker()),
             ("template", build_triples),
             ("combine", add_bucket_and_combine),
             ("dedup", dedup_bucket))
    data = cands
    for name, body in chain:
        if name == "dedup":
            data = data.sort_by("bucket")
        rows[name] = len(data)
        ms[name], data = _min_ms(body, data, reps)
    return {"conversations": conversations, "rows_in": rows,
            "triples_out": len(data), "ms": ms}


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--conversations", type=int, nargs="+",
                    default=[50, 100, 1000])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args(argv)
    if a.reps < 1:
        ap.error("--reps must be at least 1")
    return {"estimator": f"min of {a.reps}", "seed": a.seed,
            "sizes": [measure(n, a.reps, a.seed)
                      for n in a.conversations]}


if __name__ == "__main__":
    print(json.dumps(main()))

"""Benchmark harness. Prints ONE JSON line.

Headline: the flagship KG-construction pipeline (synthetic transcript
corpus sized to $GRAFT_SF_DIR's scale factor, generation cached and
untimed) — turns → facts → link → template → dedup → parquet sink.
Plus per-query timings for representative operators (min of 2 runs each).

  python bench.py               # one run at $RAY_GRAFT_CPUS (default:
                                # nproc, the CPUs this host gives us)
  python bench.py --scaling     # fresh processes at 8 and 32 CPUs →
                                # throughput at both + scaling efficiency
                                # (refuses a leg above nproc)

Owns its Ray session (the only scripts allowed to: bench.py, CLI, tests).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def _one_json_line(obj) -> None:
    print(json.dumps(obj))


def nproc() -> int:
    """What GNU ``nproc`` prints: ``OMP_NUM_THREADS`` when it is set to
    a positive number, else the CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def host() -> dict:
    """The conditions a run was measured under: CPUs, the load on the
    host when it started, and the versions that did the work."""
    import platform

    import pyarrow
    import ray
    return {
        "nproc": nproc(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_launch": [round(x, 2) for x in os.getloadavg()],
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python_version": platform.python_version(),
    }


HEADLINE_REPS = 3
QUERY_REPS = 2


def time_query(run, reps: int = QUERY_REPS) -> float:
    """The min wall time of ``reps`` calls of ``run``; a lazy Dataset
    result is executed inside the timing. Raises what a call raises."""
    import ray.data as rd

    best = float("inf")
    for _ in range(reps):
        t0 = time.time()
        res = run()
        if isinstance(res, rd.Dataset):
            res.count()  # force execution for lazy results
        best = min(best, time.time() - t0)
    return best


def run_bench() -> dict:
    import ray

    launch = host()
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", nproc()))
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    # push-based sort shuffle: measured 2.8x on the dedup exchange
    # (3.75s → 1.34s at sf0.1/32cpu) — used for the KG headline; the
    # relational queries run pull-based (push regressed the hash-join
    # groupby 2-3x when run after a big pipeline in the same session).
    # Strategy is set by session owners only (bench, CLI), never by
    # library code.
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    import __ray_entry__ as entrymod
    from rdf_extraction_ray.pipelines.kg import (_read_num_blocks,
                                                 read_turns,
                                                 triples_from_turns)

    sf = entrymod._sf_of(sf_dir)
    mult = int(os.environ.get("GRAFT_CORPUS_MULT", "1"))
    turns_path = entrymod._turns_path(sf_dir, mult)  # cached gen (untimed)

    # pre-generate secondary corpora and the KG parquet views OUTSIDE
    # the timed regions (view construction is the headline pipeline,
    # which the headline already times)
    entrymod._works_paths(sf_dir)
    entrymod._titles_csv(sf_dir)
    entrymod._kg_views(sf_dir)
    # the KG-graph family's materialized graph projection (int64
    # edges + node map) — built once per corpus like the triples
    # views themselves; per-query timings measure the algorithms,
    # not repeated re-projection of the same graph
    entrymod._kg_graph_views(sf_dir)
    if mult != 1:
        entrymod._turns_path(sf_dir, 1)  # used by per-query timings
    # warm the OS page cache with a REAL full read (Dataset.count()
    # alone takes the parquet-metadata fast path and reads no data)
    warm = read_turns(turns_path).materialize()
    n_turns = warm.count()
    del warm

    # best-of-3 headline: external host noise swings single runs 2x
    # (observed load avg 8+ from outside the VM); min of a few runs in
    # one session is the cheapest robust estimator
    out_dir = "/tmp/rdf_extraction_ray/bench_out"
    headline_sec = float("inf")
    for _ in range(HEADLINE_REPS):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        triples = triples_from_turns(read_turns(turns_path),
                                     stats_key=turns_path)
        triples.write_parquet(out_dir)
        headline_sec = min(headline_sec, time.time() - t0)
    import glob

    import pyarrow.parquet as pq
    n_triples = sum(pq.read_metadata(f).num_rows
                    for f in glob.glob(os.path.join(out_dir, "*.parquet")))
    headline = {
        "metric": "kg_pipeline_sec",
        "value": round(headline_sec, 3),
        "unit": "sec",
        "estimator": f"min of {HEADLINE_REPS}",
        "reps": HEADLINE_REPS,
        "sf": sf,
        "num_cpus": num_cpus,
        "read_blocks": _read_num_blocks(turns_path),
        "n_turns": int(n_turns),
        "n_triples": int(n_triples),
        "turns_per_sec": round(n_turns / headline_sec, 1),
        "triples_per_sec": round(n_triples / headline_sec, 1),
        **launch,
    }

    # representative per-operator timings (pull-based shuffle).
    # GRAFT_HEADLINE_ONLY skips the sweep — the scaling legs compare
    # headline throughput only, and re-timing 60+ queries per leg
    # would quadruple the wall time for numbers nothing reads.
    if os.environ.get("GRAFT_HEADLINE_ONLY"):
        ray.shutdown()
        return {**headline, "queries": {}}
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    # Sweep EVERY queries() entry (auto-derived, so new operators can
    # never silently fall out of the bench), minus the KG end-to-end
    # family the headline already times (kg_turtle stays in as the
    # serializer-family representative).
    _SWEEP_EXCLUDE = {"kg_triples", "kg_facts", "kg_triples_seeded",
                      "kg_ntriples", "kg_nquads"}
    queries = entrymod.queries()
    qnames = [n for n in queries if n not in _SWEEP_EXCLUDE]
    qtimes: dict[str, float] = {}
    qerrors: dict[str, str] = {}
    for name in qnames:
        try:
            qtimes[name] = round(
                time_query(lambda: queries[name](sf_dir)), 3)
        except Exception as exc:  # a broken query must be VISIBLE,
            # not a bogus ~0s timing with a clean exit
            qtimes[name] = -1.0
            qerrors[name] = f"{type(exc).__name__}: {exc}"[:200]

    ray.shutdown()
    return {**headline, "queries": qtimes,
            "query_estimator": f"min of {QUERY_REPS}",
            **({"query_errors": qerrors} if qerrors else {})}


def run_scaling() -> None:
    """Same job, fresh processes, two parallelism levels (the
    sandbox's stand-in for N- vs 4N-node clusters)."""

    def run(ncpu: int) -> dict:
        # 3× corpus: scaling is measured where compute dominates the
        # ~3s fixed startup (sort-barrier planning, worker imports) —
        # the same input at both parallelism levels
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_HEADLINE_ONLY="1",
                   GRAFT_CORPUS_MULT=os.environ.get("GRAFT_CORPUS_MULT",
                                                    "3"))
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        return json.loads(out.strip().splitlines()[-1])

    def best_of(ncpu: int,
                reps: int = int(os.environ.get("GRAFT_SCALING_REPS",
                                               "2"))) -> dict:
        """Min-wall-time of ``reps`` runs (each itself a best-of-2
        headline): single runs vary ±20% on a
        shared box (raylet/plasma teardown of the previous session,
        page-cache state), and min is the standard noise-robust
        estimator for same-input benchmark legs."""
        best = None
        for _ in range(reps):
            if ran_any[0]:  # settle only after a previous session
                time.sleep(15)
            ran_any[0] = True
            r = run(ncpu)
            if best is None or r["value"] < best["value"]:
                best = r
        return best

    ran_any = [False]
    # Default legs 8→32; GRAFT_SCALING_LO/HI pick a different N→4N
    # pairing (e.g. 4→16 measures the same criterion away from the
    # single-socket memory-bandwidth saturation the 32-core leg hits).
    lo = int(os.environ.get("GRAFT_SCALING_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALING_HI", "32"))
    # a leg with more Ray slots than CPUs measures oversubscription,
    # not scaling
    if max(lo, hi) > nproc():
        raise SystemExit(f"bench.py --scaling: a {max(lo, hi)}-CPU leg "
                         f"needs {max(lo, hi)} CPUs, nproc is {nproc()}; "
                         "set GRAFT_SCALING_LO/HI")
    r_lo = best_of(lo)
    r_hi = best_of(hi)
    tput_lo = r_lo["turns_per_sec"]
    tput_hi = r_hi["turns_per_sec"]
    eff = (tput_hi / tput_lo) / (hi / lo)
    _one_json_line({
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sf": r_lo["sf"],
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "turns_per_sec_lo": tput_lo,
        "turns_per_sec_hi": tput_hi,
        "triples_per_sec_lo": r_lo["triples_per_sec"],
        "triples_per_sec_hi": r_hi["triples_per_sec"],
    })


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        _one_json_line(run_bench())

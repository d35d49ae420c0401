"""Large-scale streaming smoke: the KG flagship + the curation
flagship at ``GRAFT_CORPUS_MULT``× sf0.1 (10× ≈ 5.4M turns is the sf1
scale), with peak-memory sampling.

The multiple is sized to the host's memory (:func:`corpus_mult`): 10×
peaked at 28.5 GiB of system memory at 32 CPUs, so the run takes the
largest multiple up to 10 whose projected peak fits the memory
available at launch. When none fits, or an explicit
``GRAFT_CORPUS_MULT`` does not, it runs nothing and prints
``{"skipped": reason, ...}`` instead.

Purpose (VERDICT r4 next-round task #6): demonstrate the streaming
claims at a scale where a full-corpus materialization mistake would
show as RSS growth — the KG pipeline's only wide exchanges move fact
rows (a few % of corpus bytes), so host memory use must stay far
below corpus-proportional. Records ONE JSON line:

    {"mult": M, "n_turns": N, "kg_sec": s, "turns_per_sec": r,
     "n_triples": T, "triples_per_sec": r2, "kg_peak_gib": g,
     "cur_docs_in": d, "cur_docs_out": d2, "cur_sec": s2,
     "cur_peak_gib": g2, "baseline_gib": b, "num_cpus": c}

Peak memory is system-wide used memory (MemTotal − MemAvailable,
sampled at 4 Hz) — the only vantage that sees every Ray worker and
the object store, not just the driver. Ray gets ``RAY_GRAFT_CPUS``
slots (default: ``nproc``, as in bench.py). Run standalone
(``python tools/big_smoke.py``) or via the opt-in
``GRAFT_FULL_SMOKE=1`` pytest hook (tests/test_query_surface.py).
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import threading
import time

# repo root on sys.path: __ray_entry__ and the package live there
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _meminfo_gib() -> dict:
    info = {}
    with open("/proc/meminfo") as f:
        for line in f:
            k, v = line.split(":", 1)
            info[k] = int(v.strip().split()[0]) / 1048576.0  # kB → GiB
    return info


def _mem_used_gib() -> float:
    info = _meminfo_gib()
    return info["MemTotal"] - info["MemAvailable"]


#: system-wide peak per unit of corpus multiple: 10× sf0.1 peaked at
#: 28.5 GiB (32 CPUs); the peak is taken to grow linearly with it
PEAK_GIB_PER_MULT = 2.85
MAX_MULT = 10


def corpus_mult(env: dict, avail_gib: float) -> tuple[int | None, str]:
    """The corpus multiple to run, or ``None`` and the reason to skip.

    ``GRAFT_CORPUS_MULT`` when set and its projected peak
    (``PEAK_GIB_PER_MULT`` per unit) fits ``avail_gib``; unset, the
    largest multiple up to ``MAX_MULT`` that fits."""
    fits = int(avail_gib // PEAK_GIB_PER_MULT)
    asked = env.get("GRAFT_CORPUS_MULT")
    mult = int(asked) if asked else min(MAX_MULT, fits)
    if mult < 1 or mult > fits:
        return None, (
            f"corpus multiple {max(mult, 1)} projects a "
            f"{max(mult, 1) * PEAK_GIB_PER_MULT:.1f} GiB peak; "
            f"{avail_gib:.1f} GiB of memory is available")
    return mult, ""


class _MemSampler(threading.Thread):
    def __init__(self, period_s: float = 0.25):
        super().__init__(daemon=True)
        self.period_s = period_s
        self.peak = 0.0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.is_set():
            self.peak = max(self.peak, _mem_used_gib())
            self._halt.wait(self.period_s)

    def stop(self) -> float:
        self._halt.set()
        self.join(timeout=2)
        return self.peak


def _big_docs(sf_dir: str, mult: int) -> str:
    """A ``mult``×-replicated documents corpus (doc_ids re-keyed per
    replica, texts identical — so the exact-dedup stage does real
    work at scale). Cached in /tmp; generation untimed."""
    import pyarrow.parquet as pq

    dest = f"/tmp/rdf_extraction_ray/big_docs_{os.path.basename(sf_dir)}_x{mult}"
    marker = os.path.join(dest, "_DONE")
    if os.path.exists(marker):
        return dest
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest, exist_ok=True)
    df = pq.read_table(os.path.join(sf_dir, "documents.parquet")
                       ).to_pandas()
    for i in range(mult):
        rep = df.copy()
        rep["doc_id"] = rep["doc_id"].astype("int64") + i * 100_000_000
        rep.to_parquet(os.path.join(dest, f"rep={i}.parquet"))
    with open(marker, "w") as f:
        f.write("ok")
    return dest


def main() -> dict:
    import ray

    from bench import nproc

    mult, why = corpus_mult(os.environ, _meminfo_gib()["MemAvailable"])
    if mult is None:
        out = {"skipped": why, "peak_gib_per_mult": PEAK_GIB_PER_MULT}
        sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
        return out
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", nproc()))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    ray.init(address="local", num_cpus=num_cpus,
             include_dashboard=False, ignore_reinit_error=True,
             logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED

    import __ray_entry__ as E
    from rdf_extraction_ray.pipelines.kg import (read_turns,
                                                 triples_from_turns)

    turns_path = E._turns_path(sf_dir, mult)  # cached gen, untimed
    warm = read_turns(turns_path).materialize()
    n_turns = warm.count()
    del warm
    baseline_gib = _mem_used_gib()

    out_dir = "/tmp/rdf_extraction_ray/big_smoke_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    smp = _MemSampler()
    smp.start()
    t0 = time.time()
    triples_from_turns(read_turns(turns_path),
                       stats_key=turns_path).write_parquet(out_dir)
    kg_sec = time.time() - t0
    kg_peak = smp.stop()
    import pyarrow.parquet as pq
    n_triples = sum(pq.read_metadata(f).num_rows
                    for f in glob.glob(os.path.join(out_dir,
                                                    "*.parquet")))

    # curation flagship over the replicated documents corpus: the
    # gate → exact-dedup → near-dup keep-best → sharded-sink DAG;
    # replicas collapse in the dedup exchange
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    from rdf_extraction_ray.stages.curate import run_curation
    docs_path = _big_docs(sf_dir, mult)
    cur_out = "/tmp/rdf_extraction_ray/big_smoke_cur"
    shutil.rmtree(cur_out, ignore_errors=True)
    smp = _MemSampler()
    smp.start()
    t0 = time.time()
    cur = run_curation(docs_path, cur_out, n_shards=16, neardup=True)
    cur_sec = time.time() - t0
    cur_peak = smp.stop()

    ray.shutdown()
    out = {
        "mult": mult,
        "num_cpus": num_cpus,
        "n_turns": int(n_turns),
        "kg_sec": round(kg_sec, 2),
        "turns_per_sec": round(n_turns / kg_sec, 1),
        "n_triples": int(n_triples),
        "triples_per_sec": round(n_triples / kg_sec, 1),
        "kg_peak_gib": round(kg_peak, 2),
        "baseline_gib": round(baseline_gib, 2),
        "cur_docs_in": int(cur["docs_in"]),
        "cur_docs_out": int(cur["docs_out"]),
        "cur_sec": round(cur_sec, 2),
        "cur_peak_gib": round(cur_peak, 2),
    }
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return out


if __name__ == "__main__":
    main()

"""Resumable sharded execution with per-partition lineage manifests.

The reference has no checkpointing: a crash reruns everything
(SURVEY §4 "Checkpoint / resume: none"). Here the corpus is split into
``n_shards`` deterministic conversation-hash shards; each finished
shard is published as:

- ``<out>/shard=<s>/part-*.parquet``  — the shard's deduped triples
- ``<out>/shard=<s>/_MANIFEST.json``  — lineage + counters:
  input fingerprint, turns_in, facts_detected (candidate facts),
  facts_linked, link-status histogram (the reference's mapping
  hit/miss counters, §2.6 A3), triples_out

All pending shards run as ONE lazy plan: one read of the input that
keeps the pending shards' turns (no copy of the corpus), the shared
assembly plan (:func:`kg._assembled`), a dedup exchange keyed on
(shard, triple key) and one ``write_parquet`` partitioned by shard
into a staging dir — two Ray executions per run, whatever the shard
count. The bodies that see the rows count them per shard into small
JSON files in the staging dir (counters in band, no extra pass),
which the driver sums after the write. Each shard is then published
atomically (manifest + data, one ``os.replace``). A rerun skips the
shards whose manifest matches the input fingerprint — "resume
mid-pipeline from per-partition lineage" (north_rule).

Crash unit: a crash during the plan loses all of the invocation's
pending shards, since none is published before the write ends (the
flagship ``triples_from_turns`` likewise runs a corpus in one plan);
shards finished earlier still skip.

Sharding is BY CONVERSATION HASH, so a shard is a self-contained
sub-corpus: per-conversation logic and per-conversation IDs are
unaffected by shard boundaries. (Cross-shard triple duplicates are
possible only for shared entity nodes, e.g. ``rdf:type E21_Person``;
the reader-side dedup in :func:`read_output` collapses them, and they
are a vanishing fraction of rows.)
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections import Counter, defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .kg import _assembled, read_turns
from ..stages.dedup import (N_DEDUP_BUCKETS, add_bucket_and_combine,
                            bucket_exchange, dedup_bucket, dedup_triples)
from ..stages.extract import AUTO_SALT_FACTS, detect_facts
from ..stages.template import build_triples

MANIFEST_NAME = "_MANIFEST.json"
# the shard key column inside the plan. Private: readers of the
# published ``shard=<s>/`` paths add a hive column ``shard``, and a
# body keyed on that name would keep cross-shard duplicates apart
SHARD_COL = "_kg_shard"


def _fingerprint(turns_path: str) -> str:
    """Cheap input identity: RECURSIVE file names + sizes + mtimes,
    md5-digested. Recursion matters: a nested hive layout
    (``part=0/data.parquet``) rewritten in place changes only the
    FILE's mtime, not its parent directory's — a top-level listing
    would serve stale resumes. The mtime guards against an in-place
    rewrite that preserves sizes. This is the ONE canonical input
    fingerprint; the KG probe cache imports it (a second divergent
    copy is exactly how the non-recursive bug survived)."""
    import glob as _glob
    if os.path.isdir(turns_path):
        files = sorted(_glob.glob(os.path.join(turns_path, "**", "*"),
                                  recursive=True))
        files = [f for f in files if os.path.isfile(f)]
    else:
        files = [turns_path]
    parts = []
    for f in files:
        st = os.stat(f)
        parts.append(f"{f}|{st.st_size}|{st.st_mtime_ns}")
    return hashlib.md5("\n".join(parts).encode()).hexdigest()


def _shard_of(conv_ids, n_shards: int) -> np.ndarray:
    """Shard of each conversation id (an Arrow or a pandas column)."""
    return (pd.util.hash_array(np.asarray(conv_ids, dtype=object))
            % n_shards).astype(np.int64)


def _write_counts(counts_dir: str, stage: str, block, shards,
                  counters) -> None:
    """One body call's counts per (shard, counter) pair of the parallel
    ``shards``/``counters`` as a JSON file named by a digest of
    ``block``'s first and last provenance and row count, so a retried
    task rewrites its own file (renamed into place: never half-read)."""
    counts = pd.DataFrame({"s": shards, "k": counters}).value_counts()
    if not len(counts):
        return
    ends = [list(block[c].take([0, len(block) - 1]))  # Arrow or pandas
            for c in ("conv_id", "turn_idx")]
    name = hashlib.md5(f"{stage}|{ends}|{len(block)}".encode()).hexdigest()
    path = os.path.join(counts_dir, f"{stage}-{name}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as f:
        json.dump([[int(s), k, int(n)] for (s, k), n in counts.items()], f)
    os.replace(tmp, path)


def _prepartition(turns_path: str, counts_dir: str, n_shards: int,
                  pending: list[int]):
    """The input's turns of the ``pending`` shards (lazy): one read,
    filtered per block, counting ``turns_in`` per shard in band."""

    def _keep_pending(turns: pa.Table) -> pa.Table:
        shard = _shard_of(turns["conv_id"], n_shards)
        mask = np.isin(shard, pending)
        _write_counts(counts_dir, "turns", turns, shard[mask], "turns_in")
        return turns.filter(pa.array(mask))

    return read_turns(turns_path).map_batches(
        _keep_pending, batch_format="pyarrow", batch_size=None)


def _sharded_triples(turns, counts_dir: str, n_shards: int,
                     linker_concurrency):
    """Kept turns → triples deduped per (shard, triple key), counted."""

    def _detect(turns: pa.Table) -> pa.Table:
        cands = detect_facts(turns)
        _write_counts(counts_dir, "cands", turns,
                      _shard_of(cands["conv_id"], n_shards), "facts_detected")
        return cands

    def _count_template_combine(linked: pd.DataFrame) -> pa.Table:
        shard = _shard_of(linked["conv_id"], n_shards)
        st = pd.DataFrame({"s": shard, "k": linked["link_status"]
                           .str.split(";").to_numpy()}).explode("k")
        st = st[st["k"].notna() & (st["k"] != "")]
        _write_counts(counts_dir, "linked", linked,
                      np.concatenate([shard, st["s"]]),
                      ["facts_linked"] * len(shard)
                      + list("status:" + st["k"]))
        triples = build_triples(linked)
        triples = triples.append_column(
            SHARD_COL, pa.array(_shard_of(triples["conv_id"], n_shards)))
        t = add_bucket_and_combine(triples, by=(SHARD_COL,))
        # shard-major bucket: a sorted block spans few shards, so the
        # partitioned write makes ~one file per block, not per shard
        return t.set_column(t.column_names.index("bucket"), "bucket",
                            pc.add(pc.multiply(t[SHARD_COL],
                                               N_DEDUP_BUCKETS), t["bucket"]))

    return bucket_exchange(
        _assembled(turns, AUTO_SALT_FACTS,
                   linker_concurrency=linker_concurrency,
                   detect=_detect, tail=_count_template_combine),
        dedup_bucket, batch_format="pyarrow",
        fn_kwargs={"by": (SHARD_COL,)})


_STALE_TMP_AGE_S = 3600  # crashed-run debris; live runs touch within this


def _sweep_stale_tmp(out_dir: str) -> None:
    """Remove ``*.tmp.<pid>`` dirs whose mtime is over an hour old —
    debris from crashed runs (per-pid names protect CONCURRENT runs
    from each other, but a killed run's tmp would otherwise leak its
    staged parquet forever; the age guard keeps a live
    concurrent run's in-progress tmp safe)."""
    import time
    try:
        entries = os.listdir(out_dir)
    except FileNotFoundError:
        return
    now = time.time()
    for d in entries:
        if ".tmp." not in d:
            continue
        p = os.path.join(out_dir, d)
        try:
            # a LIVE run keeps writing files somewhere in the tree but
            # may not touch the top-level dir for hours — age by the
            # NEWEST mtime in the tree, not the root's
            newest = os.path.getmtime(p)
            for root, _dirs, files in os.walk(p):
                newest = max([newest, os.path.getmtime(root)]
                             + [os.path.getmtime(os.path.join(root, f))
                                for f in files])
            if now - newest > _STALE_TMP_AGE_S:
                shutil.rmtree(p, ignore_errors=True)
        except OSError:
            continue


def run_sharded(turns_path: str, out_dir: str, n_shards: int = 8,
                linker_concurrency: int | tuple | None = None,
                shards: list[int] | None = None) -> dict:
    """Run the KG pipeline over every pending shard in one plan,
    skipping finished shards; returns {shard: manifest}. ``shards``
    restricts the run (used by tests to simulate a mid-run failure)."""
    fp = _fingerprint(turns_path)
    os.makedirs(out_dir, exist_ok=True)
    _sweep_stale_tmp(out_dir)
    summary: dict[int, dict] = {}
    todo = list(range(n_shards) if shards is None else shards)
    for s in todo:
        mpath = os.path.join(out_dir, f"shard={s}", MANIFEST_NAME)
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            # a shard finished under a DIFFERENT n_shards holds a
            # different partition of the corpus — skipping it would
            # mix layouts and double-extract conversations
            if m.get("input_fingerprint") == fp \
                    and m.get("n_shards") == n_shards:
                summary[s] = {**m, "skipped": True}
    pending = [s for s in todo if s not in summary]
    if not pending:
        return summary
    for s in pending:  # stale output for a different input
        shutil.rmtree(os.path.join(out_dir, f"shard={s}"),
                      ignore_errors=True)
    # unique per process: two concurrent runs must not delete each
    # other's in-progress files or interleave writes into one dir
    staging = os.path.join(out_dir, f"_run.tmp.{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)  # the count files land here, the data below
    data_dir = os.path.join(staging, "data")
    _sharded_triples(_prepartition(turns_path, staging, n_shards, pending),
                     staging, n_shards, linker_concurrency
                     ).write_parquet(data_dir, partition_cols=[SHARD_COL])
    counts: dict[int, Counter] = defaultdict(Counter)
    for name in os.listdir(staging):
        if name.endswith(".json"):
            with open(os.path.join(staging, name)) as f:
                for s, counter, n in json.load(f):
                    counts[s][counter] += n
    for s in pending:
        summary[s] = _run_one_shard(data_dir, out_dir, s, n_shards, fp,
                                    counts[s])
    shutil.rmtree(staging, ignore_errors=True)
    return {s: summary[s] for s in todo}


def _run_one_shard(data_dir: str, out_dir: str, s: int, n_shards: int,
                   fp: str, counts: Counter) -> dict:
    """Publish shard ``s`` of the staged write with its manifest (the
    in-band ``counts`` + ``triples_out`` from parquet metadata) in one
    rename, so manifest and data appear together; return the manifest."""
    import pyarrow.parquet as pq
    staged = os.path.join(data_dir, f"{SHARD_COL}={s}")
    os.makedirs(staged, exist_ok=True)  # a shard of no triples has none
    triples_out = sum(pq.read_metadata(os.path.join(staged, f)).num_rows
                      for f in os.listdir(staged) if f.endswith(".parquet"))
    manifest = {
        "shard": s,
        "n_shards": n_shards,
        "input_fingerprint": fp,
        "turns_in": counts["turns_in"],
        "facts_detected": counts["facts_detected"],
        "facts_linked": counts["facts_linked"],
        "link_status_histogram": {k[len("status:"):]: n for k, n in
                                  counts.items() if k.startswith("status:")},
        "triples_out": int(triples_out),
        "skipped": False,
    }
    with open(os.path.join(staged, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    final = os.path.join(out_dir, f"shard={s}")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(staged, final)
    return manifest


def read_output(out_dir: str):
    """Read all shard outputs back as one Dataset, collapsing the rare
    cross-shard duplicate entity triples."""
    import glob

    import ray.data as rd
    files = sorted(
        f for d in os.listdir(out_dir)
        if d.startswith("shard=") and ".tmp" not in d
        for f in glob.glob(os.path.join(out_dir, d, "*.parquet")))
    if not files:
        # a legitimately empty / fact-free corpus publishes manifest-only
        # shard dirs — return an empty Dataset in the triple schema
        from ..namespaces import TRIPLE_SCHEMA
        return rd.from_arrow(TRIPLE_SCHEMA.empty_table())
    ds = rd.read_parquet(files)
    return dedup_triples(ds)

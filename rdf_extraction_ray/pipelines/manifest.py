"""Resumable sharded execution with per-partition lineage manifests.

The reference has no checkpointing: a crash reruns everything
(SURVEY §4 "Checkpoint / resume: none"). Here the corpus is split into
``n_shards`` deterministic conversation-hash shards; each shard runs
the full pipeline and writes:

- ``<out>/shard=<s>/part-*.parquet``  — the shard's deduped triples
- ``<out>/shard=<s>/_MANIFEST.json``  — lineage + counters:
  input fingerprint, turns_in, facts_detected, link-status histogram
  (the reference's mapping hit/miss counters, §2.6 A3), triples_out

Writes are atomic (temp dir + rename). A rerun anti-joins existing
manifests against the input fingerprint and skips finished shards —
"resume mid-pipeline from per-partition lineage" (north_rule).

Sharding is BY CONVERSATION HASH, so a shard is a self-contained
sub-corpus: per-conversation logic and per-conversation IDs are
unaffected by shard boundaries. (Cross-shard triple duplicates are
possible only for shared entity nodes, e.g. ``rdf:type E21_Person``;
the reader-side dedup in :func:`read_output` collapses them, and they
are a vanishing fraction of rows.)
"""

from __future__ import annotations

import json
import os
import shutil

import pandas as pd

from .kg import link_facts, read_turns
from .reports import link_status_histogram
from ..stages.dedup import bucket_exchange, dedup_triples
from ..stages.extract import detect_facts, finalize_bucket
from ..stages.template import build_triples

MANIFEST_NAME = "_MANIFEST.json"


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
    import hashlib as _hashlib
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
    return _hashlib.md5("\n".join(parts).encode()).hexdigest()


def _shard_of(conv_ids: pd.Series, n_shards: int) -> pd.Series:
    return (pd.util.hash_pandas_object(conv_ids.astype("object"), index=False)
            % n_shards)


def _prepartition(turns_path: str, out_dir: str, n_shards: int,
                  fp: str) -> str:
    """ONE pass over the input writing it hash-partitioned by shard
    (``_input/shard=k/``), so each shard's pipeline reads only its own
    files instead of scanning the whole corpus and discarding
    (n_shards-1)/n_shards of it — read amplification drops from
    O(n_shards) to O(1). Idempotent via a fingerprint marker; the
    partition survives crashes, so resume skips this step too."""
    import ray.data as rd
    part_dir = os.path.join(out_dir, "_input")
    marker = os.path.join(part_dir, "_PARTITIONED.json")
    if os.path.exists(marker):
        with open(marker) as f:
            meta = json.load(f)
        if meta.get("fingerprint") == fp and meta.get("n") == n_shards:
            return part_dir
        shutil.rmtree(part_dir)
    # unique tmp per process: two concurrent runs must not delete each
    # other's in-progress files or interleave writes into one tmp dir
    tmp = f"{part_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)

    def _tag(df: pd.DataFrame) -> pd.DataFrame:
        b = df.copy()
        b["shard"] = _shard_of(b["conv_id"], n_shards).astype("int64")
        return b

    (rd.read_parquet(turns_path)
     .map_batches(_tag, batch_format="pandas", batch_size=None)
     .write_parquet(tmp, partition_cols=["shard"]))
    os.makedirs(tmp, exist_ok=True)  # an EMPTY corpus writes no
    # files and creates no dir — the marker below must still publish
    with open(os.path.join(tmp, "_PARTITIONED.json"), "w") as f:
        json.dump({"fingerprint": fp, "n": n_shards}, f)
    shutil.rmtree(part_dir, ignore_errors=True)
    try:
        os.rename(tmp, part_dir)
    except OSError:
        # a concurrent run published first — use theirs, drop ours
        if not os.path.exists(part_dir):
            raise
        shutil.rmtree(tmp, ignore_errors=True)
    return part_dir


_STALE_TMP_AGE_S = 3600  # crashed-run debris; live runs touch within this


def _sweep_stale_tmp(out_dir: str) -> None:
    """Remove ``*.tmp.<pid>`` dirs whose mtime is over an hour old —
    debris from crashed runs (per-pid names protect CONCURRENT runs
    from each other, but a killed run's tmp would otherwise leak a
    full shard of parquet forever; the age guard keeps a live
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
                shards: list[int] | None = None,
                prepartition: bool = True) -> dict:
    """Run the KG pipeline shard by shard, skipping finished shards.

    Returns a summary dict {shard: manifest}. ``shards`` restricts the
    run (used by tests to simulate a mid-run failure). With
    ``prepartition`` (default) and more than one shard pending, the
    input is first written hash-partitioned under ``out_dir/_input``
    in one pass, so each shard reads only its own partition; a lone
    pending shard filters the input instead.
    """
    fp = _fingerprint(turns_path)
    os.makedirs(out_dir, exist_ok=True)
    _sweep_stale_tmp(out_dir)
    summary: dict[int, dict] = {}
    todo = list(range(n_shards) if shards is None else shards)

    def _finished(s: int):
        mpath = os.path.join(out_dir, f"shard={s}", MANIFEST_NAME)
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            if m.get("input_fingerprint") == fp \
                    and m.get("n_shards") == n_shards:
                # a shard finished under a DIFFERENT n_shards holds a
                # different partition of the corpus — skipping it
                # would mix layouts and double-extract conversations
                return m
        return None

    pending = [s for s in todo if _finished(s) is None]
    # prepartition ONLY when several shards share it: a lone pending
    # shard (e.g. a resume after one lost shard, once a full run has
    # deleted _input) filters the input, where re-partitioning would
    # rewrite the whole corpus to serve that one shard
    part_dir = (_prepartition(turns_path, out_dir, n_shards, fp)
                if prepartition and len(pending) > 1 else None)
    for s in todo:
        m = _finished(s)
        if m is not None:
            m["skipped"] = True
            summary[s] = m
            continue
        final = os.path.join(out_dir, f"shard={s}")
        if os.path.exists(final):
            shutil.rmtree(final)  # stale output for a different input
        summary[s] = _run_one_shard(turns_path, out_dir, s, n_shards, fp,
                                    linker_concurrency, part_dir)
    # all shards final → the _input copy (a full corpus duplicate) has
    # served its purpose; reclaim the space
    if shards is None and all(
            _finished(s) is not None for s in range(n_shards)):
        shutil.rmtree(os.path.join(out_dir, "_input"), ignore_errors=True)
    return summary


def _run_one_shard(turns_path: str, out_dir: str, s: int, n_shards: int,
                   fp: str, linker_concurrency,
                   part_dir: str | None = None) -> dict:
    tmp = os.path.join(out_dir, f"shard={s}.tmp.{os.getpid()}")
    final = os.path.join(out_dir, f"shard={s}")
    shutil.rmtree(tmp, ignore_errors=True)

    if part_dir is not None:
        shard_dir = os.path.join(part_dir, f"shard={s}")
        if not os.path.isdir(shard_dir):
            # hive-partitioned writes create no dir for an empty shard
            import ray.data as rd
            from ..synth import TURNS_SCHEMA
            shard_turns = rd.from_arrow(TURNS_SCHEMA.empty_table())
        else:
            shard_turns = read_turns(shard_dir)
    else:
        turns = read_turns(turns_path)

        def _filter_shard(df: pd.DataFrame) -> pd.DataFrame:
            return df[_shard_of(df["conv_id"], n_shards) == s]

        shard_turns = turns.map_batches(_filter_shard,
                                        batch_format="pandas")
    # route through the shared skew probe — a giant conversation in
    # a shard previously landed in one unsalted finalize group
    from ..stages.extract import AUTO_SALT_FACTS, salted_assembly
    from .kg import _route_candidates
    cands, needs_salt = _route_candidates(shard_turns,
                                          AUTO_SALT_FACTS, None)
    facts = (salted_assembly(cands) if needs_salt
             else bucket_exchange(cands, finalize_bucket))
    linked = link_facts(facts, concurrency=linker_concurrency)

    # side-channel counters (§2.6 A3): per-batch partials → tiny sum.
    # computed on the same pass-shaped data; facts are small relative
    # to turns, so one extra consumption of the linked facts is cheap —
    # materialize ONLY this small intermediate, never the turns.
    linked = linked.materialize()
    # counted AFTER finalize+link (conversation rules consume some
    # detection rows, e.g. subject declarations) — named accordingly
    facts_linked = linked.count()
    turns_in = shard_turns.count()  # parquet metadata count — cheap

    counts = link_status_histogram(linked)
    histogram = {status: int(n)
                 for status, n in zip(counts["status"], counts["n"])}

    triples = dedup_triples(
        linked.map_batches(build_triples, batch_format="pandas",
                           batch_size=None))
    triples.write_parquet(tmp)
    os.makedirs(tmp, exist_ok=True)  # an EMPTY shard writes no files
    # and creates no dir — the manifest below is still published
    import pyarrow.parquet as pq
    triples_out = sum(pq.read_metadata(os.path.join(tmp, f)).num_rows
                      for f in os.listdir(tmp) if f.endswith(".parquet"))

    manifest = {
        "shard": s,
        "n_shards": n_shards,
        "input_fingerprint": fp,
        "turns_in": int(turns_in),
        "facts_linked": int(facts_linked),
        # legacy alias for pre-round-4 manifest readers
        "facts_detected": int(facts_linked),
        "link_status_histogram": histogram,
        "triples_out": int(triples_out),
        "skipped": False,
    }
    with open(os.path.join(tmp, MANIFEST_NAME), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)  # atomic publish: manifest+data appear together
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

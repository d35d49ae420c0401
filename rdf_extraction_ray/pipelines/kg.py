"""The flagship KG-construction pipeline (SURVEY §7.1).

::

    read_parquet(turns)                       # conv_id, turn_idx, role, text, tool, ts
      → map_batches(detect_facts, pyarrow)     # stateless; text never shuffles
      → sort(bucket).map_batches(finalize)     # conversation rules + seq minting (shuffle #1, fact rows only)
      → map_batches(link)                      # broadcast dicts + fuzzy fallback, cached per process
      → map_batches(build_triples)             # predicate templating, pandas in, Arrow out
      → two-level exact dedup (pyarrow)        # combiner + hash shuffle (#2)
      → write_parquet                          # partitioned sink + manifest

Both shuffles go through :func:`stages.dedup.bucket_exchange`: the
body runs once per sorted BLOCK (many buckets), not once per bucket.
The default plan fuses finalize → link → template → combiner into one
such body (:func:`_assemble_bucket`). Finalize and the linker work on
a pandas frame of fact rows (the linker resolves each slot over its
unique surfaces into numpy arrays); the template emits one Arrow table
per call, and the combiner and the dedup body stay on Arrow.

Scale notes (100 TB design):
- the only stage that touches full transcript text is ``detect_facts``
  — stateless, vectorized, zero-copy Arrow in; everything wide happens
  on extracted-fact rows (~1-5% of input bytes);
- the linker's dictionaries load once per WORKER PROCESS (task pool
  with a module-level cache; a bounded actor pool is available via
  ``linker_concurrency`` for heavy state), never per batch;
- nothing materializes the full input: the pipeline is consumed by
  ``write_parquet`` / aggregates only;
- giant conversations: routed AUTOMATICALLY — ``_assembled`` probes
  per-conversation fact counts on the materialized candidate set and
  switches to ``stages.extract.salted_assembly`` when any conversation
  exceeds ``AUTO_SALT_FACTS`` rows (bounded per-group memory).

None of these functions call ``ray.init`` — the caller owns the
session (driver contract).
"""

from __future__ import annotations

import ray.data as rd

from ..stages.dedup import (add_bucket_and_combine, bucket_exchange,
                            dedup_bucket)
from ..stages.extract import (AUTO_SALT_FACTS, detect_facts,
                              finalize_bucket, max_conv_fact_rows,
                              salted_assembly)
from ..stages.link import EntityLinker
from ..stages.template import build_triples


def read_turns(path: str) -> rd.Dataset:
    """Read the transcript table, pruning to the needed columns.

    Blocks are sized AT THE SOURCE (``override_num_blocks``, see
    :func:`_read_num_blocks`) so the assembly sort sees the read's
    blocking: the former ``repartition(cpus)`` coalesce was a full
    extra all-to-all that measured ~2.5-5 s at 3x sf0.1 / 32 CPUs.
    Each read block costs one call of every per-block body downstream
    (detect, assembly, dedup), so the count follows input bytes and
    the slot count only."""
    return rd.read_parquet(
        path, columns=["conv_id", "turn_idx", "role", "text"],
        override_num_blocks=_read_num_blocks(path))


def _read_num_blocks(path: str) -> int | None:
    """Block count for a parquet read: max(slot floor, est. in-memory
    bytes / target block size), where the slot floor is two blocks per
    CPU slot up to 16 slots and one per slot above. A 1-slot cluster
    therefore reads 2 blocks, an 8-slot one 16, a 32-slot one 32, and
    a file past the bytes term splits further on any width. None
    (Ray's default splitting) when the path can't be stat'd."""
    import os

    from ray.data import DataContext
    try:
        if os.path.isdir(path):
            total = sum(e.stat().st_size for e in os.scandir(path)
                        if e.name.endswith(".parquet"))
        else:
            total = os.stat(path).st_size
    except OSError:
        return None
    if total <= 0:
        return None
    target = int(DataContext.get_current().target_max_block_size
                 or (128 << 20))
    # Load-balance floor: at narrow widths a one-wave map stage is
    # straggler-bound — two blocks per slot measured 35.1→28.0 s at
    # 8 CPUs and 82.6→64.5 s at 4 (3× sf0.1) — while at 32 slots the
    # extra shuffle waves cost more than they balance (9.2→12.7 s),
    # so wide clusters keep one block per slot. The bytes term
    # dominates at real scale either way, where blocks are sized by
    # data, not cores.
    cores = _cluster_cpus()
    floor = cores * 2 if cores <= 16 else cores
    # ~4x parquet->Arrow expansion for short-string transcript tables,
    # sized at 2x the target block size: the assembly sort's cost
    # grows with partition count, and a 32-slot block sweep (3x sf0.1:
    # 32/48/64/96/128 blocks → 6.30/6.43/6.70/7.58/9.96 s) shows
    # fewer-but-bigger blocks win until the floor; ~256 MiB in-memory
    # blocks of short-string rows stream fine through push-based sort.
    return max(floor, -(-total * 4 // (2 * target)))


def _cluster_cpus(default: int = 32) -> int:
    """CPU slots of the running cluster (``default`` without one). At
    least 1, so a 0-CPU head node still gets a positive block count."""
    import ray
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", default)))
    return default


def extract_facts(turns: rd.Dataset) -> rd.Dataset:
    """turns → finalized per-conversation fact rows.

    The shuffle key is the conversation-hash BUCKET (not conv_id), so
    a conversation never spans two sorted blocks; per-conversation
    logic runs vectorized inside each block.
    """
    # batch_size=None → one batch per block: full-block vectorization
    # without coalescing blocks away from idle cores (a fixed 32k batch
    # halved task parallelism at 32 CPUs on ~8k-row blocks). Blocks are
    # already core-sized by read_turns (override_num_blocks), so no
    # repartition: fact rows flow straight into the sort, whose
    # partition count follows the input blocking.
    cands = turns.map_batches(detect_facts, batch_format="pyarrow",
                              batch_size=None)
    return bucket_exchange(cands, finalize_bucket)


# NOTE when sizing a bounded actor pool here: concurrency × num_cpus
# must leave ≥2 CPUs for task stages or the fused sort→linker stage
# deadlocks (observed with 4 actors on a 4-CPU cluster).
_LINKER_CACHE: list = []  # one EntityLinker per worker process


def _get_linker() -> EntityLinker:
    """The per-worker-process EntityLinker (broadcast dicts + fuzzy
    memo), built once and cached — the ONE construction point shared
    by the task-pool, fused-assembly and salted paths (three inline
    copies of this idiom previously invited drift)."""
    if not _LINKER_CACHE:
        _LINKER_CACHE.append(EntityLinker())
    return _LINKER_CACHE[0]


def _link_batch(batch):
    """Task-pool linker body: Ray pre-starts workers at init, so
    unlike an actor pool there is no process-spawn + import latency
    on the critical path. Semantically identical to the actor pool
    (state is read-only + memo)."""
    return _get_linker()(batch)


def link_facts(facts: rd.Dataset, concurrency: int | tuple | None = None,
               batch_size: int = 8192) -> rd.Dataset:
    """facts → linked facts.

    Default: task pool with a per-process cached linker (fast start,
    elastic parallelism). Pass ``concurrency`` to force a bounded
    ACTOR pool instead — the right shape when linker state becomes
    heavy (embedding index, model) and per-process duplication must be
    capped."""
    if concurrency is None:
        return facts.map_batches(_link_batch, batch_format="pandas",
                                 batch_size=batch_size)
    return facts.map_batches(EntityLinker, batch_format="pandas",
                             batch_size=batch_size, concurrency=concurrency,
                             num_cpus=1)


def _template_combine(linked):
    """Default assembly tail: linked fact rows → template → combiner."""
    return add_bucket_and_combine(build_triples(linked))


def _link_template_combine(batch, tail=_template_combine):
    """Unkeyed fused tail for the SALTED route: finalized fact rows →
    link → ``tail``, per batch (no conversation grouping needed — the
    salted assembly already minted seq ids)."""
    return tail(_get_linker()(batch))


def _assemble_bucket(group, tail=_template_combine):
    """Fused exchange body over one sorted block of conversation-hash
    buckets (whole conversations only, many per call): finalize →
    link → ``tail`` (template → dedup-combiner) in ONE call.

    Ray would fuse these operators into one task anyway, but each
    map_batches still pays a block format round-trip per sub-stage;
    fusing the bodies keeps the fact rows in pandas from finalize
    through the linker and the triples in Arrow from the template
    through the combiner (measured ~2x stage-CPU drop at sf0.1).
    Semantically identical to the unfused chain — pinned by the
    golden/P-R suite, which runs both paths."""
    return _link_template_combine(finalize_bucket(group), tail)


def triples_from_turns(turns: rd.Dataset,
                       linker_concurrency: int | tuple | None = None,
                       stats_key: str | None = None) -> rd.Dataset:
    """Full transform chain turns → deduped triples (lazy): the
    assembly plan of :func:`_assembled`, then the dedup exchange.
    ``stats_key`` (the input's path) enables the skew-probe
    statistics cache."""
    return bucket_exchange(
        _assembled(turns, AUTO_SALT_FACTS, stats_key,
                   linker_concurrency=linker_concurrency),
        dedup_bucket, batch_format="pyarrow")


def _probe_fingerprint(path: str) -> str | None:
    """Content fingerprint of an input path — delegates to the ONE
    canonical recursive helper (pipelines.manifest._fingerprint), so
    the probe cache and the sink manifests can never drift apart;
    None (probe cache disabled) when the path can't be stat'd."""
    try:
        from .manifest import _fingerprint
        return _fingerprint(path)
    except OSError:
        return None


# Probe-verdict cache directory. DRIVER-LOCAL semantics: the probe
# runs on the driver and the verdict only steers the driver-built
# plan, so on a multi-node cluster this cache lives (and only needs
# to live) on the driver host — workers never read it. Override via
# RDF_RAY_PROBE_CACHE_DIR (e.g. to a per-user or persistent path);
# resolved at call time so tests and long-lived processes can
# repoint it without reimporting.


def _probe_cache_dir() -> str:
    import os as _os
    return _os.environ.get("RDF_RAY_PROBE_CACHE_DIR",
                           "/tmp/rdf_extraction_ray/probe_cache")


def _probe_cache_load(stats_key: str | None) -> dict | None:
    import hashlib as _hashlib
    import json as _json
    import os as _os
    if not stats_key:
        return None
    fp = _probe_fingerprint(stats_key)
    if fp is None:
        return None
    p = _os.path.join(_probe_cache_dir(),
                      _hashlib.md5(stats_key.encode()).hexdigest()
                      + ".json")
    try:
        with open(p) as fh:
            rec = _json.load(fh)
        return rec if rec.get("fingerprint") == fp else None
    except (OSError, ValueError):
        return None


def _probe_cache_store(stats_key: str | None, needs_salt: bool,
                       max_rows: int, threshold: int) -> None:
    import hashlib as _hashlib
    import json as _json
    import os as _os
    if not stats_key:
        return
    fp = _probe_fingerprint(stats_key)
    if fp is None:
        return
    try:
        cache_dir = _probe_cache_dir()
        _os.makedirs(cache_dir, exist_ok=True)
        p = _os.path.join(cache_dir,
                          _hashlib.md5(stats_key.encode()).hexdigest()
                          + ".json")
        tmp = p + f".tmp{_os.getpid()}"
        with open(tmp, "w") as fh:
            _json.dump({"fingerprint": fp, "needs_salt": needs_salt,
                        "max_conv_fact_rows": int(max_rows),
                        "threshold": int(threshold)}, fh)
        _os.replace(tmp, p)
    except OSError:
        pass  # best-effort cache: a write failure must not fail the job


def _assembled(turns: rd.Dataset,
               salt_threshold: int | None = AUTO_SALT_FACTS,
               stats_key: str | None = None,
               linker_concurrency: int | tuple | None = None,
               detect=detect_facts,
               tail=_template_combine) -> rd.Dataset:
    """The one assembly plan (fused build, actor-pool linker, seeded
    graph, sharded runner): detect → skew probe → finalize → link →
    ``tail`` (default: template → combiner, rows keyed by the dedup
    ``bucket``). Fused by default (:func:`_assemble_bucket`); with
    ``linker_concurrency`` the linker is a bounded ACTOR pool.

    Skew routing (SURVEY §7.5.7): the candidate dataset is
    materialized (fact rows, 1-5% of corpus bytes) and a bounded
    per-conversation count probe (:func:`max_conv_fact_rows`) decides
    the plan: below ``salt_threshold`` fact rows per conversation,
    whole-conversation bucket grouping; above it, the salted-segment
    assembly whose per-group memory is bounded by ``span_turns``
    regardless of conversation size. ``None`` disables the probe
    (always whole-conversation).

    Statistics cache: the probe's verdict is a property of the INPUT,
    so when the caller passes ``stats_key`` (the input path) the
    verdict is cached under a (file names, sizes, mtimes)
    fingerprint, exactly the sink manifest's invalidation basis.
    Re-runs over an unchanged input skip the probe JOBS (the count
    and the per-conversation max groupby); any change to the input
    files invalidates the cache and the next run re-probes. This is
    the statistics-reuse pattern of mature engines (cached table
    stats driving plan choice), applied to skew routing.

    The candidate materialize stays UNCONDITIONAL (cache hit or not):
    an earlier revision streamed detect straight into the assembly
    sort on cache hits, and at low slot counts the fused plan starves
    the detect stage — the push-based shuffle's merge tasks compete
    with the map tasks for the same slots (8 CPUs, 3× sf0.1: 65 s
    fused vs 38 s with the barrier), while at 32 CPUs the barrier
    measures free (14.49 s vs 14.56 s fused; the ~3 s overlap win
    once attributed to streaming was host noise). Fact rows are 1-5%
    of corpus bytes, so the barrier's storage cost is negligible at
    any scale. On 1 slot it is free too: 10 alternating fused builds
    of 100 conversations took a median 0.429 s with it, 0.425 s
    streamed (quartiles 0.42-0.44 and 0.39-0.45 s)."""
    cands, needs = _route_candidates(
        turns.map_batches(detect, batch_format="pyarrow",
                          batch_size=None),
        salt_threshold, stats_key)
    kwargs = {"tail": tail}
    if linker_concurrency is not None:
        facts = (salted_assembly(cands) if needs
                 else bucket_exchange(cands, finalize_bucket))
        return link_facts(facts, concurrency=linker_concurrency) \
            .map_batches(tail, batch_format="pandas", batch_size=None)
    if needs:
        return salted_assembly(cands).map_batches(
            _link_template_combine, batch_format="pandas",
            batch_size=None, fn_kwargs=kwargs)
    return bucket_exchange(cands, _assemble_bucket, fn_kwargs=kwargs)


def _route_candidates(cands: rd.Dataset,
                      salt_threshold: int | None,
                      stats_key: str | None) -> tuple:
    """detected candidates → (candidate Dataset, needs_salt verdict)
    — the skew probe of :func:`_assembled`, which every assembly
    route builds through, so no path can silently bypass the
    giant-conversation routing the module docstring promises."""
    if salt_threshold is None:
        return cands, False
    cands = cands.materialize()
    cached = _probe_cache_load(stats_key)
    # a verdict is only valid for the threshold it was probed
    # under — a caller asking for a stricter bound must re-probe
    if cached is not None and cached.get("threshold") != salt_threshold:
        cached = None
    if cached is not None:
        needs = cached["needs_salt"]
    else:
        # metadata guard: if the WHOLE corpus has fewer fact rows
        # than the threshold, no conversation can exceed it — skip
        # the probe job (count() on materialized data is free)
        max_rows = 0
        needs = cands.count() > salt_threshold
        if needs:
            max_rows = max_conv_fact_rows(cands)
            needs = max_rows > salt_threshold
        _probe_cache_store(stats_key, needs, max_rows,
                           salt_threshold)
    return cands, needs


def triples_with_seed(turns: rd.Dataset,
                      linker_concurrency: int | tuple | None = None
                      ) -> rd.Dataset:
    """Extracted triples unioned with the static seed graph BEFORE the
    dedup shuffle (reference merges ``additional_triples.ttl`` into the
    uber graph, ``Utils/utilities.py:552-556`` — rdflib set semantics
    make the merge idempotent; here the shared dedup stage does)."""
    from ..state.fixtures import seed_triples_table

    seed = rd.from_arrow(seed_triples_table()).map_batches(
        add_bucket_and_combine, batch_format="pyarrow", batch_size=None)
    assembled = _assembled(turns, linker_concurrency=linker_concurrency)
    return bucket_exchange(assembled.union(seed), dedup_bucket,
                           batch_format="pyarrow")


def kg_pipeline(turns_path: str, out_dir: str | None = None,
                linker_concurrency: int | tuple | None = None) -> rd.Dataset:
    """Read → extract → link → template → dedup (→ optional sink)."""
    triples = triples_from_turns(read_turns(turns_path),
                                 linker_concurrency=linker_concurrency,
                                 stats_key=turns_path)
    if out_dir is not None:
        # idempotent sink: Ray's write_parquet never clears the
        # target, so a re-run into a used directory would read back
        # old + new files mixed — write to a tmp dir and publish
        # atomically (the manifest runner's pattern)
        import os
        import shutil
        tmp = f"{out_dir}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        triples.write_parquet(tmp)
        os.makedirs(tmp, exist_ok=True)  # empty result: publish anyway
        shutil.rmtree(out_dir, ignore_errors=True)
        os.replace(tmp, out_dir)
        return rd.read_parquet(out_dir)
    return triples

"""CLI entry point — the engine's ``ray job submit`` surface.

Replaces the reference's per-script argparse CLI
(``Utils/utilities.py:736-828``: selection modes, verbosity, output
format) with one subcommand interface over the same capabilities:

    python -m rdf_extraction_ray synth     --out DIR --n-convs N [--seed S]
    python -m rdf_extraction_ray run       --input DIR --out DIR
                                           [--shards N] [--fresh]
    python -m rdf_extraction_ray serialize --input DIR --out DIR
                                           [--format nt|nq]
    python -m rdf_extraction_ray report    --input DIR
                                           [--kind links|orgs|titles|places]
    python -m rdf_extraction_ray works     --works F --writing F --out DIR
    python -m rdf_extraction_ray curate    --input DIR --out DIR [--shards N]
    python -m rdf_extraction_ray sparql    --triples DIR --query 'SELECT...'
                                           [--out DIR | --head N]

On a cluster: ``ray job submit --working-dir . -- python -m
rdf_extraction_ray run --input s3://...`` — the guarded ``ray.init``
attaches to the job's cluster; locally it starts a local session.
``run`` is resumable: finished shards (matching input fingerprint) are
skipped unless ``--fresh`` is given.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time


def _ensure_ray() -> None:
    import ray
    if not ray.is_initialized():
        ray.init(ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED


def cmd_synth(args) -> int:
    from . import synth
    path = synth.write_turns(args.out, args.n_convs, seed=args.seed)
    print(json.dumps({"out": path, "n_convs": args.n_convs,
                      "seed": args.seed}))
    return 0


def _select_conversations(turns_path: str, args) -> str:
    """Reference file-selection modes (`utilities.py:653-734`):
    explicit ids, first-N conversations, or a seeded random sample.
    Writes the filtered turns next to the output and returns the new
    input path. The selection spec + source fingerprint are recorded
    in a marker; an unchanged rerun REUSES the existing .selected dir
    (rewriting it would change the parquet file names and break
    run_sharded's fingerprint-based shard resume)."""
    import ray.data as rd

    from .pipelines.manifest import _fingerprint
    spec = json.dumps({
        "conv_ids": args.conv_ids, "limit_convs": args.limit_convs,
        "sample_frac": args.sample_frac, "seed": args.seed,
        "source": _fingerprint(turns_path),
    }, sort_keys=True)
    sel = args.out.rstrip("/") + ".selected"
    marker = sel + ".spec.json"
    if os.path.exists(marker):
        with open(marker) as f:
            if f.read() == spec and os.path.isdir(sel):
                return sel
    ds = rd.read_parquet(turns_path)
    if args.conv_ids:
        wanted = frozenset(args.conv_ids.split(","))
        ds = ds.filter(lambda r: r["conv_id"] in wanted)
    elif args.limit_convs:
        keep = sorted(set(
            ds.select_columns(["conv_id"]).to_pandas()["conv_id"]
        ))[:args.limit_convs]
        keepset = frozenset(keep)
        ds = ds.filter(lambda r: r["conv_id"] in keepset)
    elif args.sample_frac:
        import zlib
        frac, seed = args.sample_frac, args.seed
        thresh = int(frac * 0xFFFFFFFF)

        def _keep(r):
            h = zlib.crc32(f"{seed}:{r['conv_id']}".encode())
            return h <= thresh
        ds = ds.filter(_keep)  # deterministic per-conversation sample
    else:
        return turns_path
    # invalidate BEFORE rewriting: a crash mid-write must not leave a
    # stale marker validating a half-written selection
    if os.path.exists(marker):
        os.remove(marker)
    shutil.rmtree(sel, ignore_errors=True)
    ds.write_parquet(sel)
    with open(marker, "w") as f:
        f.write(spec)
    return sel


def cmd_run(args) -> int:
    _ensure_ray()
    from .pipelines.manifest import run_sharded
    if args.fresh:
        shutil.rmtree(args.out, ignore_errors=True)
    inp = _select_conversations(args.input, args)
    t0 = time.perf_counter()
    summary = run_sharded(inp, args.out, n_shards=args.shards,
                          linker_concurrency=args.linker_concurrency)
    wall_s = round(time.perf_counter() - t0, 3)
    # summed over all shards, skipped ones included. Shards may share
    # entity triples, which read_output collapses: the triples sum can
    # exceed the distinct triples the output reads back as
    sums = {k: sum(m[k] for m in summary.values()) for k in (
        "skipped", "turns_in", "facts_detected", "facts_linked",
        "triples_out")}
    sums["skipped_shards"] = sums.pop("skipped")
    sums["triples_out_per_shard_sum"] = sums.pop("triples_out")
    print(json.dumps({"out": args.out, "shards": args.shards, **sums,
                      "wall_s": wall_s}))
    return 0


def _read_triples(path: str):
    """A triples parquet path as one Dataset. A sharded ``run`` output
    (``shard=*/_MANIFEST.json``) is read through
    ``manifest.read_output``, which skips unpublished shards and the
    staging dir of a crashed run, and collapses cross-shard
    duplicates; a plain parquet read would count every cross-shard
    duplicate entity triple."""
    import glob

    import ray.data as rd

    from .pipelines.manifest import MANIFEST_NAME, read_output
    if glob.glob(os.path.join(glob.escape(path), "shard=*",
                              MANIFEST_NAME)):
        return read_output(path)
    return rd.read_parquet(path)


def cmd_serialize(args) -> int:
    _ensure_ray()
    from .stages.serialize import write_nquads, write_ntriples
    triples = _read_triples(args.input)
    if args.format == "nq":
        write_nquads(triples, args.out)
    else:
        write_ntriples(triples, args.out)
    print(json.dumps({"out": args.out, "format": args.format}))
    return 0


def cmd_report(args) -> int:
    _ensure_ray()
    import pandas as pd

    from .pipelines import reports
    from .pipelines.kg import extract_facts, link_facts, read_turns
    facts = extract_facts(read_turns(args.input))
    if args.kind == "titles":
        out = reports.title_census(facts)
    else:
        linked = link_facts(facts).materialize()
        out = {"links": reports.link_status_histogram,
               "orgs": reports.org_mention_counts,
               "places": reports.unmatched_places,
               "terms": reports.vocab_terms_used}[args.kind](linked)
    if not isinstance(out, pd.DataFrame):
        # Dataset-returning reports: sort DISTRIBUTED (the census can
        # be corpus-growing), then pull only the report head — the
        # driver never holds more than ``head`` rows. Each plan runs
        # once: the report is materialized for its schema (the sort
        # key), the sort for the count and the head.
        head = int(getattr(args, "head", 0) or 200)
        out = out.materialize()
        schema = out.schema()
        if schema is not None and "n" in schema.names:
            key2 = [c for c in schema.names if c != "n"][:1]
            out = out.sort(["n"] + key2,
                           descending=[True] + [False] * len(key2)
                           ).materialize()
        total = out.count()
        out = out.limit(head).to_pandas()
        print(out.to_string(index=False))
        if total > head:
            print(f"... {total - head} more rows (use --head to "
                  "raise the cap)")
        return 0
    print(out.to_string(index=False))
    return 0


def cmd_sparql(args) -> int:
    """Run a textual SPARQL query over a triples parquet directory
    (the engine's own ``run`` output, or any (subj, pred, obj)
    parquet; a sharded ``run`` output reads as one deduplicated
    graph). SELECT/CONSTRUCT/DESCRIBE/update results stream to
    ``--out`` as parquet (or print the first ``--head`` rows); ASK
    prints its boolean. The text layer parses driver-side and
    dispatches to the oracled plan operators — see
    stages/sparql.py for the supported grammar subset."""
    _ensure_ray()
    from .stages.sparql import run_sparql

    query = args.query
    if query.startswith("@"):
        with open(query[1:], encoding="utf-8") as fh:
            query = fh.read()
    res = run_sparql(_read_triples(args.triples), query)
    if isinstance(res, bool):
        print(json.dumps({"ask": res}))
        return 0
    if args.out:
        res.write_parquet(args.out)
        print(json.dumps({"out": args.out}))
    else:
        # no res.limit(): Ray's limit pushdown trips an assertion on
        # the typed-empty-seed unions the planner operators emit
        # (plan_union_op requires >= 2 children after the split)
        import pandas as pd
        parts, seen = [], 0
        for b in res.iter_batches(batch_size=args.head,
                                  batch_format="pandas"):
            parts.append(b)
            seen += len(b)
            if seen >= args.head:
                break
        df = (pd.concat(parts, ignore_index=True).head(args.head)
              if parts else pd.DataFrame())
        print(df.to_string(index=False))
    return 0


def cmd_works(args) -> int:
    _ensure_ray()
    from .pipelines.works import works_pipeline
    triples = works_pipeline(args.works, args.writing)
    triples.write_parquet(args.out)
    print(json.dumps({"out": args.out}))
    return 0


def cmd_curate(args) -> int:
    """Training-data curation driver: documents parquet → quality
    gate → exact dedup (min id per distinct text, bodies shuffle
    exactly once, straight to the sink) → shard-partitioned training
    parquet. END-TO-END RESUMABLE (stages/curate.run_curation): the
    dedup survivor-id set and each output shard checkpoint against
    the input fingerprint, so a killed run resumes from its last
    completed stage; ``--fresh`` discards the checkpoints."""
    _ensure_ray()
    from .stages.curate import run_curation

    res = run_curation(args.input, args.out, n_shards=args.shards,
                       fresh=args.fresh, neardup=args.neardup)
    print(json.dumps({"out": args.out, "docs_in": res["docs_in"],
                      "docs_out": res["docs_out"],
                      "resumed": res["resumed"],
                      "shards": args.shards}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="rdf_extraction_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("synth", help="generate a synthetic transcript corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--n-convs", type=int, default=1000)
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("run", help="turns → deduped triples (resumable)")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--shards", type=int, default=8)
    s.add_argument("--linker-concurrency", type=int, default=None)
    s.add_argument("--fresh", action="store_true",
                   help="discard previous shards instead of resuming")
    s.add_argument("--conv-ids", default=None,
                   help="comma-separated conversation ids to run")
    s.add_argument("--limit-convs", type=int, default=None,
                   help="first N conversations by id")
    s.add_argument("--sample-frac", type=float, default=None,
                   help="deterministic per-conversation sample fraction")
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(fn=cmd_run)

    s = sub.add_parser("serialize", help="triples parquet → N-Triples/N-Quads")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=["nt", "nq"], default="nt")
    s.set_defaults(fn=cmd_serialize)

    s = sub.add_parser("report", help="corpus aggregate side-channels")
    s.add_argument("--input", required=True)
    s.add_argument("--kind", choices=["links", "orgs", "titles", "places",
                                      "terms"], default="links")
    s.add_argument("--head", type=int, default=200,
                   help="max report rows pulled to the driver for "
                        "display (distributed sort + limit)")
    s.set_defaults(fn=cmd_report)

    s = sub.add_parser("curate", help="documents → quality gate → "
                       "exact dedup → training shards (resumable)")
    s.add_argument("--input", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--shards", type=int, default=8)
    s.add_argument("--fresh", action="store_true",
                   help="discard survivor/shard checkpoints")
    s.add_argument("--neardup", action="store_true",
                   help="add the near-dup resolution stage "
                        "(5-gram Jaccard components, keep longest)")
    s.set_defaults(fn=cmd_curate)

    s = sub.add_parser("sparql", help="textual SPARQL over a triples "
                       "parquet (SELECT/ASK/CONSTRUCT/DESCRIBE/"
                       "DELETE-INSERT)")
    s.add_argument("--triples", required=True,
                   help="triples parquet dir (subj/pred/obj columns)")
    s.add_argument("--query", required=True,
                   help="SPARQL text, or @path/to/query.rq")
    s.add_argument("--out", default=None,
                   help="write result parquet here (default: print)")
    s.add_argument("--head", type=int, default=20,
                   help="rows to print when --out is absent")
    s.set_defaults(fn=cmd_sparql)

    s = sub.add_parser("works", help="bibliography migration pipeline")
    s.add_argument("--works", required=True)
    s.add_argument("--writing", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_works)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

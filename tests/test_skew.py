"""Mega-conversation skew handling (SURVEY §7.5.7, north_rule).

The ordered-assembly shuffle moves FACT rows only, keyed on
``hash(conv_id) % N_CONV_BUCKETS`` — a mega-conversation therefore
costs one bucket one larger *vectorized* pandas group, never a
per-row Python loop, and turns themselves never shuffle. These tests
pin the correctness half of that design: a conversation ~100× the
median must still get dense, turn-ordered sequence IDs and identical
per-fact output, regardless of how many input blocks it spans.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from rdf_extraction_ray import synth
from rdf_extraction_ray.pipelines.kg import extract_facts
from rdf_extraction_ray.stages.extract import N_CONV_BUCKETS


def _mega_turns(n_facts: int = 5000) -> pa.Table:
    rows = []
    rows.append(("mega", 0, "user", "Tell me about Margaret Blake."))
    for i in range(n_facts):
        place = ["Bath, Somerset", "Norwich, Norfolk",
                 "Kendal, Cumbria"][i % 3]
        rows.append(("mega", i + 1, "assistant",
                     f"Margaret Blake visited {place}."))
    return pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([""] * len(rows), pa.string()),
        "ts": pa.array(list(range(len(rows))), pa.timestamp("us")),
    })


class TestMegaConversation:
    def test_seq_dense_and_turn_ordered_across_blocks(self):
        turns = _mega_turns(5000)
        # force the conversation across many input blocks
        ds = rd.from_arrow(turns).repartition(20)
        out = extract_facts(ds).to_pandas().sort_values("seq",
                                                        ignore_index=True)
        assert len(out) == 5000
        assert list(out["seq"]) == list(range(5000))
        # seq order == turn order (the O4 invariant)
        assert out["turn_idx"].is_monotonic_increasing

    def test_mega_conv_mixed_with_normal_corpus(self):
        normal, _ = synth.generate(80, seed=31, mega_every=0)
        mega = _mega_turns(3000)
        ds = rd.from_arrow(pa.concat_tables(
            [normal, mega])).repartition(16)
        out = extract_facts(ds).to_pandas()
        m = out[out["conv_id"] == "mega"]
        assert len(m) == 3000
        assert sorted(m["seq"]) == list(range(3000))
        # normal conversations are unaffected by the giant neighbor
        solo = extract_facts(rd.from_arrow(normal)).to_pandas()
        both = out[out["conv_id"] != "mega"]
        key = ["conv_id", "turn_idx", "seq", "fact_type", "place"]
        a = both[key].sort_values(key, ignore_index=True).fillna("")
        b = solo[key].sort_values(key, ignore_index=True).fillna("")
        assert a.equals(b)

    def test_salted_two_level_equals_default(self):
        """The salted-segment assembly path (span_turns splits every
        conversation) must be row-identical to whole-conversation
        grouping — including burial gating, the MOVED quirk, subject
        attribution, and dense seq minting across segment borders."""
        from rdf_extraction_ray.stages.extract import extract_facts_salted
        turns, _ = synth.generate(120, seed=23)
        mega = _mega_turns(2000)
        ds = rd.from_arrow(pa.concat_tables([turns, mega])).repartition(10)
        a = extract_facts(ds).to_pandas()
        b = extract_facts_salted(ds, span_turns=64).to_pandas()
        cols = sorted(set(a.columns) & set(b.columns))
        ka = a[cols].sort_values(cols, ignore_index=True).fillna("")
        kb = b[cols].sort_values(cols, ignore_index=True).fillna("")
        assert len(a) == len(b)
        assert ka.equals(kb)
        m = b[b["conv_id"] == "mega"]
        assert sorted(m["seq"]) == list(range(len(m)))

    def test_bucket_spread(self):
        """Conversations spread over the full bucket range so one
        giant conversation bounds only its own bucket's size."""
        turns, _ = synth.generate(300, seed=7, mega_every=0)
        cands = rd.from_arrow(turns).map_batches(
            __import__("rdf_extraction_ray.stages.extract",
                       fromlist=["detect_facts"]).detect_facts,
            batch_format="pyarrow").to_pandas()
        n_used = cands["bucket"].nunique()
        assert n_used > N_CONV_BUCKETS * 0.5

    def test_auto_router_picks_salted_and_is_row_identical(self):
        """_assembled probes per-conv fact counts on the materialized
        candidate set: a low threshold must route through the salted
        assembly and still produce triple-identical output; a high
        threshold keeps the whole-conversation plan."""
        from rdf_extraction_ray.pipelines.kg import _assembled
        from rdf_extraction_ray.stages.dedup import dedup_bucket
        from rdf_extraction_ray.stages.extract import max_conv_fact_rows

        turns, _ = synth.generate(60, seed=11, mega_every=0)
        mega = _mega_turns(1500)
        ds = rd.from_arrow(pa.concat_tables([turns, mega])).repartition(8)

        def _triples(salt_threshold):
            return (_assembled(ds, salt_threshold=salt_threshold)
                    .groupby("bucket")
                    .map_groups(dedup_bucket, batch_format="pyarrow")
                    .to_pandas())

        whole = _triples(None)            # probe disabled
        salted = _triples(100)            # mega (1500 facts) trips it
        cols = sorted(whole.columns)
        a = whole[cols].sort_values(cols, ignore_index=True).fillna("")
        b = salted[cols].sort_values(cols, ignore_index=True).fillna("")
        assert len(whole) == len(b) and a.equals(b)

    def test_probe_counts_cross_block_conversations(self):
        """max_conv_fact_rows sums a conversation split over many
        blocks (the partial-count exchange, not per-batch maxima)."""
        from rdf_extraction_ray.stages.extract import (detect_facts,
                                                       max_conv_fact_rows)
        ds = rd.from_arrow(_mega_turns(2000)).repartition(16)
        cands = ds.map_batches(detect_facts, batch_format="pyarrow")
        # 2000 place facts + the _subject candidate row
        assert max_conv_fact_rows(cands) == 2001

    def test_probe_driver_and_distributed_paths_agree(self):
        """The probe's driver-merge fast path and the hash-bucket
        distributed path must return the same maximum."""
        from rdf_extraction_ray.stages.extract import (detect_facts,
                                                       max_conv_fact_rows)
        turns, _ = synth.generate(50, seed=3, mega_every=0)
        ds = rd.from_arrow(pa.concat_tables(
            [turns, _mega_turns(800)])).repartition(12)
        cands = ds.map_batches(detect_facts,
                               batch_format="pyarrow").materialize()
        fast = max_conv_fact_rows(cands, driver_merge_rows=10**9)
        dist = max_conv_fact_rows(cands, driver_merge_rows=0)
        assert fast == dist == 801


class TestActorPathSaltRouting:
    def test_actor_pool_linker_path_salts_and_matches_fused(self,
                                                            monkeypatch):
        """The linker_concurrency path must route through the SAME
        skew probe as the fused path (round-4 review: a giant
        conversation previously landed in one unsalted finalize
        group there) — outputs row-identical either way."""
        import rdf_extraction_ray.pipelines.kg as KG

        turns, _ = synth.generate(30, seed=13, mega_every=0)
        mega = _mega_turns(800)
        ds = rd.from_arrow(pa.concat_tables([turns, mega])) \
            .repartition(4)
        fused = KG.triples_from_turns(ds).to_pandas()
        # force the salted verdict on the actor path
        monkeypatch.setattr(KG, "AUTO_SALT_FACTS", 100)
        routed = []
        real_route = KG._route_candidates

        def _spy(t, thr, key):
            c, needs = real_route(t, thr, key)
            routed.append(needs)
            return c, needs

        monkeypatch.setattr(KG, "_route_candidates", _spy)
        actor = KG.triples_from_turns(
            ds, linker_concurrency=2).to_pandas()
        assert routed == [True]  # the probe fired and chose salted
        cols = sorted(fused.columns)
        a = fused[cols].sort_values(cols, ignore_index=True).fillna("")
        b = actor[cols].sort_values(cols, ignore_index=True).fillna("")
        assert len(a) == len(b) and a.equals(b)

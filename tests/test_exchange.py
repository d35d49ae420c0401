"""The bucket exchange: one body call per sorted block, not per bucket.

``stages.dedup.bucket_exchange`` runs each KG-chain body once per
block of a sort on ``bucket``, so a body sees many buckets at once.
These tests pin that this equals the one-call-per-bucket plan it
replaced: in process over hand-split frames (no Ray), and through Ray
on inputs whose sort leaves partitions empty.
"""

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rdf_extraction_ray import synth
from rdf_extraction_ray.namespaces import TRIPLE_COLUMNS
from rdf_extraction_ray.pipelines.kg import _assemble_bucket
from rdf_extraction_ray.stages.dedup import (N_DEDUP_BUCKETS, TRIPLE_KEY,
                                             dedup_bucket)
from rdf_extraction_ray.stages.extract import (N_CONV_BUCKETS,
                                               detect_facts,
                                               finalize_bucket)

TRIPLE_SCHEMA = pa.schema([
    (c, pa.int32() if c == "turn_idx" else pa.string())
    for c in TRIPLE_COLUMNS])


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].fillna("").astype(str)
        else:
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), ignore_index=True)


def _calls(frame: pd.DataFrame, body, n_buckets: int,
           per_block: bool) -> pd.DataFrame:
    """``body`` once per bucket (the old ``map_groups`` plan) or once
    per range of sorted buckets (what the sort hands
    ``bucket_exchange``'s body: 4 blocks, no bucket spans two)."""
    key = frame["bucket"] * 4 // n_buckets if per_block else frame["bucket"]
    parts = [body(g.sort_values("bucket", kind="stable"))
             for _, g in frame.groupby(key, sort=True)]
    return pd.concat([p.to_pandas() if isinstance(p, pa.Table) else p
                      for p in parts], ignore_index=True)


class TestPerBlockEqualsPerBucket:
    """No Ray: each body over one frame of many buckets returns what
    it returns over the same rows one bucket at a time."""

    @pytest.fixture(scope="class")
    def cands(self):
        turns, _ = synth.generate(60, seed=1, mega_every=0)
        c = detect_facts(turns).to_pandas()
        assert c["bucket"].nunique() > 8  # several buckets per block
        return c

    def test_assemble_then_dedup(self, cands):
        old = _calls(cands, _assemble_bucket, N_CONV_BUCKETS, False)
        new = _calls(cands, _assemble_bucket, N_CONV_BUCKETS, True)
        old_final = _calls(old, dedup_bucket, N_DEDUP_BUCKETS, False)
        new_final = _calls(new, dedup_bucket, N_DEDUP_BUCKETS, True)
        assert len(old_final) > 1000
        pd.testing.assert_frame_equal(_canon(new_final),
                                      _canon(old_final))
        assert not old_final.duplicated(TRIPLE_KEY).any()

    def test_finalize_keeps_seq(self, cands):
        old = _calls(cands, finalize_bucket, N_CONV_BUCKETS, False)
        new = _calls(cands, finalize_bucket, N_CONV_BUCKETS, True)
        assert len(old) > 500
        pd.testing.assert_frame_equal(_canon(new), _canon(old))

    def test_dedup_one_call_over_all_buckets(self, cands):
        triples = _calls(cands, _assemble_bucket, N_CONV_BUCKETS, True)
        by_bucket = _calls(triples, dedup_bucket, N_DEDUP_BUCKETS, False)
        one_call = dedup_bucket(triples.sort_values("bucket"))
        pd.testing.assert_frame_equal(_canon(one_call),
                                      _canon(by_bucket))


def _replay(path: str) -> pd.DataFrame:
    import duckdb

    import __ray_entry__ as entrymod
    con = duckdb.connect()
    try:
        return con.sql(entrymod._kg_triples_sql(path + "/*.parquet")).df()
    finally:
        con.close()


def _one_conversation(tmp_path) -> str:
    path = synth.write_turns(str(tmp_path / "all"), 3, seed=2)
    t = pa.concat_tables(pq.read_table(f)
                         for f in sorted(glob.glob(path + "/*.parquet")))
    one = str(tmp_path / "one")
    os.makedirs(one)
    first = t.column("conv_id")[0]
    pq.write_table(t.filter(pc.equal(t.column("conv_id"), first)),
                   os.path.join(one, "turns.parquet"))
    return one


class TestEmptySortPartitions:
    """Fewer occupied buckets than sort partitions: most partitions
    hold no rows, and the output still equals the DuckDB replay with
    one schema on every block."""

    @pytest.mark.parametrize("corpus", ["one_conversation",
                                        "few_buckets"])
    def test_fused_build_equals_replay(self, tmp_path, corpus):
        from rdf_extraction_ray.pipelines.kg import (_read_num_blocks,
                                                     kg_pipeline)
        path = (_one_conversation(tmp_path) if corpus == "one_conversation"
                else synth.write_turns(str(tmp_path / "few"), 3, seed=5))
        turns = pa.concat_tables(pq.read_table(f) for f in
                                 glob.glob(path + "/*.parquet"))
        occupied = detect_facts(turns).to_pandas()["bucket"].nunique()
        assert occupied < _read_num_blocks(path)
        out = kg_pipeline(path, out_dir=str(tmp_path / "out"))
        got = out.to_pandas()
        assert len(got) > 20
        pd.testing.assert_frame_equal(_canon(got), _canon(_replay(path)))
        for f in glob.glob(str(tmp_path / "out" / "*.parquet")):
            assert pq.read_schema(f).remove_metadata() == TRIPLE_SCHEMA

    def test_unfused_chain_equals_replay(self, tmp_path):
        from rdf_extraction_ray.pipelines.kg import (read_turns,
                                                     triples_from_turns)
        path = _one_conversation(tmp_path)
        got = triples_from_turns(read_turns(path),
                                 linker_concurrency=1).to_pandas()
        pd.testing.assert_frame_equal(_canon(got), _canon(_replay(path)))


def test_one_slot_build_equals_replay(tmp_path, monkeypatch):
    """A 1-slot cluster reads 2 blocks (the slot floor). The test
    session runs more slots, so the slot count is faked; the fused
    build still equals the DuckDB replay, provenance included."""
    import ray

    from rdf_extraction_ray.pipelines.kg import _read_num_blocks, kg_pipeline
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    path = synth.write_turns(str(tmp_path / "turns"), 40, seed=3)
    assert _read_num_blocks(path) == 2
    got = kg_pipeline(path, out_dir=str(tmp_path / "out")).to_pandas()
    assert len(got) > 1000 and (got["turn_idx"] >= 0).all()
    pd.testing.assert_frame_equal(_canon(got), _canon(_replay(path)))

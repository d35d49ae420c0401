"""The bucket exchange: one body call per sorted block, not per bucket.

``stages.dedup.bucket_exchange`` runs each keyed body once per block
of a sort on its bucket column, so a body sees many buckets at once.
These tests pin that this equals the one-call-per-bucket plan it
replaced: for the KG chain in process over hand-split frames (no
Ray) and through Ray on inputs whose sort leaves partitions empty;
for the SPARQL and join operators through Ray on 3-block inputs with
many buckets per block, against pandas references computed here.
"""

import glob
import os
from collections import Counter

import numpy as np
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
    ``bucket_exchange``'s body: 4 blocks, no bucket spans two).
    ``dedup_bucket`` takes its blocks as Arrow, the others as pandas."""
    key = frame["bucket"] * 4 // n_buckets if per_block else frame["bucket"]
    parts = [body(_block(g.sort_values("bucket", kind="stable"), body))
             for _, g in frame.groupby(key, sort=True)]
    return pd.concat([p.to_pandas() if isinstance(p, pa.Table) else p
                      for p in parts], ignore_index=True)


def _block(frame: pd.DataFrame, body):
    if body is not dedup_bucket:
        return frame
    return pa.Table.from_pandas(frame, preserve_index=False)


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
        one_call = dedup_bucket(_block(triples.sort_values("bucket"),
                                       dedup_bucket)).to_pandas()
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


# --- SPARQL and join exchanges: 3-block inputs, many buckets per block

G_P = "http://ex.org/group"
V_P = "http://ex.org/value"
REL = "http://ex.org/rel"


def _blocks(df: pd.DataFrame, n: int = 3):
    """``df`` as a Dataset of ``n`` blocks (rows dealt round-robin)."""
    import ray.data as rd
    ds = rd.from_pandas([df.iloc[i::n].reset_index(drop=True)
                         for i in range(n)])
    assert ds.num_blocks() == n
    return ds


def _rows(ds_or_df, cols: list[str]) -> Counter:
    """A bag of row tuples, NULL/NaN as None; Arrow blocks are read
    as Arrow, so int64 values above 2^53 stay exact."""
    if isinstance(ds_or_df, pd.DataFrame):
        recs = ds_or_df[cols].to_dict("records")
    else:
        import ray
        t = pa.concat_tables(
            [x for x in ray.get(ds_or_df.to_arrow_refs()) if x.num_rows])
        recs = t.select(cols).to_pylist()
    return Counter(tuple(None if v is None or (isinstance(v, float)
                                               and np.isnan(v)) else v
                         for v in (r[c] for c in cols)) for r in recs)


@pytest.fixture(scope="module")
def agg_triples() -> pd.DataFrame:
    """300 subjects in 25 groups (some in two); 0-3 values each,
    integer and non-integer lexical forms mixed. Two more groups:
    ``gtext``, whose values are never integers (SUM/AVG NULL), and
    ``gnone``, whose subjects have no value (MIN/MAX/GROUP_CONCAT
    NULL, counts 0)."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(300):
        s = f"s{i:03d}"
        for g in sorted({f"g{rng.integers(25):02d}"
                         for _ in range(1 + (i % 7 == 0))}):
            rows.append((s, G_P, g))
        for _ in range(rng.integers(4)):
            v = (str(rng.integers(-5, 40)) if rng.random() < 0.7
                 else f"x{rng.integers(20)}")
            rows.append((s, V_P, v))
    for i in range(6):
        rows.append((f"t{i}", G_P, "gtext"))
        rows.append((f"t{i}", V_P, f"x{i % 4}"))
        rows.append((f"u{i}", G_P, "gnone"))
    return pd.DataFrame(rows, columns=["subj", "pred", "obj"]) \
        .drop_duplicates(ignore_index=True)


def _agg_reference(triples: pd.DataFrame) -> pd.DataFrame:
    """GROUP BY ?g over ``?s group ?g OPTIONAL { ?s value ?v }``."""
    g = triples[triples["pred"] == G_P].rename(
        columns={"subj": "s", "obj": "g"})[["s", "g"]]
    v = triples[triples["pred"] == V_P].rename(
        columns={"subj": "s", "obj": "v"})[["s", "v"]]
    b = g.merge(v, on="s", how="left")
    out = []
    for key, grp in b.groupby("g", sort=True):
        vals = grp["v"].dropna()
        num = vals[vals.str.fullmatch(r"-?\d+")].astype("int64")
        out.append({
            "g": key, "n": len(grp), "nv": len(vals),
            "nd": vals.nunique(),
            "sv": int(num.sum()) if len(num) else None,
            "av": float(num.sum()) / len(num) if len(num) else None,
            "mn": vals.min() if len(vals) else None,
            "mx": vals.max() if len(vals) else None,
            "gc": "|".join(sorted(vals)) if len(vals) else None})
    return pd.DataFrame(out)


class TestSparqlExchangesEqualReference:
    """Every SPARQL-path exchange over 3 input blocks, 64 buckets:
    each sorted block holds many buckets, and the result equals a
    pandas reference."""

    AGGS = [("count", "*", "n"), ("count", "v", "nv"),
            ("count_distinct", "v", "nd"), ("sum", "v", "sv"),
            ("avg", "v", "av"), ("min", "v", "mn"), ("max", "v", "mx")]

    @pytest.mark.parametrize("path", ["combiner", "group_concat"])
    def test_bgp_aggregate(self, agg_triples, path):
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        aggs = list(self.AGGS)
        if path == "group_concat":  # routes every binding row
            aggs.append(("group_concat", "v", "gc"))
        got = bgp_aggregate(_blocks(agg_triples), [("?s", G_P, "?g")],
                            ["g"], aggs, optional=[("?s", V_P, "?v")])
        want = _agg_reference(agg_triples)
        assert len(want) == 27 and want["sv"].isna().sum() == 2
        cols = ["g"] + [a for _, _, a in aggs]
        assert _rows(got, cols) == _rows(want, cols)

    def test_distinct_rows(self):
        from rdf_extraction_ray.stages.graph import distinct_rows
        rng = np.random.default_rng(1)
        df = pd.DataFrame({
            "a": [f"a{x}" for x in rng.integers(40, size=900)],
            "b": [None if x == 0 else f"b{x}"
                  for x in rng.integers(6, size=900)]})
        schema = pa.schema([("a", pa.string()), ("b", pa.string())])
        got = distinct_rows(_blocks(df), schema, n_buckets=64)
        want = df.drop_duplicates()
        assert len(want) < len(df)
        assert _rows(got, ["a", "b"]) == _rows(want, ["a", "b"])

    def test_sparql_update(self, agg_triples):
        from rdf_extraction_ray.stages.graph import sparql_update
        new_p, ver = "http://ex.org/value2", "http://ex.org/version"
        store = pd.concat([agg_triples, pd.DataFrame(
            [("s001", ver, "v2"), ("s002", new_p, "7")],
            columns=["subj", "pred", "obj"])], ignore_index=True)
        got = sparql_update(
            _blocks(store), [("?s", V_P, "?o")],
            delete=[("?s", V_P, "?o")],
            insert=[("?s", new_p, "?o"), ("?s", ver, "v2")],
            n_buckets=64)
        keep = {tuple(r) for r in store.itertuples(index=False)}
        hits = store[store["pred"] == V_P]
        keep -= {tuple(r) for r in hits.itertuples(index=False)}
        keep |= {(s, new_p, o) for s, o in zip(hits["subj"], hits["obj"])}
        keep |= {(s, ver, "v2") for s in hits["subj"]}
        cols = ["subj", "pred", "obj"]
        assert _rows(got, cols) == Counter(keep)

    @staticmethod
    def _edges() -> pd.DataFrame:
        """15 directed 4-cycles plus chords between them, and one
        triple of another predicate."""
        rows = [(f"n{c}_{i}", REL, f"n{c}_{(i + 1) % 4}")
                for c in range(15) for i in range(4)]
        rows += [(f"n{c}_0", REL, f"n{c + 1}_2") for c in range(0, 14, 3)]
        rows.append(("n0_0", G_P, "lit"))
        return pd.DataFrame(rows, columns=["subj", "pred", "obj"])

    @staticmethod
    def _closure(edges: pd.DataFrame) -> set:
        nxt: dict = {}
        e = edges[edges["pred"] == REL]
        for s, o in zip(e["subj"], e["obj"]):
            nxt.setdefault(s, set()).add(o)
        pairs = set()
        for start in nxt:
            seen, todo = set(), set(nxt[start])
            while todo:
                seen |= todo
                todo = {d for n in todo for d in nxt.get(n, ())} - seen
            pairs |= {(start, n) for n in seen}
        return pairs

    def test_plus_closure_distributed(self):
        from rdf_extraction_ray.stages.graph import path_closure
        edges = self._edges()
        got = path_closure(_blocks(edges), REL, n_buckets=64,
                           broadcast_cap=0)
        assert _rows(got, ["start", "node"]) == Counter(
            self._closure(edges))

    def test_star_closure(self):
        from rdf_extraction_ray.stages.sparql import run_sparql
        edges = self._edges()
        got = run_sparql(_blocks(edges),
                         f"SELECT ?x ?y WHERE {{ ?x <{REL}>* ?y }}")
        terms = set(edges["subj"]) | set(edges["obj"])
        want = self._closure(edges) | {(t, t) for t in terms}
        assert _rows(got, ["x", "y"]) == Counter(want)

    @pytest.mark.parametrize("how", ["inner", "left", "anti"])
    def test_hash_join(self, how):
        from rdf_extraction_ray.stages.joins import hash_join
        big = 2 ** 53 + 1
        left = pd.DataFrame({
            "k": [None if i % 17 == 0 else f"k{i % 60}"
                  for i in range(240)],
            "lv": np.arange(240, dtype=np.int64) + big})
        right = pd.DataFrame({
            "k": [None if i % 13 == 0 else f"k{(i * 7) % 90}"
                  for i in range(150)],
            "rv": np.arange(150, dtype=np.int64) * 3 + big})
        got = hash_join(_blocks(left), _blocks(right), on="k", how=how,
                        n_buckets=64)
        rk = right.dropna(subset=["k"])
        if how == "anti":
            want = left[~left["k"].isin(set(rk["k"]))]
            cols = ["k", "lv"]
            assert want["k"].isna().any()  # null keys always survive
        else:
            inner = left.dropna(subset=["k"]).merge(rk, on="k")
            rows = [tuple(r) for r in inner[["k", "lv", "rv"]]
                    .itertuples(index=False)]
            if how == "left":
                un = left[~left["k"].isin(set(rk["k"]))]
                rows += [(k, lv, None) for k, lv in zip(un["k"], un["lv"])]
            want = pd.DataFrame(rows, columns=["k", "lv", "rv"],
                                dtype=object)
            cols = ["k", "lv", "rv"]
        assert len(want) > 20
        assert _rows(got, cols) == _rows(want, cols)

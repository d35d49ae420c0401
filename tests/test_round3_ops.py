"""Round-3 operators: normalized dedup, URL canonicalization + dedup,
batched quality-model scoring, global quantile buckets, funnel."""

import numpy as np
import pytest
import pandas as pd
import ray.data as rd


class TestNormalizedDedup:
    def test_variants_collapse_originals_survive(self):
        from rdf_extraction_ray.stages.dedup_docs import normalized_dedup
        df = pd.DataFrame({
            "doc_id": [5, 1, 2, 3, 4],
            "text": ["Hello,  World!", "hello world", "HELLO---world",
                     "a different doc", "hello world?!"]})
        out = (normalized_dedup(rd.from_pandas(df)).to_pandas()
               .sort_values("doc_id", ignore_index=True))
        # the four variants share one normalized key; min id wins
        assert len(out) == 2
        assert out.loc[0, "doc_id"] == 1 and out.loc[0, "n_dups"] == 4
        assert out.loc[1, "doc_id"] == 3 and out.loc[1, "n_dups"] == 1

    def test_normalize_text_kernel(self):
        from rdf_extraction_ray.stages.dedup_docs import normalize_text
        s = pd.Series(["  A--b\tC3! ", None, "x"])
        assert normalize_text(s).tolist() == ["a b c3", "", "x"]


class TestCanonicalUrl:
    def test_variants_canonicalize_identically(self):
        from rdf_extraction_ray.stages.urlnorm import canonical_url
        want = "https://www.ex.example.com/p/7"
        for raw in [
            "https://www.ex.example.com/p/7",
            "HTTPS://WWW.EX.EXAMPLE.COM:443/p/7#frag",
            "https://www.ex.example.com/p/7?utm_source=a&fbclid=b",
            "https://www.ex.example.com/p/7/",
        ]:
            assert canonical_url(raw) == want, raw

    def test_content_params_and_ports_survive(self):
        from rdf_extraction_ray.stages.urlnorm import canonical_url
        assert (canonical_url("http://h.co:8080/a?id=3&utm_term=x&q=z")
                == "http://h.co:8080/a?id=3&q=z")
        # default port for http is 80, not 443
        assert canonical_url("http://h.co:443/a") == "http://h.co:443/a"
        assert canonical_url("http://h.co:80/a") == "http://h.co/a"
        # root path: the slash stays
        assert canonical_url("https://h.co/") == "https://h.co/"

    def test_url_dedup_keeps_min_id(self):
        from rdf_extraction_ray.stages.urlnorm import url_dedup
        df = pd.DataFrame({
            "doc_id": [10, 2, 30],
            "url": ["https://a.co/x?utm_source=1", "https://A.CO/x",
                    "https://a.co/y"]})
        out = (url_dedup(rd.from_pandas(df)).to_pandas()
               .sort_values("doc_id", ignore_index=True))
        assert out["doc_id"].tolist() == [2, 30]
        assert out.loc[0, "n_dups"] == 2


class TestQualityModel:
    def test_scores_match_manual_matmul(self):
        from rdf_extraction_ray.stages.model import (QUALITY_BIAS,
                                                     QUALITY_WEIGHTS,
                                                     QualityModel)
        df = pd.DataFrame({"doc_id": [0, 1],
                           "text": ["Three simple words here.",
                                    "!!!???...,,,;;;:::"]})
        m = QualityModel()
        out = m(df)
        x = m.features(df["text"])
        assert (out["score"].to_numpy()
                == x @ QUALITY_WEIGHTS + QUALITY_BIAS).all()
        assert out["keep"].tolist() == [(s >= 0) for s in out["score"]]

    def test_actor_pool_stage_runs(self):
        from rdf_extraction_ray.stages.model import QualityModel
        df = pd.DataFrame({"doc_id": np.arange(100),
                           "text": ["some words here"] * 100})
        out = (rd.from_pandas(df)
               .map_batches(QualityModel, batch_format="pandas",
                            batch_size=32, concurrency=2)
               .to_pandas())
        assert len(out) == 100 and out["score"].nunique() == 1


class TestQuantileBuckets:
    def test_tertiles_match_sorted_order_stats(self):
        from rdf_extraction_ray.stages.textstats import \
            quantile_bucket_stats
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 50, size=301)
        ds = rd.from_pandas(pd.DataFrame({"s": scores})).repartition(7)
        out = (quantile_bucket_stats(ds, "s", n_bins=3)
               .sort_values("bucket", ignore_index=True))
        v = np.sort(scores)
        n = len(v)
        t1, t2 = v[int(np.ceil(n / 3)) - 1], v[int(np.ceil(2 * n / 3)) - 1]
        want = np.where(scores <= t1, 0, np.where(scores <= t2, 1, 2))
        got = dict(zip(out["bucket"], out["n_docs"]))
        for b in range(3):
            assert got.get(b, 0) == int((want == b).sum())
        assert int(out["n_docs"].sum()) == n

    def test_assign_matches_stats(self):
        from rdf_extraction_ray.stages.textstats import (
            assign_quantile_bucket, quantile_bucket_stats,
            quantile_thresholds_from_histogram)
        scores = np.array([1, 1, 2, 3, 3, 3, 9, 9, 10])
        df = pd.DataFrame({"s": scores})
        vals, counts = np.unique(scores, return_counts=True)
        thr = quantile_thresholds_from_histogram(
            vals, counts.cumsum(), len(scores), 3)
        tagged = assign_quantile_bucket(df, "s", thr)
        stats = quantile_bucket_stats(rd.from_pandas(df), "s", n_bins=3)
        got = dict(zip(stats["bucket"], stats["n_docs"]))
        vc = tagged["bucket"].value_counts()
        assert {int(k): int(v) for k, v in vc.items()} == \
            {int(k): int(v) for k, v in got.items()}

    def test_empty_input_typed_empty(self):
        from rdf_extraction_ray.stages.textstats import \
            quantile_bucket_stats
        ds = rd.from_pandas(pd.DataFrame({"s": pd.Series([],
                                                         dtype="int64")}))
        out = quantile_bucket_stats(ds, "s")
        assert len(out) == 0
        assert list(out.columns) == ["bucket", "n_docs", "min_score",
                                     "max_score"]


class TestLineDedup:
    def test_global_first_occurrence_and_reassembly(self):
        from rdf_extraction_ray.stages.curate import line_dedup
        df = pd.DataFrame({
            "doc_id": [0, 1, 2],
            "text": ["shared footer\nalpha zero",
                     "beta one\nshared footer",
                     "shared footer\ngamma two\nshared footer"]})
        out = (line_dedup(rd.from_pandas(df).repartition(3))
               .to_pandas().sort_values("doc_id", ignore_index=True))
        # the footer survives ONLY at its first corpus occurrence
        # (doc 0, line 0); unique lines always survive
        assert out["n_lines"].tolist() == [2, 2, 3]
        assert out["n_kept"].tolist() == [2, 1, 1]
        assert out.loc[0, "text_kept"] == "shared footer\nalpha zero"
        assert out.loc[1, "text_kept"] == "beta one"
        assert out.loc[2, "text_kept"] == "gamma two"

    def test_duplicate_docs_lose_every_line(self):
        from rdf_extraction_ray.stages.curate import line_dedup
        df = pd.DataFrame({"doc_id": [7, 3],
                           "text": ["same line", "same line"]})
        out = (line_dedup(rd.from_pandas(df)).to_pandas()
               .sort_values("doc_id", ignore_index=True))
        assert out.loc[0, "doc_id"] == 3 and out.loc[0, "n_kept"] == 1
        assert out.loc[1, "doc_id"] == 7 and out.loc[1, "n_kept"] == 0
        assert out.loc[1, "text_kept"] == ""


class TestBalancedSample:
    def test_downsamples_to_smallest_source(self):
        from rdf_extraction_ray.stages.curate import balanced_sample
        df = pd.DataFrame({
            "doc_id": np.arange(60),
            "source": ["big"] * 50 + ["mid"] * 7 + ["tiny"] * 3})
        out = (balanced_sample(rd.from_pandas(df).repartition(4))
               .to_pandas())
        vc = out["source"].value_counts()
        assert vc["big"] == 3 and vc["mid"] == 3 and vc["tiny"] == 3
        # deterministic: the same picks on a shuffled input
        out2 = balanced_sample(
            rd.from_pandas(df.sample(frac=1.0, random_state=1))).to_pandas()
        a = out.sort_values("doc_id", ignore_index=True)
        b = out2.sort_values("doc_id", ignore_index=True)
        assert a[["doc_id", "source"]].equals(b[["doc_id", "source"]])


class TestBucketedLayout:
    def test_join_equals_pandas_merge(self, tmp_path):
        from rdf_extraction_ray.pipelines.bucketed import (bucketed_join,
                                                           write_bucketed)
        a = pd.DataFrame({"k": np.arange(200) % 37,
                          "va": np.arange(200)})
        b = pd.DataFrame({"k": np.arange(0, 74, 2),
                          "vb": np.arange(37)})
        pa_ = write_bucketed(rd.from_pandas(a).repartition(5),
                             str(tmp_path / "a"), key="k", n_buckets=8)
        pb_ = write_bucketed(rd.from_pandas(b),
                             str(tmp_path / "b"), key="k", n_buckets=8)
        got = (bucketed_join(pa_, pb_, key="k", n_buckets=8)
               .to_pandas().sort_values(["k", "va"], ignore_index=True))
        want = (a.merge(b, on="k")
                .sort_values(["k", "va"], ignore_index=True))
        assert got[["k", "va", "vb"]].equals(want)

    def test_write_is_idempotent_cache(self, tmp_path):
        import os

        from rdf_extraction_ray.pipelines.bucketed import write_bucketed
        df = pd.DataFrame({"k": [1, 2], "v": [3, 4]})
        p = str(tmp_path / "layout")
        write_bucketed(rd.from_pandas(df), p, key="k", n_buckets=4)
        before = sorted(os.listdir(p))
        mt = os.path.getmtime(p)
        # second call is a no-op (directory existence = done marker)
        write_bucketed(rd.from_pandas(df), p, key="k", n_buckets=4)
        assert sorted(os.listdir(p)) == before
        assert os.path.getmtime(p) == mt


class TestPageRank:
    @staticmethod
    def _reference(edges, n_iter=5, scale=10**9):
        es = sorted(set(edges))
        nodes = sorted({u for u, _ in es} | {v for _, v in es})
        deg = {}
        for u, _ in es:
            deg[u] = deg.get(u, 0) + 1
        n = len(nodes)
        r0 = scale // n
        base = (15 * r0) // 100
        r = {v: r0 for v in nodes}
        for _ in range(n_iter):
            s = {v: 0 for v in nodes}
            for u, v in es:
                s[v] += r[u] // deg[u]
            r = {v: base + (85 * s[v]) // 100 for v in nodes}
        return r

    def test_matches_reference_recurrence(self):
        from rdf_extraction_ray.stages.graph import pagerank_int
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
                 ("d", "c"), ("d", "c"),  # parallel edge collapses
                 ("e", "e")]              # self-loop kept
        df = pd.DataFrame(edges, columns=["s", "d"])
        got = (pagerank_int(rd.from_pandas(df).repartition(3), n_iter=5)
               .to_pandas().sort_values("node", ignore_index=True))
        want = self._reference(edges)
        assert dict(zip(got["node"], got["rank"])) == want
        # the isolated self-loop 'e' ranks below the connected cycle
        assert want["e"] < want["c"]

    def test_deterministic_across_partitionings(self):
        from rdf_extraction_ray.stages.graph import pagerank_int
        rng = np.random.default_rng(7)
        df = pd.DataFrame({"s": [f"n{i}" for i in
                                 rng.integers(0, 40, 300)],
                           "d": [f"n{i}" for i in
                                 rng.integers(0, 40, 300)]})
        a = (pagerank_int(rd.from_pandas(df), n_iter=3).to_pandas()
             .sort_values("node", ignore_index=True))
        b = (pagerank_int(rd.from_pandas(df).repartition(11), n_iter=3)
             .to_pandas().sort_values("node", ignore_index=True))
        assert a.equals(b)

    def test_broadcast_and_exchange_paths_agree(self):
        # the same integer recurrence has two executions (rank-vector
        # broadcast vs shuffle-per-round); they must be bit-identical
        from rdf_extraction_ray.stages.graph import pagerank_int
        rng = np.random.default_rng(11)
        df = pd.DataFrame({"s": [f"n{i}" for i in
                                 rng.integers(0, 60, 400)],
                           "d": [f"n{i}" for i in
                                 rng.integers(0, 60, 400)]})
        a = (pagerank_int(rd.from_pandas(df).repartition(5), n_iter=4)
             .to_pandas().sort_values("node", ignore_index=True))
        b = (pagerank_int(rd.from_pandas(df).repartition(5), n_iter=4,
                          broadcast_max_nodes=0)
             .to_pandas().sort_values("node", ignore_index=True))
        assert a.equals(b)

    def test_personalized_seeds_both_paths(self):
        import pytest

        from rdf_extraction_ray.stages.graph import pagerank_int
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
                 ("d", "c"), ("z", "d")]
        df = pd.DataFrame(edges, columns=["s", "d"])
        seeds = ["a", "ghost"]  # absent seeds carry no mass

        def _run(**kw):
            out = pagerank_int(rd.from_pandas(df).repartition(3),
                               n_iter=4, seeds=seeds, **kw)
            return (out.to_pandas()
                    .sort_values("node", ignore_index=True))

        bc = _run()
        ex = _run(broadcast_max_nodes=0)
        assert bc.equals(ex)
        r = dict(zip(bc["node"], bc["rank"]))
        # reference recurrence with teleport mass only at 'a'
        # (1 present seed): r0_a = 10^9, others 0
        nodes = sorted({v for e in edges for v in e})
        deg = {"a": 2, "b": 1, "c": 1, "d": 1, "z": 1}
        rr = {v: (10**9 if v == "a" else 0) for v in nodes}
        base = (15 * 10**9) // 100
        for _ in range(4):
            s = {v: 0 for v in nodes}
            for u, v in edges:
                s[v] += rr[u] // deg[u]
            rr = {v: (base if v == "a" else 0)
                  + (85 * s[v]) // 100 for v in nodes}
        assert r == rr
        # z never receives mass from the seed's neighborhood
        assert r["z"] == 0 and r["a"] > 0 and r["c"] > 0
        with pytest.raises(ValueError):
            pagerank_int(rd.from_pandas(df), n_iter=1,
                         seeds=["ghost"])


class TestKMVSketch:
    def test_unsaturated_sketch_is_exact(self):
        # fewer distinct tokens than k → the sketch saw everything
        from rdf_extraction_ray.stages.sketch import kmv_distinct_tokens
        docs = pd.DataFrame({"text": ["alpha beta gamma", "beta Gamma!",
                                      "delta alpha"]})
        out = kmv_distinct_tokens(rd.from_pandas(docs).repartition(2),
                                  k=1024)
        assert out["est_distinct"].iloc[0] == 4
        assert out["kth_min_hash"].iloc[0] == 0
        assert out["n_sketch"].iloc[0] == 4

    def test_estimate_within_error_and_partition_invariant(self):
        from rdf_extraction_ray.stages.sketch import kmv_distinct_tokens
        rng = np.random.default_rng(3)
        vocab = [f"w{i:05d}" for i in range(8000)]
        docs = pd.DataFrame({"text": [
            " ".join(rng.choice(vocab, 30)) for _ in range(600)]})
        exact = len({w for t in docs["text"] for w in t.split()})
        a = kmv_distinct_tokens(rd.from_pandas(docs), k=1024)
        b = kmv_distinct_tokens(rd.from_pandas(docs).repartition(7),
                                k=1024)
        assert a.equals(b)  # merge order can't change the sketch
        est = int(a["est_distinct"].iloc[0])
        # standard error ~3.1% at k=1024; 5 sigma bound
        assert abs(est - exact) / exact < 0.16, (est, exact)
        assert a["n_sketch"].iloc[0] == 1024

    def test_empty_corpus(self):
        from rdf_extraction_ray.stages.sketch import kmv_distinct_tokens
        docs = pd.DataFrame({"text": pd.Series([], dtype=object)})
        out = kmv_distinct_tokens(rd.from_pandas(docs), k=64)
        assert list(out.iloc[0]) == [0, 0, 0]

    def test_column_sketch_saturates(self):
        from rdf_extraction_ray.stages.sketch import kmv_distinct
        df = pd.DataFrame({"k": np.arange(50_000, dtype="int64")})
        out = kmv_distinct(rd.from_pandas(df).repartition(4), "k", k=256)
        assert out["n_sketch"].iloc[0] == 256
        est = int(out["est_distinct"].iloc[0])
        assert abs(est - 50_000) / 50_000 < 0.35  # 5 sigma at k=256


class TestWeightedSample:
    def test_probability_proportional_to_weight(self):
        from rdf_extraction_ray.stages.textstats import weighted_sample
        n = 20_000
        df = pd.DataFrame({"doc_id": np.arange(n, dtype="int64"),
                           "w": np.where(np.arange(n) % 2 == 0,
                                         np.int64(200), np.int64(1000))})
        kept = weighted_sample(df, "w", scale=2000)
        lo = (kept["w"] == 200).sum() / (n / 2)    # expect ~0.10
        hi = (kept["w"] == 1000).sum() / (n / 2)   # expect ~0.50
        assert abs(lo - 0.10) < 0.02, lo
        assert abs(hi - 0.50) < 0.03, hi

    def test_clip_gives_probability_one_and_no_overflow(self):
        from rdf_extraction_ray.stages.textstats import weighted_sample
        df = pd.DataFrame({"doc_id": np.arange(500, dtype="int64"),
                           "w": np.full(500, 10**12, dtype="int64")})
        kept = weighted_sample(df, "w", scale=2000)
        assert len(kept) == 500  # w >= scale → certain keep

    def test_deterministic_and_batch_invariant(self):
        from rdf_extraction_ray.stages.textstats import weighted_sample
        df = pd.DataFrame({"doc_id": np.arange(3000, dtype="int64"),
                           "w": (np.arange(3000) % 700).astype("int64")})
        whole = weighted_sample(df, "w")
        halves = pd.concat([weighted_sample(df.iloc[:1500], "w"),
                            weighted_sample(df.iloc[1500:], "w")])
        assert whole.equals(halves)


class TestBM25:
    def _docs(self):
        return pd.DataFrame({
            "doc_id": np.arange(6, dtype="int64"),
            "text": ["hash join filter hash hash",
                     "join filter",
                     "nothing relevant here",
                     "hash " * 30,            # high tf, long doc
                     "filter join hash",      # all terms, short doc
                     ""]})

    def _reference(self, docs, terms, k1=1.2, b=0.75):
        import math, re
        tok = {i: re.findall(r"[a-z0-9]+", t.lower())
               for i, t in zip(docs["doc_id"], docs["text"])}
        n = len(docs)
        avgdl = sum(map(len, tok.values())) / n
        df = {t: sum(1 for ws in tok.values() if t in ws)
              for t in terms}
        out = {}
        for i, ws in tok.items():
            s = 0.0
            for t in terms:
                tf = ws.count(t)
                if tf:
                    idf = math.log((n - df[t] + 0.5) / (df[t] + 0.5)
                                   + 1.0)
                    s += idf * (tf * (k1 + 1)) / (
                        tf + k1 * (1 - b + b * len(ws) / avgdl))
            if s > 0:
                out[i] = round(s, 4)
        return out

    def test_matches_reference_formula(self):
        from rdf_extraction_ray.stages.search import bm25_topk
        docs = self._docs()
        got = bm25_topk(rd.from_pandas(docs).repartition(3),
                        "hash join filter", k=10)
        want = self._reference(docs, ["filter", "hash", "join"])
        assert dict(zip(got["doc_id"], got["score"])) == want
        # ordering: rounded score desc, doc_id asc
        exp = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
        assert list(got["doc_id"]) == [i for i, _ in exp]

    def test_empty_query_and_empty_corpus(self):
        from rdf_extraction_ray.stages.search import bm25_topk
        docs = self._docs()
        assert len(bm25_topk(rd.from_pandas(docs), "!!!")) == 0
        empty = pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                              "text": pd.Series(dtype=object)})
        out = bm25_topk(rd.from_pandas(empty), "hash")
        assert len(out) == 0 and list(out.columns) == ["doc_id",
                                                       "score"]


class TestProbeStatsCache:
    def test_cache_roundtrip_and_invalidation(self, tmp_path):
        import os
        import time as _time

        from rdf_extraction_ray import synth
        from rdf_extraction_ray.pipelines.kg import (
            _probe_cache_load, read_turns, triples_from_turns)
        path = synth.write_turns(str(tmp_path / "turns"), 40, seed=7)
        key = path
        assert _probe_cache_load(key) is None  # fresh input: no entry
        a = (triples_from_turns(read_turns(path), stats_key=key)
             .to_pandas().sort_values(["subj", "pred", "obj"],
                                      ignore_index=True))
        rec = _probe_cache_load(key)
        assert rec is not None and rec["needs_salt"] is False
        # cached re-run (no probe barrier) must be row-identical
        b = (triples_from_turns(read_turns(path), stats_key=key)
             .to_pandas().sort_values(["subj", "pred", "obj"],
                                      ignore_index=True))
        assert a.equals(b)
        # touching any input file invalidates the fingerprint
        f = next(os.path.join(path, p) for p in os.listdir(path))
        _time.sleep(0.01)
        os.utime(f)
        assert _probe_cache_load(key) is None

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        """RDF_RAY_PROBE_CACHE_DIR repoints the (driver-local) probe
        cache without reimport — store lands under the override and
        load reads it back from there."""
        import os

        from rdf_extraction_ray.pipelines.kg import (
            _probe_cache_dir, _probe_cache_load, _probe_cache_store)
        from rdf_extraction_ray import synth
        override = str(tmp_path / "probe_cache")
        monkeypatch.setenv("RDF_RAY_PROBE_CACHE_DIR", override)
        assert _probe_cache_dir() == override
        path = synth.write_turns(str(tmp_path / "turns"), 5, seed=9)
        _probe_cache_store(path, needs_salt=True, max_rows=7,
                           threshold=3)
        assert os.path.isdir(override) and os.listdir(override)
        rec = _probe_cache_load(path)
        assert rec == {"fingerprint": rec["fingerprint"],
                       "needs_salt": True,
                       "max_conv_fact_rows": 7, "threshold": 3}
        monkeypatch.delenv("RDF_RAY_PROBE_CACHE_DIR")
        assert _probe_cache_dir()             == "/tmp/rdf_extraction_ray/probe_cache"


class TestReadBlockFloor:
    def test_narrow_widths_get_two_blocks_per_slot(self, tmp_path,
                                                   monkeypatch):
        # bytes-based term is ~0 for a tiny file, so the floor decides:
        # two waves per slot at <=16 cores (map-stage load balance),
        # one wave above (extra shuffle waves cost more than they
        # balance — measured on the 3x sf0.1 corpus, see BASELINE.md)
        import pyarrow as pa
        import pyarrow.parquet as pq

        from rdf_extraction_ray.pipelines import kg
        p = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({"a": [1, 2, 3]}), p)
        monkeypatch.setattr(kg, "_cluster_cpus", lambda default=32: 8)
        assert kg._read_num_blocks(p) == 16
        monkeypatch.setattr(kg, "_cluster_cpus", lambda default=32: 32)
        assert kg._read_num_blocks(p) == 32

    @staticmethod
    def _fake_cpus(monkeypatch, cpus):
        import ray
        monkeypatch.setattr(ray, "cluster_resources",
                            lambda: {"CPU": float(cpus)})

    def test_one_slot_reads_two_blocks(self, tmp_path, monkeypatch):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from rdf_extraction_ray.pipelines import kg
        p = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({"a": [1, 2, 3]}), p)
        self._fake_cpus(monkeypatch, 1)
        assert kg._read_num_blocks(p) == 2
        # a 0-CPU head node still reads at least one block
        self._fake_cpus(monkeypatch, 0)
        assert kg._read_num_blocks(p) >= 1

    def test_one_slot_splits_past_the_bytes_term(self, tmp_path,
                                                  monkeypatch):
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq
        from ray.data import DataContext

        from rdf_extraction_ray.pipelines import kg
        p = str(tmp_path / "t.parquet")
        pq.write_table(pa.table({"a": [str(i) * 40 for i in range(400)]}),
                       p, compression="none")
        monkeypatch.setattr(DataContext.get_current(),
                            "target_max_block_size", 1024)
        self._fake_cpus(monkeypatch, 1)
        n = kg._read_num_blocks(p)
        assert n == -(-os.path.getsize(p) * 4 // 2048) and n > 2


class TestStarBGP:
    def test_cross_product_bindings_and_missing_pattern(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.graph import bgp_match
        rows = [
            # s1 binds: 2 occupations x 1 place -> 2 bindings
            ("s1", "occ", "farmer"), ("s1", "occ", "weaver"),
            ("s1", "place", "york"),
            # s2 lacks the place pattern -> no bindings
            ("s2", "occ", "smith"),
            # s3 binds 1x1; unrelated predicates never leak in
            ("s3", "occ", "clerk"), ("s3", "place", "leeds"),
            ("s3", "other", "x"),
        ]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))
        out = bgp_match(
            tr, [("?subj", "occ", "?job"),
                 ("?subj", "place", "?loc")]).to_pandas()
        out = out.sort_values(["subj", "job"], ignore_index=True)
        exp = pd.DataFrame({
            "subj": ["s1", "s1", "s3"],
            "job": ["farmer", "weaver", "clerk"],
            "loc": ["york", "york", "leeds"]})
        pd.testing.assert_frame_equal(out, exp)
        # a pattern matching nothing -> typed empty, not a crash
        # (Ray's to_pandas drops names on an all-empty dataset, so
        # the binding schema is pinned at the Dataset level)
        none = bgp_match(tr, [("?subj", "occ", "?job"),
                              ("?subj", "absent", "?nope")])
        assert none.schema().names == ["subj", "job", "nope"]
        assert none.count() == 0


class TestGeneralBGP:
    def _triples(self):
        import pandas as pd
        import ray.data as rd
        rows = [
            ("ev1", "died", "alice"), ("ev2", "died", "alice"),
            ("alice", "dplace", "york"),
            ("ev3", "died", "bob"),            # bob: no dplace
            ("carol", "dplace", "leeds"),       # carol: no death event
            ("alice", "loops", "alice"),
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    def test_chain_join_and_distinct(self):
        import pandas as pd

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        pats = [("?ev", "died", "?p"), ("?p", "dplace", "?dp")]
        full = bgp_match(tr, pats).to_pandas() \
            .sort_values(["ev"], ignore_index=True)
        exp = pd.DataFrame({"ev": ["ev1", "ev2"],
                            "p": ["alice", "alice"],
                            "dp": ["york", "york"]})
        pd.testing.assert_frame_equal(full, exp)
        # DISTINCT projection collapses the two events to one binding
        dd = bgp_match(tr, pats, select=["p", "dp"],
                       distinct=True).to_pandas()
        pd.testing.assert_frame_equal(
            dd, pd.DataFrame({"p": ["alice"], "dp": ["york"]}))

    def test_optional_left_join(self):
        import pandas as pd

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        out = bgp_match(tr, [("?ev", "died", "?p")],
                        optional=[("?p", "dplace", "?dp")]).to_pandas()
        out = out.sort_values("ev", ignore_index=True)
        exp = pd.DataFrame({"ev": ["ev1", "ev2", "ev3"],
                            "p": ["alice", "alice", "bob"],
                            "dp": ["york", "york", None]})
        pd.testing.assert_frame_equal(out, exp)
        # optional chaining on an optional-introduced var + DISTINCT
        dd = bgp_match(tr, [("?ev", "died", "?p")],
                       optional=[("?p", "dplace", "?dp")],
                       select=["p", "dp"], distinct=True).to_pandas()
        dd = dd.sort_values("p", ignore_index=True)
        pd.testing.assert_frame_equal(
            dd, pd.DataFrame({"p": ["alice", "bob"],
                              "dp": ["york", None]}))

    def test_construct_templates_skip_unbound(self):
        import pandas as pd

        from rdf_extraction_ray.stages.graph import bgp_construct
        tr = self._triples()
        out = bgp_construct(
            tr, [("?ev", "died", "?p")],
            optional=[("?p", "dplace", "?dp")],
            template=[("?p", "diedAt", "?dp"),
                      ("?p", "a", "Deceased")]).to_pandas()
        out = out.sort_values(["pred", "subj"], ignore_index=True)
        exp = pd.DataFrame({
            # alice's unbound-free triple + both type triples; bob's
            # diedAt is SKIPPED (unbound ?dp), never NULL-emitted;
            # alice's two death events collapse under set semantics
            "subj": ["alice", "bob", "alice"],
            "pred": ["a", "a", "diedAt"],
            "obj": ["Deceased", "Deceased", "york"]})
        pd.testing.assert_frame_equal(out, exp)

    def test_constants_gate_and_same_var(self):
        import pandas as pd
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        # constants-only pattern gates: present -> pass through
        ok = bgp_match(tr, [("?ev", "died", "?p"),
                            ("alice", "dplace", "york")]).to_pandas()
        assert len(ok) == 3
        # absent -> typed empty result
        none = bgp_match(tr, [("?ev", "died", "?p"),
                              ("alice", "dplace", "paris")])
        assert none.schema().names == ["ev", "p"]
        assert none.count() == 0
        # constant OBJECT narrows the relation
        con = bgp_match(tr, [("?ev", "died", "bob")]).to_pandas()
        pd.testing.assert_frame_equal(
            con, pd.DataFrame({"ev": ["ev3"]}))
        # ?x p ?x binds only self-referential rows
        loop = bgp_match(tr, [("?x", "loops", "?x")]).to_pandas()
        pd.testing.assert_frame_equal(
            loop, pd.DataFrame({"x": ["alice"]}))
        # disconnected patterns are a planning error, not a product
        with pytest.raises(ValueError, match="connected"):
            bgp_match(tr, [("?a", "died", "?b"),
                           ("?c", "dplace", "?d")])


class TestTriangles:
    def test_known_graph(self):
        from rdf_extraction_ray.stages.graph import triangle_count
        # K4 has 4 triangles; plus a pendant edge and a parallel+self
        # loop that must not change the count
        edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                 ("b", "d"), ("c", "d"),          # K4
                 ("d", "e"),                       # pendant
                 ("b", "a"), ("c", "c")]           # dup + self-loop
        df = pd.DataFrame(edges, columns=["s", "d"])
        out = triangle_count(rd.from_pandas(df).repartition(3))
        assert int(out["n_triangles"].iloc[0]) == 4
        assert int(out["n_edges"].iloc[0]) == 7

    def test_paths_agree(self):
        from rdf_extraction_ray.stages.graph import triangle_count
        rng = np.random.default_rng(5)
        df = pd.DataFrame({"s": [f"n{i}" for i in
                                 rng.integers(0, 30, 250)],
                           "d": [f"n{i}" for i in
                                 rng.integers(0, 30, 250)]})
        a = triangle_count(rd.from_pandas(df).repartition(4))
        b = triangle_count(rd.from_pandas(df).repartition(4),
                           broadcast_max_nodes=0)
        assert a.equals(b)

    def test_empty(self):
        from rdf_extraction_ray.stages.graph import triangle_count
        df = pd.DataFrame({"s": pd.Series(dtype=object),
                           "d": pd.Series(dtype=object)})
        out = triangle_count(rd.from_pandas(df))
        assert list(out.iloc[0]) == [0, 0, 0]


class TestKGComponents:
    def test_matches_brute_force_on_kg_slice(self):
        import __ray_entry__ as E
        out = E.queries()["kg_components"]("/root/testdata/sf0.001")
        # every component label is the min hash of its member set →
        # labels are a subset of member hashes and stable under
        # reordering; sanity: multiple components, all nodes labeled
        assert len(out) > 100
        assert out["component"].nunique() > 1
        assert out["node"].is_unique
        # brute-force union-find over the same hashed edge set
        from rdf_extraction_ray.stages.graph import _h15
        import pandas as pd
        tr = E._triples_view("/root/testdata/sf0.001").to_pandas()
        g = tr[tr["obj_kind"] == "uri"]
        a, b = _h15(g["subj"]), _h15(g["obj"])
        parent = {}
        def find(x):
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        for x, y in zip(a, b):
            rx, ry = find(int(x)), find(int(y))
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        want = {}
        for n in parent:
            want[n] = find(n)
        got_h = dict(zip(_h15(out["node"]), out["component"]))
        mismatch = sum(1 for n, c in want.items()
                       if got_h.get(n) != c)
        assert mismatch == 0, mismatch


class TestDegreeHistogram:
    def test_known_graph(self):
        from rdf_extraction_ray.stages.graph import degree_histogram
        # star a-{b,c,d} plus edge b-c, parallel + self-loop noise
        df = pd.DataFrame({
            "s": ["a", "a", "a", "b", "a", "c"],
            "d": ["b", "c", "d", "c", "b", "c"]})
        out = degree_histogram(rd.from_pandas(df))
        # degrees: a=3, b=2, c=2 (self-loop dropped), d=1
        assert out["degree"].tolist() == [1, 2, 3]
        assert out["n_nodes"].tolist() == [1, 2, 1]

    def test_empty(self):
        from rdf_extraction_ray.stages.graph import degree_histogram
        df = pd.DataFrame({"s": pd.Series(dtype=object),
                           "d": pd.Series(dtype=object)})
        out = degree_histogram(rd.from_pandas(df))
        assert len(out) == 0
        assert list(out.columns) == ["degree", "n_nodes"]


class TestKCore:
    @staticmethod
    def _graph():
        # triangle {a,b,c} (the 2-core) with a pendant chain c-d-e
        return pd.DataFrame({
            "s": ["a", "b", "c", "c", "d"],
            "d": ["b", "c", "a", "d", "e"]})

    def test_broadcast_path_peels_chain(self):
        from rdf_extraction_ray.stages.graph import kcore_nodes
        out = kcore_nodes(rd.from_pandas(self._graph()), k=2) \
            .to_pandas()
        assert sorted(out["node"]) == ["a", "b", "c"]

    def test_exchange_path_equals_broadcast(self):
        from rdf_extraction_ray.stages.graph import kcore_nodes
        b = kcore_nodes(rd.from_pandas(self._graph()), k=2).to_pandas()
        e = kcore_nodes(rd.from_pandas(self._graph()), k=2,
                        broadcast_max_nodes=0).to_pandas()
        assert sorted(b["node"]) == sorted(e["node"])

    def test_whole_graph_survives_when_core(self):
        from rdf_extraction_ray.stages.graph import kcore_nodes
        # 4-cycle: every node has degree 2 → all in the 2-core
        df = pd.DataFrame({"s": ["a", "b", "c", "d"],
                           "d": ["b", "c", "d", "a"]})
        out = kcore_nodes(rd.from_pandas(df), k=2).to_pandas()
        assert sorted(out["node"]) == ["a", "b", "c", "d"]
        # k=3 empties it
        out3 = kcore_nodes(rd.from_pandas(df), k=3).to_pandas()
        assert len(out3) == 0

    def test_empty(self):
        from rdf_extraction_ray.stages.graph import kcore_nodes
        df = pd.DataFrame({"s": pd.Series(dtype=object),
                           "d": pd.Series(dtype=object)})
        out = kcore_nodes(rd.from_pandas(df), k=2).to_pandas()
        assert len(out) == 0


class TestLabelPropagation:
    """label_propagation: deterministic most-frequent-neighbor-label
    rounds (self vote included, tie → smallest label) over distinct
    (lo, hi) int64 undirected edges."""

    @staticmethod
    def _reference(lo, hi, n_rounds):
        nodes = sorted(set(lo) | set(hi))
        lab = {v: v for v in nodes}
        nbrs = {v: [] for v in nodes}
        for a, b in zip(lo, hi):
            nbrs[a].append(b)
            nbrs[b].append(a)
        for _ in range(n_rounds):
            new = {}
            for v in nodes:
                votes = {}
                for u in nbrs[v]:
                    votes[lab[u]] = votes.get(lab[u], 0) + 1
                votes[lab[v]] = votes.get(lab[v], 0) + 1
                best = min(votes.items(),
                           key=lambda kv: (-kv[1], kv[0]))
                new[v] = best[0]
            lab = new
        return lab

    @staticmethod
    def _rand_graph(seed=7, n=60, m=110):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, n, m).astype("int64") * 101
        b = rng.integers(0, n, m).astype("int64") * 101
        keep = a != b
        lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        e = pd.DataFrame({"lo": lo, "hi": hi}).drop_duplicates()
        return e.reset_index(drop=True)

    def test_matches_reference(self):
        from rdf_extraction_ray.stages.graph import label_propagation
        e = self._rand_graph()
        out = label_propagation(rd.from_pandas(e).repartition(3),
                                n_rounds=3).to_pandas()
        want = self._reference(e["lo"].tolist(), e["hi"].tolist(), 3)
        got = dict(zip(out["doc_id"], out["component"]))
        assert got == want

    def test_exchange_path_equals_broadcast(self):
        from rdf_extraction_ray.stages.graph import label_propagation
        e = self._rand_graph(seed=11)
        b = label_propagation(rd.from_pandas(e), n_rounds=3) \
            .to_pandas().sort_values("doc_id", ignore_index=True)
        x = label_propagation(rd.from_pandas(e), n_rounds=3,
                              force_exchange=True) \
            .to_pandas().sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(
            b.astype("int64"), x.astype("int64"))

    def test_two_cliques_converge_to_two_labels(self):
        from rdf_extraction_ray.stages.graph import label_propagation
        # two 4-cliques joined by nothing: each converges to its min
        rows = []
        for base in (100, 200):
            ns = [base + i for i in range(4)]
            rows += [(min(a, b), max(a, b))
                     for i, a in enumerate(ns) for b in ns[i + 1:]]
        e = pd.DataFrame(rows, columns=["lo", "hi"])
        out = label_propagation(rd.from_pandas(e), n_rounds=3) \
            .to_pandas()
        lab = dict(zip(out["doc_id"], out["component"]))
        assert {lab[100 + i] for i in range(4)} == {100}
        assert {lab[200 + i] for i in range(4)} == {200}

    def test_empty(self):
        from rdf_extraction_ray.stages.graph import label_propagation
        e = pd.DataFrame({"lo": pd.Series(dtype="int64"),
                          "hi": pd.Series(dtype="int64")})
        ds = label_propagation(rd.from_pandas(e))
        # Dataset-level schema is typed; to_pandas() of an empty
        # from_arrow drops columns (same convention as TestKCore)
        assert ds.count() == 0
        assert [f.name for f in ds.schema().base_schema] == \
            ["doc_id", "component"]


class TestKTruss:
    """ktruss_edges: fixed-depth support peel over (lo, hi) int64
    edges + a (h, node) name view."""

    @staticmethod
    def _views(edges):
        e = pd.DataFrame(edges, columns=["lo", "hi"]).astype("int64")
        hs = sorted(set(e["lo"]) | set(e["hi"]))
        nodes = pd.DataFrame({"h": pd.Series(hs, dtype="int64"),
                              "node": [f"n{h}" for h in hs]})
        return rd.from_pandas(e), rd.from_pandas(nodes)

    @staticmethod
    def _reference(edges, k, n_rounds):
        cur = {tuple(e) for e in edges}
        sup = {}
        for _ in range(n_rounds):
            nbr = {}
            for (x, y) in cur:
                nbr.setdefault(x, set()).add(y)
                nbr.setdefault(y, set()).add(x)
            sup = {(a, b): len(nbr[a] & nbr[b]) for (a, b) in cur}
            cur = {e for e in cur if sup[e] >= k - 2}
        return {e: sup[e] for e in cur}

    def test_k4_survives_triangle_peels(self):
        from rdf_extraction_ray.stages.graph import ktruss_edges
        k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        tri = [(10, 11), (10, 12), (11, 12)]
        pend = [(4, 20)]
        und, nodes = self._views(k4 + tri + pend)
        out = ktruss_edges(None, k=4, n_rounds=3,
                           und_pre=und, nodes_pre=nodes).to_pandas()
        got = {(a, b): s for a, b, s in
               zip(out["node_a"], out["node_b"], out["support"])}
        assert got == {(f"n{a}", f"n{b}"): 2 for a, b in k4}

    def test_matches_reference_on_random_graph(self):
        from rdf_extraction_ray.stages.graph import ktruss_edges
        rng = np.random.default_rng(5)
        a = rng.integers(0, 30, 150).astype("int64")
        b = rng.integers(0, 30, 150).astype("int64")
        keep = a != b
        e = (pd.DataFrame({"lo": np.minimum(a, b)[keep],
                           "hi": np.maximum(a, b)[keep]})
             .drop_duplicates().reset_index(drop=True))
        edges = list(map(tuple, e.to_numpy()))
        und, nodes = self._views(edges)
        out = ktruss_edges(None, k=4, n_rounds=3,
                           und_pre=und, nodes_pre=nodes).to_pandas()
        # reference peel: support(e) = common neighbors of endpoints
        want = self._reference(edges, k=4, n_rounds=3)
        got = {(int(a[1:]), int(b[1:])): s for a, b, s in
               zip(out["node_a"], out["node_b"], out["support"])}
        assert got == want

    def test_empty_and_trussless(self):
        from rdf_extraction_ray.stages.graph import ktruss_edges
        und, nodes = self._views([(1, 2), (2, 3)])  # no triangles
        out = ktruss_edges(None, k=4, n_rounds=2,
                           und_pre=und, nodes_pre=nodes)
        # a zero-row Dataset keeps its declared schema (to_pandas()
        # would drop it — the documented _typed quirk)
        assert out.schema().names == ["node_a", "node_b", "support"]
        assert out.count() == 0

    def test_large_path_streams_and_matches_small_path(self,
                                                       monkeypatch):
        """driver_max_edges=0 forces the distributed string-resolution
        tail: the result must be an rd.Dataset, row-identical to the
        need-set-broadcast path, and must never call resolve_names
        (the driver-side resolver) — i.e. surviving edges never
        materialize on the driver."""
        import rdf_extraction_ray.stages.graph as G
        k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        tri = [(10, 11), (10, 12), (11, 12)]
        und, nodes = self._views(k4 + tri + [(4, 20)])
        small = G.ktruss_edges(None, k=4, n_rounds=3,
                               und_pre=und, nodes_pre=nodes)             .to_pandas().sort_values(["node_a", "node_b"],
                                     ignore_index=True)

        def _boom(*a, **kw):
            raise AssertionError(
                "resolve_names (driver path) used on the large path")

        monkeypatch.setattr(G, "resolve_names", _boom)
        out = G.ktruss_edges(None, k=4, n_rounds=3,
                             und_pre=und, nodes_pre=nodes,
                             driver_max_edges=0)
        assert isinstance(out, rd.Dataset)
        large = out.to_pandas().sort_values(["node_a", "node_b"],
                                            ignore_index=True)
        large["support"] = large["support"].astype("int64")
        pd.testing.assert_frame_equal(small, large)


class TestWeightedLinkPrediction:
    def test_adamic_adar_prefers_rare_shared_neighbor(self):
        from rdf_extraction_ray.stages.graph import link_prediction
        # x and y share hub h (degree 6) and rare r (degree 2);
        # p and q share ONLY the hub. AA must rank (x,y) above (p,q).
        edges = [("x", "h"), ("y", "h"), ("p", "h"), ("q", "h"),
                 ("a", "h"), ("b", "h"), ("x", "r"), ("y", "r")]
        df = pd.DataFrame(edges, columns=["s", "d"])
        w = {c: int(round(1e9 / np.log(c))) for c in range(2, 65)}
        out = link_prediction(rd.from_pandas(df), k=100, min_common=1,
                              apex_weights=w)
        sc = {tuple(sorted((a, b))): s for a, b, s in
              zip(out["node_a"], out["node_b"], out["score"])}
        assert sc[("x", "y")] == w[6] + w[2]
        assert sc[("p", "q")] == w[6]
        assert sc[("x", "y")] > sc[("p", "q")]
        # unweighted path unchanged: no score column
        base = link_prediction(rd.from_pandas(df), k=100, min_common=1)
        assert "score" not in base.columns

    def test_jaccard_quotient_exact(self):
        from rdf_extraction_ray.stages.graph import link_prediction
        # x,y share {h, r}; deg(x)=deg(y)=2 → J = 2/(2+2-2) = 1.0
        # p,q share only h; deg(p)=deg(q)=1 → J = 1/(1+1-1) = 1.0;
        # a,b share h but a also touches c: deg(a)=2 → J = 1/2
        edges = [("x", "h"), ("y", "h"), ("p", "h"), ("q", "h"),
                 ("x", "r"), ("y", "r"), ("a", "h"), ("a", "c")]
        df = pd.DataFrame(edges, columns=["s", "d"])
        out = link_prediction(rd.from_pandas(df), k=100,
                              min_common=1, jaccard=True)
        sc = {tuple(sorted((u, v))): s for u, v, s in
              zip(out["node_a"], out["node_b"], out["score"])}
        assert sc[("x", "y")] == 1_000_000_000
        assert sc[("p", "q")] == 1_000_000_000
        # a (deg 2) with q (deg 1): c=1, union=2 → 0.5
        assert sc[("a", "q")] == 500_000_000


class TestCopredicatePairs:
    def test_shared_keys_counted(self):
        from rdf_extraction_ray.stages.graph import copredicate_pairs
        df = pd.DataFrame({
            "subj": ["s1", "s1", "s2", "s2", "s3", "s3", "s1"],
            "pred": ["p", "q", "p", "q", "p", "r", "p"],
            "obj": ["x", "y", "x", "y", "x", "z", "x"]})
        out = copredicate_pairs(rd.from_pandas(df), min_shared=2)
        # s1/s2 share p|x and q|y (2 keys); s3 shares only p|x with each
        assert out[["subj_a", "subj_b"]].values.tolist() == [["s1", "s2"]]
        assert out["n_shared"].tolist() == [2]

    def test_stop_key_dropped(self):
        from rdf_extraction_ray.stages.graph import copredicate_pairs
        # one key shared by 5 subjects: with max_df=4 it is a stop-key
        df = pd.DataFrame({
            "subj": [f"s{i}" for i in range(5)] * 2,
            "pred": ["p"] * 5 + ["q"] * 5,
            "obj": ["x"] * 5 + [f"y{i}" for i in range(5)]})
        out = copredicate_pairs(rd.from_pandas(df), min_shared=1,
                                max_df=4)
        assert len(out) == 0
        out2 = copredicate_pairs(rd.from_pandas(df), min_shared=1,
                                 max_df=5)
        assert len(out2) == 10  # C(5,2) pairs via the p|x key


class TestMediaDedup:
    def test_keep_min_id_and_counts(self):
        import pyarrow as pa

        from rdf_extraction_ray.stages.multimodal import media_exact_dedup
        t = pa.table({"media_id": pa.array([7, 3, 9, 1], pa.int64()),
                      "payload": pa.array([b"xx", b"xx", b"yy", b"xx"],
                                          pa.binary())})
        out = (media_exact_dedup(rd.from_arrow(t)).to_pandas()
               .sort_values("keep_id", ignore_index=True))
        assert out["keep_id"].tolist() == [1, 9]
        assert out["n_dups"].tolist() == [3, 1]


class TestKGComponentsSelfLoop:
    def test_self_loop_only_node_is_its_own_component(self, tmp_path,
                                                      monkeypatch):
        """A node whose ONLY URI edge is a self-loop must appear as
        its own component (the oracle's `UNION SELECT a, a` keeps it);
        the contraction drops self-loop edges, so the resolve step
        must emit it from its name row alone."""
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as E
        t = pa.table({
            "subj": ["n:a", "n:b", "n:loner", "n:c"],
            "pred": ["p"] * 4,
            "obj": ["n:b", "n:c", "n:loner", "n:a"],
            "obj_kind": ["uri"] * 4})
        pq.write_table(t, tmp_path / "triples.parquet")
        monkeypatch.setattr(
            E, "_triples_view",
            lambda sf_dir: rd.read_parquet(str(tmp_path)))
        got = E.queries()["kg_components"]("ignored")
        want = duckdb.sql(E._kg_components_sql(
            str(tmp_path / "triples.parquet"))).df()
        assert got["node"].tolist() == want["node"].tolist()
        assert got["component"].tolist() == want["component"].tolist()
        # the loner is present and alone
        loner = got[got["node"] == "n:loner"]
        assert len(loner) == 1
        assert (got["component"] == loner["component"].iloc[0]).sum() == 1


class TestGraphPreVsScanEquality:
    def test_view_fed_operators_match_string_scan(self, tmp_path,
                                                  monkeypatch):
        """pagerank/k-core/degree-histogram/triangles fed the cached
        graph-projection views must equal the same operators run from
        raw string edges — pins the builder's kernels (shared with
        graph.py) against the scan path. Fixture plants parallel
        edges, a reverse duplicate and a self-loop."""
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq

        import __ray_entry__ as E
        from rdf_extraction_ray.stages import graph as G
        subj = ["n:a", "n:a", "n:b", "n:c", "n:d", "n:d", "n:b",
                "n:e"]
        obj = ["n:b", "n:b", "n:a", "n:a", "n:a", "n:c", "n:c",
               "n:e"]
        t = pa.table({"subj": subj, "pred": ["p"] * len(subj),
                      "obj": obj, "obj_kind": ["uri"] * len(subj)})
        pq.write_table(t, tmp_path / "triples.parquet")
        monkeypatch.setattr(
            E, "_triples_view",
            lambda sf_dir: rd.read_parquet(str(tmp_path)))
        gv = E._kg_graph_views("ignored")
        und = E._graph_view_read(gv, "edges_und")
        deg = E._graph_view_read(gv, "edges_deg")
        nodes = E._graph_view_read(gv, "nodes")
        edges = rd.read_parquet(str(tmp_path)).map_batches(
            lambda df: pd.DataFrame({"s": df["subj"],
                                     "d": df["obj"]}),
            batch_format="pandas")

        dh_scan = G.degree_histogram(edges)
        dh_pre = G.degree_histogram(None, und_pre=und)
        pd.testing.assert_frame_equal(dh_scan, dh_pre)

        tc_scan = G.triangle_count(edges)
        tc_pre = G.triangle_count(None, und_pre=und)
        pd.testing.assert_frame_equal(tc_scan, tc_pre)

        def _sorted(ds, cols):
            return (ds.to_pandas()[cols]
                    .sort_values(cols, ignore_index=True))

        kc_scan = _sorted(G.kcore_nodes(edges, k=2), ["node"])
        kc_pre = _sorted(G.kcore_nodes(None, k=2, und_pre=und,
                                       nodes_pre=nodes), ["node"])
        pd.testing.assert_frame_equal(kc_scan, kc_pre)
        assert len(kc_scan)  # the a-b-c triangle is a 2-core

        pr_scan = _sorted(G.pagerank_int(edges, n_iter=3),
                          ["node", "rank"])
        pr_pre = _sorted(G.pagerank_int(None, n_iter=3, deg_pre=deg,
                                        nodes_pre=nodes),
                         ["node", "rank"])
        pd.testing.assert_frame_equal(pr_scan, pr_pre)
        assert len(pr_scan) == 5


class TestComponentsResolveDualPath:
    def test_broadcast_and_exchange_paths_identical(self):
        """_components_resolve's broadcast-lookup and hash-bucket
        exchange executions of the string attach must agree row for
        row, including an isolated node absent from the label set
        (its own component)."""
        import pandas as pd

        import __ray_entry__ as E
        comp = rd.from_pandas(pd.DataFrame({
            "doc_id": pd.array([11, 22, 33], dtype="int64"),
            "component": pd.array([11, 11, 33], dtype="int64")}))
        nodes = rd.from_pandas(pd.DataFrame({
            "h": pd.array([11, 22, 33, 44], dtype="int64"),
            "node": ["n:a", "n:b", "n:c", "n:loner"]}))
        via_bcast = E._components_resolve(comp, nodes, cap=10**9)
        via_exch = E._components_resolve(comp, nodes, cap=0)
        assert via_bcast["node"].tolist() == via_exch["node"].tolist()
        assert (via_bcast["component"].tolist()
                == via_exch["component"].tolist())
        got = dict(zip(via_bcast["node"], via_bcast["component"]))
        assert got == {"n:a": 11, "n:b": 11, "n:c": 33, "n:loner": 44}


class TestMediaDedupNullPayload:
    def test_null_payloads_group_under_null_key(self):
        import pyarrow as pa

        from rdf_extraction_ray.stages.multimodal import media_exact_dedup
        t = pa.table({"media_id": pa.array([5, 2, 8], pa.int64()),
                      "payload": pa.array([None, b"zz", None],
                                          pa.binary())})
        out = (media_exact_dedup(rd.from_arrow(t)).to_pandas()
               .sort_values("keep_id", ignore_index=True))
        # NULL payloads form one group (oracle: md5(hex(NULL)) = NULL)
        assert out["keep_id"].tolist() == [2, 5]
        assert out["n_dups"].tolist() == [1, 2]
        assert out.loc[1, "ph"] is None or pd.isna(out.loc[1, "ph"])


class TestKCoreRoundParity:
    def test_unconverged_peel_caps_identically_on_both_paths(self):
        """A 60-node pendant chain needs ~30 peel rounds to dissolve;
        with max_rounds=6 BOTH paths must stop at exactly a6 (the
        oracle's unrolled depth) — the exchange path used to run one
        extra round."""
        from rdf_extraction_ray.stages.graph import kcore_nodes
        n = 60
        df = pd.DataFrame({"s": [f"c{i:02d}" for i in range(n - 1)],
                           "d": [f"c{i + 1:02d}" for i in range(n - 1)]})
        b = kcore_nodes(rd.from_pandas(df), k=2, max_rounds=6) \
            .to_pandas()
        e = kcore_nodes(rd.from_pandas(df), k=2, max_rounds=6,
                        broadcast_max_nodes=0).to_pandas()
        assert sorted(b["node"]) == sorted(e["node"])
        # after 6 rounds the chain has lost exactly 6 nodes per end
        assert len(b) == n - 12


class TestSparqlForms:
    """FILTER / UNION / ASK / DESCRIBE / property-path closure."""

    def _triples(self):
        import pandas as pd
        import ray.data as rd
        rows = [
            ("ev1", "died", "alice"), ("ev2", "died", "alice"),
            ("alice", "dplace", "york"),
            ("ev3", "died", "bob"),            # bob: no dplace
            ("carol", "dplace", "leeds"),       # carol: no death event
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    def test_filters_pushdown_and_unbound_drop(self):
        import pandas as pd
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        # constant compare, filter var bound by the first pattern
        out = bgp_match(tr, [("?ev", "died", "?p")],
                        filters=[("?p", "==", "bob")]).to_pandas()
        pd.testing.assert_frame_equal(
            out, pd.DataFrame({"ev": ["ev3"], "p": ["bob"]}))
        # var-var compare across two patterns
        out = bgp_match(
            tr, [("?ev", "died", "?p"), ("?p", "dplace", "?dp")],
            filters=[("?p", "<", "?dp")],
            select=["p", "dp"], distinct=True).to_pandas()
        pd.testing.assert_frame_equal(
            out, pd.DataFrame({"p": ["alice"], "dp": ["york"]}))
        # a filter on an OPTIONAL var drops UNBOUND rows (SPARQL type
        # error) for EVERY op, != included
        for op, want in (("==", ["alice", "alice"]),
                         ("!=", [])):
            ds = bgp_match(
                tr, [("?ev", "died", "?p")],
                optional=[("?p", "dplace", "?dp")],
                filters=[("?dp", op, "york")])
            if want:  # (to_pandas drops names on all-empty datasets)
                assert sorted(ds.to_pandas()["p"]) == want, op
            else:
                assert ds.count() == 0, op
        # string ops
        out = bgp_match(tr, [("?ev", "died", "?p")],
                        filters=[("?p", "strstarts", "al")],
                        select=["p"], distinct=True).to_pandas()
        assert list(out["p"]) == ["alice"]
        with pytest.raises(ValueError):
            bgp_match(tr, [("?ev", "died", "?p")],
                      filters=[("?p", "~", "x")])
        with pytest.raises(ValueError):
            bgp_match(tr, [("?ev", "died", "?p")],
                      filters=[("a", "==", "b")])
        with pytest.raises(ValueError):
            bgp_match(tr, [("?ev", "died", "?p")],
                      filters=[("?nope", "==", "b")])

    def test_path_closure_both_paths_agree_on_cycles(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.graph import path_closure
        rows = [("a", "rel", "b"), ("b", "rel", "c"),
                ("c", "rel", "a"), ("d", "rel", "b"),
                ("x", "other", "y")]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

        def _canon(ds):
            return ds.to_pandas().sort_values(
                ["start", "node"], ignore_index=True)

        bc = _canon(path_closure(tr, "rel"))
        dist = _canon(path_closure(tr, "rel", broadcast_cap=0))
        pd.testing.assert_frame_equal(bc, dist)
        # the 3-cycle closes over itself (a reaches a), d reaches all
        exp = {(s, n) for s in "abc" for n in "abc"} \
            | {("d", n) for n in "abc"}
        assert set(zip(bc["start"], bc["node"])) == exp
        # restricted origin set, on both paths
        one = _canon(path_closure(tr, "rel", starts=["d"]))
        one_d = _canon(path_closure(tr, "rel", starts=["d"],
                                    broadcast_cap=0))
        pd.testing.assert_frame_equal(one, one_d)
        assert set(zip(one["start"], one["node"])) == \
            {("d", n) for n in "abc"}
        # a predicate with no edges -> typed empty closure
        none = path_closure(tr, "absent")
        assert none.schema().names == ["start", "node"]
        assert none.count() == 0

    def test_bgp_join_broadcast_and_exchange_paths_agree(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.graph import bgp_match
        rows = [("e1", "died", "alice"), ("e2", "died", "bob"),
                ("e3", "died", "bob"),
                ("alice", "at", "york"), ("bob", "at", "leeds"),
                ("bob", "at", "york"),
                ("e1", "ts", "1901"), ("e3", "ts", "1903")]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))
        kw = dict(
            patterns=[("?ev", "died", "?p"), ("?p", "at", "?w")],
            optional=[("?ev", "ts", "?t")],
            select=["p", "w", "t"])

        def _canon(ds):
            return (ds.to_pandas().fillna("~")
                    .sort_values(["p", "w", "t"], ignore_index=True))

        bc = _canon(bgp_match(tr, **kw))            # broadcast path
        ex = _canon(bgp_match(tr, broadcast_rows=0, **kw))  # exchange
        pd.testing.assert_frame_equal(bc, ex)
        # inner multiplicity ×2 for bob (two places), optional NULL
        # where no ts exists — e2's binding survives unmatched
        assert len(bc) == 5
        assert (bc["t"] == "~").sum() == 2  # e2 rows (bob×2 places)

    def test_bgp_subquery_joins_inner_aggregate(self, monkeypatch):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages import graph
        from rdf_extraction_ray.stages.sparql import run_sparql
        rows = [("e1", "died", "alice"), ("alice", "at", "york"),
                ("e2", "died", "bob"), ("bob", "at", "york"),
                ("e3", "died", "cara"), ("cara", "at", "leeds")]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))
        q = """SELECT DISTINCT ?p ?w ?n WHERE {
                 ?ev <died> ?p . ?p <at> ?w .
                 { SELECT ?w (COUNT(*) AS ?n) WHERE {
                     ?ev <died> ?p . ?p <at> ?w }
                   GROUP BY ?w HAVING (?n >= 2) } }"""
        df = run_sparql(tr, q).to_pandas().sort_values(
            "p", ignore_index=True)
        # only york clears HAVING n>=2; cara/leeds is filtered out
        assert df.to_dict("list") == {
            "p": ["alice", "bob"], "w": ["york", "york"],
            "n": [2, 2]}
        assert str(df["n"].dtype) == "int64"
        # hash-join fallback path (cap 0) agrees
        monkeypatch.setattr(graph, "_BROADCAST_ROWS", 0)
        df2 = run_sparql(tr, q).to_pandas().sort_values(
            "p", ignore_index=True)
        pd.testing.assert_frame_equal(df, df2)

    def test_null_keys_never_match_on_either_path(self, monkeypatch):
        """OPTIONAL leaves ?w unbound for bob and cara. Broadcast or
        exchanged (``broadcast_rows=0``), every solution join returns
        hash_join's rows: a NULL key never matches, not even another
        NULL key."""
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages import graph
        from rdf_extraction_ray.stages.graph import bgp_match
        from rdf_extraction_ray.stages.sparql import run_sparql
        rows = [("e1", "died", "alice"), ("alice", "at", "york"),
                ("e2", "died", "bob"), ("e3", "died", "cara")]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))
        pats = [("?ev", "died", "?p")]
        opt = [("?p", "at", "?w")]

        def _rows(ds, cols):
            df = ds.to_pandas()[cols].fillna("~")
            return sorted(map(tuple, df.to_numpy().tolist()))

        # the inner groups are york (1) and the unbound ?w (2)
        q = """SELECT ?p ?w ?n WHERE {
                 ?ev <died> ?p OPTIONAL { ?p <at> ?w }
                 { SELECT ?w (COUNT(*) AS ?n) WHERE {
                     ?ev <died> ?p OPTIONAL { ?p <at> ?w } }
                   GROUP BY ?w } }"""
        for cap in (1_000_000, 0):
            monkeypatch.setattr(graph, "_BROADCAST_ROWS", cap)
            out = run_sparql(tr, q)
            assert _rows(out, ["p", "w", "n"]) == [("alice", "york", 1)]

        from rdf_extraction_ray.stages.graph import (_solution_join,
                                                     _str_schema)
        from rdf_extraction_ray.stages.joins import hash_join
        left = bgp_match(tr, pats, optional=opt, select=["p", "w"])
        right = rd.from_pandas(pd.DataFrame(
            {"w": ["york", None], "k": ["Y", "N"]}))
        want = {
            "inner": [("alice", "york", "Y")],
            "left": [("alice", "york", "Y"), ("bob", "~", "~"),
                     ("cara", "~", "~")],
            "anti": [("bob", "~"), ("cara", "~")]}
        for how, rows_ in want.items():
            cols = ["p", "w", "k"][:len(rows_[0])]
            ref = hash_join(left, right, on=["w"], how=how,
                            left_schema=_str_schema(["p", "w"]),
                            right_schema=_str_schema(["w", "k"]))
            assert _rows(ref, cols) == rows_, how
            for cap in (1_000_000, 0):
                got = _solution_join(
                    left, right, ["w"], how, right_rows=2,
                    broadcast_rows=cap, n_buckets=8,
                    left_schema=_str_schema(["p", "w"]),
                    right_schema=_str_schema(["w", "k"]))
                assert _rows(got, cols) == rows_, (how, cap)

    def test_bfs_levels_min_hop_semantics_both_paths(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.graph import bfs_levels
        # diamond + cycle + a short-cut: a→b→c→d, a→d (so d is 1 hop,
        # not 3), c→a closes a cycle, e is unreachable from a
        rows = [("a", "rel", "b"), ("b", "rel", "c"),
                ("c", "rel", "d"), ("a", "rel", "d"),
                ("c", "rel", "a"), ("e", "rel", "b"),
                ("x", "other", "y")]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

        def _canon(ds):
            return ds.to_pandas().sort_values(
                "node", ignore_index=True)

        bc = _canon(bfs_levels(tr, "rel", ["a"]))
        dist = _canon(bfs_levels(tr, "rel", ["a"], broadcast_cap=0))
        pd.testing.assert_frame_equal(bc, dist)
        assert dict(zip(bc["node"], bc["level"])) == \
            {"a": 0, "b": 1, "c": 2, "d": 1}
        # multi-source: min over seeds; a seed with no out-edges
        # still appears at level 0
        ms = _canon(bfs_levels(tr, "rel", ["e", "d"]))
        ms_d = _canon(bfs_levels(tr, "rel", ["e", "d"],
                                 broadcast_cap=0))
        pd.testing.assert_frame_equal(ms, ms_d)
        assert dict(zip(ms["node"], ms["level"])) == \
            {"e": 0, "d": 0, "b": 1, "c": 2, "a": 3}
        # no edges for the predicate -> just the seeds at level 0
        none = bfs_levels(tr, "absent", ["q"])
        assert none.to_pandas().to_dict("list") == \
            {"node": ["q"], "level": [0]}

    def test_bgp_union_pads_unbound_and_dedups(self):
        import pandas as pd

        from rdf_extraction_ray.stages.sparql import run_sparql
        tr = self._triples()
        out = run_sparql(tr, """
            SELECT DISTINCT ?p ?place WHERE {
              { ?p <dplace> ?place }      # binds both vars
              UNION { ?ev <died> ?p } }   # place unbound -> NULL
            """).to_pandas()
        out = out.sort_values(["p", "place"],
                              ignore_index=True, na_position="last")
        exp = pd.DataFrame({
            # alice's two death events collapse under DISTINCT
            "p": ["alice", "alice", "bob", "carol"],
            "place": ["york", None, None, "leeds"]})
        pd.testing.assert_frame_equal(out, exp)

    def test_bgp_ask(self):
        from rdf_extraction_ray.stages.sparql import run_sparql
        tr = self._triples()
        assert run_sparql(tr, """ASK { ?ev <died> ?p .
                                      ?p <dplace> ?dp }""") is True
        assert run_sparql(tr, """ASK { ?p <dplace> ?dp
                                      FILTER (?dp = "gotham") }""") is False

    def test_describe_subjects_returns_full_rows(self):
        from rdf_extraction_ray.stages.graph import describe_subjects
        tr = self._triples()
        out = describe_subjects(
            tr, [("?p", "dplace", "?dp")], "?p").to_pandas()
        # alice and carol are described: every triple they SUBJECT
        assert sorted(out["subj"]) == ["alice", "carol"]
        assert list(out.columns) == ["subj", "pred", "obj"]


class TestSparqlNegationAndAggregates:
    """MINUS (anti-join) and GROUP BY aggregates over BGP bindings."""

    def _triples(self):
        import pandas as pd
        import ray.data as rd
        rows = [
            ("ev1", "died", "alice"), ("ev2", "died", "alice"),
            ("ev3", "died", "bob"), ("ev4", "died", "carol"),
            ("ev5", "died", "dan"),
            ("alice", "dplace", "york"), ("carol", "dplace", "york"),
            ("dan", "dplace", "leeds"),
            ("ev1", "ts", "1880"), ("ev2", "ts", "1885"),
            ("ev5", "ts", "1900"),
            ("bob", "buried", "crypt"),
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    def test_minus_removes_compatible_solutions(self):
        from rdf_extraction_ray.stages.sparql import run_sparql
        tr = self._triples()
        # undated death events: ev3, ev4
        out = run_sparql(tr, """SELECT ?ev ?p WHERE {
            ?ev <died> ?p MINUS { ?ev <ts> ?t } }""").to_pandas()
        out = out.sort_values("ev", ignore_index=True)
        pd.testing.assert_frame_equal(
            out, pd.DataFrame({"ev": ["ev3", "ev4"],
                               "p": ["bob", "carol"]}))
        # negation on a different shared var + distinct projection
        dd = run_sparql(tr, """SELECT DISTINCT ?p WHERE {
            ?ev <died> ?p MINUS { ?p <buried> ?bp } }""").to_pandas()
        assert sorted(dd["p"]) == ["alice", "carol", "dan"]

    def test_minus_empty_negation_keeps_all(self):
        from rdf_extraction_ray.stages.sparql import run_sparql
        tr = self._triples()
        out = run_sparql(tr, """SELECT DISTINCT ?p WHERE {
            ?ev <died> ?p MINUS { ?p <nopred> ?x } }""").to_pandas()
        assert sorted(out["p"]) == ["alice", "bob", "carol", "dan"]
        # full negation -> typed empty, not a crash
        none = run_sparql(tr, """SELECT ?p ?dp WHERE {
            ?p <dplace> ?dp MINUS { ?x <died> ?p } }""")
        assert none.schema().names == ["p", "dp"]
        assert none.count() == 0

    def test_minus_requires_shared_required_var(self):
        import pytest

        from rdf_extraction_ray.stages.sparql import run_sparql
        tr = self._triples()
        with pytest.raises(ValueError, match="share"):
            run_sparql(tr, """SELECT * WHERE {
                ?ev <died> ?p MINUS { ?a <dplace> ?b } }""")

    def test_aggregate_exact_and_combiner_paths_agree(self):
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        tr = self._triples()
        pats = [("?ev", "died", "?p"), ("?p", "dplace", "?place")]
        opt = [("?ev", "ts", "?t")]
        # exact path (count_distinct forces binding-row exchange)
        a = bgp_aggregate(
            tr, pats, group_by=["place"],
            aggs=[("count", "*", "n_events"),
                  ("count_distinct", "p", "n_persons"),
                  ("count", "t", "n_dated"),
                  ("min", "t", "first_ts"),
                  ("max", "t", "last_ts")],
            optional=opt).to_pandas().sort_values(
                "place", ignore_index=True)
        assert list(a["place"]) == ["leeds", "york"]
        assert list(a["n_events"]) == [1, 3]
        assert list(a["n_persons"]) == [1, 2]
        # COUNT(?t) counts only BOUND values (york: ev1+ev2 dated,
        # ev4 not); MIN/MAX skip unbound
        assert list(a["n_dated"]) == [1, 2]
        assert list(a["first_ts"]) == ["1900", "1880"]
        assert list(a["last_ts"]) == ["1900", "1885"]
        # combiner path must agree on the shared aggregates
        b = bgp_aggregate(
            tr, pats, group_by=["place"],
            aggs=[("count", "*", "n_events"),
                  ("count", "t", "n_dated"),
                  ("min", "t", "first_ts"),
                  ("max", "t", "last_ts")],
            optional=opt).to_pandas().sort_values(
                "place", ignore_index=True)
        pd.testing.assert_frame_equal(
            a.drop(columns="n_persons"), b)

    def test_aggregate_all_unbound_group_and_having(self):
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        tr = self._triples()
        # group with NO bound optional value anywhere -> NULL min/max
        out = bgp_aggregate(
            tr, [("?p", "dplace", "?place")], group_by=["place"],
            aggs=[("count", "*", "n"), ("min", "t", "first_ts")],
            optional=[("?p", "buried", "?t")]).to_pandas()
        out = out.sort_values("place", ignore_index=True)
        assert list(out["n"]) == [1, 2]
        assert out["first_ts"].isna().all()
        # HAVING filters aggregated rows
        h = bgp_aggregate(
            tr, [("?ev", "died", "?p"), ("?p", "dplace", "?place")],
            group_by=["place"], aggs=[("count", "*", "n")],
            having=[("n", ">=", 3)]).to_pandas()
        assert list(h["place"]) == ["york"]
        assert list(h["n"]) == [3]

    def test_aggregate_validation(self):
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_aggregate
        tr = self._triples()
        with pytest.raises(ValueError, match="unknown aggregate"):
            bgp_aggregate(tr, [("?ev", "died", "?p")],
                          group_by=["p"], aggs=[("median", "p", "s")])
        with pytest.raises(ValueError, match="not defined"):
            bgp_aggregate(tr, [("?ev", "died", "?p")],
                          group_by=["p"], aggs=[("min", "*", "m")])
        # empty group_by is the GLOBAL aggregate, not an error
        g = bgp_aggregate(tr, [("?ev", "died", "?p")],
                          group_by=[],
                          aggs=[("count", "*", "n")]).to_pandas()
        assert g["n"].tolist() == [5]
        with pytest.raises(ValueError, match="HAVING"):
            bgp_aggregate(tr, [("?ev", "died", "?p")],
                          group_by=["p"], aggs=[("count", "*", "n")],
                          having=[("nope", ">", 1)])


class TestAntiJoin:
    def test_anti_semantics_and_null_keys(self):
        import ray.data as rd

        from rdf_extraction_ray.stages.joins import hash_join
        l = pd.DataFrame({"k": ["a", "b", None, "c"],
                          "v": [1, 2, 3, 4]})
        r = pd.DataFrame({"k": ["b", None], "x": [9, 9]})
        out = hash_join(rd.from_pandas(l), rd.from_pandas(r),
                        on="k", how="anti").to_pandas()
        out = out.sort_values("v", ignore_index=True)
        # b removed; NULL left key survives (NULL = NULL is false in
        # NOT EXISTS); NULL right key eliminates nothing
        assert list(out["v"]) == [1, 3, 4]
        assert list(out.columns) == ["k", "v"]

    def test_anti_empty_sides(self):
        import ray.data as rd

        from rdf_extraction_ray.stages.joins import hash_join
        l = pd.DataFrame({"k": ["a", "b"], "v": [1, 2]})
        empty = pd.DataFrame({"k": pd.Series(dtype=object),
                              "x": pd.Series(dtype="int64")})
        # empty right -> left unchanged
        out = hash_join(rd.from_pandas(l), rd.from_pandas(empty),
                        on="k", how="anti").to_pandas()
        assert sorted(out["v"]) == [1, 2]
        # empty left -> empty
        out2 = hash_join(rd.from_pandas(empty.rename(columns={"x": "v"})),
                         rd.from_pandas(l), on="k", how="anti")
        assert out2.count() == 0


class TestSparqlSolutionModifiers:
    """VALUES inline data, ORDER BY + LIMIT top-k, GROUP_CONCAT."""

    def _triples(self):
        import pandas as pd
        import ray.data as rd
        rows = [
            ("ev1", "died", "alice"), ("ev2", "died", "alice"),
            ("ev3", "died", "bob"), ("ev4", "died", "carol"),
            ("ev5", "died", "dan"),
            ("alice", "dplace", "york"), ("carol", "dplace", "york"),
            ("dan", "dplace", "leeds"),
            ("ev1", "ts", "1880"), ("ev2", "ts", "1885"),
            ("ev5", "ts", "1900"),
            ("alice", "occ", "weaver"), ("alice", "occ", "farmer"),
            ("bob", "occ", "smith"),
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"])).repartition(3)

    def test_values_single_and_multi_var(self):
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        v = bgp_match(tr, [("?ev", "died", "?p"),
                           ("?p", "dplace", "?dp")],
                      values=(["?dp"], ["york"]),
                      select=["p", "dp"], distinct=True).to_pandas()
        assert sorted(v["p"]) == ["alice", "carol"]
        # multi-var rows must agree on EVERY values var; duplicate
        # inline rows never duplicate solutions
        v2 = bgp_match(tr, [("?ev", "died", "?p"),
                            ("?p", "dplace", "?dp")],
                       values=(["?p", "?dp"],
                               [("alice", "york"), ("alice", "york"),
                                ("dan", "paris")]),
                       select=["ev", "p"]).to_pandas()
        assert sorted(v2["ev"]) == ["ev1", "ev2"]
        with pytest.raises(ValueError, match="required-bound"):
            bgp_match(tr, [("?ev", "died", "?p")],
                      optional=[("?p", "dplace", "?dp")],
                      values=(["?dp"], ["york"]))
        with pytest.raises(ValueError, match="UNDEF"):
            bgp_match(tr, [("?ev", "died", "?p")],
                      values=(["?p"], [None]))

    def test_order_by_limit_topk_and_nulls_last(self):
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        t = bgp_match(tr, [("?ev", "died", "?p")],
                      optional=[("?ev", "ts", "?t")],
                      select=["ev", "p", "t"],
                      order_by=[("?t", "desc")], limit=3).to_pandas()
        # unbound (?t NULL for ev3/ev4) sorts LAST, never into the top
        assert list(t["ev"]) == ["ev5", "ev2", "ev1"]
        assert list(t["t"]) == ["1900", "1885", "1880"]
        # ascending full sort (no limit) returns every binding ordered
        s = bgp_match(tr, [("?ev", "died", "?p")],
                      select=["ev"], order_by=[("?ev", "asc")])
        assert list(s.to_pandas()["ev"]) == [
            "ev1", "ev2", "ev3", "ev4", "ev5"]
        # limit alone truncates the stream
        assert bgp_match(tr, [("?ev", "died", "?p")],
                         select=["ev"], limit=2).count() == 2
        with pytest.raises(ValueError, match="not selected"):
            bgp_match(tr, [("?ev", "died", "?p")], select=["p"],
                      order_by=[("?ev", "asc")], limit=1)
        with pytest.raises(ValueError, match="direction"):
            bgp_match(tr, [("?ev", "died", "?p")],
                      order_by=[("?ev", "up")], limit=1)

    def test_group_concat_sorted_and_null_group(self):
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        tr = self._triples()
        g = bgp_aggregate(tr, [("?p", "occ", "?o")], group_by=["p"],
                          aggs=[("group_concat", "o", "occs"),
                                ("count", "o", "n")]).to_pandas()
        g = g.sort_values("p", ignore_index=True)
        assert list(g["p"]) == ["alice", "bob"]
        assert list(g["occs"]) == ["farmer|weaver", "smith"]
        # group with no bound value -> NULL concat
        h = bgp_aggregate(
            tr, [("?p", "dplace", "?place")], group_by=["place"],
            aggs=[("group_concat", "t", "all_t")],
            optional=[("?p", "occ", "?t")]).to_pandas()
        h = h.sort_values("place", ignore_index=True)
        assert h.loc[h["place"] == "leeds", "all_t"].isna().all()
        assert list(h.loc[h["place"] == "york", "all_t"]) == [
            "farmer|weaver"]


class TestMinusNegationShapes:
    def test_single_and_multi_pattern_negations(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.sparql import run_sparql
        rows = [
            ("ev1", "died", "alice"), ("ev2", "died", "alice"),
            ("ev3", "died", "bob"), ("ev4", "died", "carol"),
            ("ev1", "ts", "1880"), ("ev2", "ts", "1885"),
            ("alice", "dplace", "york"),
        ]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"])).repartition(3)

        one = (run_sparql(tr, """SELECT ?ev ?p WHERE {
                   ?ev <died> ?p MINUS { ?ev <ts> ?t } }""")
               .to_pandas().sort_values(["ev", "p"], ignore_index=True))
        assert list(one["ev"]) == ["ev3", "ev4"]
        # a multi-pattern negation, and one whose vars are ALL shared
        both = run_sparql(tr, """SELECT DISTINCT ?p WHERE {
            ?ev <died> ?p
            MINUS { ?p <dplace> ?dp . ?dp <nope> ?x } }""").to_pandas()
        assert sorted(both["p"]) == ["alice", "bob", "carol"]
        noshared_marker = run_sparql(tr, """SELECT DISTINCT ?p WHERE {
            ?ev <died> ?p . ?p <dplace> ?dp
            MINUS { ?p <dplace> ?dp } }""")
        assert noshared_marker.count() == 0


class TestCountDistinctCombiner:
    def test_zero_bound_group_and_null_group_key(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.graph import bgp_aggregate
        rows = [
            ("ev1", "died", "alice"), ("ev2", "died", "alice"),
            ("ev3", "died", "bob"),
            ("alice", "dplace", "york"),
            # bob has a place but NO occupation anywhere
            ("bob", "dplace", "leeds"),
            ("alice", "occ", "weaver"), ("alice", "occ", "farmer"),
        ]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"])).repartition(3)
        out = bgp_aggregate(
            tr, [("?p", "dplace", "?place")], group_by=["place"],
            aggs=[("count_distinct", "o", "n_occ"),
                  ("count", "*", "n")],
            optional=[("?p", "occ", "?o")]).to_pandas()
        out = out.sort_values("place", ignore_index=True)
        # leeds: bob, zero bound ?o -> COUNT(DISTINCT) = 0, never NULL
        assert list(out["place"]) == ["leeds", "york"]
        assert list(out["n_occ"]) == [0, 2]
        assert list(out["n"]) == [1, 2]
        # NULL group key (optional-introduced group var) groups its
        # own bucket on both the partial and the pair exchanges
        g2 = bgp_aggregate(
            tr, [("?ev", "died", "?p")], group_by=["place"],
            aggs=[("count_distinct", "p", "n_p")],
            optional=[("?p", "dplace", "?place"),
                      ("?p", "occ", "?o")]).to_pandas()
        # alice->york (1 person), bob->leeds (1 person)
        g2 = g2.sort_values("place", ignore_index=True)
        assert list(g2["place"]) == ["leeds", "york"]
        assert list(g2["n_p"]) == [1, 1]


class TestHLLSketch:
    def test_exact_small_range_and_empty(self):
        from rdf_extraction_ray.stages.sketch import hll_distinct
        df = pd.DataFrame({"k": np.arange(200, dtype="int64")})
        out = hll_distinct(rd.from_pandas(df).repartition(3), "k")
        # n << m: linear-counting branch, tight (~few %) at n=200
        est = int(out["est_distinct"].iloc[0])
        assert abs(est - 200) <= 25, est
        assert int(out["m"].iloc[0]) == 1024
        empty = pd.DataFrame({"k": pd.Series(dtype="int64")})
        e = hll_distinct(rd.from_pandas(empty), "k")
        assert int(e["est_distinct"].iloc[0]) == 0
        assert int(e["n_buckets"].iloc[0]) == 0
        assert int(e["s_int"].iloc[0]) == 1024 * (1 << 51)

    def test_estimate_within_error_and_partition_invariant(self):
        from rdf_extraction_ray.stages.sketch import hll_distinct
        n = 50_000
        df = pd.DataFrame({"k": np.arange(n, dtype="int64")})
        a = hll_distinct(rd.from_pandas(df), "k")
        b2 = hll_distinct(rd.from_pandas(df).repartition(7), "k")
        assert a.equals(b2)  # register merge is order-free
        est = int(a["est_distinct"].iloc[0])
        # sigma ~ 1.04/sqrt(1024) = 3.25%; 5-sigma bound
        assert abs(est - n) / n < 0.17, est

    def test_register_semantics(self):
        from rdf_extraction_ray.stages.sketch import hll_distinct
        import hashlib
        # one value: exactly one bucket present, rho computed from
        # the md5-15 remainder's bit length
        df = pd.DataFrame({"k": ["solo"]})
        out = hll_distinct(rd.from_pandas(df), "k")
        h = int(hashlib.md5(b"solo").hexdigest()[:15], 16)
        rem = h & ((1 << 50) - 1)
        rho = 51 - rem.bit_length() if rem else 51
        assert int(out["n_buckets"].iloc[0]) == 1
        expect_s = (1 << (51 - rho)) + 1023 * (1 << 51)
        assert int(out["s_int"].iloc[0]) == expect_s


class TestGlobalAggregate:
    def test_global_one_row_and_empty_sequence(self):
        import pandas as pd
        import ray.data as rd

        from rdf_extraction_ray.stages.graph import bgp_aggregate
        rows = [("ev1", "died", "alice"), ("ev2", "died", "alice"),
                ("ev3", "died", "bob"),
                ("ev1", "ts", "1880"), ("ev2", "ts", "1885")]
        tr = rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"])).repartition(3)
        g = bgp_aggregate(
            tr, [("?ev", "died", "?p")], group_by=[],
            aggs=[("count", "*", "n"), ("count_distinct", "p", "np"),
                  ("min", "ts", "lo"), ("max", "ts", "hi")],
            optional=[("?ev", "ts", "?ts")]).to_pandas()
        assert g.to_dict("records") == [
            {"n": 3, "np": 2, "lo": "1880", "hi": "1885"}]
        # empty solution sequence still yields ONE row (SQL/SPARQL)
        e = bgp_aggregate(
            tr, [("?ev", "nopred", "?p")], group_by=[],
            aggs=[("count", "*", "n"), ("min", "p", "lo")]).to_pandas()
        assert e["n"].tolist() == [0]
        assert e["lo"].isna().all()
        # HAVING can filter the single row away
        h = bgp_aggregate(
            tr, [("?ev", "died", "?p")], group_by=[],
            aggs=[("count", "*", "n")],
            having=[("n", ">", 10)]).to_pandas()
        assert len(h) == 0
        # ...including the synthesized empty-sequence row
        h2 = bgp_aggregate(
            tr, [("?ev", "nopred", "?p")], group_by=[],
            aggs=[("count", "*", "n")],
            having=[("n", ">", 0)]).to_pandas()
        assert len(h2) == 0


class TestPredicatePaths:
    """Inverse (^pred) and alternation (tuple) predicate paths."""

    def _triples(self):
        import pandas as pd
        import ray.data as rd
        rows = [
            ("c1", "hasMother", "m1"),
            ("m2", "hasDaughter", "c2"),       # inverse encoding
            ("c3", "hasMother", "m3"),
            ("m3", "hasDaughter", "c3"),        # both encodings
            ("c1", "other", "x"),
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"])).repartition(2)

    def test_inverse_and_alternation(self):
        import pandas as pd
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        inv = bgp_match(tr, [("?c", "^hasDaughter", "?m")]).to_pandas()
        inv = inv.sort_values("c", ignore_index=True)
        pd.testing.assert_frame_equal(
            inv, pd.DataFrame({"c": ["c2", "c3"],
                               "m": ["m2", "m3"]}))
        # alternation: bag-union (c3/m3 twice), DISTINCT collapses
        alt = bgp_match(tr, [("?c", ("hasMother", "^hasDaughter"),
                              "?m")]).to_pandas()
        assert len(alt) == 4
        dd = bgp_match(tr, [("?c", ("hasMother", "^hasDaughter"),
                             "?m")], distinct=True).to_pandas()
        dd = dd.sort_values("c", ignore_index=True)
        pd.testing.assert_frame_equal(
            dd, pd.DataFrame({"c": ["c1", "c2", "c3"],
                              "m": ["m1", "m2", "m3"]}))
        # constants respect the swapped roles on inverse alternatives
        con = bgp_match(tr, [("?c", "^hasDaughter", "m2")]).to_pandas()
        pd.testing.assert_frame_equal(
            con, pd.DataFrame({"c": ["c2"]}))
        with pytest.raises(ValueError, match="constant URIs"):
            bgp_match(tr, [("?c", ("hasMother", "?p"), "?m")])
        with pytest.raises(ValueError, match="alternation"):
            bgp_match(tr, [("?c", (), "?m")])


class TestSparqlBindSumAvgExists:
    """BIND expressions, SUM/AVG numeric aggregates, FILTER EXISTS."""

    def _triples(self):
        rows = [
            ("p1", "inc", "100"), ("p1", "inc", "250"),
            ("p1", "inc", "junk"),           # non-numeric: skipped
            ("p2", "inc", "7"), ("p2", "inc", "-3"),
            ("p3", "inc", "zero"),           # NO numeric value at all
            ("e1", "died", "p1"), ("e2", "died", "p1"),
            ("e3", "died", "p2"), ("e4", "died", "p9"),
            ("p1", "occ", "vocab/occupation/brewer"),
            ("p1", "occ", "vocab/occupation/baker"),
            ("p2", "occ", "vocab/occupation/clerk"),
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    def test_bind_ops_and_post_bind_filter(self):
        from rdf_extraction_ray.stages.graph import bgp_match
        out = bgp_match(
            self._triples(), [("?p", "occ", "?o")],
            binds=[(("strafter", "?o", "occupation/"), "?trade"),
                   (("strlen", "?trade"), "?tlen"),
                   (("ucase", "?trade"), "?up"),
                   (("substr", "?trade", 1, 3), "?pre"),
                   (("strbefore", "?o", "/occ"), "?ns"),
                   (("concat", "?p", "#", "?up"), "?tag")],
            filters=[("?trade", "strstarts", "b")],
            select=["p", "trade", "tlen", "pre", "ns", "tag"],
        ).to_pandas().sort_values("trade", ignore_index=True)
        assert out["trade"].tolist() == ["baker", "brewer"]
        assert out["tlen"].tolist() == ["5", "6"]
        assert out["pre"].tolist() == ["bak", "bre"]
        assert out["ns"].tolist() == ["vocab", "vocab"]
        assert out["tag"].tolist() == ["p1#BAKER", "p1#BREWER"]

    def test_bind_null_propagates_from_optional(self):
        from rdf_extraction_ray.stages.graph import bgp_match
        out = bgp_match(
            self._triples(), [("?ev", "died", "?p")],
            optional=[("?p", "occ", "?o")],
            binds=[(("concat", "?p", "/", "?o"), "?po"),
                   (("strlen", "?o"), "?olen"),
                   (("strafter", "?o", "/"), "?rest")],
            select=["ev", "po", "olen", "rest"]).to_pandas()
        # p9 (e4) has no occ binding: every bind output is NULL
        e4 = out[out["ev"] == "e4"]
        assert len(e4) == 1
        assert e4[["po", "olen", "rest"]].isna().all().all()
        matched = out[out["ev"] == "e3"]
        assert matched["po"].tolist() == ["p2/vocab/occupation/clerk"]

    def test_bind_errors(self):
        import pytest

        from rdf_extraction_ray.stages.graph import bgp_match
        tr = self._triples()
        with pytest.raises(ValueError, match="unknown BIND op"):
            bgp_match(tr, [("?p", "occ", "?o")],
                      binds=[(("nope", "?o"), "?x")])
        with pytest.raises(ValueError, match="already bound"):
            bgp_match(tr, [("?p", "occ", "?o")],
                      binds=[(("ucase", "?o"), "?p")])
        with pytest.raises(ValueError, match="unbound"):
            bgp_match(tr, [("?p", "occ", "?o")],
                      binds=[(("ucase", "?zzz"), "?x")])

    def test_sum_avg_combiner_path(self):
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        out = (bgp_aggregate(
            self._triples(), [("?p", "inc", "?v")], group_by=["p"],
            aggs=[("sum", "v", "total"), ("avg", "v", "mean"),
                  ("count", "*", "n")])
            .to_pandas().sort_values("p", ignore_index=True))
        assert out["p"].tolist() == ["p1", "p2", "p3"]
        assert out["total"].tolist()[:2] == [350, 4]
        assert pd.isna(out["total"].iloc[2])     # no numeric value
        assert out["mean"].tolist()[:2] == [175.0, 2.0]
        assert pd.isna(out["mean"].iloc[2])
        assert out["n"].tolist() == [3, 2, 1]

    def test_sum_avg_exact_path_matches_combiner(self):
        # group_concat forces the exact co-located path; sum/avg must
        # agree with the combiner path's answer
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        out = (bgp_aggregate(
            self._triples(), [("?p", "inc", "?v")], group_by=["p"],
            aggs=[("sum", "v", "total"), ("avg", "v", "mean"),
                  ("group_concat", "v", "vals")])
            .to_pandas().sort_values("p", ignore_index=True))
        assert out["total"].tolist()[:2] == [350, 4]
        assert pd.isna(out["total"].iloc[2])
        assert out["mean"].tolist()[:2] == [175.0, 2.0]
        assert out["vals"].tolist() == ["100|250|junk", "-3|7", "zero"]

    def test_sum_avg_global_and_over_bind(self):
        from rdf_extraction_ray.stages.graph import bgp_aggregate
        # global aggregate + aggregating a BIND output (STRLEN)
        out = bgp_aggregate(
            self._triples(), [("?p", "occ", "?o")], group_by=[],
            binds=[(("strafter", "?o", "occupation/"), "?t"),
                   (("strlen", "?t"), "?tl")],
            aggs=[("sum", "tl", "total_len"),
                  ("avg", "tl", "avg_len")]).to_pandas()
        # brewer(6) + baker(5) + clerk(5) = 16
        assert out["total_len"].tolist() == [16]
        assert out["avg_len"].tolist() == [16 / 3]

    def test_exists_semi_multiplicity_and_distinct(self):
        from rdf_extraction_ray.stages.sparql import run_sparql
        tr = self._triples()
        out = (run_sparql(tr, """SELECT * WHERE {
                   ?ev <died> ?p FILTER EXISTS { ?p <occ> ?w } }""")
               .to_pandas().sort_values("ev", ignore_index=True))
        # p1 has TWO occ witnesses: e1/e2 still appear exactly once;
        # p9 has none: e4 dropped
        assert out["ev"].tolist() == ["e1", "e2", "e3"]
        assert out["p"].tolist() == ["p1", "p1", "p2"]
        dis = run_sparql(tr, """SELECT DISTINCT ?p WHERE {
            ?ev <died> ?p FILTER EXISTS { ?p <occ> ?w } }""").to_pandas()
        assert sorted(dis["p"]) == ["p1", "p2"]

    def test_exists_requires_shared_var(self):
        import pytest

        from rdf_extraction_ray.stages.sparql import run_sparql
        with pytest.raises(ValueError, match="share no variable"):
            run_sparql(self._triples(), """SELECT * WHERE {
                ?ev <died> ?p FILTER EXISTS { ?x <occ> ?w } }""")


class TestCMSSketch:
    def _docs(self, texts):
        return rd.from_pandas(pd.DataFrame(
            {"doc_id": range(len(texts)), "text": texts}))

    def test_overestimates_and_exact_without_collision(self):
        from rdf_extraction_ray.stages.sketch import cms_token_counts
        docs = self._docs(["aa bb aa", "bb cc", "aa"])
        out = cms_token_counts(docs, ["aa", "bb", "cc", "zz"])
        est = dict(zip(out["token"], out["n_cms"]))
        exact = {"aa": 3, "bb": 2, "cc": 1, "zz": 0}
        # one-sided error: never under; tiny vocab in w=1024 cells
        # means no collision, so exact here
        for t, n in exact.items():
            assert est[t] == n, t

    def test_partition_invariant(self):
        from rdf_extraction_ray.stages.sketch import cms_token_counts
        texts = [f"tok{i % 7} tok{i % 3} filler" for i in range(50)]
        a = cms_token_counts(self._docs(texts).repartition(1),
                             ["tok0", "tok1", "filler"])
        b = cms_token_counts(self._docs(texts).repartition(8),
                             ["tok0", "tok1", "filler"])
        pd.testing.assert_frame_equal(a, b)

    def test_collision_overestimates_never_under(self):
        from rdf_extraction_ray.stages.sketch import cms_token_counts
        # tiny width forces collisions: estimates must be >= exact
        texts = [" ".join(f"w{i}" for i in range(40))] * 3
        probes = [f"w{i}" for i in range(40)]
        out = cms_token_counts(self._docs(texts), probes, d=2, w=8)
        assert (out["n_cms"] >= 3).all()

    def test_empty_corpus_and_empty_probes(self):
        from rdf_extraction_ray.stages.sketch import cms_token_counts
        out = cms_token_counts(self._docs([""]), ["x"])
        assert out["n_cms"].tolist() == [0]
        out = cms_token_counts(self._docs(["a b"]), [])
        assert len(out) == 0


class TestRankWindow:
    def test_matches_duckdb_windows_and_is_batch_invariant(self):
        import duckdb

        import __ray_entry__ as em
        df = pd.DataFrame({
            "event_id": range(10),
            "user_id": [1, 1, 1, 1, 1, 2, 2, 2, 3, 3],
            "ts": pd.to_datetime([
                "2024-01-01 00:00:00", "2024-01-01 00:01:00",
                "2024-01-01 00:02:00", "2024-01-01 00:03:00",
                "2024-01-01 00:04:00", "2024-01-01 00:00:30",
                "2024-01-01 00:01:30", "2024-01-01 00:02:30",
                "2024-01-01 00:03:30", "2024-01-01 00:04:30"]),
            "event_type": ["view", "view", "click", "purchase",
                           "click", "view", "view", "view",
                           "click", "view"]})
        import os
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            df.to_parquet(os.path.join(d, "events.parquet"))
            mine = (em.queries()["events_rank_window"](d).to_pandas()
                    .sort_values("event_id", ignore_index=True))
        ref = duckdb.sql("""
            SELECT event_id, user_id,
                   RANK() OVER (PARTITION BY user_id
                                ORDER BY event_type) AS rank_by_type,
                   DENSE_RANK() OVER (PARTITION BY user_id
                                      ORDER BY event_type)
                       AS dense_by_type,
                   ROW_NUMBER() OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS rn,
                   NTILE(4) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS quartile
            FROM df ORDER BY event_id
        """).df()
        for c in mine.columns:
            assert mine[c].astype("int64").tolist() == \
                ref[c].astype("int64").tolist(), c


class TestQ5BroadcastDualPath:
    def test_broadcast_and_hash_join_paths_agree(self, monkeypatch):
        import __ray_entry__ as em
        sf = "/root/testdata/sf0.001"
        fast = em.queries()["tpch_q5_local_supplier"](sf)
        monkeypatch.setattr(em, "_Q5_CUST_BROADCAST_CAP", 0)
        slow = em.queries()["tpch_q5_local_supplier"](sf)
        pd.testing.assert_frame_equal(fast, slow)


class TestGroupingSetsDriverFinish:
    def test_driver_and_distributed_paths_agree(self, monkeypatch):
        from rdf_extraction_ray.stages import rollup as rmod
        df = pd.DataFrame({
            "a": ["x", "x", "y", "y", "z"],
            "b": ["1", "2", "1", "1", "3"],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0]})
        ds = rd.from_pandas(df).repartition(3)
        fast = rmod.cube_sum(ds, ["a", "b"], ["v"])
        monkeypatch.setattr(rmod, "DRIVER_FINISH_CAP", 0)
        slow = rmod.cube_sum(rd.from_pandas(df).repartition(3),
                             ["a", "b"], ["v"])
        pd.testing.assert_frame_equal(fast, slow)


class TestSparqlUpdate:
    """DELETE/INSERT ... WHERE graph-store update (SPARQL 1.1 Update;
    mirrors the endpoint updates of cwrc/RDF-extraction
    Utils/utilities.py:446-490 as an in-engine transform)."""

    def _store(self, rows):
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    @staticmethod
    def _canon(ds):
        return (ds.to_pandas()
                .sort_values(["subj", "pred", "obj"],
                             ignore_index=True))

    def test_rename_predicate_delete_plus_insert(self):
        from rdf_extraction_ray.stages.graph import sparql_update
        tr = self._store([
            ("a", "old", "x"), ("b", "old", "y"), ("c", "keep", "z")])
        out = self._canon(sparql_update(
            tr, [("?p", "old", "?o")],
            delete=[("?p", "old", "?o")],
            insert=[("?p", "new", "?o"), ("?p", "mark", "migrated")]))
        exp = pd.DataFrame(
            [("a", "mark", "migrated"), ("a", "new", "x"),
             ("b", "mark", "migrated"), ("b", "new", "y"),
             ("c", "keep", "z")],
            columns=["subj", "pred", "obj"]).sort_values(
                ["subj", "pred", "obj"], ignore_index=True)
        pd.testing.assert_frame_equal(out, exp)

    def test_set_semantics_insert_existing_and_dup_store_rows(self):
        from rdf_extraction_ray.stages.graph import sparql_update
        # duplicate store rows collapse; inserting an existing triple
        # does not duplicate it
        tr = self._store([("a", "p", "x"), ("a", "p", "x"),
                          ("a", "q", "x")])
        out = self._canon(sparql_update(
            tr, [("?s", "p", "?o")], insert=[("?s", "q", "?o")]))
        exp = pd.DataFrame(
            [("a", "p", "x"), ("a", "q", "x")],
            columns=["subj", "pred", "obj"])
        pd.testing.assert_frame_equal(out, exp)

    def test_delete_only_with_join_where(self):
        from rdf_extraction_ray.stages.graph import sparql_update
        # retract cod ONLY for subjects that also have a birthplace
        tr = self._store([
            ("a", "cod", "fever"), ("a", "bp", "york"),
            ("b", "cod", "age"),                       # no bp: kept
            ("c", "bp", "leeds")])
        out = self._canon(sparql_update(
            tr, [("?p", "cod", "?c"), ("?p", "bp", "?b")],
            delete=[("?p", "cod", "?c")]))
        exp = pd.DataFrame(
            [("a", "bp", "york"), ("b", "cod", "age"),
             ("c", "bp", "leeds")],
            columns=["subj", "pred", "obj"])
        pd.testing.assert_frame_equal(out, exp)

    def test_unbound_optional_var_skips_that_template_only(self):
        from rdf_extraction_ray.stages.graph import sparql_update
        tr = self._store([
            ("a", "cod", "fever"), ("a", "bp", "york"),
            ("b", "cod", "age")])                      # no bp
        out = self._canon(sparql_update(
            tr, [("?p", "cod", "?c")],
            optional=[("?p", "bp", "?b")],
            insert=[("?p", "died", "yes"), ("?p", "diedat", "?b")]))
        # ?b unbound for b: only the diedat template is skipped
        assert ("b", "died", "yes") in set(map(tuple, out.to_numpy()))
        assert ("a", "diedat", "york") in set(map(tuple,
                                                  out.to_numpy()))
        assert not ((out["subj"] == "b")
                    & (out["pred"] == "diedat")).any()

    def test_delete_sees_original_store_and_insert_wins(self):
        from rdf_extraction_ray.stages.graph import sparql_update
        # deleting and re-inserting the SAME triple keeps it
        # ((store - del) UNION ins, per spec)
        tr = self._store([("a", "p", "x")])
        out = self._canon(sparql_update(
            tr, [("?s", "p", "?o")],
            delete=[("?s", "p", "?o")], insert=[("?s", "p", "?o")]))
        assert out.values.tolist() == [["a", "p", "x"]]

    def test_rejects_empty_and_ground_templates(self):
        import pytest

        from rdf_extraction_ray.stages.graph import sparql_update
        tr = self._store([("a", "p", "x")])
        with pytest.raises(ValueError):
            sparql_update(tr, [("?s", "p", "?o")])
        with pytest.raises(ValueError):
            sparql_update(tr, [("?s", "p", "?o")],
                          insert=[("g", "ground", "only")])


class TestEdit1Pairs:
    """Edit-distance-1 vocabulary self-join (FastSS deletion
    neighborhoods, exact at distance 1)."""

    @staticmethod
    def _docs(tokens_with_counts):
        rows = []
        for tok, n in tokens_with_counts:
            rows += [tok] * n
        return rd.from_pandas(pd.DataFrame(
            {"doc_id": range(len(rows)), "text": rows}))

    @staticmethod
    def _canon(ds):
        return sorted(map(tuple, ds.to_pandas()
                          [["tok_a", "tok_b"]].to_numpy()))

    def test_known_sub_and_indel_pairs(self):
        from rdf_extraction_ray.stages.editjoin import edit1_token_pairs
        docs = self._docs([
            ("hello", 3), ("hallo", 3), ("hell", 3), ("help", 3),
            ("world", 3), ("word", 3), ("wording", 3),
            ("helo", 1),   # below min_count: excluded
            ("he", 5),     # below min_len: excluded
        ])
        got = self._canon(edit1_token_pairs(docs))
        assert got == [("hallo", "hello"), ("hell", "hello"),
                       ("hell", "help"), ("word", "world")]

    def test_matches_bruteforce_levenshtein(self):
        import itertools
        import random

        from rdf_extraction_ray.stages.editjoin import edit1_token_pairs

        def lev(a, b):
            prev = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                cur = [i]
                for j, cb in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[-1] + 1,
                                   prev[j - 1] + (ca != cb)))
                prev = cur
            return prev[-1]

        rng = random.Random(7)
        vocab = {"".join(rng.choice("ab") for _ in
                         range(rng.randint(1, 6)))
                 for _ in range(120)}
        vocab = sorted(vocab)
        want = sorted((a, b) for a, b in
                      itertools.combinations(vocab, 2)
                      if lev(a, b) == 1)
        docs = self._docs([(t, 1) for t in vocab])
        got = self._canon(edit1_token_pairs(
            docs, min_count=1, min_len=1, max_len=6))
        assert got == want

    def test_no_pairs_is_typed_empty(self):
        from rdf_extraction_ray.stages.editjoin import edit1_token_pairs
        docs = self._docs([("alpha", 3), ("zzzzz", 3)])
        out = edit1_token_pairs(docs)
        assert out.count() == 0


class TestChunkWindows:
    def test_boundaries_and_edge_cases(self):
        from rdf_extraction_ray.stages.textstats import chunk_windows
        df = pd.DataFrame({
            "doc_id": [1, 2, 3, 4, 5],
            "text": ["w " * 10, "w " * 128, "w " * 129, "",
                     "w " * 321]})
        out = chunk_windows(df)
        by = {k: g for k, g in out.groupby("doc_id")}
        assert 4 not in by                       # empty doc: no chunks
        assert len(by[1]) == 1 and by[1]["tok_end"].tolist() == [10]
        assert len(by[2]) == 1                   # n == size: one chunk
        assert by[3][["tok_start", "tok_end"]].values.tolist() == [
            [0, 128], [96, 129]]                 # n = size+1: two
        # 321 tokens: ceil((321-128)/96)+1 = 4 chunks, last clamps
        assert by[5][["tok_start", "tok_end"]].values.tolist() == [
            [0, 128], [96, 224], [192, 320], [288, 321]]
        # every chunk stays inside its doc and covers > 0 tokens
        assert (out["tok_end"] > out["tok_start"]).all()
        assert (out["tok_end"] <= out["n_tokens"]).all()


class TestLocalTriangles:
    def _hash_of(self, names):
        from rdf_extraction_ray.stages.graph import _h15
        return dict(zip(names, _h15(pd.Series(list(names)))))

    def test_known_graph_counts_and_cc(self):
        from rdf_extraction_ray.stages.graph import local_triangle_counts
        # triangle a-b-c plus pendant c-d (+ dup edge and self-loop)
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"),
                 ("b", "a"), ("d", "d")]
        df = pd.DataFrame(edges, columns=["s", "d"])
        out = (local_triangle_counts(rd.from_pandas(df).repartition(3))
               .to_pandas())
        h = self._hash_of("abcd")
        by = out.set_index("h")
        assert len(out) == 3 and h["d"] not in by.index
        for n, deg in (("a", 2), ("b", 2), ("c", 3)):
            assert by.loc[h[n], "n_tri"] == 1
            assert by.loc[h[n], "degree"] == deg
            assert by.loc[h[n], "cc"] == 2.0 / (deg * (deg - 1))

    def test_paths_agree_and_totals_match_global(self):
        from rdf_extraction_ray.stages.graph import (
            local_triangle_counts, triangle_count)
        rng = np.random.default_rng(11)
        df = pd.DataFrame({"s": [f"n{i}" for i in
                                 rng.integers(0, 25, 220)],
                           "d": [f"n{i}" for i in
                                 rng.integers(0, 25, 220)]})
        a = (local_triangle_counts(rd.from_pandas(df).repartition(4))
             .to_pandas().sort_values("h", ignore_index=True))
        b = (local_triangle_counts(rd.from_pandas(df).repartition(4),
                                   broadcast_max_nodes=0)
             .to_pandas().sort_values("h", ignore_index=True))
        pd.testing.assert_frame_equal(a, b)
        total = triangle_count(rd.from_pandas(df).repartition(4))
        # every triangle credits exactly 3 corners
        assert a["n_tri"].sum() == 3 * int(total["n_triangles"].iloc[0])

    def test_empty_graph_is_typed_empty(self):
        from rdf_extraction_ray.stages.graph import local_triangle_counts
        df = pd.DataFrame({"s": pd.Series(dtype=object),
                           "d": pd.Series(dtype=object)})
        out = local_triangle_counts(rd.from_pandas(df))
        assert out.count() == 0
        assert out.schema().names == ["h", "n_tri", "degree", "cc"]


class TestAssortativity:
    @staticmethod
    def _expected(edges):
        from collections import Counter
        deg = Counter()
        und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
        for u, v in und:
            deg[u] += 1
            deg[v] += 1
        x, y = [], []
        for u, v in und:
            x += [deg[u], deg[v]]
            y += [deg[v], deg[u]]
        import numpy as np
        return float(np.corrcoef(x, y)[0, 1])

    def test_path_and_star_are_disassortative(self):
        from rdf_extraction_ray.stages.graph import degree_assortativity
        for edges in ([("a", "b"), ("b", "c")],
                      [("c", "l1"), ("c", "l2"), ("c", "l3")]):
            df = pd.DataFrame(edges, columns=["s", "d"])
            out = degree_assortativity(rd.from_pandas(df))
            assert out["assortativity"].iloc[0] == -1.0

    def test_regular_graph_degenerates_to_null(self):
        from rdf_extraction_ray.stages.graph import degree_assortativity
        df = pd.DataFrame([("a", "b"), ("b", "c"), ("c", "a")],
                          columns=["s", "d"])
        out = degree_assortativity(rd.from_pandas(df))
        assert pd.isna(out["assortativity"].iloc[0])

    def test_matches_corrcoef_and_paths_agree(self):
        from rdf_extraction_ray.stages.graph import degree_assortativity
        rng = np.random.default_rng(3)
        edges = [(f"n{a}", f"n{b}") for a, b in
                 zip(rng.integers(0, 40, 300),
                     rng.integers(0, 40, 300)) if a != b]
        df = pd.DataFrame(edges, columns=["s", "d"])
        a = degree_assortativity(rd.from_pandas(df).repartition(4))
        b = degree_assortativity(rd.from_pandas(df).repartition(4),
                                 broadcast_max_nodes=0)
        assert a[["s1", "s2", "s3", "n_edges"]].equals(
            b[["s1", "s2", "s3", "n_edges"]])
        got = a["assortativity"].iloc[0]
        want = self._expected(edges)
        assert abs(got - want) < 1e-12


class TestBigramLift:
    def test_known_collocations_and_determinism(self):
        from rdf_extraction_ray.stages.textstats import bigram_lift
        docs = rd.from_pandas(pd.DataFrame({
            "text": ["new york city is big",
                     "new york is in new york state",
                     "the city is big"] * 10}))
        out = bigram_lift(docs, k=5, min_count=5)
        # exact counts: 'the city' 10/10/20 -> lift 10*160/200 = 8
        top = out.iloc[0]
        assert (top["tok_a"], top["tok_b"]) == ("the", "city")
        assert (top["n_ab"], top["n_a"], top["n_b"]) == (10, 10, 20)
        assert top["lift"] == 8.0
        # min_count drops rare bigrams entirely
        rare = bigram_lift(docs, k=50, min_count=15)
        assert set(zip(rare["tok_a"], rare["tok_b"])) == {
            ("new", "york"), ("city", "is"), ("is", "big")}
        # repartitioned input gives identical output
        again = bigram_lift(docs.repartition(4), k=5, min_count=5)
        pd.testing.assert_frame_equal(out, again)


class TestNgramContainment:
    def test_subset_doc_caught_where_jaccard_misses(self):
        from rdf_extraction_ray.stages.dedup_docs import \
            ngram_jaccard_pairs
        base = " ".join(f"w{i}" for i in range(40))
        long = base + " " + " ".join(f"x{i}" for i in range(160))
        docs = rd.from_pandas(pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": [base, long, "entirely different words only"]}))
        cont = ngram_jaccard_pairs(docs, threshold=0.8,
                                   metric="containment").to_pandas()
        assert list(zip(cont["a"], cont["b"])) == [(1, 2)]
        # doc 1's grams are all inside doc 2 → containment exactly 1
        assert cont["containment"].iloc[0] == 1.0
        jac = ngram_jaccard_pairs(docs, threshold=0.8,
                                  metric="jaccard").to_pandas()
        assert len(jac) == 0  # union denominator dilutes the pair

    def test_unknown_metric_rejected(self):
        from rdf_extraction_ray.stages.dedup_docs import \
            ngram_jaccard_pairs
        docs = rd.from_pandas(pd.DataFrame({"doc_id": [1],
                                            "text": ["a b c d e"]}))
        with pytest.raises(ValueError):
            ngram_jaccard_pairs(docs, metric="dice")


class TestDsirWeights:
    def test_target_docs_score_higher_and_partition_invariant(self):
        from rdf_extraction_ray.stages.curate import dsir_weights
        tgt_text = "alpha beta gamma delta " * 10
        other_text = "omega sigma tau upsilon " * 10
        docs = pd.DataFrame({
            "doc_id": range(20),
            "lang": ["en"] * 10 + ["fr"] * 10,
            "text": [tgt_text] * 10 + [other_text] * 10})
        out = dsir_weights(rd.from_pandas(docs)).to_pandas() \
            .sort_values("doc_id", ignore_index=True)
        en = out.loc[out["doc_id"] < 10, "dsir_logweight"]
        fr = out.loc[out["doc_id"] >= 10, "dsir_logweight"]
        assert en.min() > fr.max()  # target-like docs upweighted
        again = dsir_weights(
            rd.from_pandas(docs).repartition(4)).to_pandas() \
            .sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(out, again)

    def test_empty_text_scores_zero(self):
        from rdf_extraction_ray.stages.curate import dsir_weights
        docs = pd.DataFrame({"doc_id": [0, 1],
                             "lang": ["en", "fr"],
                             "text": ["", "words here"]})
        out = dsir_weights(rd.from_pandas(docs)).to_pandas()
        assert out.loc[out["doc_id"] == 0,
                       "dsir_logweight"].iloc[0] == 0.0


class TestBigramLogprob:
    def test_coherent_beats_shuffled_and_partition_invariant(self):
        from rdf_extraction_ray.stages.textstats import bigram_logprob
        coherent = "the cat sat on the mat " * 20
        # same unigram bag, scrambled transitions
        shuffled = "cat the mat sat the on " * 20
        docs = pd.DataFrame({
            "doc_id": [0, 1] + list(range(2, 12)),
            "text": [coherent, shuffled] + [coherent] * 10})
        out = bigram_logprob(rd.from_pandas(docs)).to_pandas() \
            .sort_values("doc_id", ignore_index=True)
        assert (out.loc[out["doc_id"] == 0, "bigram_logprob"].iloc[0]
                > out.loc[out["doc_id"] == 1,
                          "bigram_logprob"].iloc[0])
        again = bigram_logprob(
            rd.from_pandas(docs).repartition(5)).to_pandas() \
            .sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(out, again)

    def test_short_docs_excluded(self):
        from rdf_extraction_ray.stages.textstats import bigram_logprob
        docs = pd.DataFrame({"doc_id": [0, 1, 2],
                             "text": ["oneword", "", "two words"]})
        out = bigram_logprob(rd.from_pandas(docs)).to_pandas()
        assert set(out["doc_id"]) == {2}
        assert out["n_bigrams"].iloc[0] == 1


class TestTokenEntropy:
    def test_repetitive_below_diverse_and_exact_uniform(self):
        from rdf_extraction_ray.stages.textstats import token_entropy
        docs = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": ["spam " * 64,                      # H = 0
                     " ".join(f"w{i}" for i in range(64)),  # ln(64)
                     "a a b b c c d d",                 # ln(4)
                     ""]})                              # excluded
        out = token_entropy(rd.from_pandas(docs)).to_pandas() \
            .sort_values("doc_id", ignore_index=True)
        assert set(out["doc_id"]) == {0, 1, 2}
        h = dict(zip(out["doc_id"], out["token_entropy"]))
        assert h[0] == 0.0
        assert abs(h[1] - np.log(64)) < 1e-5
        assert abs(h[2] - np.log(4)) < 1e-5
        assert h[0] < h[2] < h[1]


class TestEmbedLink:
    def test_variant_matches_and_unknown_rejected(self):
        from rdf_extraction_ray.stages.embedlink import embed_link_misses
        linked = pd.DataFrame({
            "term": ["Methodistt", "Zyxqvnape", "Methodistt", None, "ab"],
            "link_status": ["cf=miss", "cf=miss", "cf=fuzzy",
                            "cf=miss", "occ=miss"]})
        labels = {
            "http://v/methodist": "Methodist",
            "http://v/quaker": "Quaker"}
        out = embed_link_misses(rd.from_pandas(linked), labels,
                                threshold=0.6).to_pandas() \
            .sort_values("surface", ignore_index=True)
        # short + null surfaces excluded; duplicates collapsed
        assert list(out["surface"]) == ["Methodistt", "Zyxqvnape"]
        m = out.set_index("surface")
        assert m.loc["Methodistt", "best_uri"] == "http://v/methodist"
        assert m.loc["Methodistt", "matched"] == 1
        assert m.loc["Zyxqvnape", "matched"] == 0

    def test_linked_rows_ignored_and_partition_invariant(self):
        from rdf_extraction_ray.stages.embedlink import embed_link_misses
        linked = pd.DataFrame({
            "term": ["Methodist"] * 4 + ["Quakerr"] * 4,
            "link_status": ["cf=linked"] * 4 + ["cf=miss"] * 4})
        labels = {"http://v/quaker": "Quaker"}
        a = embed_link_misses(rd.from_pandas(linked), labels,
                              threshold=0.6).to_pandas()
        assert list(a["surface"]) == ["Quakerr"]
        b = embed_link_misses(rd.from_pandas(linked).repartition(4),
                              labels, threshold=0.6).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("surface", ignore_index=True),
            b.sort_values("surface", ignore_index=True))


class TestLinkPrediction:
    def test_matches_bruteforce_and_excludes_adjacent(self):
        import collections
        import itertools

        from rdf_extraction_ray.stages.graph import link_prediction
        rng = np.random.default_rng(1)
        edges = list({(f"n{a}", f"n{b}") for a, b in
                      zip(rng.integers(0, 60, 400),
                          rng.integers(0, 60, 400)) if a != b})
        df = pd.DataFrame(edges, columns=["s", "d"])
        got = link_prediction(rd.from_pandas(df).repartition(3),
                              k=10000, min_common=2, max_apex_deg=64)
        und = {tuple(sorted(e)) for e in edges}
        adj = collections.defaultdict(set)
        for a, b in und:
            adj[a].add(b)
            adj[b].add(a)
        cnt = collections.Counter()
        for u, ns in adj.items():
            if 2 <= len(ns) <= 64:
                for x, y in itertools.combinations(sorted(ns), 2):
                    cnt[(x, y)] += 1
        want = {k: c for k, c in cnt.items()
                if c >= 2 and k not in und}
        gm = {tuple(sorted([a, b])): c for a, b, c in
              zip(got["node_a"], got["node_b"], got["n_common"])}
        assert gm == want
        # no predicted pair is already an edge
        assert not (set(gm) & und)

    def test_hub_apexes_capped(self):
        from rdf_extraction_ray.stages.graph import link_prediction
        # star: hub adjacent to 30 leaves; hub degree 30 > cap 10 →
        # no leaf pair may be predicted through it
        edges = pd.DataFrame([("hub", f"leaf{i}") for i in range(30)],
                             columns=["s", "d"])
        out = link_prediction(rd.from_pandas(edges), k=100,
                              min_common=1, max_apex_deg=10)
        assert len(out) == 0


class TestMarketBasket:
    def test_pair_support_and_cap(self):
        import __ray_entry__ as E
        out = E.queries()["market_basket_pairs"](
            "/root/testdata/sf0.001")
        assert (out["n_orders"] >= 2).all()
        assert (out["part_a"] < out["part_b"]).all()
        # descending support, deterministic order
        assert list(out["n_orders"]) == \
            sorted(out["n_orders"], reverse=True)


class TestTurnsRoleToolStats:
    def test_totals_match_corpus(self):
        import pyarrow.parquet as pq

        import __ray_entry__ as E
        out = E.queries()["turns_role_tool_stats"](
            "/root/testdata/sf0.001")
        tp = E._turns_path("/root/testdata/sf0.001")
        import glob
        n = sum(pq.read_metadata(f).num_rows
                for f in glob.glob(tp + "/*.parquet"))
        assert out["n_turns"].sum() == n
        assert (out["n_convs"] > 0).all()


class TestHits:
    def test_paths_agree_and_match_reference_recurrence(self):
        from rdf_extraction_ray.stages.graph import hits_int
        rng = np.random.default_rng(2)
        edges = list({(f"n{a}", f"n{b}") for a, b in
                      zip(rng.integers(0, 40, 200),
                          rng.integers(0, 40, 200)) if a != b})
        df = pd.DataFrame(edges, columns=["s", "d"])
        a = hits_int(rd.from_pandas(df).repartition(3)).to_pandas() \
            .sort_values("node", ignore_index=True)
        b = hits_int(rd.from_pandas(df).repartition(3),
                     broadcast_max_nodes=0).to_pandas() \
            .sort_values("node", ignore_index=True)
        pd.testing.assert_frame_equal(a, b)
        nodes = sorted({x for e in edges for x in e})
        idx = {n: i for i, n in enumerate(nodes)}
        E = [(idx[s], idx[d]) for s, d in edges]
        S = 10**6
        h = np.full(len(nodes), S, dtype=object)
        au = np.zeros(len(nodes), dtype=object)
        for _ in range(2):
            raw = np.zeros(len(nodes), dtype=object)
            for s, d in E:
                raw[d] += h[s]
            m = raw.max()
            au = raw * S // m if m > 0 else raw
            raw = np.zeros(len(nodes), dtype=object)
            for s, d in E:
                raw[s] += au[d]
            m = raw.max()
            h = raw * S // m if m > 0 else raw
        want = pd.DataFrame({"node": nodes,
                             "hub": h.astype("int64"),
                             "authority": au.astype("int64")})
        pd.testing.assert_frame_equal(a, want)

    def test_hub_authority_separation(self):
        from rdf_extraction_ray.stages.graph import hits_int
        # pure hub h0 points at 3 pure authorities
        df = pd.DataFrame([("h0", f"a{i}") for i in range(3)],
                          columns=["s", "d"])
        out = hits_int(rd.from_pandas(df)).to_pandas() \
            .set_index("node")
        assert out.loc["h0", "hub"] == 10**6
        assert out.loc["h0", "authority"] == 0
        assert (out.loc[[f"a{i}" for i in range(3)],
                        "authority"] == 10**6).all()
        assert (out.loc[[f"a{i}" for i in range(3)],
                        "hub"] == 0).all()


class TestRandomWalks:
    def test_matches_hash_coin_reference(self):
        import hashlib

        from rdf_extraction_ray.stages.graph import random_walks
        rng = np.random.default_rng(3)
        edges = list({(f"n{a}", f"n{b}") for a, b in
                      zip(rng.integers(0, 20, 80),
                          rng.integers(0, 20, 80)) if a != b})
        df = pd.DataFrame(edges, columns=["s", "d"])
        got = random_walks(rd.from_pandas(df).repartition(3),
                           n_steps=3).to_pandas() \
            .sort_values(["start", "step"], ignore_index=True)

        def h15s(s):
            return int(hashlib.md5(s.encode()).hexdigest()[:15], 16)

        hv = {n: h15s(n) for n in {x for e in edges for x in e}}
        adj: dict = {}
        for s, d in edges:
            adj.setdefault(hv[s], []).append(hv[d])
        for kk in adj:
            adj[kk] = sorted(set(adj[kk]))
        inv = {v: n for n, v in hv.items()}
        rows = []
        for n, h in sorted(hv.items()):
            cur = h
            rows.append((n, 0, inv[cur]))
            for t in range(1, 4):
                ns = adj.get(cur)
                if not ns:
                    break
                cur = ns[h15s(f"{cur}|{t}") % len(ns)]
                rows.append((n, t, inv[cur]))
        want = pd.DataFrame(rows, columns=["start", "step", "node"]) \
            .sort_values(["start", "step"], ignore_index=True)
        pd.testing.assert_frame_equal(got, want)
        # exchange path computes the identical walk set
        ex = random_walks(rd.from_pandas(df).repartition(3),
                          n_steps=3, broadcast_max_nodes=0) \
            .to_pandas().sort_values(["start", "step"],
                                     ignore_index=True)
        pd.testing.assert_frame_equal(ex, want)

    def test_dead_ends_stop(self):
        from rdf_extraction_ray.stages.graph import random_walks
        df = pd.DataFrame([("a", "b")], columns=["s", "d"])
        out = random_walks(rd.from_pandas(df), n_steps=3).to_pandas()
        # walk from a: a → b, stops (b has no out-edges); from b: stops
        assert len(out[out["start"] == "a"]) == 2
        assert len(out[out["start"] == "b"]) == 1


class TestSurfaceClusters:
    def test_variants_merge_unrelated_stay_apart(self):
        from rdf_extraction_ray.stages.embedlink import surface_clusters
        linked = pd.DataFrame({
            "person": ["Ida Abernathy", "I. Abernathy", "Ida Abernathy",
                       "Horace Quimby", None],
            "other": [None, None, "Zebulon Frost", None,
                      "Ida Abernathy"]})
        out = surface_clusters(rd.from_pandas(linked), threshold=0.7)
        m = dict(zip(out["surface"], out["canonical"]))
        # 'I. Abernathy' clusters with 'Ida Abernathy' (shared word +
        # trigram cosine 0.86); canonical is the lexicographic min
        assert m.get("Ida Abernathy") == m.get("I. Abernathy") \
            == "I. Abernathy"
        # unrelated names form no cluster rows
        assert "Horace Quimby" not in m and "Zebulon Frost" not in m

    def test_empty_and_partition_invariant(self):
        from rdf_extraction_ray.stages.embedlink import surface_clusters
        linked = pd.DataFrame({"person": [None], "other": [None]})
        out = surface_clusters(rd.from_pandas(linked))
        assert len(out) == 0
        linked2 = pd.DataFrame({
            "person": ["Ada Byron", "A. Byron"] * 6,
            "other": [None] * 12})
        a = surface_clusters(rd.from_pandas(linked2))
        b = surface_clusters(rd.from_pandas(linked2).repartition(4))
        pd.testing.assert_frame_equal(a, b)


class TestGreedyPairs:
    """events_greedy_pairs' prefix-deficit closed form equals literal
    greedy view→purchase consumption."""

    @staticmethod
    def _reference(seq):
        open_views, pairs = 0, 0
        for e in seq:
            if e == "view":
                open_views += 1
            elif e == "purchase" and open_views:
                open_views -= 1
                pairs += 1
        return pairs

    def test_matches_literal_greedy(self):
        import __ray_entry__ as E
        rng = np.random.default_rng(13)
        rows = []
        seqs = {}
        eid = 0
        for uid in range(20):
            seq = list(rng.choice(
                ["view", "purchase", "click"], rng.integers(1, 15)))
            seqs[uid] = [e for e in seq if e != "click"]
            for k, e in enumerate(seq):
                rows.append((eid, uid,
                             pd.Timestamp("2024-01-01")
                             + pd.Timedelta(seconds=k), e, 1.0))
                eid += 1
        df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts",
                                         "event_type", "value"])
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            df.to_parquet(os.path.join(d, "events.parquet"))
            out = E._q_events_greedy_pairs(d)
        got = dict(zip(out["user_id"], out["n_pairs"]))
        want = {u: self._reference(s) for u, s in seqs.items()
                if self._reference(s) > 0}
        assert got == want


class TestCDCChunks:
    """Content-defined chunking: exact vs a per-character reference,
    and the CDC property itself — an edit shifts only the chunks it
    touches, interior chunk hashes stay aligned."""

    @staticmethod
    def _naive(doc_id, s):
        import hashlib

        from rdf_extraction_ray.stages.textstats import (CDC_BASE,
                                                         CDC_MASK,
                                                         CDC_MOD,
                                                         CDC_WINDOW)
        n = len(s)
        if n == 0:
            return []
        ends = []
        if n >= CDC_WINDOW:
            for p in range(CDC_WINDOW - 1, n):
                h = 0
                for i in range(CDC_WINDOW):
                    h = (h + ord(s[p - i])
                         * pow(CDC_BASE, i, CDC_MOD)) % CDC_MOD
                if h % CDC_MASK == 0:
                    ends.append(p + 1)
        if not ends or ends[-1] != n:
            ends.append(n)
        rows, start = [], 0
        for cid, e in enumerate(ends):
            rows.append((doc_id, cid, start, e, e - start,
                         hashlib.md5(s[start:e].encode()).hexdigest()))
            start = e
        return rows

    def test_matches_reference_incl_unicode(self):
        import random

        from rdf_extraction_ray.stages.textstats import cdc_chunks
        rng = random.Random(3)
        docs = [(i, "".join(rng.choice("abcdefgh ijklmnopé中")
                            for _ in range(rng.randint(0, 700))))
                for i in range(10)]
        got = list(map(tuple, cdc_chunks(pd.DataFrame(
            docs, columns=["doc_id", "text"])).to_numpy()))
        want = [r for d, s in docs for r in self._naive(d, s)]
        assert got == want

    def test_edit_stability_interior_chunks_survive(self):
        import random

        from rdf_extraction_ray.stages.textstats import cdc_chunks
        rng = random.Random(11)
        body = "".join(rng.choice("abcdefghij klmnop")
                       for _ in range(2000))
        edited = "INSERTED PREFIX " + body
        out = cdc_chunks(pd.DataFrame(
            {"doc_id": [0, 1], "text": [body, edited]}))
        a = set(out.loc[out["doc_id"] == 0, "chunk_md5"])
        b = set(out.loc[out["doc_id"] == 1, "chunk_md5"])
        shared = len(a & b) / max(1, len(a))
        # the insertion perturbs only the first chunk region; the
        # rolling hash re-synchronizes at the next content boundary
        assert shared > 0.8
        # a byte-offset chunker would share ~nothing: check the
        # aligned chunks really are interior content
        assert len(a) > 10

    def test_dup_census_combiner_matches_single_pass(self):
        import ray.data as rd

        from rdf_extraction_ray.stages.textstats import (cdc_chunks,
                                                         cdc_dup_chunks)
        import random
        rng = random.Random(5)
        para = "".join(rng.choice("qwerty uiop")
                       for _ in range(500))
        docs = pd.DataFrame({
            "doc_id": range(4),
            "text": [para + " tail one", "prefix " + para,
                     "unrelated " + "".join(
                         rng.choice("zxcvb nm") for _ in range(400)),
                     para + " tail one"]})
        # distributed census over 2-row batches == single-pass truth
        got = (cdc_dup_chunks(rd.from_pandas(docs).repartition(2))
               .to_pandas().sort_values("chunk_md5",
                                        ignore_index=True))
        ch = cdc_chunks(docs)
        g = (ch.groupby("chunk_md5")
             .agg(n_occ=("doc_id", "size"),
                  n_docs=("doc_id", "nunique")).reset_index())
        want = g[g["n_occ"] >= 2].sort_values(
            "chunk_md5", ignore_index=True)
        pd.testing.assert_frame_equal(
            got[["chunk_md5", "n_occ", "n_docs"]],
            want[["chunk_md5", "n_occ", "n_docs"]])
        assert (got["n_occ"] >= 2).all() and len(got) > 0

    def test_dup_census_distinct_docs_exact_across_batches(self):
        """ADVICE r4: duplicate doc_id rows split across batches must
        not over-count n_docs — the bucket body counts distinct doc
        ids through the exchange, matching a global
        COUNT(DISTINCT doc_id)."""
        import ray.data as rd

        from rdf_extraction_ray.stages.textstats import cdc_dup_chunks
        text = "the same duplicated payload " * 8
        # doc 7 occupies TWO input rows; repartition(4) forces them
        # into different batches
        docs = pd.DataFrame({"doc_id": [7, 7, 8, 9],
                             "text": [text, text, text, "solo row"]})
        got = (cdc_dup_chunks(rd.from_pandas(docs).repartition(4))
               .to_pandas())
        assert len(got) > 0
        # three rows share the text but only 3 DISTINCT docs (7,7,8,9
        # → {7,8,9} minus the solo) — per-batch partial summing would
        # report 3 occurrences of doc 7's chunk across 2 batches as
        # n_docs=2 for doc 7 alone, i.e. 3 total
        row = got[got["n_occ"] == 3]
        assert len(row) >= 1
        assert (row["n_docs"] == 2).all()  # docs {7, 8}, not 3

"""Resume-from-manifest tests (north_rule: resumable mid-pipeline with
per-partition lineage + metrics)."""

import json
import os

from rdf_extraction_ray import synth
from rdf_extraction_ray.pipelines.manifest import (
    MANIFEST_NAME,
    read_output,
    run_sharded,
)

TKEY = ["subj", "pred", "obj", "obj_kind", "obj_lang", "obj_datatype"]


def _triple_set(out_dir):
    df = read_output(out_dir).to_pandas()
    return set(map(tuple, df[TKEY].fillna("").itertuples(index=False)))


class TestResume:
    def test_partial_run_then_resume_equals_clean_run(self, tmp_path):
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 60, seed=9)

        # clean run
        clean_dir = str(tmp_path / "clean")
        run_sharded(turns_dir, clean_dir, n_shards=4)
        clean = _triple_set(clean_dir)

        # simulated failure: only shards 0-1 complete
        resumed_dir = str(tmp_path / "resumed")
        run_sharded(turns_dir, resumed_dir, n_shards=4, shards=[0, 1])
        done = {d for d in os.listdir(resumed_dir) if d.startswith("shard=")}
        assert done == {"shard=0", "shard=1"}

        # resume: finished shards are skipped, the rest run
        summary = run_sharded(turns_dir, resumed_dir, n_shards=4)
        assert summary[0]["skipped"] and summary[1]["skipped"]
        assert not summary[2]["skipped"] and not summary[3]["skipped"]
        assert _triple_set(resumed_dir) == clean

    def test_manifest_lineage_counters(self, tmp_path):
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 40, seed=4)
        out = str(tmp_path / "out")
        summary = run_sharded(turns_dir, out, n_shards=2)
        for s, m in summary.items():
            with open(os.path.join(out, f"shard={s}", MANIFEST_NAME)) as f:
                on_disk = json.load(f)
            assert on_disk["triples_out"] > 0
            assert on_disk["facts_detected"] > 0
            assert on_disk["input_fingerprint"]
            hist = on_disk["link_status_histogram"]
            assert hist.get("person=linked", 0) > 0  # miss counters live here

    def test_changed_input_invalidates_manifest(self, tmp_path):
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 20, seed=6)
        out = str(tmp_path / "out")
        run_sharded(turns_dir, out, n_shards=2)
        # regenerate with different content → fingerprint changes
        synth.write_turns(str(tmp_path / "turns"), 25, seed=6)
        summary = run_sharded(turns_dir, out, n_shards=2)
        assert all(not m["skipped"] for m in summary.values())

    def test_empty_shards_complete_and_resume(self, tmp_path):
        """A selection leaving most shards EMPTY must still complete
        every shard (hive-partitioned prepartition creates no dir for
        an empty shard) and resume as all-skipped."""
        import pyarrow.parquet as pq
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 3, seed=2)
        # keep only one conversation → with 8 shards most are empty
        t = pq.read_table(os.path.join(turns_dir, "turns-0000.parquet"))
        keep = t.filter(
            __import__("pyarrow.compute", fromlist=["equal"]).equal(
                t.column("conv_id"), "conv0000000"))
        one = str(tmp_path / "one")
        os.makedirs(one)
        pq.write_table(keep, os.path.join(one, "turns.parquet"))
        out = str(tmp_path / "out")
        summary = run_sharded(one, out, n_shards=8)
        assert len(summary) == 8
        assert sum(m["triples_out"] for m in summary.values()) > 0
        assert sum(m["triples_out"] == 0 for m in summary.values()) >= 6
        summary2 = run_sharded(one, out, n_shards=8)
        assert all(m["skipped"] for m in summary2.values())

    def test_one_lost_shard_resumes_without_repartition(self, tmp_path):
        """Losing one shard after a full run reruns it from the
        filtered input: no ``_input`` copy of the corpus is written,
        the finished shards' files are untouched, and the rerun shard
        has the same turn count and the same rows as the fresh one."""
        import shutil

        import pandas as pd

        turns_dir = synth.write_turns(str(tmp_path / "turns"), 60, seed=9)
        out = str(tmp_path / "out")
        fresh = run_sharded(turns_dir, out, n_shards=3)
        assert not os.path.exists(os.path.join(out, "_input"))
        lost = os.path.join(out, "shard=1")
        before = pd.read_parquet(lost)
        shutil.rmtree(lost)
        kept = _file_stats(out, [0, 2])

        resumed = run_sharded(turns_dir, out, n_shards=3)
        assert not os.path.exists(os.path.join(out, "_input"))
        assert _file_stats(out, [0, 2]) == kept
        assert [s for s, m in resumed.items() if not m["skipped"]] == [1]
        for k in ("turns_in", "facts_linked", "triples_out",
                  "link_status_histogram"):
            assert resumed[1][k] == fresh[1][k], k
        after = pd.read_parquet(lost)
        assert len(before) > 0

        def rows(df):
            return df.fillna("").sort_values(list(df.columns),
                                             ignore_index=True)
        pd.testing.assert_frame_equal(rows(after), rows(before))

    def test_facts_detected_counts_candidates(self, tmp_path):
        """``facts_detected`` is the shard's candidate-fact count (the
        mentions): at least ``facts_linked``, and summed over shards
        equal to ``detect_facts``' rows for the corpus."""
        import pyarrow.parquet as pq

        from rdf_extraction_ray.stages.extract import detect_facts
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 60, seed=9)
        summary = run_sharded(turns_dir, str(tmp_path / "out"), n_shards=3)
        for m in summary.values():
            assert m["facts_detected"] >= m["facts_linked"] > 0
        assert sum(m["facts_detected"] for m in summary.values()) == \
            detect_facts(pq.read_table(turns_dir)).num_rows


class TestOnePlan:
    """Every pending shard runs in one plan, whatever the route."""

    def test_ray_executions_per_run(self, tmp_path, monkeypatch):
        """A fresh 3-shard run makes 2 Ray Data executions (the
        candidate materialize and the write), and so does a one-shard
        resume; one plan per shard made 13 and 5."""
        import shutil

        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor
        runs = []
        execute = StreamingExecutor.execute

        def counted(self, *args, **kwargs):
            runs.append(1)
            return execute(self, *args, **kwargs)

        turns_dir = synth.write_turns(str(tmp_path / "turns"), 60, seed=9)
        out = str(tmp_path / "out")
        monkeypatch.setattr(StreamingExecutor, "execute", counted)
        run_sharded(turns_dir, out, n_shards=3)
        fresh = len(runs)
        shutil.rmtree(os.path.join(out, "shard=1"))
        run_sharded(turns_dir, out, n_shards=3)
        monkeypatch.setattr(StreamingExecutor, "execute", execute)
        assert (fresh, len(runs) - fresh) == (2, 2)

    def test_salted_and_actor_pool_routes_match_default(self, tmp_path,
                                                        monkeypatch):
        """The actor-pool linker and the salted route (forced by a low
        threshold) give the default run's per-shard rows and
        manifests."""
        from rdf_extraction_ray.pipelines import kg as KG
        from rdf_extraction_ray.pipelines import manifest as M
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 40, seed=4)
        run_sharded(turns_dir, str(tmp_path / "default"), n_shards=3)
        want = _shards(str(tmp_path / "default"), 3)
        run_sharded(turns_dir, str(tmp_path / "actor"), n_shards=3,
                    linker_concurrency=1)
        _assert_same_shards(_shards(str(tmp_path / "actor"), 3), want)
        routed = []
        route = KG._route_candidates

        def spy(*args, **kwargs):
            cands, needs = route(*args, **kwargs)
            routed.append(needs)
            return cands, needs

        monkeypatch.setattr(M, "AUTO_SALT_FACTS", 1)
        monkeypatch.setattr(KG, "_route_candidates", spy)
        run_sharded(turns_dir, str(tmp_path / "salted"), n_shards=3)
        assert routed == [True]
        _assert_same_shards(_shards(str(tmp_path / "salted"), 3), want)

    def test_crash_while_publishing_then_resume(self, tmp_path,
                                                monkeypatch):
        """Publishing fails after shard 0: shard 0 stays published,
        the leftover staging dir is read neither by ``read_output``
        nor by the CLI, and a rerun equals a clean run."""
        import glob

        import pytest

        from rdf_extraction_ray.__main__ import _read_triples
        from rdf_extraction_ray.pipelines import manifest as M
        turns_dir = synth.write_turns(str(tmp_path / "turns"), 40, seed=4)
        clean = str(tmp_path / "clean")
        run_sharded(turns_dir, clean, n_shards=3)
        out = str(tmp_path / "out")
        publish = M._run_one_shard

        def crash_after_0(data_dir, out_dir, s, *args):
            if s > 0:
                raise RuntimeError("publish failed")
            return publish(data_dir, out_dir, s, *args)

        monkeypatch.setattr(M, "_run_one_shard", crash_after_0)
        with pytest.raises(RuntimeError, match="publish failed"):
            run_sharded(turns_dir, out, n_shards=3)
        monkeypatch.setattr(M, "_run_one_shard", publish)
        assert glob.glob(os.path.join(out, "_run.tmp.*", "**", "*.parquet"),
                         recursive=True)
        assert sorted(d for d in os.listdir(out)
                      if d.startswith("shard=")) == ["shard=0"]
        shard0 = _shards(clean, 3)[0][0]
        assert read_output(out).count() == len(shard0)
        assert _read_triples(out).count() == len(shard0)

        summary = run_sharded(turns_dir, out, n_shards=3)
        assert [s for s, m in summary.items() if not m["skipped"]] == [1, 2]
        assert not glob.glob(os.path.join(out, "_run.tmp.*"))
        _assert_same_shards(_shards(out, 3), _shards(clean, 3))
        assert _triple_set(out) == _triple_set(clean)


def _file_stats(out_dir, shards):
    """{path: mtime} of the files of ``shards`` under ``out_dir``."""
    return {p: os.stat(p).st_mtime_ns for s in shards
            for d in [os.path.join(out_dir, f"shard={s}")]
            for p in (os.path.join(d, f) for f in os.listdir(d))}


def _shards(out_dir, n_shards):
    """Per shard: its rows (sorted) and its manifest, minus the
    fields that say how the run went rather than what it made."""
    import pandas as pd
    got = {}
    for s in range(n_shards):
        d = os.path.join(out_dir, f"shard={s}")
        with open(os.path.join(d, MANIFEST_NAME)) as f:
            m = json.load(f)
        m.pop("skipped")
        df = pd.read_parquet(d)
        got[s] = (df.fillna("").sort_values(list(df.columns),
                                            ignore_index=True), m)
    return got


def _assert_same_shards(got, want):
    import pandas as pd
    assert got.keys() == want.keys()
    for s in want:
        pd.testing.assert_frame_equal(got[s][0], want[s][0])
        assert got[s][1] == want[s][1], s


def _cli(argv: list[str]) -> dict:
    """Run the CLI in this process; its last stdout line as JSON. The
    session's shuffle strategy (which the CLI sets) is restored."""
    import contextlib
    import io

    from ray.data import DataContext

    from rdf_extraction_ray.__main__ import main
    ctx = DataContext.get_current()
    strategy = ctx.shuffle_strategy
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
    finally:
        ctx.shuffle_strategy = strategy
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def test_cli_sparql_reads_sharded_run_as_one_graph(tmp_path):
    """``sparql`` over a 4-shard ``run`` directory counts each distinct
    triple once, as over the single-pass output (a plain parquet read
    would count every cross-shard duplicate entity triple)."""
    import pandas as pd

    from rdf_extraction_ray.pipelines.kg import kg_pipeline
    turns_dir = synth.write_turns(str(tmp_path / "turns"), 60, seed=9)
    sharded = str(tmp_path / "sharded")
    summary = _cli(["run", "--input", turns_dir, "--out", sharded,
                    "--shards", "4"])
    single = str(tmp_path / "single")
    n_single = kg_pipeline(turns_dir, out_dir=single).count()
    # shards share entity triples, so the per-shard sum overcounts
    assert summary["triples_out_per_shard_sum"] > n_single
    assert summary["turns_in"] == pd.read_parquet(turns_dir).shape[0]
    assert summary["facts_detected"] >= summary["facts_linked"] > 0
    assert summary["wall_s"] > 0
    query = ("SELECT ?o (COUNT(*) AS ?n) WHERE { ?s "
             "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?o } "
             "GROUP BY ?o")

    def counts(triples_dir, name):
        res = str(tmp_path / name)
        _cli(["sparql", "--triples", triples_dir, "--query", query,
              "--out", res])
        df = pd.read_parquet(res)
        return dict(zip(df["o"], df["n"]))

    want = counts(single, "single_counts")
    assert len(want) > 3
    assert counts(sharded, "sharded_counts") == want


def test_cli_curate_end_to_end(tmp_path):
    """CLI curate: quality gate + exact dedup + sharded write."""
    import json as _json
    import os

    import pandas as pd

    from rdf_extraction_ray.__main__ import main
    long = ("a reasonably long sentence with plenty of words in it "
            "for the quality gate to accept without any complaint")
    df = pd.DataFrame({
        "doc_id": range(6),
        "text": [long, long, long + " tail", "short", long + " tail",
                 long + " other"],
    })
    inp = str(tmp_path / "docs.parquet")
    df.to_parquet(inp)
    out = str(tmp_path / "shards")
    import contextlib, io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["curate", "--input", inp, "--out", out,
                   "--shards", "2"])
    assert rc == 0
    stats = _json.loads(buf.getvalue().strip().splitlines()[-1])
    # 6 in; "short" fails quality; dups of `long` and `long tail`
    # collapse to min id → survivors {0, 2, 5}
    assert stats["docs_in"] == 6 and stats["docs_out"] == 3
    got = pd.read_parquet(out)
    assert sorted(got["doc_id"]) == [0, 2, 5]
    assert {d for d in os.listdir(out) if d.startswith("shard=")}


def test_cli_report_runs_the_report_once(tmp_path, monkeypatch):
    """``report`` executes the report plan once, not once for its
    schema, once for its row count and once for its head."""
    import contextlib
    import io
    import uuid

    import pandas as pd
    import ray.data as rd
    from ray.data import DataContext

    from rdf_extraction_ray.__main__ import main
    from rdf_extraction_ray.pipelines import reports
    calls = tmp_path / "calls"
    calls.mkdir()

    def body(df):
        (calls / uuid.uuid4().hex).touch()
        return df

    census = pd.DataFrame({"title_norm": list("abcde"),
                           "n": [3, 5, 1, 5, 2],
                           "convs": ["c1"] * 5})
    monkeypatch.setattr(reports, "title_census", lambda facts: (
        rd.from_pandas(census).map_batches(body, batch_format="pandas",
                                           batch_size=None)))
    turns_dir = synth.write_turns(str(tmp_path / "turns"), 5, seed=9)
    ctx = DataContext.get_current()
    strategy = ctx.shuffle_strategy
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            assert main(["report", "--input", turns_dir, "--kind",
                         "titles", "--head", "2"]) == 0
    finally:
        ctx.shuffle_strategy = strategy
    assert len(list(calls.iterdir())) == 1
    lines = buf.getvalue().splitlines()
    assert lines[1].split()[:2] == ["b", "5"]
    assert lines[2].split()[:2] == ["d", "5"]
    assert lines[3].startswith("... 3 more rows")

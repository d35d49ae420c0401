"""Self-test of the benchmark: each output check fails on a deliberately
corrupted output, and the Ray operator names the traced run maps onto
layers are pinned.

    python3 -m pytest kgperf/tests -q
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pytest

from kgperf import checks, queries, trace

CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small corpus, its fixture maps and its replayed triples."""
    import pyarrow.parquet as pq

    from rdf_extraction_ray import synth
    root = tmp_path_factory.mktemp("corpus")
    turns, planted = synth.generate(150, seed=5)
    turns_dir = root / "turns"
    turns_dir.mkdir()
    pq.write_table(turns, turns_dir / "turns-0000.parquet")
    maps_dir = checks.write_fixture_maps(str(root / "maps"))
    want = checks.replay_triples(str(turns_dir), maps_dir)
    graph_dir = root / "graph"
    graph_dir.mkdir()
    want.to_parquet(graph_dir / "part.parquet")
    return {"want": want, "planted": planted.to_pandas(),
            "graph": str(graph_dir)}


def test_replay_is_not_empty(corpus):
    assert len(corpus["want"]) > 500


def test_triples_check_passes_on_equal_output(corpus):
    want = corpus["want"]
    checks.check_triples(want.sample(frac=1, random_state=1), want, "t")


def test_triples_check_catches_dropped_triple(corpus):
    want = corpus["want"]
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_triples(want.drop(want.index[7]), want, "t")


def test_triples_check_catches_changed_provenance(corpus):
    want = corpus["want"]
    got = want.copy()
    got.loc[got.index[3], "turn_idx"] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_triples(got, want, "t")


def test_triples_check_catches_repeated_key(corpus):
    want = corpus["want"]
    got = pd.concat([want, want.iloc[[0]].assign(turn_idx=999)])
    with pytest.raises(checks.CheckFailed, match="repeat a triple key"):
        checks.check_triples(got, want, "t")


def test_ntriples_check_against_program_formatter(corpus):
    """The DuckDB rendering agrees with the program's formatter, and the
    check catches one altered line."""
    from rdf_extraction_ray.stages.serialize import format_ntriples
    want = corpus["want"]
    lines = format_ntriples(want)["line"].tolist()
    rendered = checks.render_ntriples(want)
    checks.check_ntriples(lines, rendered, "nt")
    lines[5] = lines[5].replace("> <", "> <x", 1)
    with pytest.raises(checks.CheckFailed, match="lines differ"):
        checks.check_ntriples(lines, rendered, "nt")


@pytest.mark.parametrize("form", [f for f, *_ in queries.MIX])
def test_sparql_check_catches_changed_row(corpus, form):
    sql = dict((f, q) for f, _, _, q in queries.MIX)[form]
    want = checks.sql_frame(
        sql.replace("{triples}", checks.parquet_glob(corpus["graph"])))
    assert len(want), f"{form} returns no rows on the test corpus"
    checks.check_frames(want.iloc[::-1], want, form)
    got = want.astype(str)
    got.iloc[0, 0] = got.iloc[0, 0] + "x"
    with pytest.raises(checks.CheckFailed):
        checks.check_frames(got, want, form)


def test_extraction_check_catches_lost_facts(corpus):
    planted = corpus["planted"]
    assert checks.check_extraction(planted, planted) == (1.0, 1.0)
    with pytest.raises(checks.CheckFailed, match="P/R"):
        checks.check_extraction(planted.iloc[: len(planted) * 9 // 10],
                                planted)


def test_benchmark_json_lists_the_reported_metrics():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "kgperf_run", os.path.join(CHECKOUT, "kgperf", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    with open(os.path.join(CHECKOUT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == run.per_layer_metrics()


def test_ray_operator_names_are_pinned():
    """A real fused build runs exactly the operators the traced run maps
    onto layers, and the layers add up to the build's wall time."""
    import time

    from rdf_extraction_ray.pipelines import kg
    from kgperf.session import RunDir, Session
    from kgperf.workloads import BuildWorkload

    run_dir = RunDir(CHECKOUT)
    try:
        with Session(CHECKOUT, run_dir, cpus=1, time_limit_s=170):
            wl = BuildWorkload(run_dir, seed=3, traced=False)
            wl.make_corpus()
            t0 = time.perf_counter()
            ds = kg.triples_from_turns(kg.read_turns(wl.turns_dir))
            ds.write_parquet(run_dir.sub("out"))
            wall = time.perf_counter() - t0
            names = {name for name, _ in trace.plan_operators(ds)}
            layers = trace.ray_layers(ds, wall)
    finally:
        run_dir.remove()
    assert names == set(trace.OPERATOR_LAYERS)
    walls = sum(v for k, v in layers.items() if k.endswith(".wall_s"))
    assert walls + layers["ray.unattributed_s"] == pytest.approx(wall)
    assert 0 <= layers["ray.unattributed_s"] < wall

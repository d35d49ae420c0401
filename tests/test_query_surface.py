"""Whole-surface smoke: every `queries()` entry runs at sf0.001 and
returns a typed, materializable result, and the oracle map stays in
lockstep with the query map. The driver's correctness gate covers the
first 50 entries at sf0.01 and `tools/check_oracles.py` sweeps all of
them value-exactly; this test is the fast regression net for the tail
entries between sweeps."""

import os

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

SF = "/root/testdata/sf0.001"


def test_oracle_keys_match_query_keys():
    import __ray_entry__ as E
    q = set(E.queries())
    o = set(E.oracle_sql())
    assert q == o, (sorted(q - o), sorted(o - q))


@pytest.mark.skipif(not os.environ.get("GRAFT_FULL_SMOKE"),
                    reason="~5-min subprocess sweep of all 205 "
                    "queries — run explicitly with GRAFT_FULL_SMOKE=1 "
                    "(the per-round check_oracles sweep covers the "
                    "same surface value-exactly at sf0.01)")
def test_every_query_runs_and_returns_rows():
    """Runs tools/probe_queries.py in a SUBPROCESS with its own
    8-CPU ray session: inside the suite's 4-CPU session the mixed
    actor-pool/task stages degrade pathologically (80+ min and
    flaky), while the dedicated session sweeps all 205 queries in
    ~5 min — same per-query assertions, failures collected and
    reported together."""
    import subprocess
    import sys

    env = dict(os.environ)
    env.setdefault("RAY_GRAFT_CPUS", "8")
    proc = subprocess.run(
        [sys.executable,
         os.path.join(os.path.dirname(__file__), "..", "tools",
                      "probe_queries.py"), SF],
        capture_output=True, text=True, timeout=3000, env=env)
    tail = "\n".join(proc.stdout.splitlines()[-8:])
    assert proc.returncode == 0, \
        f"probe failed:\n{tail}\n{proc.stderr[-1500:]}"
    assert "FAILURES: []" in proc.stdout, tail
    n_ok = proc.stdout.count(": ok n=")
    import __ray_entry__ as E
    assert n_ok == len(E.queries()), (n_ok, len(E.queries()))


@pytest.mark.skipif(not os.environ.get("GRAFT_FULL_SMOKE"),
                    reason="multi-minute large-corpus smoke — run "
                    "explicitly with GRAFT_FULL_SMOKE=1 (the recorded "
                    "round-5 reading is in BASELINE.md)")
def test_big_smoke_streaming_memory_bound():
    """VERDICT r4 task #6: the KG + curation flagships at
    GRAFT_CORPUS_MULT x sf0.1 (unset: the largest multiple up to 10x,
    the sf1 scale, that fits the host's memory) must complete with
    peak memory far below corpus-proportional — a full-corpus
    materialization mistake would show here. Runs in a subprocess so
    its own ray session cannot disturb the suite's."""
    import json
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable,
         os.path.join(os.path.dirname(__file__), "..", "tools",
                      "big_smoke.py")],
        capture_output=True, text=True, timeout=3600, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [l for l in proc.stdout.splitlines() if l.startswith("{")][-1]
    res = json.loads(line)
    if "skipped" in res:
        pytest.skip(res["skipped"])
    assert res["n_triples"] > 0 and res["cur_docs_out"] > 0
    # replicas collapse in the dedup exchange: survivors ≈ docs_in/mult
    assert res["cur_docs_out"] <= res["cur_docs_in"] // res["mult"] + 1
    # streaming bound: each job's memory footprint above the idle
    # baseline stays a small multiple of block/exchange sizes, never
    # corpus-scale (5.4M-turn corpus ≈ 2+ GiB of text alone) — the
    # CURATION flagship is held to the same bound (a near-dup-stage
    # driver-materialization regression would show here)
    assert res["kg_peak_gib"] - res["baseline_gib"] < 48
    assert res["cur_peak_gib"] - res["baseline_gib"] < 48

"""bench.py sizes its Ray session to the host it runs on."""

import pytest

import bench


class _Started(Exception):
    pass


def test_default_slots_are_nproc(monkeypatch):
    import ray
    seen = {}

    def init(**kwargs):
        seen.update(kwargs)
        raise _Started

    monkeypatch.delenv("RAY_GRAFT_CPUS", raising=False)
    monkeypatch.setattr(ray, "init", init)
    with pytest.raises(_Started):
        bench.run_bench()
    assert seen["num_cpus"] == bench.nproc()


def test_scaling_refuses_a_leg_above_nproc(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("a scaling leg was started")

    monkeypatch.setenv("GRAFT_SCALING_LO", "1")
    monkeypatch.setenv("GRAFT_SCALING_HI", str(bench.nproc() + 1))
    monkeypatch.setattr(bench.subprocess, "run", run)
    with pytest.raises(SystemExit, match="nproc"):
        bench.run_scaling()


def test_host_describes_the_run():
    import platform

    import pyarrow
    import ray
    h = bench.host()
    assert h["nproc"] == bench.nproc()
    assert h["cpu_affinity"] and len(h["loadavg_at_launch"]) == 3
    assert (h["ray_version"], h["pyarrow_version"], h["python_version"]) \
        == (ray.__version__, pyarrow.__version__, platform.python_version())


def test_query_time_is_min_of_two_runs():
    import time
    naps = [0.5, 0.0]  # the first run is slow, the second is not

    def run():
        time.sleep(naps.pop(0))

    assert bench.time_query(run) < 0.25
    assert not naps and bench.QUERY_REPS == 2


def test_big_smoke_sizes_the_corpus_to_memory():
    import importlib.util
    import os
    spec = importlib.util.spec_from_file_location(
        "big_smoke", os.path.join(os.path.dirname(__file__), "..",
                                  "tools", "big_smoke.py"))
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    per = smoke.PEAK_GIB_PER_MULT
    assert smoke.corpus_mult({}, 15.0) == (int(15.0 // per), "")
    assert smoke.corpus_mult({}, 1000.0) == (smoke.MAX_MULT, "")
    assert smoke.corpus_mult({"GRAFT_CORPUS_MULT": "2"}, 15.0) == (2, "")
    for env, avail in (({}, per / 2), ({"GRAFT_CORPUS_MULT": "10"}, 15.0)):
        mult, why = smoke.corpus_mult(env, avail)
        assert mult is None and "GiB" in why


def test_body_cost_prints_ms_per_body():
    import importlib.util
    import json
    import os
    spec = importlib.util.spec_from_file_location(
        "body_cost", os.path.join(os.path.dirname(__file__), "..",
                                  "tools", "body_cost.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = tool.main(["--conversations", "8", "12", "--reps", "1"])
    json.dumps(out)
    assert out["estimator"] == "min of 1"
    small, large = out["sizes"]
    assert (small["conversations"], large["conversations"]) == (8, 12)
    for size in out["sizes"]:
        assert list(size["ms"]) == ["finalize", "link", "template",
                                    "combine", "dedup"]
        assert all(ms > 0 for ms in size["ms"].values())
        rows = size["rows_in"]
        assert rows["link"] == rows["template"] > 0
        assert rows["combine"] >= rows["dedup"] >= size["triples_out"] > 0
    assert large["rows_in"]["finalize"] > small["rows_in"]["finalize"]
    with pytest.raises(SystemExit):
        tool.main(["--reps", "0"])

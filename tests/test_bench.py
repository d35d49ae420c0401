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

"""Run one workload of the ray-kg benchmark for one seed.

    python3 kgperf/run.py --workload build --seed 1 --seconds 20 --trace 0

Works from any working directory: the checkout under test is the parent
of this file's directory. With ``--trace 0`` the result line carries the
end-to-end metrics; with ``--trace 1`` the run wraps the program's layers
in spans and carries the per-layer metrics instead. Before the result
line the run prints one ``describe`` line: host, versions, seed, input
make-up and digest, and the workload's own figures. The result is the
last line of standard output:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

Exit codes: 0 with a result; 1 on an error; 2 when the program under
test cannot be imported from the checkout; 3 past the run's time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
# the checkout, not this directory, is the import root: kgperf's module
# names (trace, session, ...) must not shadow the standard library's
sys.path[0] = CHECKOUT

TIME_LIMIT_S = 170
#: every process of a run hashes strings the same way: with per-process
#: random hash seeds, ten runs of build and of sparql spread about twice
#: as wide (kgperf/README.md)
HASH_SEED = "0"

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s",
              "peak_mem_mb": "MiB"}

_SPAN_LAYERS = {
    "read": ["s", "rows"],
    "detect_facts": ["s", "calls", "rows_out"],
    "probe": ["s", "calls"],
    "finalize_bucket": ["s", "calls", "rows_out"],
    "link": ["s", "calls", "rows", "linked_ratio"],
    "build_triples": ["s", "calls", "rows_out"],
    "combine": ["s", "rows_out", "bytes_out"],
    "dedup_bucket": ["s", "calls", "rows_out"],
}
_UNITS = {"s": "s", "calls": "count", "rows": "count", "rows_out": "count",
          "linked_ratio": "ratio", "bytes_out": "bytes"}


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    from kgperf.queries import MIX
    out = {f"{layer}.{what}": _UNITS[what]
           for layer, whats in _SPAN_LAYERS.items() for what in whats}
    out.update({
        "ray.detect.wall_s": "s", "ray.sink.wall_s": "s",
        "ray.assemble_exchange.wall_s": "s", "ray.assemble.wall_s": "s",
        "ray.assemble.udf_s": "s",
        "ray.assemble.cpu_s": "s", "ray.dedup_exchange.wall_s": "s",
        "ray.dedup_exchange.bytes": "bytes", "ray.unattributed_s": "s",
        "op.wall_s": "s",
        "prepartition.s": "s", "shard.s": "s",
        "resume.shards_rerun": "count", "run.rows_written": "count",
        "run.dup_rows": "count", "read_output.s": "s",
        "ntriples.s": "s", "ntriples.bytes": "bytes", "parse.s": "s",
    })
    for form, *_ in MIX:
        out[f"sparql.{form}.s"] = "s"
        out[f"sparql.{form}.rows"] = "count"
    return out


def nproc() -> int:
    """What GNU ``nproc`` prints: ``OMP_NUM_THREADS`` when it is set to
    a positive number, else the CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        return int(omp)
    return len(os.sched_getaffinity(0))


def _host() -> dict:
    return {"nproc": nproc(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "loadavg_at_launch": list(os.getloadavg()),
            "platform": platform.platform()}


def _import_program() -> None:
    """Import the program under test from this checkout, or exit 2."""
    try:
        import rdf_extraction_ray
        path = rdf_extraction_ray.__file__ or ""
    except ImportError as e:
        print(f"kgperf: cannot import rdf_extraction_ray from {CHECKOUT}: "
              f"{e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(path).startswith(CHECKOUT + os.sep):
        print(f"kgperf: rdf_extraction_ray resolves to {path!r}, outside "
              f"the checkout {CHECKOUT}", file=sys.stderr)
        sys.exit(2)


def _versions() -> dict:
    import pyarrow
    import ray
    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": platform.python_version()}


def run(args) -> dict:
    from kgperf import checks, trace
    from kgperf.session import MemorySampler, RunDir, Session
    from kgperf.workloads import WORKLOADS

    host = _host()
    run_dir = RunDir(CHECKOUT)
    try:
        env = {"RDF_RAY_PROBE_CACHE_DIR": run_dir.sub("probe_cache")}
        hook = None
        if args.trace:
            os.makedirs(run_dir.sub("trace"))
            env[trace.TRACE_DIR_ENV] = run_dir.sub("trace")
            hook = trace.HOOK
        wl = WORKLOADS[args.workload](run_dir, args.seed, bool(args.trace))
        t0 = time.perf_counter()
        with Session(CHECKOUT, run_dir, cpus=host["nproc"],
                     time_limit_s=TIME_LIMIT_S, env=env, trace_hook=hook):
            if args.trace:
                trace.install()
            wl.setup()
            setup_s = time.perf_counter() - t0
            with MemorySampler() as mem:
                timed = 0.0
                while timed < args.seconds:
                    timed += sum(op.wall_s for op in wl.round().ops)
            correct, found = True, {}
            try:
                found = wl.check()
                if args.trace:
                    found.update(wl.check_extraction())
            except checks.CheckFailed as e:
                correct = False
                print(f"kgperf: check failed: {e}", file=sys.stderr)
        ops = wl.ops()
        e2e = {"setup_s": setup_s, **wl.end_to_end(),
               "peak_mem_mb": mem.peak_mib}
        describe = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "host": host, "versions": _versions(),
            "input": wl.describe_input(), "timed_s": timed,
            "rounds": len(wl.rounds), "checks": found,
            "op_walls_s": [[op.kind, op.wall_s] for op in ops],
            "end_to_end": e2e, "detail": wl.detail() if correct else {},
        }
        print(json.dumps({"describe": describe}), flush=True)
        if args.trace:
            layers = wl.layers()
            metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                       for k, u in per_layer_metrics().items()}
        else:
            metrics = {k: {"value": float(e2e[k]), "unit": u}
                       for k, u in END_TO_END.items()}
        return {"correct": correct, "attempted": len(ops),
                "failed": sum(not op.ok for op in ops), "metrics": metrics}
    finally:
        run_dir.remove()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["build", "run", "sparql"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Ray's daemons and workers inherit the environment
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + sys.argv[1:])
    _import_program()
    from kgperf.session import TimeLimit
    try:
        result = run(args)
    except TimeLimit as e:
        print(f"kgperf: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

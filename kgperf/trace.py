"""Per-layer spans for the traced run, and Ray's per-operator statistics.

Spans wrap the program's public functions from outside: :func:`install`
replaces each listed function, in its module and wherever another
module of the package imported it by name, with a wrapper that appends
one JSON record per call to ``$KGPERF_TRACE_DIR/<pid>.jsonl``. The
benchmark process calls :func:`install` itself, and Ray runs it in
every worker through the ``worker_process_setup_hook``, so calls are
counted where the program makes them. A listed function that is
missing makes :func:`install` raise.

:func:`ray_layers` maps the operators of the fused build's executed
plan onto layers. It reads Ray's private ``Dataset._write_ds`` and
``_plan.stats().to_summary()``; an operator name it does not know, or
a layer it does not find, raises instead of recording a zero.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time

TRACE_DIR_ENV = "KGPERF_TRACE_DIR"
HOOK = "kgperf.trace.install"

# (layer, module, attribute). Two functions may feed one layer; a call
# made inside a call of the same layer is not counted twice.
TARGETS: list[tuple[str, str, str]] = [
    ("read", "rdf_extraction_ray.pipelines.kg", "read_turns"),
    ("detect_facts", "rdf_extraction_ray.stages.extract", "detect_facts"),
    ("probe", "rdf_extraction_ray.stages.extract", "max_conv_fact_rows"),
    ("finalize_bucket", "rdf_extraction_ray.stages.extract",
     "finalize_bucket"),
    ("link", "rdf_extraction_ray.stages.link", "EntityLinker.__call__"),
    ("build_triples", "rdf_extraction_ray.stages.template",
     "build_triples_frame"),
    ("build_triples", "rdf_extraction_ray.stages.template", "build_triples"),
    ("combine", "rdf_extraction_ray.stages.dedup", "add_bucket_and_combine"),
    ("dedup_bucket", "rdf_extraction_ray.stages.dedup", "dedup_bucket"),
    ("prepartition", "rdf_extraction_ray.pipelines.manifest",
     "_prepartition"),
    ("shard", "rdf_extraction_ray.pipelines.manifest", "_run_one_shard"),
    ("read_output", "rdf_extraction_ray.pipelines.manifest", "read_output"),
    ("ntriples", "rdf_extraction_ray.stages.serialize", "write_ntriples"),
    ("parse", "rdf_extraction_ray.stages.sparql", "parse_sparql"),
    ("run_sparql", "rdf_extraction_ray.stages.sparql", "run_sparql"),
]

_active = threading.local()


def _parquet_rows(path: str) -> int:
    import pyarrow.parquet as pq
    files = ([os.path.join(r, f) for r, _, fs in os.walk(path)
              for f in fs if f.endswith(".parquet")]
             if os.path.isdir(path) else [path])
    return sum(pq.read_metadata(f).num_rows for f in files)


def _extra(layer: str, args, result) -> dict:
    """Counts for one call, taken after its clock stopped."""
    if layer == "read":
        return {"rows": _parquet_rows(args[0])}
    if layer == "shard":
        return {"rows": int(result["triples_out"])}
    if layer == "link":
        st = result["link_status"].str.split(";").explode()
        st = st[st.notna() & (st != "")]
        return {"rows": len(result), "statuses": int(len(st)),
                "linked": int(st.str.endswith("=linked").sum())}
    if layer == "combine":
        return {"rows": result.num_rows, "bytes": result.nbytes}
    import pandas as pd
    import pyarrow as pa
    if isinstance(result, (pd.DataFrame, pa.Table)):
        return {"rows": len(result)}
    return {}  # a lazy Dataset, a dict or a count: no rows to take


def _record(rec: dict) -> None:
    path = os.path.join(os.environ[TRACE_DIR_ENV], f"{os.getpid()}.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps(rec) + "\n")


def _wrap(layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        busy = getattr(_active, "layers", None)
        if busy is None:
            busy = _active.layers = set()
        if layer in busy:
            return fn(*args, **kwargs)
        busy.add(layer)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            busy.discard(layer)
        _record({"layer": layer, "s": dt, **_extra(layer, args, result)})
        return result

    traced.__kgperf_layer__ = layer
    return traced


def install() -> None:
    """Wrap every function in :data:`TARGETS` in this process (idempotent)."""
    import importlib
    import sys

    if TRACE_DIR_ENV not in os.environ:
        raise RuntimeError(f"{TRACE_DIR_ENV} is not set")
    for layer, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, name, None)
        if original is None:
            raise LookupError(f"traced function {module_name}.{attr} "
                              "not found")
        if hasattr(original, "__kgperf_layer__"):
            continue
        wrapped = _wrap(layer, original)
        setattr(owner, name, wrapped)
        if owner_name:
            continue
        # rebind names other modules imported with ``from m import f``
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if d is None or not getattr(mod, "__name__", "").startswith(
                    "rdf_extraction_ray"):
                continue
            for k, v in list(d.items()):
                if v is original:
                    d[k] = wrapped


class TraceLog:
    """Reads the span records all processes appended since the last read."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self._offsets: dict[str, int] = {}

    def drain(self) -> list[dict]:
        records = []
        for name in sorted(os.listdir(self.trace_dir)):
            path = os.path.join(self.trace_dir, name)
            with open(path) as f:
                f.seek(self._offsets.get(path, 0))
                data = f.read()
            # keep a partly written last line for the next read
            done = data.rfind("\n") + 1
            self._offsets[path] = self._offsets.get(path, 0) + done
            records.extend(json.loads(ln) for ln in
                           data[:done].splitlines() if ln)
        return records


def summarize(records: list[dict]) -> dict[str, float]:
    """Per-layer seconds, calls and rows of one operation's records."""
    out: dict[str, float] = {}
    for r in records:
        layer = r["layer"]
        out[f"{layer}.s"] = out.get(f"{layer}.s", 0.0) + r["s"]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        for k in ("rows", "bytes", "statuses", "linked"):
            if k in r:
                out[f"{layer}.{k}"] = out.get(f"{layer}.{k}", 0) + r[k]
    return out


# ------------------------------------------------------- Ray operator stats

#: every operator of the fused build's plan, by name, and its layer. A
#: Sort's SortMap/SortReduce belong to the exchange feeding its consumer.
OPERATOR_LAYERS = {
    "ReadParquet": "detect",
    "MapBatches(detect_facts)": "detect",
    "MapBatches(_assemble_bucket)": "assemble",
    "MapBatches(dedup_bucket)->Write": "sink",
    "SortMap": "exchange",
    "SortReduce": "exchange",
}
_EXCHANGE_BEFORE = {"assemble": "assemble_exchange",
                    "sink": "dedup_exchange"}
#: the fused build's layers in plan order; their walls and
#: ``ray.unattributed_s`` add up to the build's wall time
RAY_LAYERS = ("detect", "assemble_exchange", "assemble", "dedup_exchange",
              "sink")
_SPLIT = re.compile(r"->SplitBlocks\(\d+\)$")


def operator_name(name: str) -> str:
    """Operator name without Ray's block-count-dependent split suffix."""
    return _SPLIT.sub("", name)


def plan_operators(ds) -> list[tuple[str, object]]:
    """(name, OperatorStatsSummary) for every operator that ran to
    produce the dataset ``ds`` wrote, consumers first."""
    out, todo = [], [ds._write_ds._plan.stats().to_summary()]
    while todo:
        summary = todo.pop(0)
        out.extend((operator_name(op.operator_name), op)
                   for op in summary.operators_stats)
        todo.extend(summary.parents)
    return out


def _sum(stat) -> float:
    return float((stat or {}).get("sum", 0) or 0)


def ray_layers(ds, wall_s: float) -> dict[str, float]:
    """Ray's per-operator figures of one fused build, by layer."""
    walls: dict[str, float] = {}
    out: dict[str, float] = {}
    consumer = None
    for name, op in plan_operators(ds):
        if name not in OPERATOR_LAYERS:
            raise LookupError(f"unmapped Ray operator {name!r}")
        layer = OPERATOR_LAYERS[name]
        if layer == "exchange":
            if consumer not in _EXCHANGE_BEFORE:
                raise LookupError(f"exchange {name!r} feeds {consumer!r}")
            layer = _EXCHANGE_BEFORE[consumer]
            if name == "SortMap" and layer == "dedup_exchange":
                out["ray.dedup_exchange.bytes"] = _sum(op.output_size_bytes)
        else:
            consumer = layer
        walls[layer] = walls.get(layer, 0.0) + _sum(op.wall_time)
        if layer == "assemble":
            out["ray.assemble.udf_s"] = _sum(op.udf_time)
            out["ray.assemble.cpu_s"] = _sum(op.cpu_time)
    missing = set(RAY_LAYERS) - set(walls)
    if missing:
        raise LookupError(f"no Ray operators for layers {sorted(missing)}")
    for layer in RAY_LAYERS:
        out[f"ray.{layer}.wall_s"] = walls[layer]
    return unattributed(out, wall_s)


def unattributed(layers: dict[str, float], wall_s: float) -> dict[str, float]:
    """``layers`` with ``ray.unattributed_s``: the build's wall time not
    spent in the operators (planning, the probe, start-up)."""
    return {**layers, "ray.unattributed_s": wall_s - sum(
        layers[f"ray.{layer}.wall_s"] for layer in RAY_LAYERS)}

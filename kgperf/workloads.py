"""The benchmark's three closed-loop workloads.

Each workload makes its corpus with ``rdf_extraction_ray.synth`` from
the run's seed, does one untimed warm-up round in set-up, then runs
whole rounds of the same operations, one at a time, from this process.
Outputs are kept on disk and checked after the timed part.

- ``build``: one round is one fused build (``kg.read_turns`` →
  ``kg.triples_from_turns`` → ``write_parquet``) of a small corpus.
- ``run``: one round is a fresh ``manifest.run_sharded``, a resume
  after one shard's output is removed, and an export
  (``manifest.read_output`` → ``serialize.write_ntriples``).
- ``sparql``: one round is one pass over :data:`kgperf.queries.MIX`
  through ``sparql.run_sparql``, over a graph built in set-up.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import pandas as pd

from . import checks, trace
from .queries import MIX, UPDATE_COLUMNS


@dataclass
class Op:
    """One operation of the closed loop."""
    kind: str
    wall_s: float = 0.0
    ok: bool = False


@dataclass
class Round:
    """One round: its operations and, in a traced run, its layer figures."""
    ops: list[Op] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    # wall times of the operations ``op_p50_s`` is the median of
    op_s: list[float] = field(default_factory=list)


def _timed(op: Op, fn, *args):
    """Run ``fn``; record its wall time and whether it raised."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
        op.ok = True
        return result
    except Exception:  # a failed operation is counted, the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        op.wall_s = time.perf_counter() - t0


def _median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    name = ""
    n_convs = 0

    def __init__(self, run_dir, seed: int, traced: bool):
        self.run_dir = run_dir
        self.seed = seed
        self.trace_log = (trace.TraceLog(run_dir.sub("trace"))
                          if traced else None)
        self.turns_dir = run_dir.sub("data", "turns")
        self.maps_dir = run_dir.sub("data", "maps")
        self.rounds: list[Round] = []
        self.planted = None
        self.n_turns = 0
        self.digest = ""

    # ------------------------------------------------------------ set-up

    def make_corpus(self):
        import pyarrow.parquet as pq

        from rdf_extraction_ray import synth
        turns, self.planted = synth.generate(self.n_convs, seed=self.seed)
        os.makedirs(self.turns_dir)
        path = os.path.join(self.turns_dir, "turns-0000.parquet")
        pq.write_table(turns, path)
        self.n_turns = turns.num_rows
        with open(path, "rb") as f:
            self.digest = hashlib.sha256(f.read()).hexdigest()[:16]

    def setup(self):
        self.make_corpus()
        self.warm_up()

    def warm_up(self):
        self.round(warm_up=True)
        self.rounds.clear()
        self._drain()

    def describe_input(self) -> dict:
        return {"conversations": self.n_convs, "turns": self.n_turns,
                "planted_facts": self.planted.num_rows,
                "turns_sha256": self.digest}

    # ------------------------------------------------------------ loop

    def round(self, warm_up: bool = False) -> Round:
        raise NotImplementedError

    def _drain(self) -> list[dict]:
        """The span records since the last call ([] when untraced)."""
        return self.trace_log.drain() if self.trace_log else []

    # ------------------------------------------------------------ results

    def ops(self) -> list[Op]:
        return [op for r in self.rounds for op in r.ops]

    def end_to_end(self) -> dict[str, float]:
        op_s = [s for r in self.rounds for s in r.op_s]
        ops = self.ops()
        timed = sum(op.wall_s for op in ops)
        done = sum(op.ok for op in ops)
        return {"op_p50_s": _median(op_s),
                "ops_per_s": done / timed if timed else 0.0}

    def detail(self) -> dict[str, float]:
        """Figures named after this workload's own units."""
        raise NotImplementedError

    def layers(self) -> dict[str, float]:
        keys = {k for r in self.rounds for k in r.layers}
        return {k: _median([r.layers.get(k, 0.0) for r in self.rounds])
                for k in sorted(keys)}

    def check(self) -> dict:
        raise NotImplementedError

    def check_extraction(self) -> dict:
        """Extraction P/R of this corpus against the planted facts."""
        from rdf_extraction_ray.pipelines.kg import extract_facts, read_turns
        got = extract_facts(read_turns(self.turns_dir)).to_pandas()
        precision, recall = checks.check_extraction(
            got, self.planted.to_pandas())
        return {"precision": precision, "recall": recall}


def _layer_names(spans: dict[str, float]) -> dict[str, float]:
    """Span sums under the metric names the benchmark reports."""
    out = {}
    for k, v in spans.items():
        layer, _, what = k.rpartition(".")
        if what == "rows" and layer not in ("read", "link"):
            what = "rows_out"
        elif what == "bytes":
            what = "bytes_out"
        elif what in ("statuses", "linked"):
            continue
        out[f"{layer}.{what}"] = v
    if spans.get("link.statuses"):
        out["link.linked_ratio"] = spans["link.linked"] / spans["link.statuses"]
    return out


class BuildWorkload(Workload):
    """Repeated fused builds of one small corpus: the assembly body's
    per-bucket calls (one per occupied bucket of 128) dominate."""
    name = "build"
    n_convs = 100

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outputs: list[str] = []  # the builds that finished
        self.attempts = 0

    def _build(self, out_dir: str):
        from rdf_extraction_ray.pipelines import kg
        ds = kg.triples_from_turns(kg.read_turns(self.turns_dir))
        ds.write_parquet(out_dir)
        return ds

    def round(self, warm_up: bool = False) -> Round:
        r = Round()
        out_dir = self.run_dir.sub("data", f"build-{self.attempts}")
        self.attempts += 1
        op = Op("build")
        ds = _timed(op, self._build, out_dir)
        r.ops.append(op)
        if op.ok:
            r.op_s.append(op.wall_s)
            self.outputs.append(out_dir)
            if self.trace_log and not warm_up:
                r.layers = {**_layer_names(trace.summarize(self._drain())),
                            **trace.ray_layers(ds, op.wall_s),
                            "op.wall_s": op.wall_s}
        self.rounds.append(r)
        return r

    def layers(self):
        # medians per metric: recompute the remainder from the medians,
        # so the reported operator walls add up to the reported wall
        out = super().layers()
        return trace.unattributed(out, out["op.wall_s"]) \
            if "op.wall_s" in out else out

    def detail(self):
        walls = [s for r in self.rounds for s in r.op_s]
        return {"turns_per_s": _median([self.n_turns / s for s in walls])}

    def check(self) -> dict:
        checks.write_fixture_maps(self.maps_dir)
        want = checks.replay_triples(self.turns_dir, self.maps_dir)
        for out_dir in self.outputs:
            checks.check_triples(checks.read_parquet_dir(out_dir), want,
                                 f"build {os.path.basename(out_dir)}")
        return {"triples": len(want), "builds_checked": len(self.outputs)}


class RunWorkload(Workload):
    """The ``ray job submit`` surface on a larger corpus: fresh sharded
    run, resume after one shard's output is lost, export."""
    name = "run"
    n_convs = 300
    n_shards = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.removed = self.seed % self.n_shards
        self.done: list[dict] = []  # per round: dirs and summaries
        self.n_distinct = 0  # distinct triples of the corpus, from check

    def round(self, warm_up: bool = False) -> Round:
        from rdf_extraction_ray.pipelines import manifest
        from rdf_extraction_ray.stages import serialize

        k = len(self.done)
        run_dir = self.run_dir.sub("data", f"run-{k}")
        aside = self.run_dir.sub("data", f"aside-{k}")
        nt_dir = self.run_dir.sub("data", f"nt-{k}")
        r = Round()
        fresh, resume, export = Op("run"), Op("resume"), Op("export")
        r.ops = [fresh, resume, export]
        rec = {"run": run_dir, "aside": aside, "nt": nt_dir,
               "warm_up": warm_up}
        rec["fresh"] = _timed(fresh, manifest.run_sharded, self.turns_dir,
                              run_dir, self.n_shards)
        spans_fresh = self._drain()
        if fresh.ok:
            shutil.move(os.path.join(run_dir, f"shard={self.removed}"),
                        aside)
            rec["resume"] = _timed(resume, manifest.run_sharded,
                                   self.turns_dir, run_dir, self.n_shards)
        spans_resume = self._drain()
        if resume.ok:
            _timed(export, lambda: serialize.write_ntriples(
                manifest.read_output(run_dir), nt_dir))
        spans_export = self._drain()
        if all(op.ok for op in r.ops):
            r.op_s.append(sum(op.wall_s for op in r.ops))
            rec.update(fresh_s=fresh.wall_s, resume_s=resume.wall_s,
                       export_s=export.wall_s)
            if self.trace_log and not warm_up:
                r.layers = self._run_layers(
                    rec, spans_fresh, spans_resume, spans_export)
        self.done.append(rec)
        self.rounds.append(r)
        return r

    def _run_layers(self, rec, fresh, resume, export) -> dict[str, float]:
        out = _layer_names(trace.summarize(fresh + resume + export))
        sf = trace.summarize(fresh)
        out["prepartition.s"] = sf.get("prepartition.s", 0.0)
        out["shard.s"] = _median([x["s"] for x in fresh
                                  if x["layer"] == "shard"])
        out["resume.shards_rerun"] = sum(
            not m.get("skipped") for m in rec["resume"].values())
        out["run.rows_written"] = sum(
            m["triples_out"] for m in rec["fresh"].values())
        distinct = len(checks.dedup_min_provenance(
            checks.read_parquet_dir(rec["run"])))
        out["run.dup_rows"] = out["run.rows_written"] - distinct
        out["read_output.s"] = trace.summarize(export).get(
            "read_output.s", 0.0)
        out["ntriples.s"] = trace.summarize(export).get("ntriples.s", 0.0)
        out["ntriples.bytes"] = sum(
            e.stat().st_size for e in os.scandir(rec["nt"]))
        return out

    def detail(self):
        ok = [d for d in self.done if "export_s" in d and not d["warm_up"]]
        return {
            "turns_per_s": _median([self.n_turns / d["fresh_s"] for d in ok]),
            "resume_s": _median([d["resume_s"] for d in ok]),
            "export_triples_per_s": _median(
                [self.n_distinct / d["export_s"] for d in ok]),
        }

    def check(self) -> dict:
        checks.write_fixture_maps(self.maps_dir)
        want = checks.replay_triples(self.turns_dir, self.maps_dir)
        want_nt = checks.render_ntriples(want)
        self.n_distinct = len(want)
        for k, d in enumerate(self.done):
            what = f"run round {k}"
            if "export_s" not in d:
                continue
            turns_in = sum(m["turns_in"] for m in d["fresh"].values())
            if turns_in != self.n_turns:
                raise checks.CheckFailed(
                    f"{what}: manifests count {turns_in} turns, the "
                    f"corpus has {self.n_turns}")
            rerun = sorted(s for s, m in d["resume"].items()
                           if not m.get("skipped"))
            if rerun != [self.removed]:
                raise checks.CheckFailed(
                    f"{what}: resume reran shards {rerun}, "
                    f"expected [{self.removed}]")
            again = checks.read_parquet_dir(
                os.path.join(d["run"], f"shard={self.removed}"))
            checks.check_triples(again, checks.read_parquet_dir(d["aside"]),
                                 f"{what}: resumed shard")
            shards = [checks.read_parquet_dir(
                os.path.join(d["run"], f"shard={s}"))
                for s in range(self.n_shards)]
            for s, rows in enumerate(shards):
                checks.check_unique_keys(rows, f"{what}: shard {s}")
            union = checks.dedup_min_provenance(pd.concat(shards))
            checks.check_triples(union, want, f"{what}: run output")
            checks.check_ntriples(checks.read_ntriples(d["nt"]), want_nt,
                                  f"{what}: N-Triples")
        return {"triples": len(want), "rounds_checked": len(self.done)}


class SparqlWorkload(Workload):
    """One client sends a fixed mix of textual queries, with one
    update among them, over a graph built in set-up."""
    name = "sparql"
    n_convs = 200

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.graph_dir = self.run_dir.sub("data", "graph")
        self.quads_dir = self.run_dir.sub("data", "quads")
        self.results: list[tuple[str, str]] = []  # (form, parquet path)
        os.makedirs(self.run_dir.sub("data", "results"))

    def setup(self):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from rdf_extraction_ray.pipelines import kg
        from rdf_extraction_ray.stages.serialize import quad_graph_term
        self.make_corpus()
        kg.triples_from_turns(kg.read_turns(self.turns_dir)) \
            .write_parquet(self.graph_dir)
        g = pq.read_table(self.graph_dir)
        graph = quad_graph_term(g.column("conv_id").to_pandas())
        os.makedirs(self.quads_dir)
        pq.write_table(g.append_column("graph", pa.array(graph, pa.string())),
                       os.path.join(self.quads_dir, "quads.parquet"))
        self.warm_up()

    def _query(self, text: str, source: str):
        import ray.data as rd

        from rdf_extraction_ray.stages.sparql import run_sparql
        out = run_sparql(rd.read_parquet(source), text)
        return out.to_pandas()

    def round(self, warm_up: bool = False) -> Round:
        r = Round()
        for form, source, text, _ in MIX:
            op = Op(form)
            src = self.quads_dir if source == "quads" else self.graph_dir
            got = _timed(op, self._query, text, src)
            r.ops.append(op)
            if not op.ok:
                continue
            r.op_s.append(op.wall_s)
            if form == "update":
                got = got[UPDATE_COLUMNS]
            # kept on disk, so the benchmark's memory does not grow
            # with the number of rounds
            path = self.run_dir.sub(
                "data", "results", f"{len(self.results)}-{form}.parquet")
            got.to_parquet(path)
            self.results.append((form, path))
            if self.trace_log and not warm_up:
                r.layers["parse.s"] = r.layers.get("parse.s", 0.0) \
                    + trace.summarize(self._drain()).get("parse.s", 0.0)
                r.layers[f"sparql.{form}.s"] = op.wall_s
                r.layers[f"sparql.{form}.rows"] = len(got)
        self.rounds.append(r)
        return r

    def detail(self):
        e2e = self.end_to_end()
        return {"queries_per_s": e2e["ops_per_s"],
                "query_p50_s": e2e["op_p50_s"]}

    def check(self) -> dict:
        checks.write_fixture_maps(self.maps_dir)
        want = checks.replay_triples(self.turns_dir, self.maps_dir)
        checks.check_triples(checks.read_parquet_dir(self.graph_dir), want,
                             "sparql graph")
        glob = checks.parquet_glob(self.graph_dir)
        expected = {form: checks.sql_frame(sql.replace("{triples}", glob))
                    for form, _, _, sql in MIX}
        for form, path in self.results:
            checks.check_frames(pd.read_parquet(path), expected[form],
                                f"sparql {form} ({os.path.basename(path)})")
        return {"triples": len(want), "results_checked": len(self.results)}


WORKLOADS = {w.name: w for w in (BuildWorkload, RunWorkload, SparqlWorkload)}

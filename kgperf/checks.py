"""Output checks, each computed apart from the program under test.

- Triples: DuckDB's end-to-end replay of the pipeline
  (``__ray_entry__._kg_triples_sql``) over the run's own turns files,
  joined against fixture maps written into the run directory.
- N-Triples: a DuckDB rendering of the replayed triples.
- SPARQL: the benchmark's own SQL for each query (:mod:`kgperf.queries`).
- Extraction: precision and recall against the facts ``synth.generate``
  planted.

Every check raises :class:`CheckFailed` with the first differences.
"""

from __future__ import annotations

import contextlib
import glob
import os

import pandas as pd

TRIPLE_KEY = ["subj", "pred", "obj", "obj_kind", "obj_lang", "obj_datatype"]
PROVENANCE = ["conv_id", "turn_idx"]
TRIPLE_COLUMNS = TRIPLE_KEY + PROVENANCE


class CheckFailed(AssertionError):
    """A program output differs from the benchmark's own computation."""


def duckdb_connect():
    import duckdb
    con = duckdb.connect()
    con.execute("SET threads TO 1")
    return con


def parquet_glob(directory: str) -> str:
    """All parquet files below ``directory``, as a DuckDB glob."""
    return os.path.join(directory, "**", "*.parquet")


def read_parquet_dir(directory: str) -> pd.DataFrame:
    con = duckdb_connect()
    try:
        return con.execute(
            "SELECT * FROM read_parquet(?, hive_partitioning=false)",
            [parquet_glob(directory)]).df()
    finally:
        con.close()


# ---------------------------------------------------------------- replay

def write_fixture_maps(maps_dir: str) -> str:
    """The linker's fixture maps and the seed graph as the parquet
    tables the replay SQL joins against: the tables
    ``__ray_entry__._kg_maps_dir`` writes, here into the run's own
    directory instead of a shared cache keyed only by generator
    version."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdf_extraction_ray.state.fixtures import (build_linker_maps,
                                                   seed_triples_table)
    os.makedirs(maps_dir, exist_ok=True)
    m = build_linker_maps()

    def write(name, columns):
        pq.write_table(pa.table(columns),
                       os.path.join(maps_dir, f"{name}.parquet"))

    write("people", {"surface": list(m["people"]),
                     "uri": list(m["people"].values())})
    for name in ("places", "orgs", "occupations", "causes", "degrees"):
        write(name, {"key": list(m[name]), "uri": list(m[name].values())})
    cf = [(c, k, u) for c, t in m["cultural_forms"].items()
          for k, u in t.items()]
    write("cultural_forms", {"category": [r[0] for r in cf],
                             "key": [r[1] for r in cf],
                             "uri": [r[2] for r in cf]})
    write("writers", {"uri": list(m["writers"]),
                      "sex": [t[1] for t in m["writers"].values()]})
    write("family", {"term": list(m["family"]),
                     "fwd": [t[0] for t in m["family"].values()],
                     "inv_m": [t[1] for t in m["family"].values()],
                     "inv_f": [t[2] for t in m["family"].values()]})
    pq.write_table(seed_triples_table(),
                   os.path.join(maps_dir, "seed.parquet"))
    return maps_dir


@contextlib.contextmanager
def _maps_dir_of(entry, maps_dir: str):
    """Point the replay at ``maps_dir`` instead of its shared cache."""
    saved = entry._kg_maps_dir
    entry._kg_maps_dir = lambda: maps_dir
    try:
        yield
    finally:
        entry._kg_maps_dir = saved


def replay_triples(turns_dir: str, maps_dir: str) -> pd.DataFrame:
    """The pipeline's triples recomputed by DuckDB from raw turns."""
    import __ray_entry__ as entry
    with _maps_dir_of(entry, maps_dir):
        sql = entry._kg_triples_sql(parquet_glob(turns_dir))
    con = duckdb_connect()
    try:
        return con.execute(sql).df()
    finally:
        con.close()


# ---------------------------------------------------------------- triples

def _norm_triples(df: pd.DataFrame) -> pd.DataFrame:
    out = df[TRIPLE_COLUMNS].copy()
    for c in TRIPLE_KEY + ["conv_id"]:
        out[c] = out[c].fillna("").astype(str)
    out["turn_idx"] = out["turn_idx"].astype("int64")
    return out


def _rows(df: pd.DataFrame) -> set:
    return set(df.itertuples(index=False, name=None))


def _diff_message(what: str, got: set, want: set) -> str:
    extra, missing = sorted(got - want)[:3], sorted(want - got)[:3]
    return (f"{what}: {len(got - want)} unexpected rows, "
            f"{len(want - got)} missing rows; "
            f"unexpected e.g. {extra}; missing e.g. {missing}")


def check_unique_keys(got: pd.DataFrame, what: str) -> None:
    """No two rows share the 6-column triple key."""
    dup = _norm_triples(got).duplicated(TRIPLE_KEY)
    if dup.any():
        raise CheckFailed(f"{what}: {int(dup.sum())} rows repeat a "
                          f"triple key, e.g. "
                          f"{got[dup].iloc[0][TRIPLE_KEY].tolist()}")


def check_triples(got: pd.DataFrame, want: pd.DataFrame, what: str) -> None:
    """``got`` holds exactly the triples of ``want``, provenance
    included, and no triple key twice."""
    check_unique_keys(got, what)
    g, w = _rows(_norm_triples(got)), _rows(_norm_triples(want))
    if g != w:
        raise CheckFailed(_diff_message(what, g, w))


def dedup_min_provenance(df: pd.DataFrame) -> pd.DataFrame:
    """Set semantics over triple rows: one row per key, keeping the
    smallest ``(conv_id, turn_idx)`` (the engine's and the replay's
    documented winner)."""
    n = _norm_triples(df)
    return (n.sort_values(PROVENANCE, kind="stable")
            .drop_duplicates(TRIPLE_KEY, keep="first"))


# ---------------------------------------------------------------- N-Triples

_NT_SQL = """
SELECT '<' || subj || '> <' || pred || '> ' ||
       CASE WHEN obj_kind = 'uri' THEN '<' || obj || '>'
            ELSE '"' || replace(replace(replace(replace(replace(obj,
                     '\\', '\\\\'), '"', '\\"'), chr(10), '\\n'),
                     chr(13), '\\r'), chr(9), '\\t') || '"' ||
                 CASE WHEN coalesce(obj_lang, '') <> ''
                          THEN '@' || obj_lang
                      WHEN coalesce(obj_datatype, '') <> ''
                          THEN '^^<http://www.w3.org/2001/XMLSchema#'
                               || substr(obj_datatype, 5) || '>'
                      ELSE '' END
       END || ' .' AS line
FROM triples
"""


def render_ntriples(triples: pd.DataFrame) -> list[str]:
    """N-Triples lines of ``triples``, rendered by DuckDB."""
    con = duckdb_connect()
    try:
        con.register("triples", triples)
        return con.execute(_NT_SQL).df()["line"].tolist()
    finally:
        con.close()


def read_ntriples(nt_dir: str) -> list[str]:
    lines = []
    for path in sorted(glob.glob(os.path.join(nt_dir, "*.nt"))):
        with open(path, encoding="utf-8") as f:
            lines.extend(ln for ln in f.read().split("\n") if ln)
    return lines


def check_ntriples(lines: list[str], want: list[str], what: str) -> None:
    """The same lines, each as often."""
    if sorted(lines) != sorted(want):
        g, w = pd.Series(lines).value_counts(), pd.Series(want).value_counts()
        both = pd.concat([g, w], axis=1, keys=["got", "want"]).fillna(0)
        bad = both[both["got"] != both["want"]]
        raise CheckFailed(f"{what}: {len(bad)} lines differ in count, "
                          f"e.g. {bad.head(3).to_dict('index')}")


# ---------------------------------------------------------------- frames

def _norm_frame(df: pd.DataFrame) -> pd.DataFrame:
    out = pd.DataFrame(index=range(len(df)))
    for c in sorted(df.columns):
        col = df[c].reset_index(drop=True)
        if pd.api.types.is_numeric_dtype(col) and not \
                pd.api.types.is_bool_dtype(col):
            out[c] = col.astype("int64")
        else:
            out[c] = col.fillna("").astype(str)
    return out.sort_values(list(out.columns), kind="stable") \
        .reset_index(drop=True)


def check_frames(got: pd.DataFrame, want: pd.DataFrame, what: str) -> None:
    """Equal as sorted frames: same columns, same rows, each as often."""
    if sorted(got.columns) != sorted(want.columns):
        raise CheckFailed(f"{what}: columns {sorted(got.columns)} != "
                          f"{sorted(want.columns)}")
    g, w = _norm_frame(got), _norm_frame(want)
    if not g.equals(w):
        gs = set(g.itertuples(index=False, name=None))
        ws = set(w.itertuples(index=False, name=None))
        raise CheckFailed(_diff_message(what, gs, ws) if gs != ws else
                          f"{what}: same rows, different multiplicity "
                          f"({len(g)} vs {len(w)} rows)")


def sql_frame(sql: str) -> pd.DataFrame:
    con = duckdb_connect()
    try:
        return con.execute(sql).df()
    finally:
        con.close()


# ---------------------------------------------------------------- extraction

def extraction_pr(extracted: pd.DataFrame, planted: pd.DataFrame
                  ) -> tuple[float, float]:
    """Precision and recall of extracted facts against planted ones,
    over the generator's fact columns."""
    from rdf_extraction_ray import synth
    cols = synth.FACT_COLUMNS

    def key(df):
        n = df[cols].copy()
        for c in cols:
            n[c] = n[c].map(lambda v: "" if v is None or v != v else str(v))
        return set(n.itertuples(index=False, name=None))

    e, p = key(extracted), key(planted)
    tp = len(e & p)
    return (tp / len(e) if e else 0.0), (tp / len(p) if p else 0.0)


PR_FLOOR = 0.95


def check_extraction(extracted: pd.DataFrame, planted: pd.DataFrame
                     ) -> tuple[float, float]:
    precision, recall = extraction_pr(extracted, planted)
    if precision < PR_FLOOR or recall < PR_FLOOR:
        raise CheckFailed(f"extraction P/R {precision:.4f}/{recall:.4f} "
                          f"below {PR_FLOOR}")
    return precision, recall

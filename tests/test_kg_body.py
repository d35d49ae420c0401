"""The fused KG body against the pandas body it replaced.

The numpy linker, the row-position template emitter and the Arrow
combiner and dedup must give what the ``Series.map`` linker, the
sub-frame template and the ``drop_duplicates`` combiner and dedup
gave (``kg_reference.py``) on the synth corpus and on the edge inputs
those bodies handled: an empty batch, an all-dropped batch, a null
cultural-form category, fuzzy hits and misses with and without
substitution, all-null ``obj_lang``/``obj_datatype`` columns and
duplicate keys whose provenance ties.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import kg_reference as ref
from rdf_extraction_ray import synth
from rdf_extraction_ray.namespaces import TRIPLE_COLUMNS, TRIPLE_SCHEMA
from rdf_extraction_ray.stages.dedup import (N_DEDUP_BUCKETS,
                                             add_bucket_and_combine,
                                             dedup_bucket)
from rdf_extraction_ray.stages.extract import (CAND_COLUMNS, detect_facts,
                                               finalize_bucket)
from rdf_extraction_ray.stages.link import EntityLinker
from rdf_extraction_ray.stages.template import build_triples


def _facts(rows):
    base = dict.fromkeys(CAND_COLUMNS)
    base.update(conv_id="c1", turn_idx=1, seq=0, cand_idx=0, snippet="s",
                bucket=0)
    return pd.DataFrame([{**base, "seq": i, **r} for i, r in enumerate(rows)],
                        columns=CAND_COLUMNS)


_EDGE_ROWS = [
    {"fact_type": "culturalform", "person": "M. Blake", "term": "Quakker",
     "category": "religion"},                       # fuzzy hit
    {"fact_type": "culturalform", "person": "M. Blake",
     "term": "Muggletonian", "category": "religion"},  # miss
    {"fact_type": "culturalform", "person": "M. Blake", "term": "Quakker",
     "category": "nationality"},  # the religion hit must not leak here
    {"fact_type": "culturalform", "person": "Zeb Quince",
     "term": "Methodists", "category": np.nan},     # NaN category
    {"fact_type": "culturalform", "person": "Zeb Quince",
     "term": "Methodists", "category": None},
    {"fact_type": "culturalform", "person": "M. Blake", "term": "French",
     "category": "language", "certainty": None},
    {"fact_type": "culturalform", "person": "M. Blake", "term": "Latin",
     "category": "language", "certainty": "NATIVE"},
    {"fact_type": "occupation", "person": "M. Blake", "term": "Governes",
     "category": "paid"},                           # fuzzy occupation
    {"fact_type": "death", "person": "M. Blake", "date": "18th March",
     "term": "a surfeit of lampreys", "place": "Atlantis, Nowhere",
     "certainty": "CERT"},
    {"fact_type": "birth", "person": "Margaret Blake", "date": "1851-03-",
     "place": "Bath, Somerset"},
    {"fact_type": "event", "term": "A fair", "date": "sometime",
     "place": "Bath, Somerset"},
    {"fact_type": "education", "person": "M. Blake", "term": "doctorate",
     "category": "degree", "place2": "botany"},
    {"fact_type": "education", "person": "M. Blake", "term": "botany",
     "org": "Provincial Ballooning Guild", "category": "study"},
    {"fact_type": "location", "person": "M. Blake",
     "place": "Atlantis, Nowhere", "category": "habitation"},  # dropped
    {"fact_type": "location", "person": "M. Blake", "place": "Bath, Somerset",
     "place2": "Atlantis, Nowhere", "category": "migration"},
    {"fact_type": "family", "person": "Margaret Blake",
     "other": "Hugh Drummond", "term": "brother"},
]


def _synth_facts(n=80, seed=3):
    turns, _ = synth.generate(n, seed=seed, mega_every=0)
    return finalize_bucket(detect_facts(turns).to_pandas())


_BATCHES = {
    "synth": _synth_facts,
    "edges": lambda: _facts(_EDGE_ROWS),
    "empty": lambda: _facts([]),
    "all_dropped": lambda: _facts([
        {"fact_type": "location", "person": "M. Blake",
         "place": p, "category": "habitation"}
        for p in ("Atlantis, Nowhere", "Lyonesse, Cornwall", None)]),
}


def _values(s: pd.Series) -> list:
    return [None if v is None or v != v else v for v in s.tolist()]


@pytest.mark.parametrize("fuzzy_substitute", [False, True])
@pytest.mark.parametrize("case", sorted(_BATCHES))
def test_linker_matches_reference(case, fuzzy_substitute):
    batch = _BATCHES[case]()
    got = EntityLinker(fuzzy_substitute=fuzzy_substitute)(batch)
    exp = ref.ReferenceLinker(fuzzy_substitute=fuzzy_substitute)(batch)
    assert got.columns.tolist() == exp.columns.tolist()
    assert got.index.equals(exp.index)
    for c in exp.columns:
        assert _values(got[c]) == _values(exp[c]), c
    assert got["dropped"].dtype == bool
    if case == "all_dropped":
        assert got["dropped"].all()


def test_linker_edges_cover_the_ladder():
    got = EntityLinker()(_facts(_EDGE_ROWS))["link_status"].tolist()
    assert "cf=fuzzy" in got[0] and "cf=miss" in got[1]
    assert "cf=miss" in got[2]
    assert got[3] == got[4] == "person=minted;cf=miss"
    assert "occ=fuzzy" in got[7]
    sub = EntityLinker(fuzzy_substitute=True)(_facts(_EDGE_ROWS))
    assert sub["term_uri"].iloc[0].endswith("quaker")


@pytest.mark.parametrize("case", sorted(_BATCHES))
def test_template_matches_reference(case):
    linked = EntityLinker()(_BATCHES[case]())
    got = build_triples(linked)
    exp = ref.build_triples_frame(linked)
    assert got.schema == TRIPLE_SCHEMA
    assert got.equals(pa.Table.from_pandas(exp, schema=TRIPLE_SCHEMA,
                                           preserve_index=False))
    if case in ("empty", "all_dropped"):
        assert got.num_rows == 0
    if case == "edges":
        # the null-category cultural form keeps its literal, pred null
        assert exp["pred"].isna().any()


def _triples(null_lang_dtype: bool = False) -> pd.DataFrame:
    """Templated synth triples plus duplicates: a shuffled copy with
    later provenance, and duplicate keys whose (conv_id, turn_idx)
    tie with rows of other keys."""
    t = build_triples(EntityLinker()(_synth_facts(40, seed=5))).to_pandas()
    later = t.sample(frac=0.5, random_state=1).assign(
        turn_idx=lambda d: d["turn_idx"] + 1)
    earlier = t.sample(frac=0.3, random_state=2).assign(conv_id="a-first")
    out = pd.concat([t, later, earlier, t.iloc[::7]], ignore_index=True)
    out["turn_idx"] = out["turn_idx"].astype("int32")
    # a NULL lang and an empty one on the same triple stay two keys
    extra = out.iloc[:2].copy()
    extra["obj_lang"] = [None, ""]
    out = pd.concat([out, extra], ignore_index=True)
    if null_lang_dtype:
        out["obj_lang"] = None
        out["obj_datatype"] = None
    return out


@pytest.mark.parametrize("null_lang_dtype", [False, True])
def test_combine_matches_reference(null_lang_dtype):
    frame = _triples(null_lang_dtype)
    got = add_bucket_and_combine(pa.Table.from_pandas(frame,
                                                      preserve_index=False))
    exp = ref.add_bucket_and_combine(frame)
    assert got.schema == TRIPLE_SCHEMA.append(pa.field("bucket", pa.int32()))
    assert got.drop_columns(["bucket"]).equals(exp.drop_columns(["bucket"]))
    assert got.num_rows < len(frame)
    # the hash only routes: equal (subj, obj) share one bucket
    g = got.to_pandas()
    assert g.groupby(["subj", "obj"])["bucket"].nunique().max() == 1
    assert g["bucket"].between(0, N_DEDUP_BUCKETS - 1).all()


@pytest.mark.parametrize("null_lang_dtype", [False, True])
def test_dedup_matches_reference(null_lang_dtype):
    frame = _triples(null_lang_dtype).assign(bucket=np.int32(0))
    got = dedup_bucket(pa.Table.from_pandas(frame, preserve_index=False))
    exp = ref.dedup_bucket(frame)
    assert got.num_rows == len(exp) < len(frame)
    assert got.equals(pa.Table.from_pandas(exp, schema=got.schema,
                                           preserve_index=False))
    # the kept provenance is the minimum per key
    winners = got.to_pandas()
    assert (winners["conv_id"] == "a-first").sum() > 0


def test_empty_combine_and_dedup_keep_the_schema():
    empty = TRIPLE_SCHEMA.empty_table()
    combined = add_bucket_and_combine(empty)
    assert combined.num_rows == 0
    assert combined.column_names == TRIPLE_COLUMNS + ["bucket"]
    assert dedup_bucket(combined).schema == TRIPLE_SCHEMA


def test_dedup_key_id_redensifies_before_overflow(monkeypatch):
    """A key id past the bound is re-densified, not wrapped: forcing
    it after every column keeps the winners."""
    from rdf_extraction_ray.stages import dedup
    frame = _triples().assign(bucket=np.int32(0))
    table = pa.Table.from_pandas(frame, preserve_index=False)
    exp = dedup_bucket(table)
    monkeypatch.setattr(dedup, "_MAX_KEY_ID", 2)
    assert dedup_bucket(table).equals(exp)

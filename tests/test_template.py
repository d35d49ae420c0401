"""The template emitter: column arrays in, one frame or table out."""

import numpy as np
import pandas as pd
import pyarrow as pa

from rdf_extraction_ray.namespaces import TRIPLE_COLUMNS
from rdf_extraction_ray.stages import template
from rdf_extraction_ray.stages.template import _Emitter

_SCHEMA = pa.schema([(c, pa.int32() if c == "turn_idx" else pa.string())
                     for c in TRIPLE_COLUMNS])


class _FramePerEmit:
    """The emitter this one replaced: one pandas frame per emit,
    aligned on the Series index."""

    def __init__(self):
        self.parts = []

    def emit(self, subj, pred, obj, kind="uri", lang="", dtype="",
             conv=None, tidx=None, mask=None):
        df = pd.DataFrame({
            "subj": subj, "pred": pred, "obj": obj, "obj_kind": kind,
            "obj_lang": lang, "obj_datatype": dtype,
            "conv_id": conv, "turn_idx": tidx,
        })
        if mask is not None:
            df = df[np.asarray(mask)]
        df = df[df["obj"].notna() & df["subj"].notna()]
        if len(df):
            self.parts.append(df)

    def frame(self):
        if not self.parts:
            return pd.DataFrame(columns=TRIPLE_COLUMNS)
        return pd.concat(self.parts, ignore_index=True)[TRIPLE_COLUMNS]


def _rows(conv=("c1", "c1", "c2"), tidx=(0, 1, 2)):
    return pd.Series(list(conv)), pd.Series(np.array(tidx, np.int32))


class TestEmitter:
    def test_scalar_broadcast(self):
        conv, tidx = _rows()
        em = _Emitter()
        em.emit(pd.Series(["s0", "s1", "s2"]), "p", pd.Series(["o0", None, "o2"]),
                kind="literal", lang="en", conv=conv, tidx=tidx)
        out = em.frame()
        assert out.columns.tolist() == TRIPLE_COLUMNS
        assert out["subj"].tolist() == ["s0", "s2"]
        assert out["pred"].tolist() == ["p", "p"]
        assert out["obj_kind"].tolist() == ["literal", "literal"]
        assert out["obj_lang"].tolist() == ["en", "en"]
        assert out["obj_datatype"].tolist() == ["", ""]
        assert out["conv_id"].tolist() == ["c1", "c2"]
        assert out["turn_idx"].tolist() == [0, 2]
        tbl = em.table()
        assert tbl.schema == _SCHEMA
        assert tbl.to_pandas().equals(out)

    def test_all_false_mask_emits_nothing(self):
        conv, tidx = _rows()
        em = _Emitter()
        mask = pd.Series([False, False, False])
        em.emit(pd.Series(["s0", "s1", "s2"]), "p", "o", conv=conv,
                tidx=tidx, mask=mask)
        assert not em.parts
        em.emit(pd.Series(["s0", "s1", "s2"]), "p", "o", conv=conv,
                tidx=tidx, mask=~mask)
        assert em.frame()["subj"].tolist() == ["s0", "s1", "s2"]
        assert not mask.any()  # the caller's mask is left alone

    def test_all_null_obj_gives_empty_triple_schema(self):
        conv, tidx = _rows()
        em = _Emitter()
        em.emit(pd.Series(["s0", "s1", "s2"]), "p",
                pd.Series([None, np.nan, None], dtype=object),
                conv=conv, tidx=tidx)
        tbl = em.table()
        assert tbl.num_rows == 0
        assert tbl.schema == _SCHEMA
        out = em.frame()
        assert len(out) == 0 and out.columns.tolist() == TRIPLE_COLUMNS

    def test_equals_frame_per_emit(self, monkeypatch):
        """Every fact type of a synth corpus templates to the same
        frame and table as the frame-per-emit emitter."""
        from rdf_extraction_ray import synth
        from rdf_extraction_ray.pipelines.kg import _get_linker
        from rdf_extraction_ray.stages.extract import (detect_facts,
                                                       finalize_bucket)
        turns, _ = synth.generate(60, seed=13, mega_every=0)
        linked = _get_linker()(finalize_bucket(detect_facts(turns)
                                               .to_pandas()))
        got = template.build_triples_frame(linked)
        got_tbl = template.build_triples(linked)
        monkeypatch.setattr(template, "_Emitter", _FramePerEmit)
        exp = template.build_triples_frame(linked)
        assert len(exp) > 1000
        pd.testing.assert_frame_equal(got, exp)
        assert got_tbl.schema == _SCHEMA
        assert got_tbl.equals(pa.Table.from_pandas(exp, schema=_SCHEMA,
                                                   preserve_index=False))

"""The template emitter: row positions and column arrays in, one
Arrow table out."""

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
    return np.array(conv, dtype=object), np.array(tidx, np.int32)


def _obj(values):
    return np.array(values, dtype=object)


class TestEmitter:
    def test_scalar_broadcast(self):
        conv, tidx = _rows()
        em = _Emitter(conv, tidx)
        em.emit(np.arange(3), _obj(["s0", "s1", "s2"]), "p",
                _obj(["o0", None, "o2"]), kind="literal", lang="en")
        tbl = em.table()
        assert tbl.schema == _SCHEMA
        out = tbl.to_pandas()
        assert out.columns.tolist() == TRIPLE_COLUMNS
        assert out["subj"].tolist() == ["s0", "s2"]
        assert out["pred"].tolist() == ["p", "p"]
        assert out["obj_kind"].tolist() == ["literal", "literal"]
        assert out["obj_lang"].tolist() == ["en", "en"]
        assert out["obj_datatype"].tolist() == ["", ""]
        assert out["conv_id"].tolist() == ["c1", "c2"]
        assert out["turn_idx"].tolist() == [0, 2]

    def test_all_false_mask_emits_nothing(self):
        conv, tidx = _rows()
        em = _Emitter(conv, tidx)
        mask = np.array([False, False, False])
        em.emit(np.arange(3), _obj(["s0", "s1", "s2"]), "p", "o",
                mask=mask)
        assert not em.parts
        em.emit(np.arange(3), _obj(["s0", "s1", "s2"]), "p", "o",
                mask=~mask)
        assert em.table().column("subj").to_pylist() == ["s0", "s1", "s2"]
        assert not mask.any()  # the caller's mask is left alone

    def test_all_null_obj_gives_empty_triple_schema(self):
        conv, tidx = _rows()
        em = _Emitter(conv, tidx)
        em.emit(np.arange(3), _obj(["s0", "s1", "s2"]), "p",
                _obj([None, np.nan, None]))
        tbl = em.table()
        assert tbl.num_rows == 0
        assert tbl.schema == _SCHEMA
        assert _Emitter(conv, tidx).table().schema == _SCHEMA

    def test_equals_frame_per_emit(self, monkeypatch):
        """Every fact type of a synth corpus templates to the same
        rows, in the same order, as the pandas template body this one
        replaced, run with the frame-per-emit emitter."""
        import kg_reference

        from rdf_extraction_ray import synth
        from rdf_extraction_ray.pipelines.kg import _get_linker
        from rdf_extraction_ray.stages.extract import (detect_facts,
                                                       finalize_bucket)
        turns, _ = synth.generate(60, seed=13, mega_every=0)
        linked = _get_linker()(finalize_bucket(detect_facts(turns)
                                               .to_pandas()))
        got_tbl = template.build_triples(linked)
        got = template.build_triples_frame(linked)
        monkeypatch.setattr(kg_reference, "_Emitter", _FramePerEmit)
        exp = kg_reference.build_triples_frame(linked)
        assert len(exp) > 1000
        assert got_tbl.schema == _SCHEMA
        assert got_tbl.equals(pa.Table.from_pandas(exp, schema=_SCHEMA,
                                                   preserve_index=False))
        pd.testing.assert_frame_equal(got, got_tbl.to_pandas())

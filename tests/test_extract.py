"""Unit tests for detection patterns + conversation finalization rules."""

import pandas as pd
import pyarrow as pa

from rdf_extraction_ray.stages.extract import (
    CAND_COLUMNS,
    detect_facts,
    finalize_bucket,
    _detect_one,
)


def _one(text):
    return _detect_one(text)


class TestDetection:
    def test_birth_certainty_markers(self):
        for marker, cert in [("on", "CERT"), ("by", "BY"),
                             ("after", "AFTER"), ("around", "ROUGHLYDATED")]:
            f = _one(f"Margaret Blake was born {marker} 1851 in Bath, Somerset.")
            assert f[0]["fact_type"] == "birth"
            assert f[0]["certainty"] == cert
            assert f[0]["date"] == "1851"
            assert f[0]["place"] == "Bath, Somerset"

    def test_death(self):
        f = _one("M. Blake died of typhoid fever on 1899-12 in Norwich, Norfolk.")
        assert f[0]["fact_type"] == "death"
        assert f[0]["term"] == "typhoid fever"
        assert f[0]["person"] == "M. Blake"

    def test_burial_keywords(self):
        for kw in ("buried", "grave", "interred"):
            f = _one(f"Margaret Blake was {kw} in Bath, Somerset.")
            assert f[0]["fact_type"] == "burial"

    def test_occupation_paid_vs_volunteer(self):
        assert _one("Agnes Whitfield worked as a governess.")[0]["category"] == "paid"
        assert _one("Agnes Whitfield volunteered as a nurse.")[0]["category"] == "volunteer"

    def test_income(self):
        f = _one("Agnes Whitfield earned 120 pounds a year.")
        assert f[0]["fact_type"] == "income" and f[0]["amount"] == "120"

    def test_moved_two_facts(self):
        f = _one("Lucy Penrose moved to Bath, Somerset, leaving Frome, Gloucestershire.")
        assert [x["category"] for x in f] == ["relocation", "spatialRelationship"]
        assert f[0]["place"] == "Bath, Somerset"
        assert f[1]["place"] == "Frome, Gloucestershire"

    def test_migration_two_facts(self):
        f = _one("Lucy Penrose migrated to Bath, Somerset from Whitby, Yorkshire.")
        assert [x["category"] for x in f] == ["migration", "emigration"]

    def test_simple_locations(self):
        assert _one("Ida Jessop lived in Bath, Somerset.")[0]["category"] == "habitation"
        assert _one("Ida Jessop travelled to Bath, Somerset.")[0]["category"] == "travel"
        assert _one("Ida Jessop visited Bath, Somerset.")[0]["category"] == "visit"

    def test_cultural_forms(self):
        assert _one("Nora Ingram was Methodist by religion.")[0]["category"] == "religion"
        assert _one("Nora Ingram identified as Cornish.")[0]["category"] == "nationality"
        assert _one("Nora Ingram's gender was female.")[0]["category"] == "gender"

    def test_family_and_friend(self):
        f = _one("Maud Fairfax's mother was Edith Whitfield.")
        assert f[0]["fact_type"] == "family" and f[0]["term"] == "mother"
        assert f[0]["other"] == "Edith Whitfield"
        assert _one("Maud Fairfax was a close friend of Vera Lanyon.")[0]["category"] == "friend"
        assert _one("Maud Fairfax lived with Vera Lanyon.")[0]["category"] == "cohabitant"

    def test_childlessness_classifier(self):
        f = _one("Regarding children, Clara Mortimer was marked by adoption.")
        assert f[0]["category"] == "adoption"
        f = _one("Regarding children, Clara Mortimer was marked by contraception.")
        assert f[0]["category"] == "birthControl"

    def test_education(self):
        f = _one("Olive Kirkwood studied botany at the Bath Athenaeum Society.")
        assert f[0]["category"] == "study" and f[0]["org"] == "Bath Athenaeum Society"
        f = _one("Olive Kirkwood earned a master of arts in philology.")
        assert f[0]["category"] == "degree" and f[0]["term"] == "master of arts"

    def test_title_org_biographer(self):
        assert _one('Gwen Holloway wrote "The Glass Orchard".')[0]["title"] == \
            "The Glass Orchard"
        assert _one("Gwen Holloway joined the Norwich Circulating Library.")[0]["org"] == \
            "Norwich Circulating Library"
        f = _one("Her biographer Hugh Drummond recorded much of this.")
        assert f[0]["fact_type"] == "biographer" and f[0]["other"] == "Hugh Drummond"

    def test_subject_declaration_and_noise(self):
        assert _one("Tell me about Margaret Blake.")[0]["fact_type"] == "_subject"
        assert _one("What happened next?") == []
        assert _one("The records are unclear on this point.") == []

    @staticmethod
    def _assert_matches_detect_one(turns):
        """The batch detector's rows equal the rows the scalar spec
        (_detect_one) gives turn by turn; a null text carries no
        facts."""
        from rdf_extraction_ray.functions.text import limit_to_full_sentences
        got = detect_facts(turns).to_pandas()
        exp_rows = []
        for cid, ti, ro, tx in zip(turns.column("conv_id").to_pylist(),
                                   turns.column("turn_idx").to_pylist(),
                                   turns.column("role").to_pylist(),
                                   turns.column("text").to_pylist()):
            if tx is None:
                continue
            if ro == "user":
                cands = [c for c in _detect_one(tx)
                         if c["fact_type"] == "_subject"]
            elif ro == "assistant":
                cands = _detect_one(tx)
            else:
                continue
            for ci, cand in enumerate(cands):
                row = {c: None for c in CAND_COLUMNS}
                row.update(cand)
                row.update(conv_id=cid, turn_idx=ti, seq=-1, cand_idx=ci,
                           snippet=limit_to_full_sentences(tx, 35))
                exp_rows.append(row)
        exp = pd.DataFrame(exp_rows, columns=CAND_COLUMNS)
        cols = [c for c in CAND_COLUMNS if c != "bucket"]
        key = ["conv_id", "turn_idx", "cand_idx"]
        g = got[cols].sort_values(key, ignore_index=True).fillna("")
        e = exp[cols].sort_values(key, ignore_index=True).fillna("")
        pd.testing.assert_frame_equal(g, e, check_dtype=False)
        return got

    def test_detect_facts_matches_detect_one(self):
        """Differential over a synth corpus that exercises every
        pattern."""
        from rdf_extraction_ray import synth
        turns, _ = synth.generate(60, seed=13, mega_every=0)
        self._assert_matches_detect_one(turns)

    def test_detect_facts_matches_detect_one_edge_cases(self):
        texts = [
            ("user", "Tell me about Zoë Ångström."),
            ("assistant", None),
            # $ matches before one trailing newline in Python re
            ("assistant", "Margaret Blake was born on 1851 in Bath, Somerset.\n"),
            ("user", "Tell me about Margaret Blake.\n"),
            # non-ASCII names fall outside _NAME; non-ASCII fields match
            ("assistant", "Zoë Ångström was born on 1851 in Bath, Somerset."),
            ("assistant", "Zoe Smith was born on 1851 in Zürich, Schweiz."),
            ("assistant", "Zoe Smith's gender was fémale."),
            # matches location AND event: the earlier pattern wins
            ("assistant", "On Ann visited Bath, a fair took place in Wells."),
            ("assistant", "Ann Lee moved to Bath, Somerset, leaving Frome, Somerset.\n"),
        ]
        turns = pa.table({
            "conv_id": ["c1"] * len(texts),
            "turn_idx": pa.array(range(len(texts)), pa.int32()),
            "role": [r for r, _ in texts],
            "text": pa.array([t for _, t in texts], pa.string()),
        })
        got = self._assert_matches_detect_one(turns).sort_values(
            ["turn_idx", "cand_idx"], ignore_index=True)
        facts = list(zip(got["turn_idx"], got["fact_type"], got["category"]))
        assert facts == [
            (2, "birth", None), (3, "_subject", None), (5, "birth", None),
            (6, "culturalform", "gender"), (7, "location", "visit"),
            (8, "location", "relocation"),
            (8, "location", "spatialRelationship")]
        assert got.loc[0, "place"] == "Bath, Somerset"
        assert got.loc[2, "place"] == "Zürich, Schweiz"
        assert got.loc[3, "term"] == "fémale"
        # a block without facts keeps the candidate schema
        assert detect_facts(turns.slice(1, 1)).schema == \
            detect_facts(turns).schema

    def test_detect_facts_batch_shape(self):
        tbl = pa.table({
            "conv_id": ["c1", "c1", "c1"],
            "turn_idx": pa.array([0, 1, 2], pa.int32()),
            "role": ["system", "user", "assistant"],
            "text": ["You are a researcher.", "Tell me about Margaret Blake.",
                     "Margaret Blake was born on 1851 in Bath, Somerset."],
        })
        out = detect_facts(tbl)
        assert out.column_names == CAND_COLUMNS
        assert out.num_rows == 2  # _subject + birth
        assert out.column("bucket").to_pylist()[0] is not None


def _cand(conv, tidx, ci, ft, **kw):
    row = {c: None for c in CAND_COLUMNS}
    row.update(conv_id=conv, turn_idx=tidx, cand_idx=ci, seq=-1,
               fact_type=ft, snippet="s", bucket=0, **kw)
    return row


class TestFinalize:
    def test_burial_requires_prior_death(self):
        df = pd.DataFrame([
            _cand("c1", 2, 0, "burial", person="A B", place="Bath, Somerset"),
            _cand("c2", 1, 0, "death", person="A B", term="cholera",
                  date="1850", place="Bath, Somerset"),
            _cand("c2", 2, 0, "burial", person="A B", place="Bath, Somerset"),
        ])
        out = finalize_bucket(df)
        kinds = out.groupby("conv_id")["fact_type"].apply(list).to_dict()
        assert kinds == {"c2": ["death", "burial"]}  # c1 burial dropped

    def test_moved_occurrence_quirk(self):
        # 'leaving X' survives only when X occurs in no other location
        # mention of the conversation (location.py:74-103)
        df = pd.DataFrame([
            _cand("c1", 1, 0, "location", person="A B",
                  place="Bath, Somerset", category="relocation"),
            _cand("c1", 1, 1, "location", person="A B",
                  place="Frome, Somerset", category="spatialRelationship"),
            _cand("c1", 2, 0, "location", person="A B",
                  place="Frome, Somerset", category="habitation"),
            _cand("c2", 1, 1, "location", person="A B",
                  place="Frome, Somerset", category="spatialRelationship"),
        ])
        out = finalize_bucket(df)
        c1 = out[out["conv_id"] == "c1"]
        assert "spatialRelationship" not in set(c1["category"])  # dupe → dropped
        c2 = out[out["conv_id"] == "c2"]
        assert set(c2["category"]) == {"spatialRelationship"}  # unique → kept

    def test_seq_minted_in_document_order_per_conv(self):
        df = pd.DataFrame([
            _cand("c1", 5, 0, "org", person="A B", org="X"),
            _cand("c1", 2, 0, "income", person="A B", amount="5"),
            _cand("c2", 3, 0, "org", person="A B", org="X"),
        ])
        out = finalize_bucket(df)
        c1 = out[out["conv_id"] == "c1"].sort_values("turn_idx")
        assert c1["seq"].tolist() == [0, 1]
        assert c1.iloc[0]["fact_type"] == "income"  # turn 2 before turn 5
        assert out[out["conv_id"] == "c2"]["seq"].tolist() == [0]

    def test_biographer_gets_subject(self):
        df = pd.DataFrame([
            _cand("c1", 1, 0, "_subject", person="Margaret Blake"),
            _cand("c1", 2, 0, "biographer", person=None,
                  other="Hugh Drummond", category="biographer"),
        ])
        out = finalize_bucket(df)
        assert out.iloc[0]["person"] == "Margaret Blake"

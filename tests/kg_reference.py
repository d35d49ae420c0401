"""The pandas KG body that the Arrow/numpy one replaced, kept as a
reference for the differential tests in ``test_kg_body.py``: the
``Series.map`` linker, the sub-frame-per-fact-type template with its
column-array emitter, and the ``drop_duplicates`` combiner and dedup.
Not used by the library."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from rdf_extraction_ray.functions.dates import (date_parse,
                                                timestamp_predicate,
                                                xsd_datatype_for)
from rdf_extraction_ray.functions.text import (clean_term,
                                               clean_term_stemmed,
                                               limit_words,
                                               make_standard_uri)
from rdf_extraction_ray.namespaces import NS, TRIPLE_COLUMNS, uri
from rdf_extraction_ray.stages.dedup import N_DEDUP_BUCKETS, TRIPLE_KEY
from rdf_extraction_ray.stages.link import EntityLinker
from rdf_extraction_ray.stages.template import (CF_PRED, CONTEXT_CLASS,
                                                LANG_PRED, LOCATION_PRED,
                                                OTHER_CONTEXT_CLASS)
from rdf_extraction_ray.state.fixtures import FAMILY_RELATIONS

_MAX_PROFILE_WORDS = 35
_R = NS["rdf"] + "type"
_LABEL = NS["rdfs"] + "label"


# ------------------------------------------------------------- linker

def _map_unique(series: pd.Series, fn) -> pd.Series:
    """Apply ``fn`` once per UNIQUE non-null value of ``series`` —
    batch-level memoization for the scalar cleanup/minting functions."""
    uniq = pd.unique(series.dropna())
    return series.map({u: fn(u) for u in uniq})


class ReferenceLinker(EntityLinker):
    """The linker with its pandas ``__call__``."""

    def _vocab_series(self, table: dict[str, str], keys: pd.Series,
                      kind: str, memo_kind: str | None = None
                      ) -> tuple[pd.Series, pd.Series]:
        """Vectorized ``_vocab``: dict map for the exact rung, Python
        only on unique misses (fuzzy diagnostic, memoized per actor)."""
        hit = keys.map(table)
        status = pd.Series(
            np.where(hit.notna(), f"{kind}=linked", ""), index=keys.index)
        miss = hit.isna()
        if miss.any():
            mk = keys[miss]
            mkind = memo_kind or kind
            close = mk.map({k: self._fuzzy_lookup(table, mkind, k)
                            for k in pd.unique(mk)})
            status[miss] = np.where(close.notna(), f"{kind}=fuzzy",
                                    f"{kind}=miss")
            if self.fuzzy_substitute:
                hit[miss] = close
        return hit, status

    def _mint_series(self, surfaces: pd.Series, slot: str,
                     table: dict, mint, keyfn=None
                     ) -> tuple[pd.Series, pd.Series]:
        """Shared dict-hit-else-mint slot linker: lookup (optionally
        through a cleaned key), mint deterministically on miss, and
        report linked/minted status."""
        keys = (_map_unique(surfaces, keyfn) if keyfn is not None
                else surfaces)
        hit = keys.map(table)
        mint_mask = surfaces.notna() & hit.isna()
        uri = hit.copy()
        if mint_mask.any():
            uri[mint_mask] = _map_unique(surfaces[mint_mask], mint)
        status = pd.Series(np.where(
            surfaces.isna(), "",
            np.where(hit.notna(), f"{slot}=linked", f"{slot}=minted")),
            index=surfaces.index)
        return uri, status

    def _person_series(self, surfaces: pd.Series,
                       slot: str) -> tuple[pd.Series, pd.Series]:
        return self._mint_series(surfaces, slot, self.people,
                                 make_standard_uri)

    def _place_series(self, surfaces: pd.Series,
                      slot: str) -> tuple[pd.Series, pd.Series]:
        uri = _map_unique(surfaces, clean_term).map(self.places)
        status = pd.Series(np.where(
            surfaces.isna(), "",
            np.where(uri.notna(), f"{slot}=linked", f"{slot}=miss")),
            index=surfaces.index)
        return uri, status

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        idx = batch.index
        ft = batch["fact_type"]

        p_uri, p_status = self._person_series(batch["person"], "person")
        o_uri, o_status = self._person_series(batch["other"], "other")
        pl_uri, pl_status = self._place_series(batch["place"], "place")
        # place2 gazetteer slot: part of the declared linker API for
        # location rows (pinned by the scalar-ladder differential
        # test) even though the current extractor only populates
        # place2 on education "degree" rows, where template.py reads
        # it as a raw literal — so on extractor output this lookup
        # sees only nulls
        p2 = batch["place2"].where(ft == "location")
        p2_uri, p2_status = self._place_series(p2, "place2")

        # term → vocabulary, routed by fact type
        term = batch["term"]
        t_uri = pd.Series(np.full(len(batch), None, dtype=object), index=idx)
        t_status = pd.Series("", index=idx)
        for mask, table, keyfn, kind in (
                ((ft == "occupation") & term.notna(),
                 self.occupations, clean_term, "occ"),
                ((ft == "death") & term.notna(),
                 self.causes, clean_term, "cod"),
                ((ft == "education") & (batch["category"] == "degree")
                 & term.notna(), self.degrees, clean_term, "edu")):
            if mask.any():
                u, s = self._vocab_series(table,
                                          _map_unique(term[mask], keyfn),
                                          kind)
                t_uri[mask] = u
                t_status[mask] = s
        cfm = (ft == "culturalform") & term.notna()
        if cfm.any():
            for cat, g in batch.loc[cfm].groupby("category", dropna=False):
                cat_key = cat if isinstance(cat, str) else ""
                table = self.cultural_forms.get(cat_key, {})
                u, s = self._vocab_series(
                    table, _map_unique(g["term"], clean_term_stemmed),
                    "cf", memo_kind=f"cf:{cat_key}")
                t_uri[g.index] = u
                t_status[g.index] = s

        org_uri, org_status = self._mint_series(
            batch["org"], "org", self.orgs,
            lambda s: make_standard_uri(s + " ORG"), keyfn=clean_term)

        # link_status: non-empty slot statuses joined with ";" in the
        # fixed slot order person, other, place, place2, term, org
        combined = np.full(len(batch), "", dtype=object)
        for part in (p_status, o_status, pl_status, p2_status, t_status,
                     org_status):
            pv = part.to_numpy()
            combined = np.where(
                pv == "", combined,
                np.where(combined == "", pv, combined + ";" + pv))

        out["person_uri"] = p_uri
        out["other_uri"] = o_uri
        out["place_uri"] = pl_uri
        out["place2_uri"] = p2_uri
        out["term_uri"] = t_uri
        out["org_uri"] = org_uri
        out["person_sex"] = p_uri.map(self._sex_by_uri)
        out["link_status"] = combined

        # location facts whose place failed the gazetteer are marked
        # dropped — the reference filters Location(value=None)
        # (location.py:120) — but the row is KEPT so the miss counters
        # (§2.6 A3) can still aggregate link_status; templating skips
        # dropped rows.
        out["dropped"] = ((out["fact_type"] == "location")
                          & out["place_uri"].isna())
        return out


# ----------------------------------------------------------- template

class _Emitter:
    """Accumulates homogeneous triple column-arrays cheaply: each
    :meth:`emit` keeps only its masked, non-null numpy columns (a
    scalar stays a scalar), and :meth:`frame` builds ONE frame per
    call from their concatenation."""

    def __init__(self):
        self.parts: list[tuple[int, list]] = []

    def emit(self, subj, pred, obj, kind="uri", lang="", dtype="",
             conv=None, tidx=None, mask=None):
        """Each arg is a Series/array (aligned by position) or scalar;
        mask selects. Rows with a null ``subj`` or ``obj`` are dropped."""
        cols = [c if np.ndim(c) == 0 else np.asarray(c)
                for c in (subj, pred, obj, kind, lang, dtype, conv, tidx)]
        n = next(len(c) for c in cols if np.ndim(c))
        keep = (np.ones(n, bool) if mask is None
                else np.asarray(mask, bool).copy())
        for c in cols[0], cols[2]:
            keep &= pd.notna(c)
        k = int(keep.sum())
        if k:
            self.parts.append((k, [c if np.ndim(c) == 0 else c[keep]
                                   for c in cols]))

    def _columns(self) -> dict:
        return {name: np.concatenate([
                    cols[j] if np.ndim(cols[j])
                    else np.full(k, cols[j], dtype=object)
                    for k, cols in self.parts])
                for j, name in enumerate(TRIPLE_COLUMNS)}

    def frame(self) -> pd.DataFrame:
        if not self.parts:
            return pd.DataFrame(columns=TRIPLE_COLUMNS)
        return pd.DataFrame(self._columns())


def _date_columns(dates: pd.Series) -> tuple[list, list, list, list]:
    """Row-wise date scalar pass (strptime waterfall stays row-wise):
    returns (lexical, datatype, start_iso-or-None, ok)."""
    lex, dtyp, start, ok = [], [], [], []
    for d in dates:
        if d is None or d != d:
            lex.append(None); dtyp.append(""); start.append(None); ok.append(False)
            continue
        l, t = xsd_datatype_for(d)
        lex.append(l); dtyp.append("" if t == "" else t)
        s, good, _ = date_parse(d)
        start.append(s if good else None)
        ok.append(good)
    return lex, dtyp, start, ok


def _emit_triples(batch: pd.DataFrame) -> _Emitter:
    """Shared body: linked fact rows → triple emitter."""
    b = batch[~batch["dropped"].astype(bool)].reset_index(drop=True)
    if not len(b):
        return _Emitter()
    em = _Emitter()
    conv = b["conv_id"]
    tidx = b["turn_idx"]
    data_ns = NS["data"]
    C = data_ns + conv + "_context_" + b["seq"].astype(str)
    A = data_ns + conv + "_activity_" + b["seq"].astype(str)
    TURN = data_ns + conv + "_turn_" + tidx.astype(str)
    P = b["person_uri"]
    ctx_class = b["fact_type"].map(CONTEXT_CLASS)
    oc = (b["fact_type"] == "othercontext")
    if oc.any():  # per-category class (HealthContext etc.)
        ctx_class = ctx_class.where(
            ~oc, b["category"].map(OTHER_CONTEXT_CLASS))
    ctx_class = ctx_class.map(
        lambda c: uri("kg", c) if isinstance(c, str) else None)

    # ---- context frame (every fact): type, subject, target, snippet
    em.emit(C, _R, ctx_class, conv=conv, tidx=tidx)
    em.emit(C, uri("kg", "hasSubject"), P, conv=conv, tidx=tidx)
    em.emit(C, NS["oa"] + "hasTarget", TURN, conv=conv, tidx=tidx)
    em.emit(C, uri("kg", "snippet"), b["snippet"], kind="literal", lang="en",
            conv=conv, tidx=tidx)
    # ---- person node (collapses in dedup)
    em.emit(P, _R, NS["crm"] + "E21_Person", conv=conv, tidx=tidx)

    ft = b["fact_type"]

    # ---------------------------------------------------------- birth/death
    for kind, ev_class, ev_pred, date_pred, place_pred in (
            ("birth", "E67_Birth", "P98_brought_into_life",
             "hasBirthDate", "hasBirthPlace"),
            ("death", "E69_Death", "P100_was_death_of",
             "hasDeathDate", "hasDeathPlace")):
        m = (ft == kind).to_numpy()
        if not m.any():
            continue
        sub = b[m]
        lex, dtyp, start, ok = _date_columns(sub["date"])
        sA, sP = A[m], P[m]
        em.emit(sA, _R, NS["crm"] + ev_class, conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(sA, NS["crm"] + ev_pred, sP, conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(sP, uri("kg", date_pred), pd.Series(lex, index=sub.index),
                kind="literal", dtype=pd.Series(dtyp, index=sub.index),
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        # place: gazetteer URI when linked, else the raw surface literal
        linked = sub["place_uri"].notna()
        em.emit(sP, uri("kg", place_pred), sub["place_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=linked)
        em.emit(sP, uri("kg", place_pred), sub["place"], kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=~linked)
        # SEM timestamp (certainty → predicate choice, event.py:176-191)
        ts_pred = sub["certainty"].fillna("").map(
            lambda c: NS["sem"] + timestamp_predicate(c))
        em.emit(sA, ts_pred, pd.Series(start, index=sub.index), kind="literal",
                dtype="xsd:dateTime", conv=sub["conv_id"], tidx=sub["turn_idx"])
        if kind == "death":
            cod_linked = sub["term_uri"].notna()
            em.emit(sP, uri("kg", "hasCauseOfDeath"), sub["term_uri"],
                    conv=sub["conv_id"], tidx=sub["turn_idx"], mask=cod_linked)
            em.emit(sP, uri("kg", "hasCauseOfDeath"), sub["term"],
                    kind="literal", conv=sub["conv_id"],
                    tidx=sub["turn_idx"], mask=~cod_linked)

    # -------------------------------------------------------------- burial
    m = (ft == "burial").to_numpy()
    if m.any():
        sub = b[m]
        linked = sub["place_uri"].notna()
        em.emit(P[m], uri("kg", "hasBurialPlace"), sub["place_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=linked)
        em.emit(P[m], uri("kg", "hasBurialPlace"), sub["place"],
                kind="literal", conv=sub["conv_id"], tidx=sub["turn_idx"],
                mask=~linked)

    # ---------------------------------------------------------- occupation
    m = (ft == "occupation").to_numpy()
    if m.any():
        sub = b[m]
        em.emit(A[m], _R, NS["crm"] + "E7_Activity",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(A[m], NS["crm"] + "P14_carried_out_by", P[m],
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        pred = sub["category"].map({
            "paid": uri("kg", "hasPaidOccupation"),
            "volunteer": uri("kg", "hasVolunteerOccupation")})
        linked = sub["term_uri"].notna()
        em.emit(P[m], pred, sub["term_uri"], conv=sub["conv_id"],
                tidx=sub["turn_idx"], mask=linked)
        em.emit(P[m], pred, sub["term"], kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=~linked)

    m = (ft == "income").to_numpy()
    if m.any():
        sub = b[m]
        em.emit(P[m], uri("kg", "hasIncome"), sub["amount"], kind="literal",
                dtype="xsd:int", conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ------------------------------------------------------------ location
    m = (ft == "location").to_numpy()
    if m.any():
        sub = b[m]
        pred = sub["category"].map(LOCATION_PRED).map(lambda p: uri("kg", p))
        em.emit(P[m], pred, sub["place_uri"], conv=sub["conv_id"],
                tidx=sub["turn_idx"])

    # ------------------------------------------------------- cultural form
    m = (ft == "culturalform").to_numpy()
    if m.any():
        sub = b[m]
        is_lang = (sub["category"] == "language").to_numpy()
        pred = pd.Series(np.where(
            is_lang,
            sub["certainty"].map(lambda c: uri(
                "kg", LANG_PRED.get(c or "", "hasLinguisticAbility"))),
            sub["category"].map(
                lambda c: uri("kg", CF_PRED[c]) if c in CF_PRED else None)),
            index=sub.index)
        linked = sub["term_uri"].notna()
        em.emit(P[m], pred, sub["term_uri"], conv=sub["conv_id"],
                tidx=sub["turn_idx"], mask=linked)
        em.emit(P[m], pred, sub["term"], kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=~linked)

    # -------------------------------------------------------------- family
    m = (ft == "family").to_numpy()
    if m.any():
        sub = b[m]
        fwd = sub["term"].map(lambda r: uri("kg", FAMILY_RELATIONS[r][0]))
        # sex-conditional inverse (lifeInfo.py:294-467): the inverse
        # predicate names the SUBJECT as seen from the other person
        inv = [uri("kg", FAMILY_RELATIONS[r][1] if sx == "MALE"
                   else FAMILY_RELATIONS[r][2])
               for r, sx in zip(sub["term"], sub["person_sex"])]
        em.emit(P[m], fwd, sub["other_uri"], conv=sub["conv_id"],
                tidx=sub["turn_idx"])
        em.emit(sub["other_uri"], pd.Series(inv, index=sub.index), P[m],
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # -------------------------------------------------------------- friend
    m = (ft == "friend").to_numpy()
    if m.any():
        sub = b[m]
        pred = sub["category"].map({
            "friend": uri("kg", "interpersonalRelationshipWith"),
            "cohabitant": uri("kg", "cohabitant")})
        em.emit(P[m], pred, sub["other_uri"], conv=sub["conv_id"],
                tidx=sub["turn_idx"])

    # ------------------------------------------------------- childlessness
    m = (ft == "childlessness").to_numpy()
    if m.any():
        sub = b[m]
        em.emit(P[m], uri("kg", "reproductiveHistory"),
                sub["category"].map(lambda c: uri("kg", c)),
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ----------------------------------------------------------- education
    m = ((ft == "education") & (b["category"] == "study")).to_numpy()
    if m.any():
        sub = b[m]
        em.emit(P[m], uri("kg", "studiedSubject"), sub["term"],
                kind="literal", conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(P[m], uri("kg", "attendedSchool"), sub["org_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"])
    m = ((ft == "education") & (b["category"] == "degree")).to_numpy()
    if m.any():
        sub = b[m]
        linked = sub["term_uri"].notna()
        em.emit(P[m], uri("kg", "holdsDegree"), sub["term_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=linked)
        em.emit(P[m], uri("kg", "holdsDegree"), sub["term"], kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=~linked)
        em.emit(P[m], uri("kg", "studiedSubject"), sub["place2"],
                kind="literal", conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ---------------------------------------------------------------- title
    m = (ft == "title").to_numpy()
    if m.any():
        sub = b[m]
        W = sub["title"].map(lambda t: make_standard_uri(t + " TITLE"))
        em.emit(P[m], uri("kg", "authorOf"), W, conv=sub["conv_id"],
                tidx=sub["turn_idx"])
        em.emit(W, _R, uri("kg", "Title"), conv=sub["conv_id"],
                tidx=sub["turn_idx"])
        em.emit(W, _LABEL, sub["title"], kind="literal", lang="en",
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ------------------------------------------------------------------ org
    m = (ft == "org").to_numpy()
    if m.any():
        sub = b[m]
        em.emit(P[m], uri("kg", "memberOf"), sub["org_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ----------------------------------------------------------- biographer
    m = (ft == "biographer").to_numpy()
    if m.any():
        sub = b[m]
        em.emit(P[m], uri("kg", "hasBiographer"), sub["other_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ---------------------------------------------------------- person name
    # typed name entities (reference personname.py:131-269): nickname →
    # a Nickname node with label; birth name → a BirthName node with
    # given/surname parts (personname.py:241-269)
    m = ((ft == "personname") & (b["category"] == "nickname")).to_numpy()
    if m.any():
        sub = b[m]
        N = sub["term"].map(lambda t: make_standard_uri(t + " NAME"))
        em.emit(P[m], uri("kg", "hasNickname"), N,
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, _R, uri("kg", "Nickname"),
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, _LABEL, sub["term"], kind="literal", lang="en",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
    m = ((ft == "personname") & (b["category"] == "birthname")).to_numpy()
    if m.any():
        sub = b[m]
        N = sub["other"].map(lambda t: make_standard_uri(t + " BIRTHNAME"))
        given = sub["other"].map(lambda t: t.rsplit(" ", 1)[0])
        surname = sub["other"].map(lambda t: t.rsplit(" ", 1)[-1])
        em.emit(P[m], uri("kg", "hasBirthName"), N,
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, _R, uri("kg", "BirthName"),
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, uri("kg", "givenName"), given, kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, uri("kg", "surname"), surname, kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ------------------------------------------------------ profile summary
    # author-summary profile literal, hard 35-word limit (reference
    # writing_extraction.py:29-70 + utilities.py:30 MAX_WORD_COUNT)
    m = (ft == "profile").to_numpy()
    if m.any():
        sub = b[m]
        prof = sub["term"].map(
            lambda t: limit_words(t, _MAX_PROFILE_WORDS))
        em.emit(P[m], uri("kg", "hasProfileDescription"), prof,
                kind="literal", lang="en",
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # ------------------------------------------------------- other contexts
    # VIOLENCE/WEALTH/LEISURE/HEALTH → identifying context + generic
    # E7 activity (reference other_contexts.py:14-109)
    m = (ft == "othercontext").to_numpy()
    if m.any():
        sub = b[m]
        em.emit(A[m], _R, NS["crm"] + "E7_Activity",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(A[m], NS["crm"] + "P14_carried_out_by", P[m],
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        cat = sub["category"]
        em.emit(P[m], uri("kg", "hasHealthCondition"), sub["term"],
                kind="literal", conv=sub["conv_id"], tidx=sub["turn_idx"],
                mask=(cat == "health"))
        em.emit(P[m], uri("kg", "hasLeisureActivity"), sub["term"],
                kind="literal", conv=sub["conv_id"], tidx=sub["turn_idx"],
                mask=(cat == "leisure"))
        em.emit(P[m], uri("kg", "inheritedWealth"), sub["amount"],
                kind="literal", dtype="xsd:int", conv=sub["conv_id"],
                tidx=sub["turn_idx"], mask=(cat == "wealth"))
        viol = (cat == "violence")
        if viol.any():
            linked = sub["place_uri"].notna()
            em.emit(P[m], uri("kg", "experiencedViolenceAt"),
                    sub["place_uri"], conv=sub["conv_id"],
                    tidx=sub["turn_idx"], mask=(viol & linked))
            em.emit(P[m], uri("kg", "experiencedViolenceAt"), sub["place"],
                    kind="literal", conv=sub["conv_id"],
                    tidx=sub["turn_idx"], mask=(viol & ~linked))

    # ------------------------------------------------------------- citation
    # BIBCIT → cito:Citation + refers-to wiring (Utils/citation.py:27-72)
    m = (ft == "citation").to_numpy()
    if m.any():
        sub = b[m]
        N = data_ns + sub["conv_id"] + "_citation_" + sub["seq"].astype(str)
        W = sub["title"].map(lambda t: make_standard_uri(t + " TITLE"))
        em.emit(N, _R, NS["cito"] + "Citation",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, NS["cito"] + "hasCitedEntity", W,
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(N, uri("kg", "pageNumber"), sub["amount"], kind="literal",
                dtype="xsd:int", conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(C[m], uri("kg", "hasCitation"), N,
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    # --------------------------------------------------- freestanding event
    # person-less SEM event (reference freestanding_events.py:50-103;
    # blank-node place skolemized per SURVEY §7.5.6)
    m = (ft == "event").to_numpy()
    if m.any():
        sub = b[m]
        E = data_ns + sub["conv_id"] + "_event_" + sub["seq"].astype(str)
        lex, dtyp, start, ok = _date_columns(sub["date"])
        em.emit(E, _R, NS["sem"] + "Event",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        em.emit(E, _LABEL, sub["term"], kind="literal", lang="en",
                conv=sub["conv_id"], tidx=sub["turn_idx"])
        linked = sub["place_uri"].notna()
        em.emit(E, NS["sem"] + "hasPlace", sub["place_uri"],
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=linked)
        em.emit(E, NS["sem"] + "hasPlace", sub["place"], kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"], mask=~linked)
        em.emit(E, NS["sem"] + "hasTimeStamp",
                pd.Series(start, index=sub.index), kind="literal",
                dtype="xsd:dateTime", conv=sub["conv_id"],
                tidx=sub["turn_idx"])
        # unparseable dates stay lexical (event.py:90-110 quirk)
        lex_only = pd.Series(lex, index=sub.index).where(
            ~pd.Series(ok, index=sub.index), None)
        em.emit(E, NS["sem"] + "hasTime", lex_only, kind="literal",
                conv=sub["conv_id"], tidx=sub["turn_idx"])

    return em


def build_triples_frame(batch: pd.DataFrame) -> pd.DataFrame:
    return _emit_triples(batch).frame()


# ------------------------------------------------------ combine, dedup

def add_bucket_and_combine(batch: pd.DataFrame):
    """map_batches combiner: local dedup + deterministic hash bucket.

    Returns an ARROW table: the combiner's output is exactly what the
    dedup exchange ships, and Arrow string blocks are ~3x smaller than
    pandas object blocks (measured 3.5 GB → 1.2 GB at 6M triples,
    shuffle 7.7s → 5.5s at 32 CPUs)."""
    b = (batch.sort_values(["conv_id", "turn_idx"], kind="stable")
         .drop_duplicates(TRIPLE_KEY, keep="first"))
    # bucket on a SUBSET of the key: rows equal on the full 6-column
    # key are equal on (subj, obj), so all duplicates still co-locate
    # — and hashing 2 string columns instead of 6 was the hottest
    # kernel in the whole headline profile (2.9s -> ~1s at 2.7M rows).
    # Equality in dedup_bucket still checks the FULL key.
    key = b[["subj", "obj"]].fillna("")
    h = pd.util.hash_pandas_object(key, index=False)
    b = b.assign(bucket=(h % N_DEDUP_BUCKETS).astype("int32"))
    # explicit schema: an all-null column (e.g. obj_lang in one block)
    # must stay string, never infer to pa.null and wobble the schema
    return pa.table({c: pa.array(b[c], from_pandas=True,
                                 type=pa.int32() if c in ("turn_idx",
                                                          "bucket")
                                 else pa.string())
                     for c in TRIPLE_COLUMNS + ["bucket"]})


def dedup_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Exchange body over one sorted block of hash buckets:
    collision-safe exact dedup on the full triple key,
    deterministic winner = smallest (conv_id, turn_idx)."""
    return (group.sort_values(["conv_id", "turn_idx"], kind="stable")
            .drop_duplicates(TRIPLE_KEY, keep="first")
            .drop(columns=["bucket"]))



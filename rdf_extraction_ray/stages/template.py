"""Predicate templating: linked facts → triple rows.

Re-expresses the reference's Context/Activity/Event ``to_triple``
builders (``Utils/context.py:284-461``, ``Utils/activity.py:370-527``,
``Utils/event.py:193-251``) as a pure, vectorized ``map_batches``
stage: the fact columns are read as numpy arrays once, each fact type
selects its rows by position, string concatenation over those arrays
builds the (subj, pred, obj, obj_kind, obj_lang, obj_datatype)
columns, and every call returns ONE Arrow table (:class:`_Emitter`).
Scalar helpers (URI minting, date parsing) run once per distinct
value (``functions.columns``).

Deterministic ID scheme (replaces blank nodes + order-dependent
counters, SURVEY §7.5.1/7.5.6):
- context URI   = ``data:{conv_id}_context_{seq}``
- activity URI  = ``data:{conv_id}_activity_{seq}``
- turn target   = ``data:{conv_id}_turn_{turn_idx}`` (provenance —
  replaces the XPath/TextQuote selectors, §2.2 M24)

``seq`` is the per-conversation document-order counter minted by
``finalize_conversation``, so IDs are stable across runs and block
orders. Literal typing follows the length rule (``xsd_datatype_for``)
and timestamps use the SEM certainty-predicate choice (§2.4 F6-F9).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.columns import map_unique, per_unique
from ..functions.dates import date_parse, timestamp_predicate, xsd_datatype_for
from ..functions.text import limit_words, make_standard_uri
from ..namespaces import NS, TRIPLE_SCHEMA, uri
from ..state.fixtures import FAMILY_RELATIONS

_MAX_PROFILE_WORDS = 35  # reference MAX_WORD_COUNT (utilities.py:30)

CONTEXT_CLASS = {
    "birth": "BirthContext", "death": "DeathContext",
    "burial": "DeathContext", "occupation": "OccupationContext",
    "income": "OccupationContext", "location": "LocationContext",
    "culturalform": "CulturalFormContext", "family": "FamilyContext",
    "childlessness": "FamilyContext",
    "friend": "FriendsAndAssociatesContext",
    "education": "EducationContext", "title": "WritingContext",
    "org": "OrganizationContext", "biographer": "BiographyContext",
    "personname": "PersonNameContext", "profile": "WritingContext",
    "event": "EventContext", "citation": "CitationContext",
}

# other-contexts (other_contexts.py:14-109): category → context class
OTHER_CONTEXT_CLASS = {
    "health": "HealthContext", "violence": "ViolenceContext",
    "wealth": "WealthContext", "leisure": "LeisureContext",
}

LOCATION_PRED = {"habitation": "habitation", "travel": "travel",
                 "visit": "visit", "relocation": "relocation",
                 "spatialRelationship": "spatialRelationship",
                 "migration": "migration", "emigration": "emigration"}

CF_PRED = {"religion": "hasReligion", "nationality": "hasNationality",
           "gender": "hasGender", "class": "hasSocialClass"}
# language competence → predicate (culturalForm.py competence rule)
LANG_PRED = {"NATIVE": "hasNativeLinguisticAbility",
             "ACQUIRED": "hasLinguisticAbility"}

_R = NS["rdf"] + "type"
_LABEL = NS["rdfs"] + "label"


class _Emitter:
    """Accumulates triple columns for ONE Arrow table per call. Each
    :meth:`emit` keeps the batch row positions it covers and its
    masked, non-null value columns (a scalar stays a scalar);
    :meth:`table` builds each column once and gathers ``conv_id`` and
    ``turn_idx`` for every emitted row in one take."""

    def __init__(self, conv: np.ndarray, tidx: np.ndarray):
        self.conv, self.tidx = conv, tidx
        self.parts: list[tuple[np.ndarray, list]] = []

    def emit(self, rows, subj, pred, obj, kind="uri", lang="", dtype="",
             mask=None):
        """``rows`` are batch row positions; every other arg is a numpy
        array aligned with ``rows`` or a scalar, and ``mask`` selects.
        Rows with a null ``subj`` or ``obj`` are dropped."""
        keep = (np.ones(len(rows), bool) if mask is None
                else np.asarray(mask, bool))
        for c in subj, obj:
            if isinstance(c, np.ndarray):
                # None and NaN are null; an object compare is cheaper
                # per call than pd.notna
                keep = keep & (c != None) & (c == c)  # noqa: E711
            elif c is None:
                return
        if keep.all():
            self.parts.append((rows, [subj, pred, obj, kind, lang, dtype]))
        elif keep.any():
            self.parts.append((rows[keep], [
                c[keep] if isinstance(c, np.ndarray) else c
                for c in (subj, pred, obj, kind, lang, dtype)]))

    def table(self) -> pa.Table:
        if not self.parts:
            return TRIPLE_SCHEMA.empty_table()
        rows = np.concatenate([r for r, _ in self.parts])
        sizes = [len(r) for r, _ in self.parts]
        return pa.Table.from_arrays(
            [_string_column([cols[j] for _, cols in self.parts], sizes)
             for j in range(6)]
            + [pa.array(self.conv[rows], pa.string()),
               pa.array(self.tidx[rows], pa.int32())],
            schema=TRIPLE_SCHEMA)


def _string_column(values: list, sizes: list[int]) -> pa.Array:
    """One string column from per-part values, each an object array of
    its part's size or a scalar that fills the part. A scalar never
    becomes a Python object per row: the column is one Arrow ``take``
    over the parts' row values followed by the distinct scalars."""
    arrays = [v for v in values if isinstance(v, np.ndarray)]
    pool = pa.array(np.concatenate(arrays) if arrays else [], pa.string(),
                    from_pandas=True)
    scalars = list(dict.fromkeys(
        v for v in values if not isinstance(v, np.ndarray)))
    if not scalars:
        return pool
    slot = {v: len(pool) + i for i, v in enumerate(scalars)}
    index = np.empty(sum(sizes), dtype=np.int64)
    start = row = 0
    for v, k in zip(values, sizes):
        if isinstance(v, np.ndarray):
            index[start:start + k] = np.arange(row, row + k)
            row += k
        else:
            index[start:start + k] = slot[v]
        start += k
    return pa.concat_arrays([pool, pa.array(scalars, pa.string())]).take(
        index)


def _rows_by(values: np.ndarray) -> dict:
    """Row positions of each distinct value, in row order."""
    codes, uniques = pd.factorize(values)
    return {u: np.flatnonzero(codes == i) for i, u in enumerate(uniques)}


def _dates(dates: np.ndarray) -> list[np.ndarray]:
    """The strptime waterfall once per distinct date: (lexical,
    datatype, start-iso-or-None, parsed-ok) per row."""
    def parse(d):
        lex, dtype = xsd_datatype_for(d)
        start, ok, _ = date_parse(d)
        return lex, dtype, start if ok else None, ok
    return per_unique(dates, parse, (None, "", None, False))


def _kg(term: str) -> str | None:
    return None if term is None else uri("kg", term)


_CTX_URI = {ft: uri("kg", c) for ft, c in CONTEXT_CLASS.items()}
_OTHER_CTX_URI = {c: uri("kg", k) for c, k in OTHER_CONTEXT_CLASS.items()}
_OCC_PRED = {"paid": uri("kg", "hasPaidOccupation"),
             "volunteer": uri("kg", "hasVolunteerOccupation")}
_FRIEND_PRED = {"friend": uri("kg", "interpersonalRelationshipWith"),
                "cohabitant": uri("kg", "cohabitant")}
_CF_URI = {c: uri("kg", p) for c, p in CF_PRED.items()}


def _emit_triples(batch: pd.DataFrame) -> _Emitter:
    """Shared body: linked fact rows → triple emitter. The fact
    columns are taken as numpy arrays once; each fact type selects
    its rows by position."""
    keep = ~batch["dropped"].astype(bool).to_numpy()
    b = {c: batch[c].to_numpy(dtype=object)[keep] for c in (
        "conv_id", "fact_type", "category", "person_uri", "other_uri",
        "place_uri", "place", "term_uri", "term", "date", "certainty",
        "amount", "snippet", "title", "other", "place2", "org_uri",
        "person_sex")}
    tidx = batch["turn_idx"].to_numpy()[keep]
    seq = batch["seq"].to_numpy()[keep].astype(str).astype(object)
    conv, ft, cat = b["conv_id"], b["fact_type"], b["category"]
    em = _Emitter(conv, tidx)
    if not len(conv):
        return em
    data_ns = NS["data"]
    C = data_ns + conv + "_context_" + seq
    A = data_ns + conv + "_activity_" + seq
    TURN = data_ns + conv + "_turn_" + tidx.astype(str).astype(object)
    P = b["person_uri"]
    by_type = _rows_by(ft)
    ctx_class = map_unique(ft, _CTX_URI.get)
    oc = by_type.get("othercontext")
    if oc is not None:  # per-category class (HealthContext etc.)
        ctx_class[oc] = map_unique(cat[oc], _OTHER_CTX_URI.get)

    # ---- context frame (every fact): type, subject, target, snippet
    every = np.arange(len(conv))
    em.emit(every, C, _R, ctx_class)
    em.emit(every, C, uri("kg", "hasSubject"), P)
    em.emit(every, C, NS["oa"] + "hasTarget", TURN)
    em.emit(every, C, uri("kg", "snippet"), b["snippet"], kind="literal",
            lang="en")
    # ---- person node (collapses in dedup)
    em.emit(every, P, _R, NS["crm"] + "E21_Person")

    # ---------------------------------------------------------- birth/death
    for kind, ev_class, ev_pred, date_pred, place_pred in (
            ("birth", "E67_Birth", "P98_brought_into_life",
             "hasBirthDate", "hasBirthPlace"),
            ("death", "E69_Death", "P100_was_death_of",
             "hasDeathDate", "hasDeathPlace")):
        r = by_type.get(kind)
        if r is None:
            continue
        lex, dtyp, start, _ = _dates(b["date"][r])
        sA, sP = A[r], P[r]
        em.emit(r, sA, _R, NS["crm"] + ev_class)
        em.emit(r, sA, NS["crm"] + ev_pred, sP)
        em.emit(r, sP, uri("kg", date_pred), lex, kind="literal",
                dtype=dtyp)
        # place: gazetteer URI when linked, else the raw surface literal
        linked = pd.notna(b["place_uri"][r])
        em.emit(r, sP, uri("kg", place_pred), b["place_uri"][r],
                mask=linked)
        em.emit(r, sP, uri("kg", place_pred), b["place"][r],
                kind="literal", mask=~linked)
        # SEM timestamp (certainty → predicate choice, event.py:176-191)
        ts_pred = map_unique(b["certainty"][r],
                             lambda c: NS["sem"] + timestamp_predicate(c),
                             null=NS["sem"] + timestamp_predicate(""))
        em.emit(r, sA, ts_pred, start, kind="literal",
                dtype="xsd:dateTime")
        if kind == "death":
            cod_linked = pd.notna(b["term_uri"][r])
            em.emit(r, sP, uri("kg", "hasCauseOfDeath"), b["term_uri"][r],
                    mask=cod_linked)
            em.emit(r, sP, uri("kg", "hasCauseOfDeath"), b["term"][r],
                    kind="literal", mask=~cod_linked)

    # -------------------------------------------------------------- burial
    r = by_type.get("burial")
    if r is not None:
        linked = pd.notna(b["place_uri"][r])
        em.emit(r, P[r], uri("kg", "hasBurialPlace"), b["place_uri"][r],
                mask=linked)
        em.emit(r, P[r], uri("kg", "hasBurialPlace"), b["place"][r],
                kind="literal", mask=~linked)

    # ---------------------------------------------------------- occupation
    r = by_type.get("occupation")
    if r is not None:
        em.emit(r, A[r], _R, NS["crm"] + "E7_Activity")
        em.emit(r, A[r], NS["crm"] + "P14_carried_out_by", P[r])
        pred = map_unique(cat[r], _OCC_PRED.get)
        linked = pd.notna(b["term_uri"][r])
        em.emit(r, P[r], pred, b["term_uri"][r], mask=linked)
        em.emit(r, P[r], pred, b["term"][r], kind="literal", mask=~linked)

    r = by_type.get("income")
    if r is not None:
        em.emit(r, P[r], uri("kg", "hasIncome"), b["amount"][r],
                kind="literal", dtype="xsd:int")

    # ------------------------------------------------------------ location
    r = by_type.get("location")
    if r is not None:
        pred = map_unique(cat[r], lambda c: _kg(LOCATION_PRED.get(c)))
        em.emit(r, P[r], pred, b["place_uri"][r])

    # ------------------------------------------------------- cultural form
    r = by_type.get("culturalform")
    if r is not None:
        default = uri("kg", "hasLinguisticAbility")
        pred = np.where(
            cat[r] == "language",
            map_unique(b["certainty"][r],
                       lambda c: uri("kg", LANG_PRED.get(
                           c, "hasLinguisticAbility")), null=default),
            map_unique(cat[r], _CF_URI.get))
        linked = pd.notna(b["term_uri"][r])
        em.emit(r, P[r], pred, b["term_uri"][r], mask=linked)
        em.emit(r, P[r], pred, b["term"][r], kind="literal", mask=~linked)

    # -------------------------------------------------------------- family
    r = by_type.get("family")
    if r is not None:
        rel = b["term"][r]
        fwd, inv_m, inv_f = per_unique(
            rel, lambda t: tuple(uri("kg", p) for p in FAMILY_RELATIONS[t]),
            (None, None, None))
        # sex-conditional inverse (lifeInfo.py:294-467): the inverse
        # predicate names the SUBJECT as seen from the other person
        inv = np.where(b["person_sex"][r] == "MALE", inv_m, inv_f)
        em.emit(r, P[r], fwd, b["other_uri"][r])
        em.emit(r, b["other_uri"][r], inv, P[r])

    # -------------------------------------------------------------- friend
    r = by_type.get("friend")
    if r is not None:
        em.emit(r, P[r], map_unique(cat[r], _FRIEND_PRED.get),
                b["other_uri"][r])

    # ------------------------------------------------------- childlessness
    r = by_type.get("childlessness")
    if r is not None:
        em.emit(r, P[r], uri("kg", "reproductiveHistory"),
                map_unique(cat[r], _kg))

    # ----------------------------------------------------------- education
    r = by_type.get("education")
    if r is not None:
        s = r[cat[r] == "study"]
        if len(s):
            em.emit(s, P[s], uri("kg", "studiedSubject"), b["term"][s],
                    kind="literal")
            em.emit(s, P[s], uri("kg", "attendedSchool"), b["org_uri"][s])
        d = r[cat[r] == "degree"]
        if len(d):
            linked = pd.notna(b["term_uri"][d])
            em.emit(d, P[d], uri("kg", "holdsDegree"), b["term_uri"][d],
                    mask=linked)
            em.emit(d, P[d], uri("kg", "holdsDegree"), b["term"][d],
                    kind="literal", mask=~linked)
            em.emit(d, P[d], uri("kg", "studiedSubject"), b["place2"][d],
                    kind="literal")

    # ---------------------------------------------------------------- title
    r = by_type.get("title")
    if r is not None:
        W = map_unique(b["title"][r],
                       lambda t: make_standard_uri(t + " TITLE"))
        em.emit(r, P[r], uri("kg", "authorOf"), W)
        em.emit(r, W, _R, uri("kg", "Title"))
        em.emit(r, W, _LABEL, b["title"][r], kind="literal", lang="en")

    # ------------------------------------------------------------------ org
    r = by_type.get("org")
    if r is not None:
        em.emit(r, P[r], uri("kg", "memberOf"), b["org_uri"][r])

    # ----------------------------------------------------------- biographer
    r = by_type.get("biographer")
    if r is not None:
        em.emit(r, P[r], uri("kg", "hasBiographer"), b["other_uri"][r])

    # ---------------------------------------------------------- person name
    # typed name entities (reference personname.py:131-269): nickname →
    # a Nickname node with label; birth name → a BirthName node with
    # given/surname parts (personname.py:241-269)
    r = by_type.get("personname")
    if r is not None:
        n = r[cat[r] == "nickname"]
        if len(n):
            N = map_unique(b["term"][n],
                           lambda t: make_standard_uri(t + " NAME"))
            em.emit(n, P[n], uri("kg", "hasNickname"), N)
            em.emit(n, N, _R, uri("kg", "Nickname"))
            em.emit(n, N, _LABEL, b["term"][n], kind="literal", lang="en")
        n = r[cat[r] == "birthname"]
        if len(n):
            N, given, surname = per_unique(
                b["other"][n],
                lambda t: (make_standard_uri(t + " BIRTHNAME"),
                           t.rsplit(" ", 1)[0], t.rsplit(" ", 1)[-1]),
                (None, None, None))
            em.emit(n, P[n], uri("kg", "hasBirthName"), N)
            em.emit(n, N, _R, uri("kg", "BirthName"))
            em.emit(n, N, uri("kg", "givenName"), given, kind="literal")
            em.emit(n, N, uri("kg", "surname"), surname, kind="literal")

    # ------------------------------------------------------ profile summary
    # author-summary profile literal, hard 35-word limit (reference
    # writing_extraction.py:29-70 + utilities.py:30 MAX_WORD_COUNT)
    r = by_type.get("profile")
    if r is not None:
        prof = map_unique(b["term"][r],
                          lambda t: limit_words(t, _MAX_PROFILE_WORDS))
        em.emit(r, P[r], uri("kg", "hasProfileDescription"), prof,
                kind="literal", lang="en")

    # ------------------------------------------------------- other contexts
    # VIOLENCE/WEALTH/LEISURE/HEALTH → identifying context + generic
    # E7 activity (reference other_contexts.py:14-109)
    if oc is not None:
        r, c = oc, cat[oc]
        em.emit(r, A[r], _R, NS["crm"] + "E7_Activity")
        em.emit(r, A[r], NS["crm"] + "P14_carried_out_by", P[r])
        em.emit(r, P[r], uri("kg", "hasHealthCondition"), b["term"][r],
                kind="literal", mask=(c == "health"))
        em.emit(r, P[r], uri("kg", "hasLeisureActivity"), b["term"][r],
                kind="literal", mask=(c == "leisure"))
        em.emit(r, P[r], uri("kg", "inheritedWealth"), b["amount"][r],
                kind="literal", dtype="xsd:int", mask=(c == "wealth"))
        viol = c == "violence"
        if viol.any():
            linked = pd.notna(b["place_uri"][r])
            em.emit(r, P[r], uri("kg", "experiencedViolenceAt"),
                    b["place_uri"][r], mask=viol & linked)
            em.emit(r, P[r], uri("kg", "experiencedViolenceAt"),
                    b["place"][r], kind="literal", mask=viol & ~linked)

    # ------------------------------------------------------------- citation
    # BIBCIT → cito:Citation + refers-to wiring (Utils/citation.py:27-72)
    r = by_type.get("citation")
    if r is not None:
        N = data_ns + conv[r] + "_citation_" + seq[r]
        W = map_unique(b["title"][r],
                       lambda t: make_standard_uri(t + " TITLE"))
        em.emit(r, N, _R, NS["cito"] + "Citation")
        em.emit(r, N, NS["cito"] + "hasCitedEntity", W)
        em.emit(r, N, uri("kg", "pageNumber"), b["amount"][r],
                kind="literal", dtype="xsd:int")
        em.emit(r, C[r], uri("kg", "hasCitation"), N)

    # --------------------------------------------------- freestanding event
    # person-less SEM event (reference freestanding_events.py:50-103;
    # blank-node place skolemized per SURVEY §7.5.6)
    r = by_type.get("event")
    if r is not None:
        E = data_ns + conv[r] + "_event_" + seq[r]
        lex, _, start, ok = _dates(b["date"][r])
        em.emit(r, E, _R, NS["sem"] + "Event")
        em.emit(r, E, _LABEL, b["term"][r], kind="literal", lang="en")
        linked = pd.notna(b["place_uri"][r])
        em.emit(r, E, NS["sem"] + "hasPlace", b["place_uri"][r],
                mask=linked)
        em.emit(r, E, NS["sem"] + "hasPlace", b["place"][r],
                kind="literal", mask=~linked)
        em.emit(r, E, NS["sem"] + "hasTimeStamp", start, kind="literal",
                dtype="xsd:dateTime")
        # unparseable dates stay lexical (event.py:90-110 quirk)
        em.emit(r, E, NS["sem"] + "hasTime",
                np.where(ok.astype(bool), None, lex), kind="literal")

    return em


def build_triples(batch: pd.DataFrame) -> pa.Table:
    """map_batches body: linked fact rows → triple rows (Arrow)."""
    return _emit_triples(batch).table()


def build_triples_frame(batch: pd.DataFrame) -> pd.DataFrame:
    """The same rows as a pandas frame, for callers that keep working
    in pandas."""
    return build_triples(batch).to_pandas()

"""Fact extraction: per-turn detection + per-conversation finalization.

Re-expresses the reference's per-document extractor family
(``Biography/birthDeath.py:78-261``, ``occupation.py:230-341``,
``location.py:83-219``, ``culturalForm.py:86-510``,
``lifeInfo.py:109-467``, ``education.py:338-549``,
``biography.py:39-55``) as TWO Ray Data stages:

1. :func:`detect_facts` — a **stateless** ``map_batches`` pass over raw
   turns. All pattern matching happens here, so the heavy ``text``
   column never enters a shuffle. Emits candidate-fact rows (small).
2. :func:`finalize_bucket` — the bucket exchange
   (:func:`stages.dedup.bucket_exchange`: sort on ``bucket``, one call
   per sorted block) over the candidate facts only, where
   ``bucket = hash(conv_id) % B``. Applies
   the conversation-scoped rules the reference keeps in module-global
   state — burial gated on a preceding death
   (``birthDeath.py:237-256``), the MOVED occurrence-check quirk
   (``location.py:74-103,126-141``), subject attribution for
   biographer cues (``biography.py:39-55``), and order-dependent
   sequence-ID minting (SURVEY §7.5.1) — fully vectorized with pandas
   groupby transforms under a stable ``(conv_id, turn_idx, cand_idx)``
   sort.

Why this shape matters at 100 TB:
- the wide all-to-all exchange moves only extracted facts (~1-5% of
  input bytes), never transcripts;
- keying the sort on hash BUCKET (not conv_id) keeps every
  conversation inside one sorted block while the body runs once per
  BLOCK, not per bucket or conversation — per-call overhead is
  O(blocks), and all per-conversation logic runs as vectorized pandas
  groupbys inside the block. B scales with cluster cores, not rows.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state import fixtures as fx
from ..synth import FACT_COLUMNS

# candidate-fact table = FACT_COLUMNS + detection-order + snippet + bucket
CAND_COLUMNS = FACT_COLUMNS + ["cand_idx", "snippet", "bucket"]

# conversation-bucket count for the assembly shuffle: the sort key's
# cardinality, so the most sort partitions that can hold rows. Sized
# for parallelism (≥ cluster cores), independent of conversation
# count.
N_CONV_BUCKETS = 128

_NAME = r"[A-Z][a-zA-Z]*\.?(?: [A-Z][a-zA-Z]*\.?)*"
_REL = "|".join(sorted(fx.FAMILY_RELATIONS, key=len, reverse=True))

# (fact_type, compiled regex, constant fields, literal anchors) —
# applied in order. The ANCHORS are substrings at least one of which
# occurs in any text the pattern can match, checked with a vectorized
# Arrow match_substring before the regex attempt (None = always
# attempt) — keep them NEXT TO their pattern.
_PATTERNS: list[tuple[str, re.Pattern, dict, str | tuple | None]] = [
    ("birth", re.compile(
        rf"^(?P<person>{_NAME}) was born (?P<marker>on|by|after|around) "
        rf"(?P<date>.+?) in (?P<place>[^.]+)\.$"), {}, " was born "),
    ("death", re.compile(
        rf"^(?P<person>{_NAME}) died of (?P<term>.+?) on (?P<date>.+?) "
        rf"in (?P<place>[^.]+)\.$"), {"certainty": "CERT"}, " died of "),
    ("burial", re.compile(
        rf"^(?P<person>{_NAME}) was (?:buried|grave|interred) in "
        rf"(?P<place>[^.]+)\.$"), {},
        ("buried in ", "grave in ", "interred in ")),
    ("income", re.compile(
        rf"^(?P<person>{_NAME}) earned (?P<amount>\d+) pounds a year\.$"), {}, " earned "),
    ("occupation", re.compile(
        rf"^(?P<person>{_NAME}) (?P<verb>worked|volunteered) as a "
        rf"(?P<term>[^.]+)\.$"), {}, " as a "),
    ("moved", re.compile(
        rf"^(?P<person>{_NAME}) moved to (?P<place>[A-Z][a-zA-Z]+, "
        rf"[A-Z][a-zA-Z]+), leaving (?P<place2>[^.]+)\.$"), {}, " moved to "),
    ("migration", re.compile(
        rf"^(?P<person>{_NAME}) migrated to (?P<place>.+?) from "
        rf"(?P<place2>[^.]+)\.$"), {}, " migrated to "),
    ("location", re.compile(
        rf"^(?P<person>{_NAME}) (?P<verb>lived in|travelled to|visited) "
        rf"(?P<place>[^.]+)\.$"), {},
        (" lived in ", " travelled to ", " visited ")),
    ("culturalform", re.compile(
        rf"^(?P<person>{_NAME}) was (?P<term>[A-Za-z]+) by religion\.$"),
        {"category": "religion"}, " by religion"),
    ("culturalform", re.compile(
        rf"^(?P<person>{_NAME}) identified as (?P<term>[A-Za-z]+)\.$"),
        {"category": "nationality"}, " identified as "),
    ("culturalform", re.compile(
        rf"^(?P<person>{_NAME})'s gender was (?P<term>\w+)\.$"),
        {"category": "gender"}, "gender was "),
    ("culturalform", re.compile(
        rf"^(?P<person>{_NAME}) belonged to the (?P<term>[a-z ]+)\.$"),
        {"category": "class"}, " belonged to the "),
    ("culturalform", re.compile(
        rf"^(?P<person>{_NAME}) spoke (?P<term>[A-Za-z]+) with "
        rf"(?P<marker>native|acquired) fluency\.$"),
        {"category": "language"}, " fluency"),
    ("othercontext", re.compile(
        rf"^(?P<person>{_NAME}) suffered from (?P<term>[^.]+)\.$"),
        {"category": "health"}, " suffered from "),
    ("othercontext", re.compile(
        rf"^(?P<person>{_NAME}) was assaulted in (?P<place>[^.]+)\.$"),
        {"category": "violence"}, " was assaulted in "),
    ("othercontext", re.compile(
        rf"^(?P<person>{_NAME}) inherited a fortune of (?P<amount>\d+) "
        rf"pounds\.$"), {"category": "wealth"}, " inherited a fortune of "),
    ("othercontext", re.compile(
        rf"^(?P<person>{_NAME}) took pleasure in (?P<term>[^.]+)\.$"),
        {"category": "leisure"}, " took pleasure in "),
    ("citation", re.compile(
        r'^This is recorded in "(?P<title>[^"]+)", page (?P<amount>\d+)\.$'),
        {}, "This is recorded in"),
    ("family", re.compile(
        rf"^(?P<person>{_NAME})'s (?P<term>(?:{_REL})) was "
        rf"(?P<other>{_NAME})\.$"), {}, "'s "),
    ("friend", re.compile(
        rf"^(?P<person>{_NAME}) was a close friend of "
        rf"(?P<other>{_NAME})\.$"), {"category": "friend"}, " close friend of "),
    ("friend", re.compile(
        rf"^(?P<person>{_NAME}) lived with (?P<other>{_NAME})\.$"),
        {"category": "cohabitant"}, " lived with "),
    ("childlessness", re.compile(
        rf"^Regarding children, (?P<person>{_NAME}) was marked by "
        rf"(?P<word>[a-z ]+)\.$"), {}, "Regarding children"),
    ("education", re.compile(
        rf"^(?P<person>{_NAME}) studied (?P<term>[a-z]+) at the "
        rf"(?P<org>[^.]+)\.$"), {"category": "study"}, " studied "),
    ("education", re.compile(
        rf"^(?P<person>{_NAME}) earned a (?P<term>[a-z ]+) in "
        rf"(?P<place2>[a-z]+)\.$"), {"category": "degree"}, " earned a "),
    ("title", re.compile(
        rf'^(?P<person>{_NAME}) wrote "(?P<title>[^"]+)"\.$'), {}, " wrote "),
    ("personname", re.compile(
        rf'^(?P<person>{_NAME}) was also known as "(?P<term>[^"]+)"\.$'),
        {"category": "nickname"}, " was also known as "),
    ("personname", re.compile(
        rf"^(?P<person>{_NAME})'s birth name was (?P<other>{_NAME})\.$"),
        {"category": "birthname"}, " birth name was "),
    ("profile", re.compile(
        rf"^To summarise the oeuvre: (?P<term>(?P<person>{_NAME}) was "
        rf".+?\.)$"), {}, "To summarise"),
    ("event", re.compile(
        r"^On (?P<date>.+?), (?P<term>[a-z][^.]*?) took place in "
        r"(?P<place>[^.]+)\.$"), {}, " took place in "),
    ("org", re.compile(
        rf"^(?P<person>{_NAME}) joined the (?P<org>[^.]+)\.$"), {}, " joined the "),
    ("biographer", re.compile(
        rf"^Her (?P<category>biographer|critic|historian) "
        rf"(?P<other>{_NAME}) recorded much of this\.$"), {}, " recorded much of this"),
]



_SUBJECT = re.compile(rf"^Tell me about (?P<person>{_NAME})\.$")

_LOC_VERB = {"lived in": "habitation", "travelled to": "travel",
             "visited": "visit"}

_MAX_SNIPPET_WORDS = 35  # reference MAX_WORD_COUNT (utilities.py:30)


def _classify_childlessness(word_text: str) -> str:
    """Keyword → reproductiveHistory category (lifeInfo.py:80-106);
    no keyword → unspecifiedReproductiveHistory."""
    for cat, words in fx.CHILDLESSNESS_WORDS.items():
        if any(w in word_text for w in words):
            return cat
    return "unspecifiedReproductiveHistory"


_BIRTH_CERT = {"on": "CERT", "by": "BY", "after": "AFTER",
               "around": "ROUGHLYDATED"}


def _anchors(anchor: str | tuple) -> tuple:
    return (anchor,) if isinstance(anchor, str) else anchor


def _facts(fact_type: str, m: re.Match, const: dict) -> list[dict]:
    """Candidate facts of one pattern match (without conv context)."""
    g = {k: v for k, v in m.groupdict().items() if v is not None}
    g.update(const)
    if fact_type == "occupation":
        g["category"] = "paid" if g.pop("verb") == "worked" else "volunteer"
    elif fact_type == "location":
        g["category"] = _LOC_VERB[g.pop("verb")]
    elif fact_type == "birth":
        g["certainty"] = _BIRTH_CERT[g.pop("marker")]
    elif fact_type == "childlessness":
        g["category"] = _classify_childlessness(g.pop("word"))
    elif fact_type == "culturalform" and "marker" in g:
        # language competence marker → predicate choice downstream
        g["certainty"] = g.pop("marker").upper()
    elif fact_type in ("moved", "migration"):
        # one sentence → two location candidates; the second
        # ('leaving'/'from') is occurrence-filtered in finalize
        to_cat, from_cat = (("relocation", "spatialRelationship")
                            if fact_type == "moved"
                            else ("migration", "emigration"))
        return [
            {"fact_type": "location", "person": g["person"],
             "place": g["place"], "category": to_cat},
            {"fact_type": "location", "person": g["person"],
             "place": g["place2"], "category": from_cat},
        ]
    g["fact_type"] = fact_type
    return [g]


def _detect_one(text: str) -> list[dict]:
    """All candidate facts for one turn text (without conv context)."""
    m = _SUBJECT.match(text)
    if m:
        return _facts("_subject", m, {})
    for fact_type, pat, const, anchor in _PATTERNS:
        if anchor is not None and not any(a in text
                                          for a in _anchors(anchor)):
            continue
        m = pat.match(text)
        if m:
            return _facts(fact_type, m, const)
    return []


def detect_facts(batch: pa.Table) -> pa.Table:
    """Stateless map_batches body: turns → candidate fact rows.

    First-match-wins over the ordered pattern list: per pattern, a
    C-level literal-anchor ``pyarrow.compute.match_substring`` mask
    over the still-unmatched rows, then ``re.match`` on the survivors
    only — which are almost all true matches, so regex work is ~one
    successful match per candidate row. The fact rows are collected as
    plain lists and become ONE Arrow table per call (a pandas frame
    per pattern was most of a call's fixed cost). Per-row semantics
    are pinned to :func:`_detect_one` by a differential test.
    """
    import pyarrow.compute as pc

    from ..functions.text import limit_to_full_sentences

    # null text rows carry no facts but must not abort the whole
    # extract job: pc.match_substring(null) is null, and a None in
    # the boolean masks below would raise (nulls coalesce to "",
    # which matches no anchor)
    text_arr = pc.fill_null(batch.column("text"), "")
    text = text_arr.to_numpy(zero_copy_only=False)
    role = batch.column("role").to_numpy(zero_copy_only=False)
    pos: list[int] = []
    rows: list[dict] = []

    def _scan(cand: np.ndarray, fact_type: str, pat: re.Pattern,
              const: dict):
        for i in np.flatnonzero(cand):
            m = pat.match(text[i])
            if m:
                unmatched[i] = False
                for ci, f in enumerate(_facts(fact_type, m, const)):
                    f["cand_idx"] = ci
                    pos.append(i)
                    rows.append(f)

    def _anchor_mask(anchor) -> np.ndarray:
        m = None
        for a in _anchors(anchor):
            am = pc.match_substring(text_arr, a).to_numpy(
                zero_copy_only=False)
            m = am if m is None else (m | am)
        return m

    # subject declaration is checked FIRST for both roles (as in
    # _detect_one); user turns can ONLY yield _subject
    unmatched = (role == "user") | (role == "assistant")
    _scan(unmatched & _anchor_mask("Tell me about "), "_subject",
          _SUBJECT, {})
    unmatched &= role == "assistant"
    for fact_type, pat, const, anchor in _PATTERNS:
        if not unmatched.any():
            break
        _scan(unmatched if anchor is None
              else unmatched & _anchor_mask(anchor), fact_type, pat, const)

    pos = np.asarray(pos, dtype=np.int64)
    conv = batch.column("conv_id").to_numpy(zero_copy_only=False)[pos]
    # Reference CONTEXT-SNIPPET rule (SURVEY M23): whole sentences
    # until ~_MAX_SNIPPET_WORDS words — ``limit_to_full_sentences``,
    # the limiter of the reference's context builder
    # (cwrc/RDF-extraction Utils/context.py:264, activity.py:248), NOT
    # ``limit_words`` (the PROFILE rule, see template.py). It runs once
    # per UNIQUE matched turn, so its cost is bounded by matched
    # candidates, not corpus rows; the SQL oracle replays the same
    # sentence-accumulation rule.
    upos = np.unique(pos)
    snips = np.array([limit_to_full_sentences(s, _MAX_SNIPPET_WORDS)
                      for s in text[upos]], dtype=object)
    cols = {c: [r.get(c) for r in rows] for c in CAND_COLUMNS}
    cols.update(
        conv_id=conv,
        turn_idx=batch.column("turn_idx").to_numpy()[pos],
        seq=np.full(len(pos), -1),  # minted in finalize
        snippet=snips[np.searchsorted(upos, pos)],
        # deterministic conversation bucket (the assembly-shuffle key)
        bucket=pd.util.hash_pandas_object(pd.Series(conv, dtype=object),
                                          index=False).to_numpy()
        % N_CONV_BUCKETS)
    return pa.table({c: pa.array(cols[c],
                                 pa.int32() if c in ("turn_idx", "seq",
                                                     "cand_idx", "bucket")
                                 else pa.string(), from_pandas=True)
                     for c in CAND_COLUMNS})


def finalize_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Exchange body over one sorted block of candidate facts (whole
    conversations, from any number of buckets). All per-conversation
    logic is vectorized pandas-groupby arithmetic — no
    per-conversation Python dispatch, so cost is O(rows), not
    O(conversations).

    Mints dense per-conversation ``seq`` ids in document order under a
    stable ``(conv_id, turn_idx, cand_idx)`` sort — the
    order-dependent ID invariant (SURVEY §7.5.1).
    """
    g = group.sort_values(["conv_id", "turn_idx", "cand_idx"],
                          kind="stable").reset_index(drop=True)

    # conversation subject (from the user's declaration turn)
    subj_map = (g[g["fact_type"] == "_subject"]
                .groupby("conv_id")["person"].first())
    g = g[g["fact_type"] != "_subject"]

    # burial gate: keep only if a death occurs at an earlier turn of
    # the same conversation
    first_death = (g[g["fact_type"] == "death"]
                   .groupby("conv_id")["turn_idx"].min())
    is_burial = g["fact_type"] == "burial"
    if is_burial.any():
        fd = g["conv_id"].map(first_death)
        g = g[~(is_burial & (fd.isna() | (g["turn_idx"] <= fd)))]

    # MOVED occurrence quirk: a spatialRelationship place survives only
    # if it occurs in no other location mention of its conversation
    loc = g["fact_type"] == "location"
    if loc.any():
        occ = (g[loc].groupby(["conv_id", "place"])["place"]
               .transform("size"))
        drop_idx = occ[(g.loc[loc, "category"] == "spatialRelationship")
                       & (occ > 1)].index
        g = g.drop(index=drop_idx)

    # biographer/citation cues carry no explicit subject surface —
    # attribute to the conversation subject (reference knows it from
    # the entry file)
    bio = g["fact_type"].isin(("biographer", "citation"))
    if bio.any():
        subjects = g.loc[bio, "conv_id"].map(subj_map)
        g.loc[bio, "person"] = subjects.where(subjects.notna(),
                                              g.loc[bio, "person"])

    g = g.copy()
    g["seq"] = g.groupby("conv_id", sort=False).cumcount().astype("int32")
    return g


# --------------------------------------------------------------------
# Salted two-level assembly for giant conversations (SURVEY §7.5.7,
# north_rule "salted conv_id repartitioning before the ordered-assembly
# shuffle"). The default path groups whole conversations; this path
# splits a conversation into TURN-SPAN SEGMENTS, so no single group
# ever exceeds ~span_turns rows — the escape hatch when one
# conversation's facts outgrow a worker's heap.
#
# Stages (conversation-level rules only ever need four SMALL maps):
#   A. groupby(salted segment) — stable in-segment sort + per-segment
#      summary rows (subject, first death turn, place counts, sizes);
#   B. summaries → tiny conversation-level maps, broadcast (ray.put);
#      map_batches applies the drop rules + local ranks (no shuffle);
#   C. per-segment surviving counts → prefix-sum offsets (tiny,
#      driver-side), broadcast; map_batches assigns global dense seq.
# Output is row-identical to finalize_bucket (pytest-pinned).

# A conversation whose FACT rows exceed this routes the whole corpus
# through the salted-segment assembly: ~1M fact rows is ~300 MB as a
# sorted pandas group — comfortably inside a 4 GB worker heap (32
# workers / 128 GB), while 10x that would not be. Conversations are
# ~99% below this by construction; the threshold exists for the
# adversarial tail (a single transcript the size of a small corpus).
AUTO_SALT_FACTS = 1_000_000


def max_conv_fact_rows(cands, n_buckets: int = 64,
                       driver_merge_rows: int = 20_000_000) -> int:
    """Cheap skew probe: the largest per-conversation candidate-row
    count. Meant to run on a MATERIALIZED candidate dataset (fact rows
    are 1-5% of corpus bytes), so the probe never rescans transcripts.

    Shape: per-batch partial counts keyed by a hashed conv key (int64
    — a hash collision merges two conversations and can only
    OVER-count, which conservatively routes to the salted path). Under
    ``driver_merge_rows`` total candidates the per-block partials
    merge on the DRIVER (bounded: partial rows ≤ total rows, in
    practice ~one row per (block, conv) — a few-ms pandas groupby that
    saves the exchange's fixed job cost); above it, a hash-bucket
    groupby sums true sizes and emits one max row per bucket, ≤
    ``n_buckets`` rows back to the driver. Both paths are
    pytest-pinned equal.
    """

    def _partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch.groupby(
            pd.util.hash_pandas_object(batch["conv_id"], index=False)
        ).size()
        key = vc.index.to_numpy().astype("int64")
        return pd.DataFrame({
            "k": key, "n": vc.to_numpy().astype("int64"),
            "kbucket": key % np.int64(n_buckets)})

    partials = cands.map_batches(_partial, batch_format="pandas",
                                 batch_size=None)
    if cands.count() <= driver_merge_rows:
        got = partials.to_pandas()
        if not len(got):
            return 0
        return int(got.groupby("k")["n"].sum().max())

    def _bucket_max(group: pd.DataFrame) -> pd.DataFrame:
        m = group.groupby("k")["n"].sum().max()
        return pd.DataFrame({"mx": [np.int64(m)]})

    got = (partials.groupby("kbucket").map_groups(
        _bucket_max, batch_format="pandas").to_pandas())
    return int(got["mx"].max()) if len(got) else 0


def extract_facts_salted(turns, span_turns: int = 2048,
                         n_buckets: int = 256):
    """Salted-segment variant of :func:`extract_facts` — identical
    output, bounded per-group memory for mega-conversations."""
    cands = turns.map_batches(detect_facts, batch_format="pyarrow",
                              batch_size=None)
    return salted_assembly(cands, span_turns=span_turns,
                           n_buckets=n_buckets)


def salted_assembly(cands, span_turns: int = 2048,
                    n_buckets: int = 256):
    """Stages A-C of the salted path over an already-detected
    candidate dataset (lets the auto router reuse one detection pass
    for both the probe and the assembly)."""
    import ray

    def _salt(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        ch = pd.util.hash_pandas_object(b["conv_id"], index=False)
        b["segment"] = (b["turn_idx"] // span_turns).astype("int64")
        b["salt_bucket"] = ((ch.astype("int64").abs() % 1_000_003)
                            * 131 + b["segment"]) % n_buckets
        return b

    def _stage_a(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["conv_id", "segment", "turn_idx",
                               "cand_idx"], kind="stable")
        g = g.copy()
        g["in_seg_pos"] = g.groupby(["conv_id", "segment"],
                                    sort=False).cumcount()
        return g

    rows = (cands.map_batches(_salt, batch_format="pandas",
                              batch_size=None)
            .groupby("salt_bucket")
            .map_groups(_stage_a, batch_format="pandas")
            .materialize())

    # ---- stage B: conversation-level maps from per-batch partials
    def _summaries(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        subj = df[df["fact_type"] == "_subject"]
        if len(subj):
            s = subj.groupby("conv_id").agg(
                turn_idx=("turn_idx", "min"), person=("person", "first"))
            s = s.reset_index().assign(kind="subject")
            parts.append(s[["kind", "conv_id", "turn_idx", "person"]])
        death = df[df["fact_type"] == "death"]
        if len(death):
            d = (death.groupby("conv_id", as_index=False)["turn_idx"]
                 .min().assign(kind="death", person=None))
            parts.append(d[["kind", "conv_id", "turn_idx", "person"]])
        loc = df[df["fact_type"] == "location"]
        if len(loc):
            p = (loc.groupby(["conv_id", "place"], as_index=False)
                 .size().rename(columns={"size": "turn_idx",
                                         "place": "person"}))
            p["kind"] = "place"
            parts.append(p[["kind", "conv_id", "turn_idx", "person"]])
        if not parts:
            return pd.DataFrame(columns=["kind", "conv_id", "turn_idx",
                                         "person"])
        return pd.concat(parts, ignore_index=True)

    summ = (rows.map_batches(_summaries, batch_format="pandas",
                             batch_size=None).to_pandas())
    subj_map, first_death, place_counts = {}, {}, {}
    if len(summ):
        s = summ[summ["kind"] == "subject"].sort_values(
            ["conv_id", "turn_idx"])
        subj_map = dict(zip(s.drop_duplicates("conv_id")["conv_id"],
                            s.drop_duplicates("conv_id")["person"]))
        d = summ[summ["kind"] == "death"]
        first_death = (d.groupby("conv_id")["turn_idx"].min().to_dict())
        p = summ[summ["kind"] == "place"]
        pc = p.groupby(["conv_id", "person"])["turn_idx"].sum()
        place_counts = pc.to_dict()
    maps_ref = ray.put((subj_map, first_death, place_counts))

    def _apply_rules(df: pd.DataFrame) -> pd.DataFrame:
        smap, fdeath, pcount = ray.get(maps_ref)
        g = df[df["fact_type"] != "_subject"].copy()
        if not len(g):
            return g
        is_burial = g["fact_type"] == "burial"
        if is_burial.any():
            fd = g["conv_id"].map(fdeath)
            g = g[~(is_burial & (fd.isna() | (g["turn_idx"] <= fd)))]
        loc = g["fact_type"] == "location"
        if loc.any():
            occ = pd.Series(
                [pcount.get((c, p), 0) for c, p in zip(
                    g.loc[loc, "conv_id"], g.loc[loc, "place"])],
                index=g.index[loc])
            drop_idx = occ[(g.loc[loc, "category"] == "spatialRelationship")
                           & (occ > 1)].index
            g = g.drop(index=drop_idx)
        bio = g["fact_type"].isin(("biographer", "citation"))
        if bio.any():
            subjects = g.loc[bio, "conv_id"].map(smap)
            g.loc[bio, "person"] = subjects.where(subjects.notna(),
                                                  g.loc[bio, "person"])
        return g  # drops are row-local; ranking happens under groupby

    # local_rank must see a WHOLE segment — map_batches blocks can
    # split one (Ray splits map_groups output at target block size),
    # so ranking runs under a salted groupby, which guarantees
    # co-location; order key is stage A's in-segment position
    def _rank_segment(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["conv_id", "segment", "in_seg_pos"],
                              kind="stable").copy()
        g["local_rank"] = g.groupby(["conv_id", "segment"],
                                    sort=False).cumcount()
        return g

    surviving = (rows.map_batches(_apply_rules, batch_format="pandas",
                                  batch_size=None)
                 .groupby("salt_bucket")
                 .map_groups(_rank_segment, batch_format="pandas")
                 .materialize())

    # ---- stage C: per-segment surviving counts → prefix-sum offsets
    def _seg_counts(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby(["conv_id", "segment"], as_index=False)
                .size())

    counts = (surviving.map_batches(_seg_counts, batch_format="pandas",
                                    batch_size=None).to_pandas())
    if len(counts):
        counts = (counts.groupby(["conv_id", "segment"], as_index=False)
                  ["size"].sum().sort_values(["conv_id", "segment"]))
        counts["offset"] = (counts.groupby("conv_id")["size"]
                            .cumsum() - counts["size"])
        offsets = dict(zip(zip(counts["conv_id"], counts["segment"]),
                           counts["offset"]))
    else:
        offsets = {}
    off_ref = ray.put(offsets)

    def _assign_seq(df: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = df.copy()
        base = [off.get((c, s), 0) for c, s in zip(g["conv_id"],
                                                   g["segment"])]
        g["seq"] = (pd.Series(base, index=g.index)
                    + g["local_rank"]).astype("int32")
        return g.drop(columns=["segment", "salt_bucket", "in_seg_pos",
                               "local_rank"])

    return surviving.map_batches(_assign_seq, batch_format="pandas",
                                 batch_size=None)

"""Entity linking & canonicalization — the stateful actor-pool stage.

Rebuilds the reference's broadcast-dictionary joins (SURVEY §2.5
J1-J7): person alias → canonical URI (``Utils/utilities.py:289-360``),
place gazetteer (``Utils/place.py:116-157``), org authority
(``Utils/organizations.py:56-83``), and the vocab term maps with the
exact → cleaned/stemmed → miss ladder.

Fuzzy matching parity: in the reference the vocab mappers'
``difflib.get_close_matches`` calls are DIAGNOSTIC-ONLY — a near-miss
is logged but the raw value is still emitted as a literal
(``culturalForm.py:589-591``); only modsBib's place mapper substitutes
fuzzily (``fuzz.ratio >= 95``, ``Mods/modsBib.py:89``). The linker
mirrors that: a close match yields status ``<kind>=fuzzy`` (feeding the
hit/miss histograms) but NO vocab URI, so templating emits the raw
literal. ``fuzzy_substitute=True`` opts into substitution for
modsBib-style pipelines.

Used as ``facts.map_batches(EntityLinker, concurrency=N,
batch_format="pandas")`` — dictionaries are built ONCE per actor in
``__init__`` (the reference loads them once per process at import
time); the fuzzy matcher memoizes per actor. URI minting is
deterministic (same surface → same URI on every actor), which replaces
the reference's in-RAM dedup caches (J11).

``__call__`` resolves each slot over the UNIQUE surfaces of a batch
(``functions.columns.per_unique``: one ``pd.factorize``, the scalar
ladder below per unique surface, one gather back into numpy object
arrays), so Python runs per distinct surface, never per row, and a
call builds no pandas ``Series`` per slot. Every outcome comes from
the scalar ladder; ``_term_routes`` mirrors ``link_term``'s routing
of a term to its vocabulary (``test_batch_matches_scalar_ladder``
pins the two together).

Adds columns: ``person_uri, other_uri, place_uri, place2_uri,
term_uri, org_uri, person_sex, link_status`` (a compact
``slot=outcome`` summary feeding the hit/miss histograms, §2.6 A3).
"""

from __future__ import annotations

from difflib import get_close_matches

import numpy as np
import pandas as pd

from ..functions.columns import map_unique, per_unique
from ..functions.text import clean_term, clean_term_stemmed, make_standard_uri
from ..state.fixtures import WRITERS, build_linker_maps

LINKED_COLUMNS = ["person_uri", "other_uri", "place_uri", "place2_uri",
                  "term_uri", "org_uri", "person_sex", "link_status"]

_FUZZY_CUTOFF = 0.8  # difflib default-ish; reference logs at this band


class EntityLinker:
    """Callable class for an actor-pool ``map_batches`` stage."""

    def __init__(self, maps: dict | None = None,
                 fuzzy_substitute: bool = False):
        m = maps or build_linker_maps()
        self.people: dict[str, str] = m["people"]
        self.places: dict[str, str] = m["places"]
        self.orgs: dict[str, str] = m["orgs"]
        self.occupations: dict[str, str] = m["occupations"]
        self.causes: dict[str, str] = m["causes"]
        self.cultural_forms: dict[str, dict[str, str]] = m["cultural_forms"]
        self.degrees: dict[str, str] = m["degrees"]
        # honor an injected writers table: build_linker_maps ships a
        # 'writers' key for exactly this, and reading the module
        # global here silently gave every custom corpus person_sex
        # NaN (which the sex-conditional family templating resolves
        # to the wrong inverse predicate)
        self.writers = m.get("writers", WRITERS)
        self._sex_by_uri = {u: t[1] for u, t in self.writers.items()}
        self.fuzzy_substitute = fuzzy_substitute
        # per-actor memo for the fuzzy diagnostic (SURVEY §7.5.4)
        self._fuzzy_memo: dict[tuple[str, str], str | None] = {}

    # ------------------------------------------------------------ lookups

    def link_person(self, surface: str | None,
                    slot: str = "person") -> tuple[str | None, str]:
        """Alias dict hit → canonical URI; miss → deterministic
        standard-name URI (reference ``get_name_uri`` fallback).
        ``slot`` names the status (``person``/``other``)."""
        if surface is None:
            return None, ""
        hit = self.people.get(surface)
        if hit is not None:
            return hit, f"{slot}=linked"
        return make_standard_uri(surface), f"{slot}=minted"

    def link_place(self, surface: str | None,
                   slot: str = "place") -> tuple[str | None, str]:
        """``"Settlement, Region"`` → gazetteer URI; miss → None (the
        reference drops unmapped Places and counts the miss)."""
        if surface is None:
            return None, ""
        hit = self.places.get(clean_term(surface))
        if hit is not None:
            return hit, f"{slot}=linked"
        return None, f"{slot}=miss"

    def link_org(self, surface: str | None) -> tuple[str | None, str]:
        if surface is None:
            return None, ""
        hit = self.orgs.get(clean_term(surface))
        if hit is not None:
            return hit, "org=linked"
        return make_standard_uri(surface + " ORG"), "org=minted"

    def _fuzzy_lookup(self, table: dict[str, str], kind: str,
                      key: str) -> str | None:
        """Memoized ``get_close_matches`` probe; returns the close
        match's URI or None. ``kind`` must identify the TABLE, not
        just the fact family — the cultural-form categories each have
        their own vocabulary, and a shared 'cf' memo would let one
        category's miss (or worse, with substitution on, one
        category's URI) poison another's lookups order-dependently."""
        memo_key = (kind, key)
        if memo_key not in self._fuzzy_memo:
            if len(self._fuzzy_memo) > 100_000:
                # free-text miss surfaces are unbounded on a
                # long-lived actor; cap the memo like the gram memo
                self._fuzzy_memo.clear()
            close = get_close_matches(key, table.keys(), n=1,
                                      cutoff=_FUZZY_CUTOFF)
            self._fuzzy_memo[memo_key] = table[close[0]] if close else None
        return self._fuzzy_memo[memo_key]

    def _vocab(self, table: dict[str, str], key: str,
               kind: str, memo_kind: str | None = None
               ) -> tuple[str | None, str]:
        """exact (cleaned) → fuzzy-diagnostic → miss ladder.
        ``memo_kind`` qualifies the fuzzy memo when several tables
        share one status ``kind`` (the cultural-form categories)."""
        hit = table.get(key)
        if hit is not None:
            return hit, f"{kind}=linked"
        close_hit = self._fuzzy_lookup(table, memo_kind or kind, key)
        if close_hit is None:
            return None, f"{kind}=miss"
        if self.fuzzy_substitute:
            return close_hit, f"{kind}=fuzzy"
        return None, f"{kind}=fuzzy"  # diagnostic only: literal downstream

    def link_term(self, fact_type: str, category: str | None,
                  surface: str | None) -> tuple[str | None, str]:
        """Route a term surface to its vocabulary."""
        if surface is None:
            return None, ""
        if fact_type == "occupation":
            return self._vocab(self.occupations, clean_term(surface), "occ")
        if fact_type == "death":
            return self._vocab(self.causes, clean_term(surface), "cod")
        if fact_type == "culturalform":
            table = self.cultural_forms.get(category or "", {})
            return self._vocab(table, clean_term_stemmed(surface), "cf",
                               memo_kind=f"cf:{category or ''}")
        if fact_type == "education" and category == "degree":
            return self._vocab(self.degrees, clean_term(surface), "edu")
        return None, ""

    # ------------------------------------------------------------- batch

    def _term_routes(self, ft: np.ndarray, category: np.ndarray,
                     has_term: np.ndarray):
        """(rows, table, key fn, status kind, fuzzy memo kind) for each
        vocabulary a term routes to; the cultural-form categories each
        have their own table (a null category reads the empty one)."""
        routes = [(ft == "occupation", self.occupations, clean_term, "occ"),
                  (ft == "death", self.causes, clean_term, "cod"),
                  ((ft == "education") & (category == "degree"),
                   self.degrees, clean_term, "edu")]
        for mask, table, keyfn, kind in routes:
            yield np.flatnonzero(mask & has_term), table, keyfn, kind, kind
        cf = (ft == "culturalform") & has_term
        if cf.any():
            cats = np.where(pd.isna(category), "", category)
            for cat in pd.unique(cats[cf]):
                yield (np.flatnonzero(cf & (cats == cat)),
                       self.cultural_forms.get(cat, {}),
                       clean_term_stemmed, "cf", f"cf:{cat}")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        def col(name):
            return batch[name].to_numpy(dtype=object)

        ft = col("fact_type")
        p_uri, p_status = per_unique(col("person"), self.link_person,
                                     (None, ""))
        o_uri, o_status = per_unique(
            col("other"), lambda s: self.link_person(s, "other"),
            (None, ""))
        pl_uri, pl_status = per_unique(col("place"), self.link_place,
                                       (None, ""))
        # place2 gazetteer slot: part of the declared linker API for
        # location rows (pinned by the scalar-ladder differential
        # test) even though the current extractor only populates
        # place2 on education "degree" rows, where template.py reads
        # it as a raw literal — so on extractor output this lookup
        # sees only nulls
        p2_uri, p2_status = per_unique(
            np.where(ft == "location", col("place2"), None),
            lambda s: self.link_place(s, "place2"), (None, ""))

        # term → vocabulary, routed by fact type
        term = col("term")
        t_uri = np.full(len(batch), None, dtype=object)
        t_status = np.full(len(batch), "", dtype=object)
        for rows, table, keyfn, kind, memo_kind in self._term_routes(
                ft, col("category"), pd.notna(term)):
            if len(rows):
                t_uri[rows], t_status[rows] = per_unique(
                    term[rows],
                    lambda s: self._vocab(table, keyfn(s), kind, memo_kind),
                    (None, ""))

        org_uri, org_status = per_unique(col("org"), self.link_org,
                                         (None, ""))
        return batch.assign(
            person_uri=p_uri, other_uri=o_uri, place_uri=pl_uri,
            place2_uri=p2_uri, term_uri=t_uri, org_uri=org_uri,
            person_sex=map_unique(p_uri, self._sex_by_uri.get),
            # non-empty slot statuses joined with ";" in the fixed slot
            # order person, other, place, place2, term, org
            link_status=[";".join(filter(None, st)) for st in zip(
                p_status, o_status, pl_status, p2_status, t_status,
                org_status)],
            # location facts whose place failed the gazetteer are
            # marked dropped — the reference filters
            # Location(value=None) (location.py:120) — but the row is
            # KEPT so the miss counters (§2.6 A3) can still aggregate
            # link_status; templating skips dropped rows.
            dropped=(ft == "location") & pd.isna(pl_uri))

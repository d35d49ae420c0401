"""Closed namespace table + triple-row constants.

The reference keeps a closed dict of 48 prefixes (reference
``Utils/utilities.py:35-84``); ours is the subset actually used by the
rebuilt extractors, pointing at the public ontology IRIs (CIDOC-CRM,
SEM, OA, CiTO, FOAF) plus engine-local ``data:``/``kg:`` namespaces.
All URI minting goes through :func:`uri` so the vocabulary stays closed
(conformance check mirrors ``extraction_validation/verify_terms.py``).
"""

from __future__ import annotations

import pyarrow as pa

NS: dict[str, str] = {
    "data": "http://kg.example.org/data/",          # minted entities (reference "temp"/data ns)
    "kg": "http://kg.example.org/ontology#",        # engine vocabulary (reference "cwrc" ns role)
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "crm": "http://www.cidoc-crm.org/cidoc-crm/",   # CIDOC-CRM event patterns (E67 birth etc.)
    "sem": "http://semanticweb.cs.vu.nl/2009/11/sem/",  # simple event model (timestamps)
    "oa": "http://www.w3.org/ns/oa#",               # web annotation (contexts)
    "cito": "http://purl.org/spar/cito/",           # citations
    "foaf": "http://xmlns.com/foaf/0.1/",
    "geo": "https://sws.geonames.org/",             # gazetteer targets
    "occ": "http://kg.example.org/vocab/occupation/",
    "cod": "http://kg.example.org/vocab/cod/",
    "cf": "http://kg.example.org/vocab/cf/",
    "edu": "http://kg.example.org/vocab/education/",
    "wd": "http://kg.example.org/wikidata/",        # sameAs targets (wikidata_ids.csv role)
}

# Object-kind markers for the triple table (FIXTURES.md T3).
URI = "uri"
LITERAL = "literal"
BNODE = "bnode"  # never emitted: blank nodes are skolemized (SURVEY §7.5.6)

TRIPLE_COLUMNS = [
    "subj", "pred", "obj", "obj_kind", "obj_lang", "obj_datatype",
    "conv_id", "turn_idx",
]
# the Arrow schema of every triple table the KG chain produces
TRIPLE_SCHEMA = pa.schema([
    (c, pa.int32() if c == "turn_idx" else pa.string())
    for c in TRIPLE_COLUMNS])


def uri(prefix: str, term: str) -> str:
    """Prepend a closed-namespace IRI to ``term``.

    Behavioral analogue of the reference's ``create_uri``
    (``Utils/utilities.py:319-322``); raises on unknown prefixes so the
    vocabulary stays closed.
    """
    return NS[prefix] + term


def curie_of(full: str) -> str | None:
    """Inverse of :func:`uri` — returns ``prefix:term`` or None."""
    for p, base in NS.items():
        if full.startswith(base):
            return f"{p}:{full[len(base):]}"
    return None

"""The `sparql` workload's query mix: SPARQL texts and, for each, the
DuckDB SQL the benchmark checks its result against.

The SQL reads the graph files the query ran over (``{triples}``: the
triple parquet glob, ``{quads}``: the same rows with a ``graph``
column) and is written from the SPARQL semantics, not from the engine:
``?x p+ ?y`` is a recursive CTE, ``p*`` adds the zero-length pairs of
every URI term, an update is set difference and union over
``(subj, pred, obj)``.

Two shapes are left out of the mix because the engine answers them
wrongly without an error: a ``p+`` closure composed with a subquery
over a variable predicate, and counts over a sharded run directory
that is read without the reader's cross-shard dedup.
"""

from __future__ import annotations

KG = "http://kg.example.org/ontology#"
REL = KG + "interpersonalRelationshipWith"
BIRTH_PLACE = KG + "hasBirthPlace"
DEATH_PLACE = KG + "hasDeathPlace"
CAUSE = KG + "hasCauseOfDeath"
NEW_BIRTH_PLACE = KG + "v2_birthPlace"
SCHEMA_VERSION = KG + "schemaVersion"
DATA = "http://kg.example.org/data/"

_PREFIX = f"PREFIX kg: <{KG}>\n"

# (form, source, SPARQL, SQL). ``source`` is the graph layout the query
# runs over: "triples" or "quads".
MIX: list[tuple[str, str, str, str]] = [
    ("select", "triples", _PREFIX + """
SELECT ?person ?bp ?dp WHERE {
  ?person kg:hasBirthPlace ?bp .
  ?person kg:hasDeathPlace ?dp .
  FILTER (?bp != ?dp)
} ORDER BY DESC(?person) LIMIT 40
""", f"""
SELECT a.subj AS person, a.obj AS bp, b.obj AS dp
FROM read_parquet('{{triples}}') a
JOIN read_parquet('{{triples}}') b ON a.subj = b.subj
WHERE a.pred = '{BIRTH_PLACE}' AND b.pred = '{DEATH_PLACE}'
  AND a.obj <> b.obj
-- ties under the DESC key break by the other selected variables
ORDER BY person DESC, bp, dp
LIMIT 40
"""),
    ("group_having", "triples", _PREFIX + """
SELECT ?cod (COUNT(DISTINCT ?person) AS ?n_persons) (COUNT(*) AS ?n)
WHERE {
  ?person kg:hasCauseOfDeath ?cod .
  ?person kg:hasBirthPlace ?bp .
} GROUP BY ?cod HAVING (COUNT(*) >= 3)
""", f"""
SELECT a.obj AS cod, count(DISTINCT a.subj) AS n_persons, count(*) AS n
FROM read_parquet('{{triples}}') a
JOIN read_parquet('{{triples}}') b ON a.subj = b.subj
WHERE a.pred = '{CAUSE}' AND b.pred = '{BIRTH_PLACE}'
GROUP BY a.obj
HAVING count(*) >= 3
"""),
    ("offset", "triples", _PREFIX + """
SELECT ?person ?bp WHERE { ?person kg:hasBirthPlace ?bp }
ORDER BY ?person ?bp LIMIT 50 OFFSET 25
""", f"""
SELECT subj AS person, obj AS bp FROM read_parquet('{{triples}}')
WHERE pred = '{BIRTH_PLACE}'
ORDER BY person, bp
LIMIT 50 OFFSET 25
"""),
    ("star", "triples", _PREFIX + """
SELECT ?x ?y WHERE { ?x kg:interpersonalRelationshipWith* ?y }
""", f"""
WITH RECURSIVE e AS (
    SELECT DISTINCT subj AS s, obj AS o FROM read_parquet('{{triples}}')
    WHERE pred = '{REL}'),
c(s, o) AS (
    SELECT s, o FROM e
    UNION
    SELECT c.s, e.o FROM c JOIN e ON c.o = e.s),
terms AS (
    SELECT subj AS t FROM read_parquet('{{triples}}')
    UNION
    SELECT obj FROM read_parquet('{{triples}}') WHERE obj_kind = 'uri')
SELECT s AS x, o AS y FROM c
UNION
SELECT t, t FROM terms
"""),
    ("plus_compose", "triples", _PREFIX + """
SELECT DISTINCT ?x ?y ?bp WHERE {
  ?x kg:interpersonalRelationshipWith+ ?y .
  ?y kg:hasBirthPlace ?bp .
}
""", f"""
WITH RECURSIVE e AS (
    SELECT DISTINCT subj AS s, obj AS o FROM read_parquet('{{triples}}')
    WHERE pred = '{REL}'),
c(s, o) AS (
    SELECT s, o FROM e
    UNION
    SELECT c.s, e.o FROM c JOIN e ON c.o = e.s)
SELECT DISTINCT c.s AS x, c.o AS y, b.obj AS bp
FROM c JOIN read_parquet('{{triples}}') b ON b.subj = c.o
WHERE b.pred = '{BIRTH_PLACE}'
"""),
    ("inverse_plus", "triples", _PREFIX + """
SELECT DISTINCT ?y ?cod WHERE {
  ?x ^kg:interpersonalRelationshipWith+ ?y .
  ?y kg:hasCauseOfDeath ?cod .
}
""", f"""
WITH RECURSIVE e AS (
    SELECT DISTINCT subj AS s, obj AS o FROM read_parquet('{{triples}}')
    WHERE pred = '{REL}'),
c(s, o) AS (
    SELECT s, o FROM e
    UNION
    SELECT c.s, e.o FROM c JOIN e ON c.o = e.s)
-- ?x ^p+ ?y holds when ?y reaches ?x forward: ?y is a closure start
SELECT DISTINCT c.s AS y, d.obj AS cod
FROM c JOIN read_parquet('{{triples}}') d ON d.subj = c.s
WHERE d.pred = '{CAUSE}'
"""),
    ("census", "triples", """
SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p
""", """
SELECT pred AS p, count(*) AS n FROM read_parquet('{triples}')
GROUP BY pred
"""),
    ("graph", "quads", _PREFIX + """
SELECT ?g (COUNT(*) AS ?n) WHERE {
  GRAPH ?g { ?s kg:hasCauseOfDeath ?o }
} GROUP BY ?g
""", f"""
SELECT '{DATA}' || coalesce(conv_id, 'corpus') AS g, count(*) AS n
FROM read_parquet('{{triples}}')
WHERE pred = '{CAUSE}'
GROUP BY g
"""),
    ("update", "triples", _PREFIX + """
DELETE { ?p kg:hasBirthPlace ?o }
INSERT { ?p kg:v2_birthPlace ?o . ?p kg:schemaVersion "v2" }
WHERE { ?p kg:hasBirthPlace ?o }
""", f"""
WITH b AS (SELECT subj AS p, obj AS o FROM read_parquet('{{triples}}')
           WHERE pred = '{BIRTH_PLACE}')
SELECT subj, pred, obj FROM (
    SELECT subj, pred, obj FROM read_parquet('{{triples}}')
    EXCEPT
    SELECT p, '{BIRTH_PLACE}', o FROM b)
UNION
SELECT p, '{NEW_BIRTH_PLACE}', o FROM b
UNION
SELECT p, '{SCHEMA_VERSION}', 'v2' FROM b
"""),
]

#: the columns of an update's output graph that the check compares
UPDATE_COLUMNS = ["subj", "pred", "obj"]

"""SPARQL text front-end: the parsed-and-dispatched result of each
query form must equal the hand-built planner call it maps to."""

import pandas as pd
import pytest
import ray.data as rd

from rdf_extraction_ray.stages.sparql import parse_sparql, run_sparql

PRE = "PREFIX ex: <http://ex.org/> "


def _triples():
    rows = [
        ("ev1", "http://ex.org/died", "alice"),
        ("ev2", "http://ex.org/died", "alice"),
        ("ev3", "http://ex.org/died", "bob"),
        ("alice", "http://ex.org/dplace", "york"),
        ("alice", "http://ex.org/bplace", "leeds"),
        ("bob", "http://ex.org/bplace", "hull"),
        ("carol", "http://ex.org/dplace", "york"),
        ("alice", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
         "Person"),
    ]
    return rd.from_pandas(pd.DataFrame(
        rows, columns=["subj", "pred", "obj"]))


def _canon(ds):
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    return (df.reindex(sorted(df.columns), axis=1)
            .sort_values(sorted(df.columns), ignore_index=True))


class TestSelect:
    def test_basic_join_optional_filter(self):
        tr = _triples()
        got = run_sparql(tr, PRE + """
            SELECT ?ev ?p ?bp WHERE {
              ?ev ex:died ?p .
              OPTIONAL { ?p ex:dplace ?dp }
              ?p ex:bplace ?bp .
              FILTER (?bp != "hull")
            }""")
        df = _canon(got)
        assert df["p"].unique().tolist() == ["alice"]
        assert len(df) == 2  # ev1, ev2

    def test_select_star_and_distinct(self):
        tr = _triples()
        got = _canon(run_sparql(
            tr, PRE + "SELECT DISTINCT ?p WHERE { ?ev ex:died ?p }"))
        assert got["p"].tolist() == ["alice", "bob"]

    def test_rdf_type_a_and_semicolon_comma(self):
        tr = _triples()
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?s WHERE { ?s a "Person" ; ex:bplace "leeds" . }"""))
        assert got["s"].tolist() == ["alice"]

    def test_order_by_limit(self):
        tr = _triples()
        got = run_sparql(tr, PRE + """
            SELECT ?ev ?p WHERE { ?ev ex:died ?p }
            ORDER BY DESC(?ev) LIMIT 2""").to_pandas()
        assert got["ev"].tolist() == ["ev3", "ev2"]

    def test_values_and_bind(self):
        tr = _triples()
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?p ?up WHERE {
              ?ev ex:died ?p .
              VALUES ?p { "alice" }
              BIND (UCASE(?p) AS ?up)
            }"""))
        assert set(got["up"]) == {"ALICE"}

    def test_values_duplicates_nonmatching_and_multi_var(self):
        # VALUES is an inner join against its deduplicated rows: a
        # duplicate inline row never doubles a solution, a row that
        # matches nothing adds none, and the solutions' own bag
        # multiplicity (alice died twice) stays
        tr = _triples()
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?ev ?p WHERE { ?ev ex:died ?p
              VALUES ?p { "alice" "alice" "nobody" } }"""))
        assert list(map(tuple, got.to_numpy())) == [
            ("ev1", "alice"), ("ev2", "alice")]
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?ev ?p ?b WHERE { ?ev ex:died ?p . ?p ex:bplace ?b
              VALUES (?p ?b) { ("alice" "leeds") ("bob" "york")
                               ("alice" "leeds") } }"""))
        assert list(map(tuple, got[["ev", "p", "b"]].to_numpy())) == [
            ("ev1", "alice", "leeds"), ("ev2", "alice", "leeds")]

    def test_projection_expression(self):
        tr = _triples()
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?p (STRLEN(?p) AS ?n) WHERE {
              ?ev ex:died ?p }"""))
        assert dict(zip(got["p"], got["n"]))["alice"] == "5"

    def test_inverse_and_alternation_paths(self):
        tr = _triples()
        # ?p ^ex:died ?ev  ==  ?ev ex:died ?p
        got = _canon(run_sparql(tr, PRE + """
            SELECT DISTINCT ?p WHERE { ?p ^ex:died ?ev }"""))
        assert got["p"].tolist() == ["alice", "bob"]
        got = _canon(run_sparql(tr, PRE + """
            SELECT DISTINCT ?place WHERE {
              ?p ex:dplace|ex:bplace ?place }"""))
        assert got["place"].tolist() == ["hull", "leeds", "york"]


class TestOtherForms:
    def test_ask(self):
        tr = _triples()
        assert run_sparql(
            tr, PRE + 'ASK { ?ev ex:died "alice" }') is True
        assert run_sparql(
            tr, PRE + 'ASK { ?ev ex:died "nobody" }') is False

    def test_construct(self):
        tr = _triples()
        got = _canon(run_sparql(tr, PRE + """
            CONSTRUCT { ?p ex:deceased "yes" }
            WHERE { ?ev ex:died ?p }"""))
        assert got["subj"].tolist() == ["alice", "bob"]
        assert set(got["pred"]) == {"http://ex.org/deceased"}

    def test_describe(self):
        tr = _triples()
        got = run_sparql(tr, PRE + """
            DESCRIBE ?p WHERE { ?p ex:dplace "york" }""").to_pandas()
        assert set(got["subj"]) == {"alice", "carol"}

    def test_union(self):
        tr = _triples()
        got = _canon(run_sparql(tr, PRE + """
            SELECT DISTINCT ?place WHERE {
              { ?p ex:dplace ?place } UNION { ?p ex:bplace ?place }
            }"""))
        assert got["place"].tolist() == ["hull", "leeds", "york"]

    def test_minus_and_not_exists_and_exists(self):
        tr = _triples()
        q = """
            SELECT DISTINCT ?p WHERE {
              ?ev ex:died ?p . %s { ?p ex:dplace ?dp }
            }"""
        for clause, want in [("MINUS", ["bob"]),
                             ("FILTER NOT EXISTS", ["bob"]),
                             ("FILTER EXISTS", ["alice"])]:
            got = _canon(run_sparql(tr, PRE + q % clause))
            assert got["p"].tolist() == want, clause

    def test_negation_bodies_keep_their_filters(self):
        # a MINUS / EXISTS body is a full group: its FILTER applies
        # (no dplace is "nowhere", so nothing is removed / kept)
        tr = _triples()
        q = """
            SELECT ?p WHERE { ?ev ex:died ?p .
              %s { ?p ex:dplace ?d FILTER (?d = "nowhere") } }"""
        for clause, want in [("MINUS", ["alice", "alice", "bob"]),
                             ("FILTER NOT EXISTS", ["alice", "alice", "bob"]),
                             ("FILTER EXISTS", [])]:
            got = run_sparql(tr, PRE + q % clause).take_all()
            assert sorted(r["p"] for r in got) == want, clause

    @pytest.mark.parametrize("clause", ["MINUS", "FILTER EXISTS",
                                        "FILTER NOT EXISTS"])
    @pytest.mark.parametrize("q", [
        # the UNION body binds ?y in one branch only
        "SELECT ?x WHERE { ?x <p> ?y %s { { ?x <q> ?y } UNION "
        "{ ?x <r> ?w } } }",
        # the body's OPTIONAL binds ?y
        "SELECT ?x WHERE { ?x <p> ?y %s { ?x <q> ?z "
        "OPTIONAL { ?z <r> ?y } } }",
        # the main OPTIONAL binds ?z
        "SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } "
        "%s { ?x <r> ?z } }",
    ])
    def test_negation_on_a_maybe_unbound_shared_var_is_loud(self, q,
                                                            clause):
        # SPARQL compares such a variable per solution; as an equality
        # key it would be wrong, and dropped from the keys a left row
        # (x=a, y=1) would meet a body row (x=a, y=2) as compatible
        with pytest.raises(NotImplementedError, match="not every"):
            run_sparql(_triples(), q % clause)

    @pytest.mark.parametrize("clause", [
        'FILTER (?p = "zzz")',
        "FILTER EXISTS { ?p ex:nowhere ?x }",
        "MINUS { ?ev ex:died ?p }",
    ], ids=["filter", "exists", "minus"])
    def test_zero_row_result_keeps_its_columns(self, clause):
        import pyarrow as pa

        out = run_sparql(_triples(), PRE + """
            SELECT ?ev ?p WHERE { ?ev ex:died ?p %s }""" % clause)
        want = pa.schema([("ev", pa.string()), ("p", pa.string())])
        assert out.schema().base_schema == want
        df = out.to_pandas()
        assert len(df) == 0
        assert list(df.columns) == ["ev", "p"]
        assert df.dtypes.tolist() == [object, object]

    def test_aggregate_group_by_having(self):
        tr = _triples()
        got = run_sparql(tr, PRE + """
            SELECT ?p (COUNT(*) AS ?n) WHERE { ?ev ex:died ?p }
            GROUP BY ?p HAVING (COUNT(*) >= 2)""").to_pandas()
        assert got[["p", "n"]].values.tolist() == [["alice", 2]]

    def test_update_delete_insert(self):
        tr = _triples()
        got = run_sparql(tr, PRE + """
            DELETE { ?ev ex:died ?p }
            INSERT { ?p ex:diedIn ?dp }
            WHERE { ?ev ex:died ?p . ?p ex:dplace ?dp }""").to_pandas()
        tups = set(map(tuple, got[["subj", "pred", "obj"]].to_numpy()))
        assert ("alice", "http://ex.org/diedIn", "york") in tups
        # ev1/ev2 retracted; ev3 (bob, no dplace binding) kept
        assert ("ev1", "http://ex.org/died", "alice") not in tups
        assert ("ev3", "http://ex.org/died", "bob") in tups

    def test_delete_where_shorthand(self):
        tr = _triples()
        got = _canon(run_sparql(
            tr, PRE + "DELETE WHERE { ?ev ex:died ?p }"))
        assert "http://ex.org/died" not in set(got["pred"])


class TestParserErrors:
    @pytest.mark.parametrize("q,err", [
        ("SELECT ?x WHERE { ?x <p>|<q>+ ?y }", NotImplementedError),
        ("SELECT ?x WHERE { OPTIONAL { ?x <p>* ?y } }",
         NotImplementedError),
        ("SELECT ?x WHERE { ?x ^?p ?y }", NotImplementedError),
        ("SELECT ?x WHERE { ?x ?p|<q> ?y }", NotImplementedError),
        ("SELECT ?x WHERE { ?x ?p+ ?y }", NotImplementedError),
        ("SELECT ?g WHERE { GRAPH 42 { ?x <p> ?y } }", SyntaxError),
        ("SELECT ?x WHERE { GRAPH ?g { ?x <p>+ ?y } }",
         NotImplementedError),
        ("SELECT ?x WHERE { ?x <p> ?y } OFFSET 5", NotImplementedError),
        ("SELECT ?x WHERE { ?x <p> ?y } LIMIT x", SyntaxError),
        ("FROB ?x WHERE { }", SyntaxError),
        ("SELECT ?x WHERE { ?x ex:p ?y }", SyntaxError),  # no PREFIX
        ("SELECT ?x WHERE { . ?x <p> ?y }", SyntaxError),
        ("SELECT ?x WHERE { ?x <p> ?y . . }", SyntaxError),
        ("SELECT ?x WHERE { ?x <p> ?y . . ?x <q> ?z }", SyntaxError),
        ("SELECT ?x WHERE { OPTIONAL { ?x <p> ?y } . . }", SyntaxError),
        ("SELECT ?x WHERE { ?x <p> ?y OPTIONAL { . ?x <q> ?z } }",
         SyntaxError),
        ('SELECT (GROUP_CONCAT(?v; SEPARATOR=";") AS ?a) '
         'WHERE { ?x <p> ?v }', NotImplementedError),
        ("DELETE WHERE { GRAPH ?g { ?s <p> ?o } }", NotImplementedError),
        ("DELETE WHERE { ?s <p>+ ?o }", NotImplementedError),
        ("CONSTRUCT { ?o ^<p> ?s } WHERE { ?s <p> ?o }",
         NotImplementedError),
    ])
    def test_loud_errors(self, q, err):
        with pytest.raises(err):
            run_sparql(_triples(), q)

    @pytest.mark.parametrize("body", [
        '?s ?p ?o .',
        '?s ?p ?o . OPTIONAL { ?s <q> ?z } .',
        'OPTIONAL { ?s <q> ?z } . ?s ?p ?o',
        '?s ?p "." . FILTER(?o != "x") .',
    ])
    def test_one_dot_after_a_pattern_parses(self, body):
        q = parse_sparql("SELECT ?s WHERE { " + body + " }")
        assert ("?s", "?p", "?o") in q["group"]["patterns"] or \
            ("?s", "?p", ".") in q["group"]["patterns"]

    def test_comments_and_literals_tokenize(self):
        q = parse_sparql("""# find alice
            SELECT ?x WHERE { ?x <http://ex.org/died> "ali\\"ce" }""")
        assert q["group"]["patterns"] == [
            ("?x", "http://ex.org/died", 'ali"ce')]

    def test_prefix_expansion_and_typed_literal(self):
        q = parse_sparql(PRE + """SELECT ?x WHERE {
            ?x ex:age "42"^^<http://www.w3.org/2001/XMLSchema#int> }""")
        assert q["group"]["patterns"] == [
            ("?x", "http://ex.org/age", "42")]


class TestSubquery:
    def test_nested_aggregate_select_joins_outer(self):
        tr = _triples()
        got = run_sparql(tr, PRE + """
            SELECT ?ev ?p ?n WHERE {
              ?ev ex:died ?p .
              { SELECT ?p (COUNT(*) AS ?n) WHERE { ?e2 ex:died ?p }
                GROUP BY ?p HAVING (COUNT(*) >= 2) }
            }""").to_pandas().sort_values("ev", ignore_index=True)
        assert got[["ev", "p"]].values.tolist() == [
            ["ev1", "alice"], ["ev2", "alice"]]
        assert set(got["n"]) == {2}

    def test_subquery_must_share_a_var(self):
        tr = _triples()
        with pytest.raises(ValueError):
            run_sparql(tr, PRE + """
                SELECT ?s WHERE { ?s ex:bplace ?b .
                  { SELECT ?p (COUNT(*) AS ?n)
                    WHERE { ?e ex:died ?p } GROUP BY ?p } }""")

    def test_plain_subquery_joins_with_its_own_modifiers(self):
        # a non-aggregate inner SELECT is a subquery like any other:
        # its solutions (bag, or set under DISTINCT) join the outer ones
        tr = _triples()
        q = PRE + """
            SELECT ?p ?b WHERE { ?p ex:bplace ?b .
              { SELECT %s ?p WHERE { ?ev ex:died ?p } } }"""
        bag = _canon(run_sparql(tr, q % ""))
        assert list(map(tuple, bag[["b", "p"]].to_numpy())) == [
            ("hull", "bob"), ("leeds", "alice"), ("leeds", "alice")]
        got = _canon(run_sparql(tr, q % "DISTINCT"))
        assert list(map(tuple, got[["b", "p"]].to_numpy())) == [
            ("hull", "bob"), ("leeds", "alice")]


class TestClosurePath:
    def test_transitive_path_forms(self):
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/p", "b"),
             ("b", "http://ex.org/p", "c"),
             ("x", "http://ex.org/q", "y")],
            columns=["subj", "pred", "obj"]))
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?s ?t WHERE { ?s ex:p+ ?t }"""))
        assert list(map(tuple, got[["s", "t"]].to_numpy())) == [
            ("a", "b"), ("a", "c"), ("b", "c")]
        # constant start binds only the end var
        got = run_sparql(tr, PRE + """
            SELECT ?t WHERE { "a" ex:p+ ?t }""").to_pandas()
        assert sorted(got["t"]) == ["b", "c"]
        assert list(got.columns) == ["t"]
        # constant end filters the closure
        got = run_sparql(tr, PRE + """
            SELECT ?s WHERE { ?s ex:p+ "c" }""").to_pandas()
        assert sorted(got["s"]) == ["a", "b"]


#: the ``<p>+`` closure of table ``t`` as relation ``c(start, node)``
_CLOSURE_SQL = """
    WITH RECURSIVE e AS (SELECT DISTINCT subj AS s, obj AS o FROM t
                         WHERE pred = 'p'),
    c(start, node) AS (SELECT s, o FROM e
                       UNION
                       SELECT c.start, e.o FROM c JOIN e ON c.node = e.s)
"""


class TestPathNode:
    """A ``p+`` path is one node of the algebra, joined with the rest
    of its group like a subquery, so every group holds one: checked
    against a DuckDB recursive-CTE replay on a seeded random quad
    graph with cycles."""

    @staticmethod
    def _graph():
        import numpy as np

        rng = np.random.default_rng(17)
        n = 48
        nodes = [f"n{i}" for i in range(8)]
        graphs = np.array(["g1", "g2", None], dtype=object)
        return pd.DataFrame({
            "subj": rng.choice(nodes, n),
            "pred": rng.choice(["p", "q", "r"], n),
            "obj": rng.choice(nodes, n),
            "graph": rng.choice(graphs, n),
        }).drop_duplicates(ignore_index=True)

    @staticmethod
    def _replay(df, sql):
        import duckdb

        con = duckdb.connect()
        con.register("t", df)
        return con.sql(_CLOSURE_SQL + sql).df()

    @pytest.mark.parametrize("sparql,sql", [
        ("SELECT ?s ?m ?u WHERE { ?s <q> ?m OPTIONAL { ?m <p>+ ?u } }",
         """SELECT a.subj AS s, a.obj AS m, c.node AS u FROM t a
            LEFT JOIN c ON c.start = a.obj WHERE a.pred = 'q'"""),
        ("SELECT ?x ?y WHERE { { ?x <p>+ ?y } UNION { ?x ?q ?y } }",
         """SELECT start AS x, node AS y FROM c
            UNION ALL SELECT subj, obj FROM t"""),
        ("SELECT ?s ?o WHERE { ?s <q> ?o MINUS { ?s <p>+ ?o } }",
         """SELECT subj AS s, obj AS o FROM t WHERE pred = 'q'
            AND NOT EXISTS (SELECT 1 FROM c WHERE c.start = t.subj
                            AND c.node = t.obj)"""),
        ("""SELECT ?x ?n WHERE { ?x <q> ?o .
              { SELECT ?x (COUNT(*) AS ?n) WHERE { ?x <p>+ ?y }
                GROUP BY ?x } }""",
         """SELECT a.subj AS x, k.n FROM t a
            JOIN (SELECT start, count(*)::BIGINT AS n FROM c
                  GROUP BY start) k ON k.start = a.subj
            WHERE a.pred = 'q'"""),
        ("SELECT ?x ?y ?q ?o WHERE { ?x <p>+ ?y . ?x ?q ?o }",
         """SELECT c.start AS x, c.node AS y, a.pred AS q, a.obj AS o
            FROM c JOIN t a ON a.subj = c.start"""),
        ("SELECT ?x ?y WHERE { ?x <p>+ ?y MINUS { ?x ?q <n3> } }",
         """SELECT start AS x, node AS y FROM c WHERE NOT EXISTS (
              SELECT 1 FROM t WHERE t.subj = c.start AND t.obj = 'n3')"""),
        ("""SELECT ?x ?n WHERE { ?x <p>+ ?y .
              { SELECT ?x (COUNT(*) AS ?n) WHERE { ?x ?q ?o }
                GROUP BY ?x } }""",
         """SELECT c.start AS x, k.n FROM c
            JOIN (SELECT subj, count(*)::BIGINT AS n FROM t
                  GROUP BY subj) k ON k.subj = c.start"""),
        ("SELECT ?x ?y ?g WHERE { ?x <p>+ ?y . GRAPH ?g { ?y <q> ?z } }",
         """SELECT c.start AS x, c.node AS y, a.graph AS g
            FROM c JOIN t a ON a.subj = c.node
            WHERE a.pred = 'q' AND a.graph IS NOT NULL"""),
        ("""SELECT ?x ?y ?g WHERE { ?x <p>+ ?y .
              OPTIONAL { GRAPH ?g { ?x <q> ?z } } }""",
         """SELECT c.start AS x, c.node AS y, a.graph AS g FROM c
            LEFT JOIN t a ON a.subj = c.start AND a.pred = 'q'
              AND a.graph IS NOT NULL"""),
        ("DESCRIBE ?s WHERE { ?s <p>+ ?m . ?m <q> ?u }",
         """SELECT subj, pred, obj FROM t WHERE subj IN (
              SELECT c.start FROM c JOIN t b ON b.subj = c.node
              WHERE b.pred = 'q')"""),
        ("""DELETE { ?x <q> ?z } INSERT { ?x <reach> ?y }
            WHERE { ?x <p>+ ?y . ?x <q> ?z }""",
         """SELECT * FROM (
              SELECT subj, pred, obj FROM t
              EXCEPT
              SELECT subj, pred, obj FROM t WHERE pred = 'q'
                AND subj IN (SELECT start FROM c))
            UNION
            SELECT start, 'reach', node FROM c
            WHERE start IN (SELECT subj FROM t WHERE pred = 'q')"""),
        ('SELECT ?x ?y WHERE { ?x <p>+ ?y VALUES ?y { "n1" "n2" } }',
         """SELECT start AS x, node AS y FROM c
            WHERE node IN ('n1', 'n2')"""),
        ("""SELECT ?x (STRLEN(?y) AS ?n) WHERE { ?x <p>+ ?y
              FILTER (?y != "n1") }""",
         """SELECT start AS x, CAST(length(node) AS VARCHAR) AS n
            FROM c WHERE node <> 'n1'"""),
    ], ids=["optional", "union", "minus", "subquery", "varpred",
            "varpred_minus", "varpred_subquery", "graph", "graph_optional",
            "describe", "update", "values", "bind_filter"])
    def test_matches_duckdb(self, sparql, sql):
        df = self._graph()
        want = self._replay(df, sql)
        got = run_sparql(rd.from_pandas(df), sparql).to_pandas()
        assert len(want)
        pd.testing.assert_frame_equal(_canon(got[list(want.columns)]),
                                      _canon(want), check_dtype=False)

    @pytest.mark.parametrize("least", ["1", "3"])
    def test_filter_over_subquery_output(self, least):
        # ?n is bound by the subquery only: the FILTER applies above
        # the join, and reads its constant as a number against COUNT
        df = self._graph()
        want = self._replay(df, f"""
            SELECT a.subj AS s, k.n FROM t a
            JOIN (SELECT subj, count(*)::BIGINT AS n FROM t
                  WHERE pred = 'p' GROUP BY subj) k ON k.subj = a.subj
            WHERE a.pred = 'q' AND k.n >= {least}""")
        got = run_sparql(rd.from_pandas(df), f"""
            SELECT ?s ?n WHERE {{ ?s <q> ?x .
              {{ SELECT ?s (COUNT(*) AS ?n) WHERE {{ ?s <p> ?o }}
                 GROUP BY ?s }}
              FILTER (?n >= "{least}") }}""").to_pandas()
        assert len(want)
        pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                      check_dtype=False)


class TestClosureForms:
    """Round-4 grammar closures: p* alone, p+/p* composed with other
    patterns (a path node joined with the group), and OFFSET
    pagination."""

    @staticmethod
    def _chain():
        # a -> b -> c -> d  via ex:next, plus names on each node
        rows = [
            ("a", "http://ex.org/next", "b"),
            ("b", "http://ex.org/next", "c"),
            ("c", "http://ex.org/next", "d"),
            ("a", "http://ex.org/name", "NA"),
            ("b", "http://ex.org/name", "NB"),
            ("c", "http://ex.org/name", "NC"),
            ("d", "http://ex.org/name", "ND"),
        ]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    def test_star_single_pattern_includes_zero_length(self):
        got = _canon(run_sparql(
            self._chain(),
            PRE + "SELECT ?y WHERE { <a> ex:next* ?y }"))
        assert got["y"].tolist() == ["a", "b", "c", "d"]

    def test_star_var_endpoints_self_pairs(self):
        got = _canon(run_sparql(
            self._chain(),
            PRE + "SELECT ?x ?y WHERE { ?x ex:next* ?y }"))
        pairs = set(zip(got["x"], got["y"]))
        # every URI term self-paired (zero hops)...
        for t in ["a", "b", "c", "d", "NA", "NB", "NC", "ND"]:
            assert (t, t) in pairs
        # ...plus the transitive reach
        assert {("a", "b"), ("a", "c"), ("a", "d"),
                ("b", "d")} <= pairs

    def test_plus_composed_with_pattern(self):
        # reachable-from-a nodes joined with their names
        got = _canon(run_sparql(self._chain(), PRE + """
            SELECT ?y ?n WHERE {
              <a> ex:next+ ?y .
              ?y ex:name ?n .
            }"""))
        assert list(zip(got["y"], got["n"])) == [
            ("b", "NB"), ("c", "NC"), ("d", "ND")]

    def test_star_composed_with_filter(self):
        got = _canon(run_sparql(self._chain(), PRE + """
            SELECT ?y ?n WHERE {
              <a> ex:next* ?y .
              ?y ex:name ?n .
              FILTER (?n != "NC")
            }"""))
        assert list(zip(got["y"], got["n"])) == [
            ("a", "NA"), ("b", "NB"), ("d", "ND")]

    def test_plus_composed_ask_and_construct(self):
        assert run_sparql(self._chain(), PRE + """
            ASK { <a> ex:next+ ?y . ?y ex:name "ND" }""") is True
        assert run_sparql(self._chain(), PRE + """
            ASK { <a> ex:next+ ?y . ?y ex:name "NA" }""") is False
        cons = _canon(run_sparql(self._chain(), PRE + """
            CONSTRUCT { <a> ex:reaches ?y } WHERE {
              <a> ex:next+ ?y . ?y ex:name ?n }"""))
        assert set(cons["obj"]) == {"b", "c", "d"}
        assert set(cons["pred"]) == {"http://ex.org/reaches"}

    def test_offset_paginates_sorted_results(self):
        q = PRE + ("SELECT ?s ?n WHERE { ?s ex:name ?n } "
                   "ORDER BY ?n LIMIT 2 OFFSET %d")
        page0 = run_sparql(self._chain(), q % 0).to_pandas()
        page1 = run_sparql(self._chain(), q % 2).to_pandas()
        assert page0["n"].tolist() == ["NA", "NB"]
        assert page1["n"].tolist() == ["NC", "ND"]
        # past-the-end page is empty
        assert len(run_sparql(self._chain(), q % 4).to_pandas()) == 0

    def test_offset_page_of_no_solutions_keeps_its_schema(self):
        import pyarrow as pa

        out = run_sparql(self._chain(), PRE + """
            SELECT ?s ?n WHERE { ?s ex:name ?n FILTER (?n = "zzz") }
            ORDER BY ?n LIMIT 2 OFFSET 1""")
        assert out.count() == 0
        assert out.schema().base_schema == pa.schema(
            [("s", pa.string()), ("n", pa.string())])

    def test_offset_requires_order_and_limit(self):
        with pytest.raises(NotImplementedError):
            run_sparql(self._chain(), PRE +
                       "SELECT ?s WHERE { ?s ex:name ?n } "
                       "ORDER BY ?n OFFSET 1")
        with pytest.raises(NotImplementedError):
            run_sparql(self._chain(), PRE +
                       "SELECT (COUNT(*) AS ?c) WHERE "
                       "{ ?s ex:name ?n } LIMIT 1 OFFSET 1")


class TestInverseClosure:
    def test_inverse_plus_and_star(self):
        # chain a -> b -> c; ^next+ walks it backwards
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("b", "http://ex.org/next", "c")],
            columns=["subj", "pred", "obj"]))
        got = _canon(run_sparql(
            tr, PRE + "SELECT ?x ?y WHERE { ?x ^ex:next+ ?y }"))
        assert set(zip(got["x"], got["y"])) == {
            ("b", "a"), ("c", "b"), ("c", "a")}
        got = _canon(run_sparql(
            tr, PRE + "SELECT ?y WHERE { <c> ^ex:next* ?y }"))
        assert got["y"].tolist() == ["a", "b", "c"]

    def test_inverse_closure_composed(self):
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("b", "http://ex.org/next", "c"),
             ("a", "http://ex.org/name", "NA")],
            columns=["subj", "pred", "obj"]))
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?y ?n WHERE {
              <c> ^ex:next+ ?y . ?y ex:name ?n }"""))
        assert list(zip(got["y"], got["n"])) == [("a", "NA")]


class TestAlternationClosure:
    def test_grouped_alternation_plus(self):
        # a -next-> b -link-> c; (next|link)+ reaches across both
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("b", "http://ex.org/link", "c")],
            columns=["subj", "pred", "obj"]))
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?x ?y WHERE { ?x (ex:next|ex:link)+ ?y }"""))
        assert set(zip(got["x"], got["y"])) == {
            ("a", "b"), ("b", "c"), ("a", "c")}

    def test_mixed_inverse_alternation_is_undirected_closure(self):
        # (next|^next)+ from a reaches everything in the weak
        # component, both directions
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("c", "http://ex.org/next", "b")],
            columns=["subj", "pred", "obj"]))
        got = run_sparql(tr, PRE + """
            SELECT ?y WHERE { <a> (ex:next|^ex:next)+ ?y }""") \
            .to_pandas()
        assert sorted(got["y"]) == ["a", "b", "c"]  # a via b-cycle

    def test_grouped_star_and_composition(self):
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("b", "http://ex.org/link", "c"),
             ("c", "http://ex.org/name", "NC")],
            columns=["subj", "pred", "obj"]))
        got = _canon(run_sparql(tr, PRE + """
            SELECT ?y ?n WHERE {
              <a> (ex:next|ex:link)* ?y . ?y ex:name ?n }"""))
        assert list(zip(got["y"], got["n"])) == [("c", "NC")]

    def test_ungrouped_alternation_quantifier_is_loud(self):
        with pytest.raises(NotImplementedError):
            run_sparql(_triples(), PRE +
                       "SELECT ?x WHERE { ?x ex:p|ex:q+ ?y }")


class TestReviewRegressionPins:
    """Round-4 review findings pinned: OFFSET must not silently leak
    into subquery bodies, and the ^p+ oracle shape must agree with the
    engine on NON-mutual edges."""

    def test_offset_in_subquery_is_loud(self):
        with pytest.raises(NotImplementedError):
            run_sparql(_triples(), PRE + """
                SELECT ?o WHERE {
                  ?s ex:q ?o .
                  { SELECT ?o (COUNT(?x) AS ?c)
                    WHERE { ?x ex:q ?o } GROUP BY ?o OFFSET 5 }
                }""")

    def test_inverse_closure_oracle_shape_on_non_mutual_chain(self):
        """On a one-directional chain the corrected oracle shape
        (y = forward-closure START) matches the engine; the old
        node-side binding would not."""
        import duckdb
        rows = [("a", "http://ex.org/rel", "b"),
                ("b", "http://ex.org/rel", "c"),
                ("a", "http://ex.org/cod", "CA"),
                ("b", "http://ex.org/cod", "CB"),
                ("c", "http://ex.org/cod", "CC")]
        df = pd.DataFrame(rows, columns=["subj", "pred", "obj"])
        got = _canon(run_sparql(rd.from_pandas(df), PRE + """
            SELECT DISTINCT ?y ?cod WHERE {
              ?x ^ex:rel+ ?y . ?y ex:cod ?cod }"""))
        con = duckdb.connect()
        con.register("t", df)
        want = con.sql("""
            WITH RECURSIVE e AS (
                SELECT DISTINCT subj AS s, obj AS o FROM t
                WHERE pred = 'http://ex.org/rel'),
            c(start, node) AS (
                SELECT s, o FROM e
                UNION
                SELECT c.start, e.o FROM c JOIN e ON c.node = e.s)
            SELECT DISTINCT c.start AS y, d.obj AS cod
            FROM c JOIN t d ON c.start = d.subj
            WHERE d.pred = 'http://ex.org/cod'
        """).df().sort_values(["y", "cod"], ignore_index=True)
        got = got.rename(columns=str).sort_values(
            ["cod", "y"]).reset_index(drop=True)
        want = want.sort_values(["cod", "y"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["cod", "y"]], want[["cod", "y"]])
        # starts only: c never starts a forward path
        assert set(got["y"]) == {"a", "b"}


class TestClosureFastPathSemantics:
    """Round-4 review pins: a path keeps the full solution semantics
    for one variable at both ends and for a projection that drops one
    of its variables."""

    @staticmethod
    def _chain():
        return rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("b", "http://ex.org/next", "c")],
            columns=["subj", "pred", "obj"]))

    def test_same_variable_closure_is_cycle_membership(self):
        # acyclic chain: ?x next+ ?x has NO solutions
        got = run_sparql(self._chain(), PRE +
                         "SELECT ?x WHERE { ?x ex:next+ ?x }") \
            .to_pandas()
        assert len(got) == 0
        # with a cycle b->a added, a and b satisfy it
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b"),
             ("b", "http://ex.org/next", "a")],
            columns=["subj", "pred", "obj"]))
        got = run_sparql(tr, PRE +
                         "SELECT ?x WHERE { ?x ex:next+ ?x }") \
            .to_pandas()
        assert sorted(got["x"]) == ["a", "b"]

    def test_distinct_subset_projection_dedups(self):
        got = run_sparql(self._chain(), PRE +
                         "SELECT DISTINCT ?x WHERE "
                         "{ ?x ex:next+ ?y }").to_pandas()
        assert sorted(got["x"]) == ["a", "b"]  # not [a, a, b]
        # bag semantics WITHOUT distinct keep the duplicate
        bag = run_sparql(self._chain(), PRE +
                         "SELECT ?x WHERE { ?x ex:next+ ?y }") \
            .to_pandas()
        assert sorted(bag["x"]) == ["a", "a", "b"]

    def test_unbound_selected_var_is_loud(self):
        with pytest.raises(ValueError):
            run_sparql(self._chain(), PRE +
                       "SELECT ?z WHERE { ?x ex:next+ ?y }") \
                .to_pandas()

    def test_star_zero_pairs_include_literal_only_subjects(self):
        tr = rd.from_pandas(pd.DataFrame(
            [("a", "http://ex.org/next", "b", "uri"),
             ("c", "http://ex.org/name", "Carol", "literal")],
            columns=["subj", "pred", "obj", "obj_kind"]))
        got = run_sparql(tr, PRE + "SELECT ?x ?y WHERE "
                         "{ ?x ex:next* ?y }").to_pandas()
        pairs = set(zip(got["x"], got["y"]))
        assert ("c", "c") in pairs  # c is a URI term of the graph
        assert ("Carol", "Carol") not in pairs  # literals are not


def _quads():
    rows = [
        ("ev1", "http://ex.org/died", "alice", "conv1"),
        ("ev2", "http://ex.org/died", "alice", "conv2"),
        ("ev3", "http://ex.org/died", "bob", "conv2"),
        ("alice", "http://ex.org/dplace", "york", None),
        ("bob", "http://ex.org/bplace", "hull", "conv1"),
    ]
    return rd.from_pandas(pd.DataFrame(
        rows, columns=["subj", "pred", "obj", "graph"]))


class TestVariablePredicates:
    """Round-5 grammar closure: a bare ?p in the predicate slot plans
    as the unfiltered scan with the predicate bound (VERDICT r4
    missing #1; reference analogue Utils/utilities.py:446-490)."""

    def test_predicate_histogram(self):
        got = _canon(run_sparql(_triples(), """
            SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o }
            GROUP BY ?p"""))
        want = {"http://ex.org/died": 3, "http://ex.org/dplace": 2,
                "http://ex.org/bplace": 2,
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type": 1}
        assert dict(zip(got["p"], got["n"])) == want

    def test_constant_subject_binds_pred_and_obj(self):
        got = _canon(run_sparql(_triples(), """
            SELECT ?p ?o WHERE { <alice> ?p ?o }"""))
        assert set(zip(got["p"], got["o"])) == {
            ("http://ex.org/dplace", "york"),
            ("http://ex.org/bplace", "leeds"),
            ("http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
             "Person")}

    def test_pred_var_joins_across_patterns(self):
        # predicates used by BOTH alice and bob
        got = _canon(run_sparql(_triples(), """
            SELECT DISTINCT ?p WHERE {
              <alice> ?p ?o1 . <bob> ?p ?o2 . }"""))
        assert got["p"].tolist() == ["http://ex.org/bplace"]

    def test_pred_var_in_construct_template(self):
        got = _canon(run_sparql(_triples(), """
            CONSTRUCT { ?o ?p ?s } WHERE { ?s ?p ?o . }"""))
        assert len(got) == 8  # every triple reversed, set-deduped
        assert ("york", "http://ex.org/dplace", "alice") in set(
            map(tuple, got[["subj", "pred", "obj"]].to_numpy()))

    def test_pred_var_distinct_select(self):
        # the schema-census shape: distinct predicate inventory
        got = _canon(run_sparql(_triples(), """
            SELECT DISTINCT ?p WHERE { ?s ?p ?o }"""))
        assert len(got) == 4


class TestNamedGraphs:
    """Round-5 GRAPH clause: quad patterns over the engine's N-Quads
    layout (VERDICT r4 missing #1; reference analogue
    Huviz/huvizQuads.py:15,129-140)."""

    def test_graph_var_binds_and_skips_default_graph(self):
        got = _canon(run_sparql(_quads(), PRE + """
            SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:died ?p } }"""))
        assert set(zip(got["g"], got["s"])) == {
            ("conv1", "ev1"), ("conv2", "ev2"), ("conv2", "ev3")}
        # the NULL-graph dplace row never matches GRAPH ?g
        got2 = _canon(run_sparql(_quads(), PRE + """
            SELECT ?g WHERE { GRAPH ?g { ?s ex:dplace ?o } }"""))
        assert len(got2) == 0

    def test_graph_constant_filters(self):
        got = _canon(run_sparql(_quads(), PRE + """
            SELECT ?s ?o WHERE { GRAPH <conv2> { ?s ex:died ?o } }"""))
        assert set(zip(got["s"], got["o"])) == {
            ("ev2", "alice"), ("ev3", "bob")}

    def test_graph_with_variable_predicate_aggregate(self):
        got = _canon(run_sparql(_quads(), """
            SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } }
            GROUP BY ?g"""))
        assert dict(zip(got["g"], got["n"])) == {"conv1": 2,
                                                 "conv2": 2}

    def test_graph_mixed_with_default_patterns(self):
        got = _canon(run_sparql(_quads(), PRE + """
            SELECT ?g ?p2 WHERE {
              GRAPH ?g { ?ev ex:died ?p } .
              ?p ex:dplace ?p2 . }"""))
        assert set(zip(got["g"], got["p2"])) == {
            ("conv1", "york"), ("conv2", "york")}

    def test_graph_on_tripleset_without_graph_column_errors(self):
        with pytest.raises(Exception, match="graph"):
            run_sparql(_triples(), PRE + """
                SELECT ?g WHERE { GRAPH ?g { ?s ex:died ?o } }"""
                       ).to_pandas()


class TestVarPredGraphDifferential:
    """Randomized DuckDB differential for the round-5 forms: on
    seeded random quad graphs, the engine's variable-predicate and
    GRAPH results must equal the SQL replay row-for-row."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_graph_matches_duckdb(self, seed):
        import duckdb
        import numpy as np

        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 120))
        nodes = [f"n{i}" for i in range(int(rng.integers(5, 15)))]
        preds = [f"p{i}" for i in range(int(rng.integers(2, 6)))]
        graphs = [f"g{i}" for i in range(3)] + [None]
        df = pd.DataFrame({
            "subj": rng.choice(nodes, n),
            "pred": rng.choice(preds, n),
            "obj": rng.choice(nodes, n),
            "graph": rng.choice(np.array(graphs, dtype=object), n),
        }).drop_duplicates(ignore_index=True)
        ds = rd.from_pandas(df)
        con = duckdb.connect()
        con.register("t", df)

        got = _canon(run_sparql(ds, """
            SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o }
            GROUP BY ?p"""))
        want = _canon(con.sql(
            "SELECT pred AS p, count(*)::BIGINT AS n FROM t "
            "GROUP BY pred").df())
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

        got = _canon(run_sparql(ds, f"""
            SELECT ?g ?s WHERE {{ GRAPH ?g {{ ?s <{preds[0]}> ?o }} }}
        """))
        want = _canon(con.sql(
            f"SELECT DISTINCT graph AS g, subj AS s FROM t "
            f"WHERE pred = '{preds[0]}' AND graph IS NOT NULL").df())
        # engine keeps solution bag; compare as sets of (g, s)
        got = got.drop_duplicates(ignore_index=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

        got = _canon(run_sparql(ds, f"""
            SELECT ?p ?o WHERE {{ <{nodes[0]}> ?p ?o }}"""))
        want = _canon(con.sql(
            f"SELECT pred AS p, obj AS o FROM t "
            f"WHERE subj = '{nodes[0]}'").df())
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

        got = _canon(run_sparql(ds, """
            SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } }
            GROUP BY ?g"""))
        want = _canon(con.sql(
            "SELECT graph AS g, count(*)::BIGINT AS n FROM t "
            "WHERE graph IS NOT NULL GROUP BY graph").df())
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestGraphComposition:
    """GRAPH inside UNION branches, MINUS and EXISTS bodies and a
    subquery: each group is a leaf of the one evaluator, so its quad
    patterns plan like the outer group's. Checked against a DuckDB
    replay on a seeded random quad graph."""

    @staticmethod
    def _graph():
        import numpy as np

        rng = np.random.default_rng(7)
        n = 90
        nodes = [f"n{i}" for i in range(9)]
        graphs = np.array(["g1", "g2", "g3", None], dtype=object)
        return pd.DataFrame({
            "subj": rng.choice(nodes, n),
            "pred": rng.choice(["p1", "p2", "p3"], n),
            "obj": rng.choice(nodes, n),
            "graph": rng.choice(graphs, n),
        }).drop_duplicates(ignore_index=True)

    @pytest.mark.parametrize("sparql,sql", [
        ("""SELECT ?s ?g WHERE { { GRAPH ?g { ?s <p1> ?o } }
              UNION { GRAPH ?g { ?s <p3> ?o } } }""",
         """SELECT subj AS s, graph AS g FROM t
            WHERE pred IN ('p1', 'p3') AND graph IS NOT NULL"""),
        ("""SELECT ?s ?o WHERE { ?s <p1> ?o
              MINUS { GRAPH <g1> { ?s <p1> ?o } } }""",
         """SELECT subj AS s, obj AS o FROM t a WHERE pred = 'p1'
            AND NOT EXISTS (SELECT 1 FROM t b WHERE b.pred = 'p1'
              AND b.graph = 'g1' AND b.subj = a.subj
              AND b.obj = a.obj)"""),
        ("""SELECT ?s ?o WHERE { ?s <p2> ?o
              FILTER EXISTS { GRAPH ?g { ?o <p1> ?x } } }""",
         """SELECT subj AS s, obj AS o FROM t a WHERE pred = 'p2'
            AND EXISTS (SELECT 1 FROM t b WHERE b.pred = 'p1'
              AND b.graph IS NOT NULL AND b.subj = a.obj)"""),
        ("""SELECT ?g ?s ?n WHERE { GRAPH ?g { ?s <p2> ?o }
              { SELECT ?g (COUNT(*) AS ?n)
                WHERE { GRAPH ?g { ?a <p1> ?b } } GROUP BY ?g } }""",
         """SELECT a.graph AS g, a.subj AS s, c.n FROM t a
            JOIN (SELECT graph, count(*)::BIGINT AS n FROM t
                  WHERE pred = 'p1' AND graph IS NOT NULL
                  GROUP BY graph) c ON c.graph = a.graph
            WHERE a.pred = 'p2'"""),
    ], ids=["union", "minus", "exists", "subquery"])
    def test_matches_duckdb(self, sparql, sql):
        import duckdb

        df = self._graph()
        con = duckdb.connect()
        con.register("t", df)
        want = _canon(con.sql(sql).df())
        got = _canon(run_sparql(rd.from_pandas(df), sparql))
        assert len(want)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestRound5Compositions:
    """Edge compositions of the round-5 forms, each pinned against
    hand-computed results on the quad fixture graph
    subj/pred/obj/graph = (a p1 b g1)(a p2 x g1)(b p1 c g2)
    (c p2 y None)(c p3 z g2)(d p1 a g1)."""

    def _ds(self):
        tri = pd.DataFrame({
            "subj": ["a", "a", "b", "c", "c", "d"],
            "pred": ["p1", "p2", "p1", "p2", "p3", "p1"],
            "obj": ["b", "x", "c", "y", "z", "a"],
            "graph": ["g1", "g1", "g2", None, "g2", "g1"]})
        return rd.from_pandas(tri), rd.from_pandas(
            tri[["subj", "pred", "obj"]])

    def test_graph_with_chained_optional(self):
        ds, _ = self._ds()
        r = run_sparql(ds, """
            SELECT ?s ?g ?o2 WHERE {
              GRAPH ?g { ?s <p1> ?o }
              OPTIONAL { ?o <p1> ?o2 } }""").to_pandas()
        assert sorted(map(tuple, r.fillna("-").values.tolist())) == [
            ("a", "g1", "c"), ("b", "g2", "-"), ("d", "g1", "b")]

    def test_optional_containing_graph(self):
        ds, _ = self._ds()
        r = run_sparql(ds, """
            SELECT ?s ?g WHERE {
              ?s <p1> ?o .
              OPTIONAL { GRAPH ?g { ?s <p2> ?x } } }""").to_pandas()
        assert sorted(map(tuple, r.fillna("-").values.tolist())) == [
            ("a", "g1"), ("b", "-"), ("d", "-")]

    def test_describe_with_variable_predicate(self):
        _, ds3 = self._ds()
        r = run_sparql(ds3, "DESCRIBE ?s WHERE { ?s ?p <c> }"
                       ).to_pandas()
        assert sorted(set(r["subj"])) == ["b"]

    def test_minus_with_variable_predicate(self):
        _, ds3 = self._ds()
        r = run_sparql(ds3, """
            SELECT DISTINCT ?s WHERE {
              ?s <p1> ?o . MINUS { ?s ?q <x> } }""").to_pandas()
        assert sorted(r["s"]) == ["b", "d"]

    def test_union_branches_with_variable_predicates(self):
        _, ds3 = self._ds()
        r = run_sparql(ds3, """
            SELECT DISTINCT ?p WHERE {
              { <a> ?p ?o } UNION { <b> ?p ?o } }""").to_pandas()
        assert sorted(r["p"]) == ["p1", "p2"]

    def test_update_with_variable_predicate_templates(self):
        _, ds3 = self._ds()
        r = run_sparql(ds3, """
            DELETE { ?s ?p ?o } INSERT { ?o ?p ?s }
            WHERE { ?s ?p ?o }""").to_pandas()
        assert len(r) == 6
        assert ("b", "p1", "a") in set(
            map(tuple, r[["subj", "pred", "obj"]].to_numpy()))

    def test_constant_graph_with_varpred_and_filter(self):
        ds, _ = self._ds()
        r = run_sparql(ds, """
            SELECT ?s ?p WHERE { GRAPH <g1> { ?s ?p ?o }
              FILTER (?p != "p2") }""").to_pandas()
        assert sorted(map(tuple, r.values.tolist())) == [
            ("a", "p1"), ("d", "p1")]


class TestRound5ReviewGuards:
    """Round-5 self-review findings, pinned: shapes that would have
    been silently wrong must raise loud NotImplementedErrors."""

    def test_nested_graph_is_loud(self):
        with pytest.raises(NotImplementedError, match="nested"):
            parse_sparql("""
                SELECT ?g2 WHERE {
                  GRAPH ?g1 { GRAPH ?g2 { ?s <p> ?o } } }""")


def test_ask_and_construct_with_graph_patterns():
    """GRAPH quads flow through every bgp_match-routed form: ASK
    (existence under a named-graph restriction) and CONSTRUCT
    (template instantiated from quad-pattern bindings)."""
    quads = rd.from_pandas(pd.DataFrame({
        "subj": ["a", "b", "c"], "pred": ["p", "p", "p"],
        "obj": ["x", "y", "z"], "graph": ["g1", "g2", None]}))
    assert run_sparql(quads,
                      "ASK { GRAPH <g1> { ?s <p> ?o } }") is True
    assert run_sparql(quads,
                      "ASK { GRAPH <g9> { ?s <p> ?o } }") is False
    got = run_sparql(quads, """
        CONSTRUCT { ?s <inGraph> ?g }
        WHERE { GRAPH ?g { ?s <p> ?o } }""").to_pandas()
    assert sorted(map(tuple, got.values.tolist())) == [
        ("a", "inGraph", "g1"), ("b", "inGraph", "g2")]


@pytest.fixture(scope="module")
def mix_graph(tmp_path_factory):
    """The benchmark's graph layouts at small scale: the triples of a
    150-conversation build (every query of the mix returns rows), and
    the same rows with a ``graph`` column."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdf_extraction_ray import synth
    from rdf_extraction_ray.pipelines import kg
    from rdf_extraction_ray.stages.serialize import quad_graph_term
    d = tmp_path_factory.mktemp("mix")
    turns = synth.write_turns(str(d / "turns"), 150, seed=5)
    kg.triples_from_turns(kg.read_turns(turns)).write_parquet(
        str(d / "triples"))
    g = pq.read_table(str(d / "triples"))
    os.makedirs(d / "quads")
    pq.write_table(g.append_column("graph", pa.array(
        quad_graph_term(g.column("conv_id").to_pandas()), pa.string())),
        str(d / "quads" / "quads.parquet"))
    return {"triples": str(d / "triples"), "quads": str(d / "quads")}


def _mix_forms():
    from kgperf.queries import MIX
    return [pytest.param(form, source, text, id=form)
            for form, source, text, _ in MIX]


@pytest.mark.parametrize("form,source,text", _mix_forms())
def test_mix_blocks_share_one_schema(mix_graph, form, source, text):
    """Every block a benchmark query returns rows in is Arrow, in the
    schema the query declares (its leading typed block), never pandas
    ``object`` blocks after Arrow ones. Zero-row blocks are left out:
    Ray passes them through a map without calling its function, so
    they keep whatever schema reached that map."""
    import pyarrow as pa
    import ray

    out = run_sparql(rd.read_parquet(mix_graph[source]), text)
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref, _ in bundle.blocks]
    full = [b for b in blocks if b.shape[0]]
    assert full and all(isinstance(b, pa.Table) for b in full), form
    assert {b.schema for b in full} == {out.schema().base_schema}, form


def _count_executions(monkeypatch, fn):
    """``fn()``'s result and the number of Ray Data executions (each
    ``StreamingExecutor.execute`` call) it ran."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor
    runs = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    try:
        out = fn()
    finally:
        monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return out, len(runs)


#: executions per benchmark query, ``to_pandas`` of the result included
MIX_EXECUTIONS = {"select": 3, "group_having": 3, "offset": 3, "star": 2,
                  "plus_compose": 4, "inverse_plus": 4, "census": 2,
                  "graph": 2, "update": 2}


@pytest.mark.parametrize("form,source,text", _mix_forms())
def test_mix_rows_and_plan_shape(mix_graph, monkeypatch, form, source,
                                 text):
    """Each benchmark query returns its SQL replay's rows and runs the
    pinned number of Ray Data executions."""
    from kgperf import checks
    from kgperf.queries import MIX, UPDATE_COLUMNS

    tr = rd.read_parquet(mix_graph[source]).materialize()
    got, n = _count_executions(
        monkeypatch, lambda: run_sparql(tr, text).to_pandas())
    if form == "update":
        got = got[UPDATE_COLUMNS]
    sql = dict((f, q) for f, _, _, q in MIX)[form]
    want = checks.sql_frame(sql.replace(
        "{triples}", checks.parquet_glob(mix_graph["triples"])))
    assert len(got), form
    checks.check_frames(got, want, form)
    assert n == MIX_EXECUTIONS[form], (form, n)


class TestBroadcastCountShortcut:
    """The per-pattern count job only feeds the ``broadcast_rows``
    test; when the scan's row count is at or under the threshold no
    pattern can exceed it, so the job is skipped."""

    PATS = [("?p", "http://ex.org/bplace", "?b"),
            ("?p", "http://ex.org/dplace", "?d")]

    @staticmethod
    def _graph():
        rows = [(f"p{i}", "http://ex.org/bplace", f"town{i % 7}")
                for i in range(40)]
        rows += [(f"p{i}", "http://ex.org/dplace", f"town{i % 5}")
                 for i in range(10, 40)]
        rows += [(f"p{i}", "http://ex.org/other", "x") for i in range(20)]
        return rd.from_pandas(pd.DataFrame(
            rows, columns=["subj", "pred", "obj"]))

    def _run(self, monkeypatch, **kw):
        from rdf_extraction_ray.stages.graph import bgp_match

        tr = self._graph().materialize()
        return _count_executions(
            monkeypatch, lambda: _canon(bgp_match(tr, self.PATS, **kw)))

    def test_same_rows_one_job_fewer(self, monkeypatch):
        default, n_default = self._run(monkeypatch)
        # the scan holds 70 rows: at 69 the count job runs, yet both
        # patterns (40 and 30 rows) still broadcast — the same plan
        counted, n_counted = self._run(monkeypatch, broadcast_rows=69)
        # at 0 every join takes the partitioned hash-join exchange
        joined, _ = self._run(monkeypatch, broadcast_rows=0)
        assert len(default) == 30
        pd.testing.assert_frame_equal(counted, default)
        pd.testing.assert_frame_equal(joined, default)
        assert n_default == n_counted - 1

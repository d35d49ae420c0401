"""Round-3 TPC-H wave: Q4 (EXISTS semi-join), Q12 (conditional CASE
aggregation over a fact ⋈ fact join), Q14 (promo revenue share), Q18
(HAVING large orders + top-k), Q19 (disjunctive multi-predicate join).

Each query is compared value-exactly against its own `oracle_sql()`
entry via DuckDB at sf0.001 — the same comparison the driver gate and
tools/check_oracles.py run at sf0.01.

The KG queries whose SPARQL operators run a solution join (a
three-pattern star BGP, MINUS, FILTER EXISTS and the subquery join)
or another node of the SPARQL evaluator (UNION, ASK) get the same
comparison at sf0.01, because `oracle_sql()` binds ``{triples}`` to
the sf0.01 KG view.
"""

import os

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("region", "nation", "customer", "supplier", "part",
          "orders", "lineitem")


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="stable",
                          ignore_index=True)


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF}/{t}.parquet')")
    return con.sql(sql).df()


@pytest.mark.parametrize("name,min_rows", [
    ("tpch_q4_order_priority", 2),
    ("tpch_q12_priority_class", 1),
    ("tpch_q14_promo_revenue", 1),
    ("tpch_q18_large_orders", 1),
    ("tpch_q19_disjunct_revenue", 1),
    ("tpch_q13_custdist", 2),
    ("tpch_q17_small_qty_revenue", 1),
    ("tpch_q22_dormant_customers", 1),
    ("part_min_cost_supplier", 1),
    ("tpch_q10_returned_revenue", 1),
    ("tpch_q6_forecast_revenue", 1),
    # the two-nation pair is legitimately empty at sf0.001 (the
    # oracle agrees); the sf0.01 driver gate sees 50+ rows
    ("tpch_q7_volume_shipping", 0),
    ("tpch_q8_market_share", 1),
    ("tpch_q9_product_profit", 1),
    ("tpch_q11_important_parts", 1),
    ("tpch_q15_top_supplier", 1),
    ("tpch_q16_supplier_cnt", 1),
    ("tpch_q20_promotion_suppliers", 0),
    ("tpch_q21_waiting_suppliers", 1),
])
def test_matches_oracle_at_sf0001(name, min_rows):
    import __ray_entry__ as E
    got = E.queries()[name](SF)
    want = _oracle(E.oracle_sql()[name])
    assert len(got) >= min_rows, (name, len(got))
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


@pytest.mark.parametrize("name", ["kg_bgp_match", "kg_bgp_minus",
                                  "kg_bgp_exists", "kg_bgp_subquery",
                                  "kg_bgp_union", "kg_bgp_ask"])
def test_kg_solution_joins_match_oracle_at_sf001(name):
    import __ray_entry__ as E
    sf = os.path.join(os.path.dirname(SF), "sf0.01")
    got = E.queries()[name](sf)
    if not isinstance(got, pd.DataFrame):  # ASK builds its frame itself
        got = got.to_pandas()
    want = duckdb.connect().execute(E.oracle_sql()[name]).df()
    assert len(want), name
    pd.testing.assert_frame_equal(_canon(got), _canon(want))

"""Join operators (SURVEY §2.5).

One join kernel, two ways of distributing the data. The kernel,
:func:`merge_sides`, merges one left frame with one right frame on the
join key: inner, left or anti, SQL key equality (a NULL key never
matches, on either side) and typed Arrow out. What differs is how the
two sides meet:

- **Broadcast** (:func:`broadcast_join`): the small side is collected
  once, shipped via ``ray.put`` and merged into every batch of the
  large side inside ``map_batches``. No shuffle. This is the
  engine-native form of every reference join (J1-J7, J9); the
  reference's joins are all broadcast-small-side dictionary lookups
  (27k CSV rows).
- **Exchange** (:func:`hash_join`): both sides large. Each side gets
  a deterministic ``__bucket`` column (``hash(key) % n_buckets``),
  the tagged union is sorted on it (:func:`~.dedup.bucket_exchange`),
  and each sorted block (many whole buckets) is one kernel call. One
  shuffle each side; skewed keys can be salted by raising
  ``n_buckets``. (Ray's experimental ``Dataset.join`` exists in this
  version; we keep an explicit implementation so the partitioning
  contract is visible and portable.)

Every SPARQL solution join (BGP steps, OPTIONAL, subqueries, MINUS,
FILTER EXISTS, VALUES) runs this kernel; the SPARQL operators pick the
distribution from the right side's known row count
(:func:`~.graph._solution_join`), and VALUES merges its inline rows
into each binding batch. The set filters
:func:`distinct_values` + :func:`semi_join_filter` cover the
non-SPARQL semi/anti joins.

The tagged-union exchange is **Arrow end-to-end**: each side is padded
to the union schema with TYPED null columns (``pa.nulls(n, type)``),
so the shuffle moves compact Arrow blocks — never pandas object-dtype
blocks — and the per-block merges recover each side's true dtypes by
selecting that side's own columns BEFORE converting to pandas (a
side's own columns contain no padding nulls).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .dedup import bucket_exchange


def _bucket_of(series: pd.Series, n: int) -> np.ndarray:
    return (pd.util.hash_pandas_object(series, index=False)
            % n).to_numpy().astype("int64")


def _pdf(tab: pa.Table) -> pd.DataFrame:
    """An Arrow table as a pandas frame whose dtypes survive exactly.

    Integer columns carrying nulls would round-trip through float64,
    rounding values above 2^53 and crashing the int64 cast back, so
    null-bearing tables go through pandas' masked integer dtypes
    instead. ``null_count`` is O(1) metadata, so the common null-free
    case stays on the fast numpy path."""
    has_int_nulls = any(
        tab.column(i).null_count > 0
        and pa.types.is_integer(tab.schema.field(i).type)
        for i in range(tab.num_columns))
    if not has_int_nulls:
        return tab.to_pandas()
    mapper = {pa.int64(): pd.Int64Dtype(),
              pa.int32(): pd.Int32Dtype(),
              pa.int16(): pd.Int16Dtype(),
              pa.int8(): pd.Int8Dtype()}.get
    return tab.to_pandas(types_mapper=mapper)


def _join_schema(left: pa.Schema, right: pa.Schema, on_cols: list[str],
                 suffix: str) -> pa.Schema:
    """Output schema of a join: the left columns, then the right
    non-key columns (``suffix``-ed where a left column has the name)."""
    fields = list(zip(left.names, left.types))
    fields += [(c + suffix if c in left.names else c, t)
               for c, t in zip(right.names, right.types)
               if c not in on_cols]
    return pa.schema(fields)


def _to_arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    return pa.Table.from_pandas(
        df[schema.names], schema=schema,
        preserve_index=False).replace_schema_metadata(None)


def _left_pad(unmatched: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """Unmatched left rows with typed NULL right columns, built column
    by column so left dtypes never round-trip through a NaN-promoted
    float64 frame (which would corrupt int64 values above 2^53)."""
    cols = [pa.Array.from_pandas(unmatched[f.name], type=f.type)
            if f.name in unmatched.columns
            else pa.nulls(len(unmatched), type=f.type)
            for f in schema]
    return pa.Table.from_arrays(cols, schema=schema)


def _check_how(how: str) -> None:
    if how not in ("inner", "left", "anti"):
        raise ValueError(
            f"joins support how='inner'/'left'/'anti', got {how!r} — "
            "'outer'/'right' would silently drop right-only rows here")


def merge_sides(l: pd.DataFrame, r: pd.DataFrame, on_cols: list[str],
                how: str, out_schema: pa.Schema,
                suffix: str = "_r") -> pa.Table:
    """The join kernel: ``l`` ⋈ ``r`` on ``on_cols`` as a typed Arrow
    table in ``out_schema`` (see :func:`_join_schema`).

    SQL key equality: a NULL key never matches (pandas merge alone
    would pair NaN with NaN). Null-keyed right rows never contribute;
    null-keyed left rows drop from an inner join, survive a left join
    unmatched and always survive an anti join.

    - ``how="inner"``: every matching pair.
    - ``how="left"``: also the unmatched left rows, with typed NULL
      right columns. Matched and unmatched rows are built as separate
      Arrow tables: pandas' left merge would promote missing right
      ints to float64, rounding values above 2^53.
    - ``how="anti"``: the left rows with no key match on the right
      (SQL ``NOT EXISTS`` with equality); ``out_schema`` is the left
      schema.

    One-sided inputs return a TYPED empty (or, for left joins, pad the
    whole left side), never a pandas-inferred column-less frame, which
    trips the executor's schema-unification warning.
    """
    if not len(l) or (how == "inner" and not len(r)):
        return out_schema.empty_table()
    if len(r) and r[on_cols].isna().any().any():
        r = r.dropna(subset=on_cols)
    if how == "inner" and l[on_cols].isna().any().any():
        l = l.dropna(subset=on_cols)
    if how == "inner" and not (len(l) and len(r)):
        return out_schema.empty_table()
    if how == "left" and not len(r):
        return _left_pad(l, out_schema)
    if how == "anti" and not len(r):
        return _to_arrow(l, out_schema)
    if how in ("left", "anti"):
        keyed = l.merge(r[on_cols].drop_duplicates(), on=on_cols,
                        how="left", indicator=True)
        unmatched = l[(keyed["_merge"] == "left_only").to_numpy()]
        if how == "anti":
            return _to_arrow(unmatched, out_schema)
    out = _to_arrow(l.merge(r, on=on_cols, how="inner",
                            suffixes=("", suffix)), out_schema)
    if how == "left":
        return pa.concat_tables([out, _left_pad(unmatched, out_schema)])
    return out


def _broadcast(large: rd.Dataset, small: pa.Table, on_cols: list[str],
               how: str, suffix: str = "_r",
               left_schema: pa.Schema | None = None) -> rd.Dataset:
    """The broadcast distribution of :func:`merge_sides`: ``small``
    goes to the object store ONCE, as the pandas frame the kernel
    reads, and each batch of ``large`` is one kernel call. Without
    ``left_schema`` the output schema follows each batch's own."""
    from .dedup_docs import _cached_get

    _check_how(how)
    if how == "anti":
        small = small.select(on_cols)
    ref = ray.put(_pdf(small))
    rschema = small.schema
    fixed = (None if left_schema is None
             else _join_schema(left_schema, rschema, on_cols, suffix))

    def _merge(t: pa.Table) -> pa.Table:
        out_schema = (fixed if fixed is not None else
                      _join_schema(t.schema, rschema, on_cols, suffix))
        return merge_sides(_pdf(t), _cached_get(ref), on_cols, how,
                           out_schema, suffix)

    return large.map_batches(_merge, batch_format="pyarrow")


def broadcast_join(large: rd.Dataset, small_df: pd.DataFrame, on: str | list,
                   how: str = "inner", suffix: str = "_r") -> rd.Dataset:
    """Merge a small pandas table into every batch of ``large`` with
    the join kernel (:func:`merge_sides`; ``how`` is inner, left or
    anti). The small side is put in the object store ONCE; each task
    reads it instead of re-shipping it per batch."""
    on_cols = [on] if isinstance(on, str) else list(on)
    return _broadcast(large,
                      pa.Table.from_pandas(small_df, preserve_index=False),
                      on_cols, how, suffix)


def distinct_values(ds: rd.Dataset, column: str, pre=None,
                    n_buckets: int = 32) -> pd.Series:
    """Distributed distinct of one column: per-batch unique (combiner)
    → hash-bucket exchange, unique per sorted block → small driver
    collect of only the distinct values. ``pre`` optionally filters/projects each batch
    first. The full column never streams through the driver."""

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        if pre is not None:
            df = pre(df)
        u = pd.Series(df[column].dropna().unique(), name=column)
        return pd.DataFrame({column: u, "__b": _bucket_of(u, n_buckets)})

    def _uniq(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(column)[[column]]

    out = bucket_exchange(ds.map_batches(_partial, batch_format="pandas"),
                          _uniq, key="__b").to_pandas()
    if column not in out.columns:  # zero-row input loses its schema
        return pd.Series([], name=column, dtype="object")
    return out[column]


def semi_join_filter(large: rd.Dataset, keys, column: str,
                     anti: bool = False) -> rd.Dataset:
    """Keep rows whose ``column`` is (not) in ``keys`` — broadcast set."""
    ref = ray.put(frozenset(keys))

    def _filter(batch: pd.DataFrame) -> pd.DataFrame:
        keyset = ray.get(ref)
        mask = batch[column].isin(keyset)
        return batch[~mask] if anti else batch[mask]

    return large.map_batches(_filter, batch_format="pandas")


def _arrow_schema(ds: rd.Dataset) -> pa.Schema:
    """The Dataset's schema as a pyarrow schema. Upstream pandas
    blocks report numpy dtypes — convert them (object → string, the
    pandas convention for text columns)."""
    sch = ds.schema()
    if sch is None:
        # a fully-empty upstream (e.g. a filter matching nothing)
        # carries no schema at all — the join cannot even name its
        # output columns, so fail with intent instead of an opaque
        # NoneType crash deep inside
        raise ValueError(
            "join input has no schema (zero rows through a "
            "schema-erasing transform); materialize a typed empty "
            "block upstream or skip the join on empty input")
    base = sch.base_schema
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, t in zip(base.names, base.types):
        if isinstance(t, pa.DataType):
            fields.append((name, t))
        elif getattr(t, "kind", None) == "O":
            fields.append((name, pa.string()))
        else:
            fields.append((name, pa.from_numpy_dtype(t)))
    return pa.schema(fields)


def _union_schema(left_schema: pa.Schema, right_schema: pa.Schema
                  ) -> tuple[list[str], list[str], dict]:
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    type_of = dict(zip(left_schema.names, left_schema.types))
    for name, t in zip(right_schema.names, right_schema.types):
        type_of.setdefault(name, t)
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]
    return all_cols, (left_cols, right_cols), type_of


def _pad_column(n: int, t: pa.DataType) -> pa.Array:
    """Padding for the other side's columns in the tagged union.

    Integer columns pad with ZEROS, not nulls: datasets that went
    through a keyed exchange carry schema-less empty pandas
    partitions (no body runs on an empty sort partition), and their
    presence makes Ray's sort exchange fall back to PANDAS blocks —
    where an int64 column with nulls becomes float64 and silently
    rounds every value above 2^53 (observed corrupting md5-15 hash
    keys). The padding is never read — ``_side_frames`` selects each
    side's own columns only — so any non-null sentinel is safe.
    """
    if pa.types.is_integer(t):
        return pa.array(np.zeros(n, dtype=t.to_pandas_dtype()), type=t)
    return pa.nulls(n, type=t)


def _tagger(side: int, own_cols: list[str], all_cols: list[str],
            type_of: dict, on_cols: list[str], n_buckets: int):
    """Arrow map_batches body: pad to the union schema with typed
    non-null sentinels (see ``_pad_column``), add
    ``__bucket``/``__side``."""

    def inner(t: pa.Table) -> pa.Table:
        n = t.num_rows
        key = t.select(on_cols).to_pandas()
        key = (key[on_cols[0]] if len(on_cols) == 1
               else key.astype(str).agg("|".join, axis=1))
        cols = {}
        for c in all_cols:
            cols[c] = t.column(c) if c in own_cols \
                else _pad_column(n, type_of[c])
        cols["__bucket"] = pa.array(_bucket_of(key, n_buckets),
                                    type=pa.int64())
        cols["__side"] = pa.array(np.full(n, side, dtype=np.int8()))
        return pa.table(cols)

    return inner


def _side_frames(t: pa.Table, left_cols: list[str], right_cols: list[str]
                 ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Split a tagged-union block back into per-side pandas frames.
    Selecting a side's OWN columns before ``to_pandas`` means no
    padding nulls ever reach pandas, so dtypes survive exactly."""
    import pyarrow.compute as pc

    side = t.column("__side")
    l = _pdf(t.filter(pc.equal(side, 0)).select(left_cols))
    r = _pdf(t.filter(pc.equal(side, 1)).select(right_cols))
    return l, r


def _provably_empty(ds: rd.Dataset) -> bool:
    """schema() returning None conflates UNKNOWN with EMPTY (a lazy
    pipeline whose schema Ray cannot report looks identical to a
    filtered-to-nothing one). count() settles it: cheap for the
    genuinely-empty case, and the non-empty case raises anyway, so
    the extra execution is only ever the error path's cost."""
    return ds.count() == 0


def asof_join(left: rd.Dataset, right: rd.Dataset, by: str, on: str,
              n_buckets: int = 32, suffix: str = "_r",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None) -> rd.Dataset:
    """As-of (nearest-prior) join: for each left row, the latest right
    row with the same ``by`` key and ``right.on <= left.on``
    (inclusive). Rows with no prior match are dropped (inner asof).

    A custom operator Ray Data lacks: both sides hash-partition on
    ``by`` (all rows of one key co-locate — the partitioning
    assumption), then each sorted block of buckets runs one
    vectorized ``pandas.merge_asof`` (``by`` keeps keys apart) under a
    stable sort on ``on``.
    One shuffle each side, |left|+|right| rows once, Arrow blocks
    throughout the exchange.
    """
    for side_schema, side in ((left_schema, left),
                              (right_schema, right)):
        if side_schema is None and side.schema() is None:
            if _provably_empty(side):
                # an EMPTY side: the as-of inner match is provably
                # empty (callers' typed-empty shims own the output
                # column contract)
                return rd.from_pandas(pd.DataFrame())
            raise ValueError(
                "asof_join: side has rows but reports no schema — "
                "pass left_schema/right_schema explicitly (lazy "
                "exchange outputs lose schema on this Ray version)")
    rschema = right_schema or _arrow_schema(right)
    lschema = left_schema or _arrow_schema(left)
    all_cols, (left_cols, right_cols), type_of = _union_schema(
        lschema, rschema)
    out_schema = _join_schema(lschema, rschema, [by, on], suffix)

    tagged = left.map_batches(
        _tagger(0, left_cols, all_cols, type_of, [by], n_buckets),
        batch_format="pyarrow").union(right.map_batches(
            _tagger(1, right_cols, all_cols, type_of, [by], n_buckets),
            batch_format="pyarrow"))

    def _merge_bucket(t: pa.Table) -> pa.Table:
        l, r = _side_frames(t, left_cols, right_cols)
        # SQL key semantics + merge_asof's own constraint: a null
        # `on` anywhere in a block raises inside merge_asof, and a
        # null `by` would NaN-pair; null-keyed rows can never match
        # an inner as-of, so they drop on both sides
        l = l.dropna(subset=[by, on])
        r = r.dropna(subset=[by, on])
        if not len(l) or not len(r):
            return out_schema.empty_table()
        # a null-bearing key column arrived as pandas' masked dtype
        # (see _side_frames); post-dropna it is null-free, and
        # merge_asof requires matching NUMPY key dtypes on both sides
        for df_ in (l, r):
            for c in (by, on):
                if pd.api.types.is_extension_array_dtype(df_[c]):
                    df_[c] = df_[c].to_numpy(
                        dtype=df_[c].dtype.numpy_dtype)
        l = l.sort_values(on, kind="stable")
        # DETERMINISTIC duplicate resolution: secondary-sort the
        # right side by all remaining columns so ties on (by, on)
        # resolve by total row order, not post-shuffle arrival order
        # (merge_asof backward takes the last row <= t)
        r_order = [on] + [c for c in r.columns if c != on]
        r = r.sort_values(r_order, kind="stable")
        # int64 value columns ride as pandas' masked Int64 so an
        # unmatched left row cannot float64-promote (and round >2^53)
        # the whole block's matched values — the corruption
        # hash_join's split-merge explicitly avoids
        for c in r.columns:
            if c not in (by, on) and r[c].dtype == np.int64:
                r[c] = r[c].astype("Int64")
        # explicit matched indicator: NEVER probe a value column (a
        # legitimately-null right value is not a failed match)
        r = r.assign(__rmatch=np.int8(1))
        out = pd.merge_asof(l, r, on=on, by=by, direction="backward",
                            suffixes=("", suffix))
        out = out[out["__rmatch"].notna()]
        return _to_arrow(out, out_schema)

    return bucket_exchange(tagged, _merge_bucket, key="__bucket",
                           batch_format="pyarrow")


def hash_join(left: rd.Dataset, right: rd.Dataset, on: str | list[str],
              how: str = "inner", n_buckets: int = 32,
              suffix: str = "_r",
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None) -> rd.Dataset:
    """Partitioned hash join of two Datasets on ``on``.

    The exchange distribution of :func:`merge_sides`: both sides are
    tagged (``__side``), bucketed on the key hash, unioned and sorted
    on the bucket, and each sorted block (many buckets) is one kernel
    call. The shuffle volume is |left| + |right| rows, once, in Arrow
    blocks. ``how`` is inner, left or anti, with the kernel's NULL-key
    semantics.

    ``how="left"``: consumers that need exact int64 right values
    above 2^53 must coalesce the NULLs of unmatched rows IN-PIPELINE
    (``pyarrow.compute.fill_null`` in a map_batches) — a driver
    ``to_pandas()`` of int64-with-nulls converts via float64.

    ``how="anti"``: the right side is projected to its key columns
    before the exchange, so the shuffle carries |left| + |right keys|
    rows and the output schema is exactly the left schema.
    """
    _check_how(how)
    if left_schema is None and left.schema() is None:
        if _provably_empty(left):
            # empty LEFT: every supported join flavor is empty
            return rd.from_pandas(pd.DataFrame())
        raise ValueError(
            "hash_join: left side has rows but reports no schema — "
            "pass left_schema explicitly (lazy exchange outputs "
            "lose schema on this Ray version)")
    on_cols = [on] if isinstance(on, str) else list(on)
    if how == "anti":
        if right_schema is None and right.schema() is None:
            if _provably_empty(right):
                return left  # anti vs an empty right keeps every row
            raise ValueError(
                "hash_join: right side has rows but reports no "
                "schema — pass right_schema explicitly")
        rs = right_schema or _arrow_schema(right)
        right = right.map_batches(lambda t: t.select(on_cols),
                                  batch_format="pyarrow")
        right_schema = pa.schema(
            [(c, rs.field(c).type) for c in on_cols])
    elif how == "inner" and right_schema is None \
            and right.schema() is None:
        # inner with an EMPTY right side is provably empty; a LEFT
        # join with only the right side empty still needs schemas and
        # falls through to the clear _arrow_schema error
        if _provably_empty(right):
            return rd.from_pandas(pd.DataFrame())
        raise ValueError(
            "hash_join: right side has rows but reports no schema — "
            "pass right_schema explicitly")
    rschema = right_schema or _arrow_schema(right)
    lschema = left_schema or _arrow_schema(left)
    all_cols, (left_cols, right_cols), type_of = _union_schema(
        lschema, rschema)
    out_schema = _join_schema(lschema, rschema, on_cols, suffix)

    tagged = left.map_batches(
        _tagger(0, left_cols, all_cols, type_of, on_cols, n_buckets),
        batch_format="pyarrow").union(right.map_batches(
            _tagger(1, right_cols, all_cols, type_of, on_cols, n_buckets),
            batch_format="pyarrow"))

    def _merge_bucket(t: pa.Table) -> pa.Table:
        l, r = _side_frames(t, left_cols, right_cols)
        return merge_sides(l, r, on_cols, how, out_schema, suffix)

    return bucket_exchange(tagged, _merge_bucket, key="__bucket",
                           batch_format="pyarrow")


def range_count_join(left: rd.Dataset, right: rd.Dataset, on: str,
                     ts_col: str = "ts",
                     lo_offset: pd.Timedelta = pd.Timedelta(hours=-1),
                     hi_offset: pd.Timedelta = pd.Timedelta(0),
                     count_col: str = "n_in_range",
                     n_buckets: int = 32) -> rd.Dataset:
    """RANGE JOIN (count form): for each left row, the number of right
    rows sharing ``on`` whose ``ts_col`` lies in
    ``[left.ts + lo_offset, left.ts + hi_offset]`` (both inclusive).

    Ray Data has no non-equi join; this is the
    equi-bucket + in-block interval-count composition: both sides
    hash-bucket on the key, union into one sorted exchange, and each
    key's count is two vectorized ``searchsorted`` probes against that
    key's sorted right-timestamp array. An EMPTY right side
    short-circuits to every left row with count 0 (the well-defined
    answer) instead of failing the schema lookup. Partitioning assumption: one
    KEY's rows fit a worker (same contract as the as-of join /
    sessionization); a pathologically hot key needs the salted-segment
    treatment (SURVEY §7.5.7).

    Returns the left rows + ``count_col`` (int64).
    """
    if left.schema() is None:
        if _provably_empty(left):
            # empty left: nothing to count over
            return rd.from_pandas(pd.DataFrame())
        raise ValueError(
            "range_count_join: left side has rows but reports no "
            "schema — materialize it or rebuild with a typed source")
    if right.schema() is None:
        if _provably_empty(right):
            # empty right: the well-defined answer is every left row
            # with count 0 — not a schema-lookup crash
            return left.map_batches(
                lambda tb: tb.append_column(
                    count_col, pa.array([0] * len(tb), pa.int64())),
                batch_format="pyarrow")
        raise ValueError(
            "range_count_join: right side has rows but reports no "
            "schema — materialize it or rebuild with a typed source")

    # both sides are padded to ONE explicit column set before the
    # union, with TYPED Arrow nulls — the exchange moves compact Arrow
    # blocks, never pandas object-dtype padding (the right side
    # contributes only its key + timestamp columns)
    left_schema = _arrow_schema(left)  # numpy dtypes → Arrow types
    right_schema = _arrow_schema(right)
    right_sub = pa.schema([(on, right_schema.field(on).type),
                           (ts_col, right_schema.field(ts_col).type)])
    all_cols, (left_cols, right_cols), type_of = _union_schema(
        left_schema, right_sub)
    out_schema = left_schema.append(pa.field(count_col, pa.int64()))

    def _count(block: pa.Table) -> pa.Table:
        lhs, rhs = _side_frames(block, left_cols, right_cols)
        if not len(lhs):
            return out_schema.empty_table()
        counts = np.zeros(len(lhs), dtype="int64")
        if len(rhs):
            r_by_key = {k: g2[ts_col].to_numpy()
                        for k, g2 in (rhs.sort_values(ts_col,
                                                      kind="stable")
                                      .groupby(on, sort=False))}
            for key, g in lhs.groupby(on, sort=False):
                ts_r = r_by_key.get(key)
                if ts_r is None:
                    continue
                t = g[ts_col].to_numpy()
                lo = np.searchsorted(ts_r, t + lo_offset, side="left")
                hi = np.searchsorted(ts_r, t + hi_offset, side="right")
                counts[lhs.index.get_indexer(g.index)] = hi - lo
        out = lhs.reset_index(drop=True)
        out[count_col] = counts
        return pa.Table.from_pandas(
            out, schema=out_schema,
            preserve_index=False).replace_schema_metadata(None)

    lt = left.map_batches(
        _tagger(0, left_cols, all_cols, type_of, [on], n_buckets),
        batch_format="pyarrow")
    rt = right.map_batches(
        lambda t: _tagger(1, right_cols, all_cols, type_of, [on],
                          n_buckets)(t.select(right_cols)),
        batch_format="pyarrow")
    return bucket_exchange(lt.union(rt), _count, key="__bucket",
                           batch_format="pyarrow")

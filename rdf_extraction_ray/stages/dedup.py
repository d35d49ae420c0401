"""Exact triple dedup — the engine's analogue of rdflib set semantics.

The reference gets corpus-wide dedup for free by folding every
per-person graph into one in-RAM ``uber_graph`` (rdflib graphs are
sets, ``bio_extraction.py:78``) — unbounded driver memory. Here it is
a two-level distributed dedup (SURVEY §2.6 A1, §7.4), on Arrow tables
throughout:

1. **combiner** (:func:`add_bucket_and_combine`): first row per
   triple key inside each ``map_batches`` batch — kills local
   duplicates before anything shuffles — plus a deterministic 64-bit
   hash of ``(subj, obj)`` bucketed to ``N_DEDUP_BUCKETS``;
2. **hash shuffle** (:func:`bucket_exchange`): a sort on ``bucket``
   co-locates every bucket in one block, and :func:`dedup_bucket`
   keeps the first row per full triple key once per sorted block
   (many buckets, one call; collision-safe: the hash only routes,
   equality decides).

"First" is under a stable sort on provenance ``(conv_id, turn_idx)``,
so the kept provenance is the minimum per triple key and reruns are
stable regardless of block order (:func:`first_per_key`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..namespaces import TRIPLE_COLUMNS, TRIPLE_SCHEMA

TRIPLE_KEY = ["subj", "pred", "obj", "obj_kind", "obj_lang", "obj_datatype"]

# dedup-shuffle fan-out; sized for parallelism / per-group memory, not
# row count (each bucket holds ~1/B of distinct triples)
N_DEDUP_BUCKETS = 128

# bound on first_per_key's running mixed-radix key id: past it the id
# is re-densified, so it never overflows int64
_MAX_KEY_ID = 1 << 62


def _encode(column) -> tuple[np.ndarray, pa.Array]:
    """Table-local dictionary codes of a column (null gets a code of
    its own) and the distinct values they index."""
    enc = pc.dictionary_encode(column.combine_chunks(),
                               null_encoding="encode")
    return enc.indices.to_numpy(zero_copy_only=False), enc.dictionary


def first_per_key(table: pa.Table, key: list = TRIPLE_KEY) -> pa.Table:
    """The first row per ``key`` (default ``TRIPLE_KEY``) under a
    stable sort on ``(conv_id, turn_idx)``: the minimum-provenance
    winner of each triple, in provenance order. Null key values compare
    equal, as in ``drop_duplicates``.

    The key columns fold into one exact int64 id per row (mixed
    radix over each column's dictionary codes, re-densified before it
    could overflow), so finding the first row per key is one integer
    ``np.unique`` over the provenance order. At 67k rows an Arrow
    ``group_by`` on the six string columns measured 22-30 ms, the id
    about 10 ms."""
    ids, card = np.zeros(table.num_rows, np.int64), 1
    for c in key:
        codes, values = _encode(table.column(c))
        if card * len(values) >= _MAX_KEY_ID:
            ids, uniques = pd.factorize(ids)
            card = len(uniques)
        ids = ids * len(values) + codes
        card *= len(values)
    order = pc.sort_indices(table, sort_keys=[
        ("conv_id", "ascending"), ("turn_idx", "ascending")]).to_numpy()
    _, first = np.unique(ids[order], return_index=True)
    return table.take(order[np.sort(first)])


def _value_hash(column) -> np.ndarray:
    """Deterministic 64-bit hash of each row's value (null hashes as
    ""), computed once per distinct value."""
    codes, values = _encode(column)
    return pd.util.hash_array(
        pc.fill_null(values, "").to_numpy(zero_copy_only=False),
        categorize=False)[codes]


def add_bucket_and_combine(table: pa.Table, by: tuple = ()) -> pa.Table:
    """map_batches combiner (``batch_format="pyarrow"``): local dedup
    per (``by`` columns, e.g. a shard, + triple key) + deterministic
    hash bucket.

    Takes and returns Arrow: the combiner's output is exactly what the
    dedup exchange ships, and Arrow string blocks are ~3x smaller than
    pandas object blocks (measured 3.5 GB → 1.2 GB at 6M triples,
    shuffle 7.7s → 5.5s at 32 CPUs)."""
    # explicit schema: an all-null column (e.g. obj_lang in one block)
    # must stay string, never pa.null, or the block schemas wobble
    schema = pa.schema([table.schema.field(c) for c in by]
                       + list(TRIPLE_SCHEMA))
    t = first_per_key(table.select([*by, *TRIPLE_COLUMNS]).cast(schema),
                      [*by, *TRIPLE_KEY])
    # bucket on a SUBSET of the key: rows equal on the full 6-column
    # key are equal on (subj, obj), so all duplicates still co-locate
    # — and hashing 2 string columns instead of 6 was the hottest
    # kernel in the whole headline profile (2.9s -> ~1s at 2.7M rows).
    # Equality in dedup_bucket still checks the FULL key.
    h = (_value_hash(t.column("subj")) * np.uint64(0x9E3779B97F4A7C15)
         ^ _value_hash(t.column("obj")))
    return t.append_column(
        "bucket", pa.array((h % N_DEDUP_BUCKETS).astype(np.int32)))


def bucket_exchange(ds, body, key: str = "bucket",
                    batch_format: str = "pandas",
                    fn_kwargs: dict | None = None):
    """The engine's one keyed exchange: ``body`` runs once per block
    of ``ds`` sorted on ``key``, in ``batch_format`` (``"pandas"`` or
    ``"pyarrow"``), with ``fn_kwargs`` as its keyword arguments.

    This is ``groupby(key).map_groups(body)`` without the per-group
    loop: under the sort shuffle, Ray's ``map_groups`` is itself a
    sort on the key followed by ``map_batches`` over whole blocks,
    and the sort never splits a key across two blocks. So every key
    value (a hash bucket, in every caller) still reaches ``body``
    whole, but with the other keys of its block, in one frame or
    table. Each body must therefore handle many keys at once: it
    keys its own logic on the rows it partitions (``conv_id``, the
    full triple key, a join key, the GROUP BY columns), never on the
    frame. One call per block instead of one per bucket cut a
    100-conversation fused build's assembly body from 72 calls
    (5.1-5.4 s) to 4 (0.6-0.7 s) on one CPU. Empty sort partitions
    never reach ``body``: Ray passes a zero-row block through a map
    without calling its function."""
    return ds.sort(key).map_batches(body, batch_format=batch_format,
                                    batch_size=None, fn_kwargs=fn_kwargs)


def dedup_bucket(group: pa.Table, by: tuple = ()) -> pa.Table:
    """Exchange body over one sorted block of hash buckets
    (``batch_format="pyarrow"``): collision-safe exact dedup on the
    ``by`` columns + full triple key, deterministic winner = smallest
    (conv_id, turn_idx)."""
    return first_per_key(group.drop_columns(["bucket"]),
                         [*by, *TRIPLE_KEY])


def dedup_triples(ds):
    """Compose the two levels on a Dataset of triple rows."""
    ds = ds.map_batches(add_bucket_and_combine, batch_format="pyarrow",
                        batch_size=None)  # combine per block
    return bucket_exchange(ds, dedup_bucket, batch_format="pyarrow")

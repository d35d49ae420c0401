"""Distributed graph algorithms over the extracted KG edge set.

:func:`pagerank_int` is INTEGER FIXED-POINT PageRank — the iterative
distributed-algorithm showcase: every quantity is an int64 (ranks in
units of 1/SCALE, contributions by floor division), so the result is
bit-identical across block orders, cluster sizes and engines, and a
DuckDB oracle replays the whole power iteration as chained CTEs.

Scale shape:
- node URIs hash ONCE to md5-15-hex int64 ids (the engine's shared
  SQL-replayable hash; a collision over the 2^60 space is ~1e-9 at
  10^5 nodes and would only merge two nodes' ranks) — every iteration
  then exchanges PURE INT64 rows, never URI strings;
- one setup exchange dedups edges and computes out-degrees in the
  same source-bucket group; the (hs, hd, dg) table is materialized
  once with a pinned block count and reused every round;
- graphs whose node count fits the broadcast threshold iterate with
  ZERO per-round exchanges (rank vector broadcast over static
  index-encoded edge blocks, bounded driver merge — see
  :func:`_pagerank_broadcast`); larger graphs fall back to the
  shuffle-per-round formulation: per round, union(static edges,
  current ranks) grouped by source bucket emits contributions (fused
  join + floor divide in one group body), then union(contributions,
  per-node zero rows) grouped by destination bucket sums into the
  new ranks, with rank state living in the object store between
  rounds and nothing node- or edge-shaped on the driver. URI strings
  are joined back once at the end in both paths.

Declared semantics (documented divergences from textbook PageRank,
chosen for integer exactness):
- dangling mass is DROPPED, not redistributed (ranks do not sum to
  SCALE; relative ordering is what the operator delivers);
- parallel edges are collapsed (DISTINCT edges) and self-loops kept;
- all divisions are floor divisions on nonnegative int64.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from .dedup import bucket_exchange

SCALE = 10**9  # rank fixed-point unit: 1e-9
DAMP_NUM, DAMP_DEN = 85, 100


def _h15(s: pd.Series) -> np.ndarray:
    """md5-15-hex int64 of each string (SQL:
    ``('0x' || substr(md5(x), 1, 15))::BIGINT``)."""
    return np.fromiter(
        (int(hashlib.md5(str(v).encode()).hexdigest()[:15], 16)
         for v in s),
        dtype=np.int64, count=len(s))


def _bounded_distinct_probe(ds, cols, cap: int):
    """Distinct int64 values of ``cols`` across ``ds`` as ONE sorted
    array, or None once the distinct count provably exceeds ``cap``.
    The per-block projection (unique of the concatenated columns)
    runs distributed; driver-side, per-block arrays accumulate and
    compress with one np.unique per ~max(8M, 2·cap) raw rows — the
    per-block union1d this replaces re-sorted the whole accumulated
    set once per block (O(blocks · n log n) driver time). Past the
    cap the accumulator is DROPPED immediately but the stream is
    still drained, never abandoned mid-iteration (a
    partially-consumed iter_batches corrupts the next execution of
    the same dataset)."""
    cols = tuple(cols)

    def _proj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"h": np.unique(np.concatenate(
            [df[c].to_numpy(dtype="int64") for c in cols]))})

    acc: list[np.ndarray] = []
    raw = 0
    over = False
    for b in (ds.map_batches(_proj, batch_format="pandas",
                             batch_size=None)
              .iter_batches(batch_format="numpy", batch_size=None)):
        if over:
            continue
        a = np.asarray(b["h"], dtype=np.int64)
        acc.append(a)
        raw += len(a)
        if raw > max(8_000_000, 2 * cap):
            acc = [np.unique(np.concatenate(acc))]
            raw = len(acc[0])
            if raw > cap:
                over = True
                acc = []  # free the driver footprint, keep draining
    if over:
        return None
    H = np.unique(np.concatenate(acc)) if acc \
        else np.empty(0, dtype=np.int64)
    return None if len(H) > cap else H


def tagged_graph_scan(df: pd.DataFrame,
                      undirected: bool = False) -> pd.DataFrame:
    """ONE md5 pass per row occurrence over an (s, d) string-edge
    batch: emits kind-0 int64 edge rows (a, b) — (lo, hi) canonical
    with self-loops dropped when ``undirected`` — and kind-1
    (a=node-hash, node=string) map rows, so node strings are never
    hashed a second time. Shared by pagerank, k-core and the
    connected-components query; consumers project and bucket their
    own views of the tagged union."""
    hs, hd = _h15(df["s"]), _h15(df["d"])
    if undirected:
        lo, hi = np.minimum(hs, hd), np.maximum(hs, hd)
        keep = lo != hi
        e = pd.DataFrame({"a": lo[keep],
                          "b": hi[keep]}).drop_duplicates()
    else:
        e = pd.DataFrame({"a": hs, "b": hd}).drop_duplicates()
    e["node"] = ""
    e["kind"] = np.int64(0)
    n = pd.DataFrame({
        "a": np.concatenate([hs, hd]),
        "b": np.int64(0),
        "node": pd.concat([df["s"], df["d"]],
                          ignore_index=True).astype(str),
        "kind": np.int64(1)}).drop_duplicates("node")
    return pd.concat([e, n], ignore_index=True)


def pagerank_int(edges: rd.Dataset | None, n_iter: int = 5,
                 scale: int = SCALE, n_buckets: int = 64,
                 broadcast_max_nodes: int = 4_000_000,
                 deg_pre: rd.Dataset | None = None,
                 nodes_pre: rd.Dataset | None = None,
                 seeds: list[str] | None = None) -> rd.Dataset:
    """``n_iter`` rounds of integer fixed-point PageRank over an edge
    Dataset with string columns (s, d). Returns (node, rank) int64.

    base = (15 · (scale // N)) // 100; each round
    ``rank'(v) = base + 85 · Σ_{u→v}(rank(u) // outdeg(u)) // 100``.

    ``seeds`` switches to PERSONALIZED PageRank: the teleport mass
    goes only to the seed nodes — ``N`` becomes the count of seeds
    PRESENT in the graph, non-seed nodes start at 0 and receive no
    base term, and the recurrence is otherwise identical (so ranks
    measure relatedness to the seed set). The seed set must be small
    (it ships in task closures — thousands, not millions; raises if
    no seed is in the graph). Both execution paths below honor it.

    Two executions of the SAME integer recurrence (bit-identical, both
    covered by the equality test in tests/test_round3_ops.py):

    - **broadcast path** (N ≤ ``broadcast_max_nodes``): the rank
      vector is O(N) int64 — tiny next to the edge set — so edges are
      index-encoded ONCE into static (si, di, dg) int64 blocks and
      each round is one ``ray.put`` of the rank vector + one
      ``map_batches`` over those static blocks (dense ``np.add.at``
      per block, pre-aggregated nonzero (i, c) rows out) + a
      driver-side dense sum. ZERO per-round exchanges; driver traffic
      per round is Σ-per-block-distinct-destinations ≤ blocks × N
      rows, bounded by the threshold (4M nodes × 16 blocks worst-case
      ≈ 512 MiB, realistically ~N rows for power-law graphs). Measured
      160 s → ~20 s end-to-end at sf0.1 (846k nodes / 1.4M distinct
      edges, 3 rounds; ~1 s per round) vs the exchange path. Blocks
      are consumed WHOLE (``batch_size=None`` throughout): the dense
      per-task accumulator is allocated once per block, not once per
      default-size batch.
    - **exchange path** (N above threshold): the original
      shuffle-per-round formulation (two hash-bucket exchanges per
      round, nothing node- or edge-shaped on the driver) — the shape
      that survives billion-node graphs where no single process may
      hold the rank vector.
    """
    from .joins import hash_join

    B = np.int64(n_buckets)
    n_blocks = max(8, n_buckets // 4)
    seed_h: np.ndarray | None = None
    if seeds is not None:
        ss = sorted(set(seeds))
        if not ss:
            raise ValueError("personalized PageRank needs ≥1 seed")
        seed_h = np.unique(_h15(pd.Series(ss)))

    if deg_pre is not None:
        # pre-projected graph (cached (hs, hd, dg) + distinct
        # (h, node) views): skip the string scan and the setup
        # exchange — just decorate with the iteration's tag columns
        # and pin the block count
        assert nodes_pre is not None
        def _ed_pre(df: pd.DataFrame) -> pd.DataFrame:
            hs = df["hs"].astype("int64")
            return pd.DataFrame({
                "kind": np.int64(0), "hs": hs,
                "hd": df["hd"].astype("int64"),
                "dg": df["dg"].astype("int64"), "r": np.int64(0),
                "sb": hs % B})
        ed = (deg_pre.map_batches(_ed_pre, batch_format="pandas")
              .repartition(n_blocks)).materialize()
        nodes = nodes_pre
    else:
        scan_ds = edges.map_batches(
            lambda df: tagged_graph_scan(df),
            batch_format="pandas").materialize()

        def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df[df["kind"] == 0]
            out = pd.DataFrame({"hs": g["a"].astype("int64"),
                                "hd": g["b"].astype("int64")})
            out["sb"] = out["hs"] % B
            return out

        def _dedup_deg(g: pd.DataFrame) -> pd.DataFrame:
            e = dedup_deg_group(g)
            return pd.DataFrame({
                "kind": np.int64(0), "hs": e["hs"], "hd": e["hd"],
                "dg": e["dg"], "r": np.int64(0),
                "sb": e["hs"] % B})

        # ONE setup exchange: distinct edges + out-degrees, co-grouped
        # by source bucket (a source's edges all land in its bucket,
        # so the group-local degree is the global one). Ray's
        # sort-based groupby emits one output block per INPUT block —
        # thousands of near-empty blocks whose per-task launch
        # overhead would dominate every downstream pass — so pin the
        # block count.
        ed = (scan_ds.map_batches(_edge_rows, batch_format="pandas")
              .groupby("sb").map_groups(_dedup_deg,
                                        batch_format="pandas")
              .repartition(n_blocks)).materialize()

    if deg_pre is None:
        # distinct (h, node-string) map — restores URIs on the way
        # out (LAZY: the broadcast path only consumes it in the final
        # output stage, off the iteration critical path)
        def _map_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df[df["kind"] == 1]
            out = pd.DataFrame({"h": g["a"].astype("int64"),
                                "node": g["node"].astype(str)})
            out["nb"] = out["h"] % B
            return out

        nodes = (scan_ds.map_batches(_map_rows, batch_format="pandas")
                 .groupby("nb").map_groups(
                     lambda g: g[["h", "node"]].drop_duplicates("h"),
                     batch_format="pandas").repartition(n_blocks))

    # every node is an endpoint of some deduped edge, so the distinct
    # node-hash set is derivable from ed's INT columns alone — probe
    # it with a driver union of per-block uniques, bailing to the
    # exchange path the moment it exceeds the broadcast threshold
    # (driver memory stays O(broadcast_max_nodes + one block))
    # NOTE the loop always DRAINS the iterator: abandoning a
    H = _bounded_distinct_probe(ed, ("hs", "hd"),
                                broadcast_max_nodes)

    if H is not None:
        n_nodes = len(H)
        if not n_nodes:
            import pyarrow as pa
            return rd.from_arrow(pa.schema(
                [("node", pa.string()),
                 ("rank", pa.int64())]).empty_table())
        seed_idx: np.ndarray | None = None
        if seed_h is not None:
            present = np.intersect1d(H, seed_h)
            if not len(present):
                raise ValueError("no seed node is in the graph")
            seed_idx = np.searchsorted(H, present)
            n_src = len(present)
        else:
            n_src = n_nodes
        r0 = scale // n_src
        base = (15 * r0) // 100
        return _pagerank_broadcast(ed, nodes, H, r0, base,
                                   n_iter, n_buckets,
                                   seed_idx=seed_idx)

    nodes = nodes.materialize()
    n_nodes = nodes.count()
    if seed_h is not None:
        # count seeds present in the (too-big-to-collect) node set:
        # only the tiny seed∩batch intersections reach the driver
        sh = seed_h
        pres = np.empty(0, dtype=np.int64)
        for b in (nodes.map_batches(
                lambda df: pd.DataFrame({"h": np.intersect1d(
                    sh, df["h"].to_numpy(dtype="int64"))}),
                batch_format="pandas", batch_size=None)
                .iter_batches(batch_format="numpy",
                              batch_size=None)):
            pres = np.union1d(pres, b["h"])
        if not len(pres):
            raise ValueError("no seed node is in the graph")
        n_src = len(pres)
        seed_h = pres
    else:
        n_src = n_nodes
    r0 = scale // n_src
    base = (15 * r0) // 100

    def _rank_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = df["h"].astype("int64")
        r = (np.full(len(df), np.int64(r0)) if seed_h is None
             else np.where(np.isin(h.to_numpy(), seed_h),
                           np.int64(r0), np.int64(0)))
        return pd.DataFrame({
            "kind": np.int64(1), "hs": h,
            "hd": np.int64(0), "dg": np.int64(0),
            "r": r, "sb": h % B})

    ranks = nodes.map_batches(_rank_rows,
                              batch_format="pandas").materialize()

    def _zero_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hd": df["h"].astype("int64"),
                             "c": np.int64(0),
                             "db": df["h"].astype("int64") % B})

    zeros = nodes.map_batches(_zero_rows,
                              batch_format="pandas").materialize()

    def _contrib(group: pd.DataFrame) -> pd.DataFrame:
        e = group[group["kind"] == 0]
        r = group[group["kind"] == 1]
        j = e[["hs", "hd", "dg"]].merge(r[["hs", "r"]], on="hs")
        c = j["r"].to_numpy(dtype="int64") \
            // j["dg"].to_numpy(dtype="int64")
        return pd.DataFrame({"hd": j["hd"].to_numpy(dtype="int64"),
                             "c": c,
                             "db": j["hd"].to_numpy(dtype="int64") % B})

    def _new_ranks(group: pd.DataFrame) -> pd.DataFrame:
        s = group.groupby("hd", as_index=False)["c"].sum()
        h = s["hd"].to_numpy(dtype="int64")
        b0 = (np.int64(base) if seed_h is None
              else np.where(np.isin(h, seed_h),
                            np.int64(base), np.int64(0)))
        r = b0 + (np.int64(DAMP_NUM)
                  * s["c"].to_numpy(dtype="int64")) \
            // np.int64(DAMP_DEN)
        return pd.DataFrame({"kind": np.int64(1), "hs": h,
                             "hd": np.int64(0), "dg": np.int64(0),
                             "r": r, "sb": h % B})

    # Ray's sort-based groupby emits one (often empty) output block
    # per INPUT block, so without a repartition the rank dataset's
    # block count would compound each round (64 + 64 → 128 + 64 → …)
    # and sort cost would grow linearly with the round number —
    # measured 3.7 s → 7.2 s → 12 s per round at sf0.01. Pinning the
    # block count keeps every round identical.
    for _ in range(n_iter):
        contribs = (ed.union(ranks).groupby("sb")
                    .map_groups(_contrib, batch_format="pandas"))
        ranks = (contribs.union(zeros).groupby("db")
                 .map_groups(_new_ranks, batch_format="pandas")
                 .repartition(n_blocks)).materialize()

    final = ranks.map_batches(
        lambda df: pd.DataFrame({"h": df["hs"].astype("int64"),
                                 "rank": df["r"].astype("int64")}),
        batch_format="pandas")
    out = hash_join(final, nodes.map_batches(
        lambda df: df[["h", "node"]], batch_format="pandas"), on="h",
        n_buckets=n_buckets)
    return out.map_batches(lambda df: df[["node", "rank"]],
                           batch_format="pandas")


def _pagerank_broadcast(ed: rd.Dataset, nodes: rd.Dataset,
                        H: np.ndarray, r0: int, base: int,
                        n_iter: int, n_buckets: int,
                        seed_idx: np.ndarray | None = None
                        ) -> rd.Dataset:
    """Broadcast-rank execution of the pagerank_int recurrence.

    ``ed`` is the deduped (hs, hd, dg) edge table (materialized),
    ``nodes`` the distinct (h, node) string map (LAZY — consumed only
    by the returned output stage), ``H`` the sorted distinct
    node-hash array (position == dense node index). Every round
    touches ONLY static int64 edge blocks plus one broadcast int64
    vector. See pagerank_int's docstring for the bound that makes the
    driver merge safe.
    """
    import ray

    from .dedup_docs import _cached_get

    n_nodes = len(H)
    h_ref = ray.put(H)

    def _to_idx(df: pd.DataFrame) -> pd.DataFrame:
        hh = _cached_get(h_ref)
        return pd.DataFrame({
            "si": np.searchsorted(hh, df["hs"].to_numpy(dtype="int64")),
            "di": np.searchsorted(hh, df["hd"].to_numpy(dtype="int64")),
            "dg": df["dg"].to_numpy(dtype="int64")})

    # ed's block count is already pinned by the caller; the straight
    # map preserves it, so no repartition is needed here
    eidx = ed.map_batches(_to_idx, batch_format="pandas",
                          batch_size=None).materialize()

    if seed_idx is None:
        rank = np.full(n_nodes, np.int64(r0), dtype=np.int64)
    else:  # personalized: teleport mass only at the seeds
        rank = np.zeros(n_nodes, dtype=np.int64)
        rank[seed_idx] = np.int64(r0)
    for _ in range(n_iter):
        r_ref = ray.put(rank)

        def _contrib_partial(df: pd.DataFrame) -> pd.DataFrame:
            r = _cached_get(r_ref)
            si = df["si"].to_numpy(dtype="int64")
            c = r[si] // df["dg"].to_numpy(dtype="int64")
            dense = np.zeros(len(r), dtype=np.int64)
            np.add.at(dense, df["di"].to_numpy(dtype="int64"), c)
            (nz,) = dense.nonzero()
            return pd.DataFrame({"i": nz, "c": dense[nz]})

        s = np.zeros(n_nodes, dtype=np.int64)
        for b in (eidx.map_batches(_contrib_partial,
                                   batch_format="pandas",
                                   batch_size=None)
                  .iter_batches(batch_format="numpy",
                                batch_size=None)):
            np.add.at(s, b["i"], b["c"])
        rank = (np.int64(85) * s) // np.int64(100)
        if seed_idx is None:
            rank += np.int64(base)
        else:
            rank[seed_idx] += np.int64(base)

    # ONE (H, rank) tuple ref: _cached_get holds a single slot per
    # worker, so fetching two refs per batch would evict each other
    # and re-deserialize both arrays every call
    hr_ref = ray.put((H, rank))

    def _restore(df: pd.DataFrame) -> pd.DataFrame:
        hh, r = _cached_get(hr_ref)
        idx = np.searchsorted(hh, df["h"].to_numpy(dtype="int64"))
        return pd.DataFrame({"node": df["node"].astype(str),
                             "rank": r[idx]})

    return nodes.map_batches(_restore, batch_format="pandas",
                             batch_size=None)


def canon_und_batch(hs: np.ndarray, hd: np.ndarray,
                    B: np.int64) -> pd.DataFrame:
    """(lo, hi) canonical orientation of int64 endpoint arrays with
    self-loops dropped, a lo-bucket column for the dedup exchange and
    per-batch distinct — the kernel shared by :func:`_und_edge_batch`
    and the cached ``edges_und`` graph-projection view."""
    lo, hi = np.minimum(hs, hd), np.maximum(hs, hd)
    keep = lo != hi
    out = pd.DataFrame({"lo": lo[keep], "hi": hi[keep]})
    out["lb"] = out["lo"] % B
    return out.drop_duplicates()


def dedup_deg_group(g: pd.DataFrame) -> pd.DataFrame:
    """Distinct directed (hs, hd) edges of one source-bucket group
    with each source's out-degree over those distinct edges
    (self-loops kept) — the kernel shared by pagerank_int's setup
    exchange and the cached ``edges_deg`` graph-projection view."""
    e = g[["hs", "hd"]].drop_duplicates()
    dg = e.groupby("hs")["hd"].transform("size")
    return pd.DataFrame({"hs": e["hs"], "hd": e["hd"],
                         "dg": dg.to_numpy(dtype="int64")})


def _und_edge_batch(df: pd.DataFrame, B: np.int64) -> pd.DataFrame:
    """Per-batch kernel shared by the undirected-graph operators:
    md5-15 endpoint hashes, then :func:`canon_und_batch`."""
    return canon_und_batch(_h15(df["s"]), _h15(df["d"]), B)


def _deg_partial_batch(df: pd.DataFrame, B: np.int64) -> pd.DataFrame:
    """Per-batch endpoint-degree combiner shared by the
    undirected-graph operators: one (h, dpart, nb) row per distinct
    endpoint in the batch."""
    n = np.concatenate([df["lo"].to_numpy(dtype="int64"),
                        df["hi"].to_numpy(dtype="int64")])
    out = (pd.DataFrame({"h": n}).groupby("h", as_index=False)
           .size().rename(columns={"size": "dpart"}))
    out["nb"] = out["h"] % B
    return out


def _distinct_und_edges(edges, und_pre, B: np.int64,
                        n_buckets: int) -> tuple:
    """Globally-distinct undirected (lo, hi) int64 edges, materialized
    (one bucket exchange unless ``und_pre`` pre-paid it), plus the
    edge count."""
    n_blocks = max(8, n_buckets // 4)
    if und_pre is not None:
        und = und_pre.repartition(n_blocks).materialize()
    else:
        und = (edges.map_batches(lambda df: _und_edge_batch(df, B),
                                 batch_format="pandas")
               .groupby("lb").map_groups(
                   lambda g: g[["lo", "hi"]].drop_duplicates(),
                   batch_format="pandas")
               .repartition(n_blocks)).materialize()
    return und, und.count()


def _node_degrees(und: rd.Dataset, B: np.int64, n_buckets: int,
                  broadcast_max_nodes: int,
                  H_pre: np.ndarray | None = None) -> tuple:
    """Per-node degrees of the distinct undirected edge set, as a
    tagged degree source: ``("bcast", (H, deg) object ref)`` when the
    node count fits ``broadcast_max_nodes`` (pagerank-style bounded
    driver probe, dense int64 vectors broadcast once), else
    ``("ds", deg_ds)`` — a materialized (h, d, nb) Dataset for hash
    joins. Both paths are equality-tested via the triangle/k-core
    suites. ``H_pre`` lets a caller that already ran the node probe
    share it instead of paying a second full pass."""
    n_blocks = max(8, n_buckets // 4)
    H = (H_pre if H_pre is not None
         else _bounded_distinct_probe(und, ("lo", "hi"),
                                      broadcast_max_nodes))

    if H is not None:
        import ray

        def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
            # the driver sum reads (h, dpart) only; don't ship the
            # exchange path's bucket column
            return _deg_partial_batch(df, B).drop(columns=["nb"])

        # driver pull bounded at per-block-distinct-nodes ≤ N rows per
        # block (the same combiner shape as the node probe) — never
        # the raw edge stream
        deg = np.zeros(len(H), dtype=np.int64)
        for b in (und.map_batches(_deg_partial, batch_format="pandas",
                                  batch_size=None)
                  .iter_batches(batch_format="numpy",
                                batch_size=None)):
            np.add.at(deg, np.searchsorted(H, b["h"]), b["dpart"])
        # ONE (H, deg) tuple ref — see the pagerank restore note
        return ("bcast", ray.put((H, deg)))

    def _deg_rows(df: pd.DataFrame) -> pd.DataFrame:
        return _deg_partial_batch(df, B)

    # MATERIALIZED: deg_ds is consumed by multiple joins, and
    # re-executing a shared lazy groupby lineage after a driver
    # iter_batches pass has produced corrupted blocks (wrong
    # column values) in Ray 2.49 — one O(nodes) int-row
    # materialization removes the re-execution entirely
    deg_ds = (und.map_batches(_deg_rows, batch_format="pandas")
              .groupby("nb").map_groups(
                  lambda g: g.groupby("h", as_index=False)["dpart"]
                  .sum().rename(columns={"dpart": "d"}),
                  batch_format="pandas")
              .repartition(n_blocks)).materialize()
    return ("ds", deg_ds)


def _orient_edges(und: rd.Dataset, B: np.int64, n_buckets: int,
                  broadcast_max_nodes: int) -> tuple:
    """Degree-order the distinct undirected edge set: orient every
    edge from its (degree, hash)-smaller endpoint (lo wins degree
    ties — matching the SQL oracles' ``dl.d <= dh.d``). Returns
    ``(oriented, degsrc)`` where oriented has (src, dst, sb) and
    degsrc is :func:`_node_degrees`' tagged degree source, for reuse
    by callers needing per-node degrees."""
    from .joins import hash_join

    degsrc = _node_degrees(und, B, n_buckets, broadcast_max_nodes)
    if degsrc[0] == "bcast":
        from .dedup_docs import _cached_get
        hd_ref = degsrc[1]

        def _orient(df: pd.DataFrame) -> pd.DataFrame:
            hh, dd = _cached_get(hd_ref)
            lo = df["lo"].to_numpy(dtype="int64")
            hi = df["hi"].to_numpy(dtype="int64")
            dl, dh = dd[np.searchsorted(hh, lo)], \
                dd[np.searchsorted(hh, hi)]
            # src = (deg, hash)-smaller endpoint (lo wins deg ties);
            # matches the SQL oracle's `dl.d <= dh.d`
            lo_first = dl <= dh
            src = np.where(lo_first, lo, hi)
            dst = np.where(lo_first, hi, lo)
            return pd.DataFrame({"src": src, "dst": dst,
                                 "sb": src % B})

        return (und.map_batches(_orient, batch_format="pandas",
                                batch_size=None), degsrc)

    deg_ds = degsrc[1]
    # schemas passed explicitly: a LAZY hash_join output reports
    # schema None before execution, and hash_join treats a
    # schema-less side as provably empty
    import pyarrow as pa
    i64 = pa.int64()
    j = hash_join(
        und,
        deg_ds.map_batches(
            lambda df: df[["h", "d"]].rename(
                columns={"h": "lo", "d": "dlo"}),
            batch_format="pandas"),
        on="lo", n_buckets=n_buckets,
        left_schema=pa.schema([("lo", i64), ("hi", i64)]),
        right_schema=pa.schema([("lo", i64), ("dlo", i64)]))
    j = hash_join(
        j,
        deg_ds.map_batches(
            lambda df: df[["h", "d"]].rename(
                columns={"h": "hi", "d": "dhi"}),
            batch_format="pandas"),
        on="hi", n_buckets=n_buckets,
        left_schema=pa.schema([("lo", i64), ("hi", i64),
                               ("dlo", i64)]),
        right_schema=pa.schema([("hi", i64), ("dhi", i64)]))

    def _orient_j(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(dtype="int64")
        hi = df["hi"].to_numpy(dtype="int64")
        dl = df["dlo"].to_numpy(dtype="int64")
        dh = df["dhi"].to_numpy(dtype="int64")
        lo_first = dl <= dh  # matches the SQL `dl.d <= dh.d`
        src = np.where(lo_first, lo, hi)
        dst = np.where(lo_first, hi, lo)
        return pd.DataFrame({"src": src, "dst": dst,
                             "sb": src % B})

    return (j.map_batches(_orient_j, batch_format="pandas"), degsrc)


def triangle_count(edges: rd.Dataset | None, n_buckets: int = 64,
                   broadcast_max_nodes: int = 4_000_000,
                   und_pre: rd.Dataset | None = None) -> pd.DataFrame:
    """EXACT triangle count of the undirected simple graph induced by
    an (s, d) edge Dataset (parallel edges collapsed, self-loops
    dropped). Returns ONE row: (n_triangles, n_wedges, n_edges).

    Algorithm: degree-ordered wedge closure (the MapReduce-classic
    node-iterator++ / Cohen 2009): orient every edge from its
    (degree, hash)-smaller endpoint to the larger; each triangle then
    has exactly ONE apex with both out-edges, so counting wedges
    (v, w) from a shared apex that close against the undirected edge
    set counts each triangle once. The orientation bounds per-node
    out-degree by O(sqrt(m)), so wedge volume is O(m^1.5) worst-case
    and ~O(m·avg_deg) on hub-heavy KG graphs (hubs get IN-edges, so
    their wedge fan-out collapses).

    Scale shape:
    - one bucket exchange dedups undirected (lo, hi) int64 edges;
    - degrees via the pagerank-style bounded driver probe when the
      node count fits ``broadcast_max_nodes`` (dense int64 vector,
      broadcast once), else a (node)-bucket exchange + two
      ``hash_join``s — both paths equality-tested;
    - wedges are emitted per apex inside the src-bucket groupby
      (never materialized on the driver) and closed against the edge
      set in ONE key-bucket exchange of int64 pair-keys; only
      per-bucket scalar counts reach the driver.
    """
    B = np.int64(n_buckets)
    und, n_edges = _distinct_und_edges(edges, und_pre, B, n_buckets)
    if not n_edges:
        return pd.DataFrame({"n_triangles": pd.array([0], dtype="int64"),
                             "n_wedges": pd.array([0], dtype="int64"),
                             "n_edges": pd.array([0], dtype="int64")})
    oriented, _ = _orient_edges(und, B, n_buckets, broadcast_max_nodes)

    # --- wedges from each apex, closed against the edge set --------
    def _wedges(group: pd.DataFrame) -> pd.DataFrame:
        # vectorized pair emission: sort once, find per-apex runs,
        # then emit each out-degree class in ONE broadcasted
        # triu-index expansion (no Python loop over apexes — the
        # loop below is over DISTINCT out-degrees, a few dozen)
        g = group.sort_values(["src", "dst"], kind="stable")
        src = g["src"].to_numpy(dtype="int64")
        dst = g["dst"].to_numpy(dtype="int64")
        empty = pd.DataFrame({"lo": pd.Series(dtype="int64"),
                              "hi": pd.Series(dtype="int64"),
                              "kind": pd.Series(dtype="int64"),
                              "kb": pd.Series(dtype="int64")})
        if not len(src):
            return empty
        change = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate([[0], change])
        cnt = np.diff(np.concatenate([starts, [len(src)]]))
        los, his = [], []
        for c in np.unique(cnt):
            if c < 2:
                continue
            runs = starts[cnt == c]
            ti, tj = np.triu_indices(int(c), k=1)
            los.append(dst[(runs[:, None] + ti[None, :]).ravel()])
            his.append(dst[(runs[:, None] + tj[None, :]).ravel()])
        if not los:
            return empty
        lo = np.concatenate(los)
        hi = np.concatenate(his)  # dst sorted within run → lo < hi
        return pd.DataFrame({"lo": lo, "hi": hi,
                             "kind": np.int64(1),
                             "kb": (lo ^ hi) % B})

    wedges = (oriented.groupby("sb")
              .map_groups(_wedges, batch_format="pandas"))
    eset = und.map_batches(
        lambda df: pd.DataFrame({
            "lo": df["lo"].astype("int64"),
            "hi": df["hi"].astype("int64"),
            "kind": np.int64(0),
            "kb": (df["lo"].astype("int64")
                   ^ df["hi"].astype("int64")) % B}),
        batch_format="pandas")

    def _close(group: pd.DataFrame) -> pd.DataFrame:
        e = group.loc[group["kind"] == 0, ["lo", "hi"]]
        w = group.loc[group["kind"] == 1, ["lo", "hi"]]
        tri = len(w.merge(e, on=["lo", "hi"])) if len(e) and len(w) \
            else 0
        return pd.DataFrame({"tri": pd.array([tri], dtype="int64"),
                             "wed": pd.array([len(w)], dtype="int64")})

    parts = (wedges.union(eset).groupby("kb")
             .map_groups(_close, batch_format="pandas").to_pandas())
    return pd.DataFrame({
        "n_triangles": pd.array([int(parts["tri"].sum())],
                                dtype="int64"),
        "n_wedges": pd.array([int(parts["wed"].sum())], dtype="int64"),
        "n_edges": pd.array([int(n_edges)], dtype="int64")})


def local_triangle_counts(edges: rd.Dataset | None,
                          n_buckets: int = 64,
                          broadcast_max_nodes: int = 4_000_000,
                          und_pre: rd.Dataset | None = None
                          ) -> rd.Dataset:
    """PER-NODE triangle counts + local clustering coefficient of the
    undirected simple graph: one row (h, n_tri, degree, cc) per node
    that participates in >= 1 triangle, where h is the md5-15 int64
    node hash (the graph family's shared node key), n_tri the number
    of triangles containing the node, and cc = 2*n_tri /
    (degree*(degree-1)) — an exact float64 quotient of exact int64s,
    so the SQL oracle replays it bit-for-bit.

    Same degree-ordered wedge closure as :func:`triangle_count`
    (shared :func:`_orient_edges`), but each CLOSED wedge (apex, v,
    w) credits all three corners: the closure bucket emits per-node
    partial counts (a value_counts combiner over its own triangles),
    one (node)-bucket exchange sums them, and degrees attach via the
    already-built degree source — the broadcast (H, deg) vector when
    the node count fits, else one more ``hash_join``. Exchange
    volume: int64 (node, count) rows, never triangles themselves.
    """
    B = np.int64(n_buckets)
    und, n_edges = _distinct_und_edges(edges, und_pre, B, n_buckets)
    empty = pd.DataFrame({"h": pd.Series(dtype="int64"),
                          "n_tri": pd.Series(dtype="int64"),
                          "degree": pd.Series(dtype="int64"),
                          "cc": pd.Series(dtype="float64")})
    if not n_edges:
        return rd.from_pandas(empty)
    oriented, degsrc = _orient_edges(und, B, n_buckets,
                                     broadcast_max_nodes)

    def _wedges_apex(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["src", "dst"], kind="stable")
        src = g["src"].to_numpy(dtype="int64")
        dst = g["dst"].to_numpy(dtype="int64")
        wempty = pd.DataFrame({c: pd.Series(dtype="int64")
                               for c in ("apex", "lo", "hi",
                                         "kind", "kb")})
        if not len(src):
            return wempty
        change = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate([[0], change])
        cnt = np.diff(np.concatenate([starts, [len(src)]]))
        apexes, los, his = [], [], []
        for c in np.unique(cnt):
            if c < 2:
                continue
            runs = starts[cnt == c]
            ti, tj = np.triu_indices(int(c), k=1)
            idx = (runs[:, None] + ti[None, :]).ravel()
            apexes.append(np.repeat(src[runs], len(ti)))
            los.append(dst[idx])
            his.append(dst[(runs[:, None] + tj[None, :]).ravel()])
        if not los:
            return wempty
        lo = np.concatenate(los)
        hi = np.concatenate(his)
        return pd.DataFrame({"apex": np.concatenate(apexes),
                             "lo": lo, "hi": hi,
                             "kind": np.int64(1),
                             "kb": (lo ^ hi) % B})

    wedges = (oriented.groupby("sb")
              .map_groups(_wedges_apex, batch_format="pandas"))
    eset = und.map_batches(
        lambda df: pd.DataFrame({
            "apex": np.int64(0),
            "lo": df["lo"].astype("int64"),
            "hi": df["hi"].astype("int64"),
            "kind": np.int64(0),
            "kb": (df["lo"].astype("int64")
                   ^ df["hi"].astype("int64")) % B}),
        batch_format="pandas")

    def _corner_partials(group: pd.DataFrame) -> pd.DataFrame:
        e = group.loc[group["kind"] == 0, ["lo", "hi"]]
        w = group.loc[group["kind"] == 1, ["apex", "lo", "hi"]]
        if not len(e) or not len(w):
            return pd.DataFrame({"h": pd.Series(dtype="int64"),
                                 "tpart": pd.Series(dtype="int64"),
                                 "nb": pd.Series(dtype="int64")})
        t = w.merge(e, on=["lo", "hi"])
        corners = np.concatenate([t["apex"].to_numpy(dtype="int64"),
                                  t["lo"].to_numpy(dtype="int64"),
                                  t["hi"].to_numpy(dtype="int64")])
        h, tpart = np.unique(corners, return_counts=True)
        return pd.DataFrame({"h": h, "tpart": tpart.astype("int64"),
                             "nb": h % B})

    tri_parts = (wedges.union(eset).groupby("kb")
                 .map_groups(_corner_partials, batch_format="pandas"))

    kind, degref = degsrc
    if kind == "bcast":
        from .dedup_docs import _cached_get

        def _finish_bcast(group: pd.DataFrame) -> pd.DataFrame:
            g = group.groupby("h", as_index=False)["tpart"].sum() \
                .rename(columns={"tpart": "n_tri"})
            hh, dd = _cached_get(degref)
            d = dd[np.searchsorted(hh, g["h"].to_numpy(dtype="int64"))]
            g["degree"] = d.astype("int64")
            g["cc"] = (2 * g["n_tri"].to_numpy(dtype="int64")
                       ).astype("float64") / (d * (d - 1))
            return g[["h", "n_tri", "degree", "cc"]]

        return rd.from_pandas(empty).union(
            tri_parts.groupby("nb").map_groups(_finish_bcast,
                                               batch_format="pandas"))

    from .joins import hash_join
    import pyarrow as pa
    i64 = pa.int64()

    def _sum_counts(group: pd.DataFrame) -> pd.DataFrame:
        return (group.groupby("h", as_index=False)["tpart"].sum()
                .rename(columns={"tpart": "n_tri"}))

    tri_ds = (tri_parts.groupby("nb")
              .map_groups(_sum_counts, batch_format="pandas"))
    j = hash_join(
        tri_ds,
        degref.map_batches(lambda df: df[["h", "d"]],
                           batch_format="pandas"),
        on="h", n_buckets=n_buckets,
        left_schema=pa.schema([("h", i64), ("n_tri", i64)]),
        right_schema=pa.schema([("h", i64), ("d", i64)]))

    def _finish_join(df: pd.DataFrame) -> pd.DataFrame:
        d = df["d"].to_numpy(dtype="int64")
        out = pd.DataFrame({
            "h": df["h"].astype("int64"),
            "n_tri": df["n_tri"].astype("int64"),
            "degree": d,
            "cc": (2 * df["n_tri"].to_numpy(dtype="int64")
                   ).astype("float64") / (d * (d - 1))})
        return out

    return rd.from_pandas(empty).union(
        j.map_batches(_finish_join, batch_format="pandas"))


def degree_assortativity(edges: rd.Dataset | None,
                         n_buckets: int = 64,
                         broadcast_max_nodes: int = 4_000_000,
                         und_pre: rd.Dataset | None = None
                         ) -> pd.DataFrame:
    """Newman degree-assortativity coefficient of the undirected
    simple graph: the Pearson correlation of (deg(u), deg(v)) over
    the 2m ORDERED endpoint pairs. Returns one row
    (assortativity, n_edges, s1, s2, s3) where s1 = Σ deg(u),
    s2 = Σ deg(u)², s3 = Σ deg(u)·deg(v) over ordered pairs and
    r = (2m·s3 − s1²) / (2m·s2 − s1²) — a float64 quotient of EXACT
    integers (the driver sums per-batch int64 partials with Python
    bigints, so no overflow at any scale), which the SQL oracle
    replays bit-for-bit. Degenerate regular graphs (zero variance)
    return NULL, per convention.

    Scale shape: one bucket exchange dedups undirected edges, degrees
    come from the shared :func:`_node_degrees` source (broadcast
    vector or hash joins), and the statistic reduces through
    per-batch scalar partials — nothing but int64 triples reaches the
    driver."""
    from .joins import hash_join

    B = np.int64(n_buckets)
    und, n_edges = _distinct_und_edges(edges, und_pre, B, n_buckets)
    if not n_edges:
        return pd.DataFrame({
            "assortativity": pd.array([None], dtype="float64"),
            "n_edges": pd.array([0], dtype="int64")})
    degsrc = _node_degrees(und, B, n_buckets, broadcast_max_nodes)

    def _partials(dl: np.ndarray, dh: np.ndarray) -> pd.DataFrame:
        # ordered pairs = both orientations of every edge.
        # Per-ELEMENT products fit int64 (deg² ≤ ~8.5e18 needs
        # deg ≤ 3e9), but a batch SUM over a giant hub's edges can
        # exceed 2^63 — accumulate the sums as Python bigints
        # (object-dtype reduce) so the partial itself is exact, as
        # the docstring promises; per-batch cost is one object pass
        # over scalar products, not the hot path
        s2 = int((dl * dl).astype(object).sum()
                 + (dh * dh).astype(object).sum())
        s3 = int(2 * (dl * dh).astype(object).sum())
        if not (-(2**63) <= s2 < 2**63 and -(2**63) <= s3 < 2**63):
            raise OverflowError(
                "assortativity partial exceeds int64 — split the "
                "input into smaller blocks (batch sums of deg² "
                "overflowed)")
        return pd.DataFrame({
            "s1": pd.array([int(dl.sum() + dh.sum())], dtype="int64"),
            "s2": pd.array([s2], dtype="int64"),
            "s3": pd.array([s3], dtype="int64")})

    if degsrc[0] == "bcast":
        from .dedup_docs import _cached_get
        hd_ref = degsrc[1]

        def _batch(df: pd.DataFrame) -> pd.DataFrame:
            hh, dd = _cached_get(hd_ref)
            dl = dd[np.searchsorted(
                hh, df["lo"].to_numpy(dtype="int64"))]
            dh = dd[np.searchsorted(
                hh, df["hi"].to_numpy(dtype="int64"))]
            return _partials(dl, dh)

        parts = und.map_batches(_batch, batch_format="pandas")
    else:
        import pyarrow as pa
        i64 = pa.int64()
        deg_ds = degsrc[1]
        j = hash_join(
            und,
            deg_ds.map_batches(
                lambda df: df[["h", "d"]].rename(
                    columns={"h": "lo", "d": "dlo"}),
                batch_format="pandas"),
            on="lo", n_buckets=n_buckets,
            left_schema=pa.schema([("lo", i64), ("hi", i64)]),
            right_schema=pa.schema([("lo", i64), ("dlo", i64)]))
        j = hash_join(
            j,
            deg_ds.map_batches(
                lambda df: df[["h", "d"]].rename(
                    columns={"h": "hi", "d": "dhi"}),
                batch_format="pandas"),
            on="hi", n_buckets=n_buckets,
            left_schema=pa.schema([("lo", i64), ("hi", i64),
                                   ("dlo", i64)]),
            right_schema=pa.schema([("hi", i64), ("dhi", i64)]))
        parts = j.map_batches(
            lambda df: _partials(df["dlo"].to_numpy(dtype="int64"),
                                 df["dhi"].to_numpy(dtype="int64")),
            batch_format="pandas")

    # driver reduce over one int64 row per block — exact bigint sums
    s1 = s2 = s3 = 0
    for b in parts.iter_batches(batch_format="numpy",
                                batch_size=None):
        s1 += int(b["s1"].sum())
        s2 += int(b["s2"].sum())
        s3 += int(b["s3"].sum())
    m2 = 2 * int(n_edges)
    num, den = m2 * s3 - s1 * s1, m2 * s2 - s1 * s1
    r = float(num) / float(den) if den else None
    return pd.DataFrame({
        "assortativity": pd.array([r], dtype="float64"),
        "n_edges": pd.array([int(n_edges)], dtype="int64"),
        "s1": pd.array([s1], dtype="int64"),
        "s2": pd.array([s2], dtype="int64"),
        "s3": pd.array([s3], dtype="int64")})


def degree_histogram(edges: rd.Dataset | None,
                     n_buckets: int = 64,
                     und_pre: rd.Dataset | None = None) -> pd.DataFrame:
    """Degree distribution of the undirected simple graph induced by an
    (s, d) edge Dataset: one row per distinct degree value with the
    number of nodes having it. Returns (degree, n_nodes), degree-sorted.

    Scale shape: one lo-bucket exchange dedups undirected int64 edges
    (same kernel as :func:`triangle_count`); endpoint rows then take
    ONE node-bucket exchange, and the per-node count AND the
    per-degree histogram partial are both computed inside the same
    group body (bucketing by node hash makes the group-local count the
    global one), so only (degree, partial_count) rows — bounded by
    distinct degrees × buckets, thousands at any corpus size — ever
    reach the driver. Generalizes the reference's per-entry
    triple-count min/max tracking
    (cwrc/RDF-extraction Biography/bio_extraction.py:65-70) into a
    graph-wide degree histogram.
    """
    B = np.int64(n_buckets)

    if und_pre is not None:
        # pre-projected view: globally-distinct (lo, hi) — the dedup
        # exchange is already paid
        und = und_pre
    else:
        und = (edges.map_batches(lambda df: _und_edge_batch(df, B),
                                 batch_format="pandas")
               .groupby("lb").map_groups(
                   lambda g: g[["lo", "hi"]].drop_duplicates(),
                   batch_format="pandas"))

    def _endpoint_rows(df: pd.DataFrame) -> pd.DataFrame:
        return _deg_partial_batch(df, B)

    def _hist_partial(g: pd.DataFrame) -> pd.DataFrame:
        d = g.groupby("h")["dpart"].sum()
        vc = d.value_counts()
        return pd.DataFrame({"degree": vc.index.to_numpy(dtype="int64"),
                             "n_part": vc.to_numpy(dtype="int64")})

    parts = (und.map_batches(_endpoint_rows, batch_format="pandas")
             .groupby("nb").map_groups(_hist_partial,
                                       batch_format="pandas")
             .to_pandas())
    if parts.empty:
        return pd.DataFrame({"degree": pd.Series(dtype="int64"),
                             "n_nodes": pd.Series(dtype="int64")})
    out = (parts.groupby("degree", as_index=False)["n_part"].sum()
           .rename(columns={"n_part": "n_nodes"})
           .sort_values("degree", ignore_index=True))
    return out.astype({"degree": "int64", "n_nodes": "int64"})


def kcore_nodes(edges: rd.Dataset | None, k: int = 2,
                n_buckets: int = 64, max_rounds: int = 24,
                broadcast_max_nodes: int = 4_000_000,
                und_pre: rd.Dataset | None = None,
                nodes_pre: rd.Dataset | None = None) -> rd.Dataset:
    """Nodes of the k-CORE of the undirected simple graph induced by an
    (s, d) edge Dataset: the maximal subgraph in which every node has
    degree ≥ k, computed by iterative peeling (drop nodes with degree
    < k among surviving nodes, repeat to fixpoint). Returns a (node,)
    string Dataset. Peeling is monotone, so extra rounds past the
    fixpoint are idempotent — the DuckDB oracle replays the same
    recurrence as ``max_rounds`` unrolled CTE rounds.

    Two executions of the same recurrence (both equality-tested):

    - **broadcast path** (N ≤ ``broadcast_max_nodes``): edges are
      index-encoded ONCE into static (li, ri) int64 blocks; each round
      is one ``ray.put`` of the alive bitmask + one ``map_batches``
      over those blocks (mask both endpoints, ``np.add.at`` degree
      partials) + a bounded driver sum — ZERO per-round exchanges,
      early exit the round the mask stops changing.
    - **exchange path** (N above threshold): per round, two
      ``hash_join`` semi-joins keep edges whose endpoints both
      survive, then one node-bucket groupby recounts degrees —
      3 bounded exchanges per round, int64 rows only, nothing
      node- or edge-shaped on the driver.
    """
    import pyarrow as pa

    from .joins import hash_join

    B = np.int64(n_buckets)
    out_schema = pa.schema([("node", pa.string())])

    max_rounds = max(1, max_rounds)  # the exchange path's pre-loop
    # degree pass is always round 1; <1 would desync the two paths
    n_blocks = max(8, n_buckets // 4)
    if und_pre is not None:
        # pre-projected graph views: globally-distinct (lo, hi)
        # undirected edges and a distinct (h, node) string map — skip
        # the string scan and the edge-dedup exchange entirely
        assert nodes_pre is not None
        base = None
        und = und_pre.repartition(n_blocks).materialize()
    else:
        base = edges.map_batches(
            lambda df: tagged_graph_scan(df, undirected=True),
            batch_format="pandas").materialize()

        def _und_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df.loc[df["kind"] == 0, ["a", "b"]]
            out = pd.DataFrame({"lo": g["a"].astype("int64"),
                                "hi": g["b"].astype("int64")})
            out["lb"] = out["lo"] % B
            return out

        und = (base.map_batches(_und_rows, batch_format="pandas")
               .groupby("lb").map_groups(
                   lambda g: g[["lo", "hi"]].drop_duplicates(),
                   batch_format="pandas")
               .repartition(n_blocks)).materialize()

    H = _bounded_distinct_probe(und, ("lo", "hi"),
                                broadcast_max_nodes)

    if H is not None:
        if not len(H):
            return rd.from_arrow(out_schema.empty_table())
        alive_h = _kcore_broadcast(und, H, k, max_rounds)
        if not len(alive_h):
            return rd.from_arrow(out_schema.empty_table())
        import ray

        from .dedup_docs import _cached_get
        a_ref = ray.put(alive_h)

        if base is None:
            # the nodes view is already globally distinct with the
            # min(node)-per-hash tie-break applied, so resolution is
            # a pure broadcast filter — ZERO exchanges
            def _resolve_pre(df: pd.DataFrame) -> pd.DataFrame:
                core = _cached_get(a_ref)
                h = df["h"].to_numpy(dtype="int64")
                idx = np.searchsorted(core, h)
                idx[idx == len(core)] = 0
                keep = core[idx] == h
                return pd.DataFrame(
                    {"node": df["node"].astype(str)[keep]})

            return nodes_pre.map_batches(_resolve_pre,
                                         batch_format="pandas")

        def _resolve(df: pd.DataFrame) -> pd.DataFrame:
            # filter the map rows against the broadcast core BEFORE
            # the dedup exchange — only core members' strings move
            core = _cached_get(a_ref)
            g = df[df["kind"] == 1]
            h = g["a"].to_numpy(dtype="int64")
            idx = np.searchsorted(core, h)
            idx[idx == len(core)] = 0
            keep = core[idx] == h
            out = pd.DataFrame({"h": h[keep],
                                "node": g["node"].astype(str)[keep]})
            out["nb"] = out["h"] % B
            return out

        # min(node) per hash mirrors the oracle's collision tie-break
        return (base.map_batches(_resolve, batch_format="pandas")
                .groupby("nb").map_groups(
                    lambda g: g.groupby("h", as_index=False)["node"]
                    .min()[["node"]], batch_format="pandas"))

    # ---- exchange path --------------------------------------------
    i64 = pa.int64()

    def _deg_rows(df: pd.DataFrame) -> pd.DataFrame:
        return _deg_partial_batch(df, B)

    def _alive_of(e: rd.Dataset) -> rd.Dataset:
        return (e.map_batches(_deg_rows, batch_format="pandas")
                .groupby("nb").map_groups(
                    lambda g: g.groupby("h", as_index=False)["dpart"]
                    .sum().loc[lambda d: d["dpart"] >= k, ["h"]],
                    batch_format="pandas")
                .repartition(n_blocks)).materialize()

    live = und
    alive = _alive_of(live)  # this IS peel round 1 (oracle a1)
    n_alive = alive.count()
    # max_rounds - 1 further rounds so BOTH paths and the oracle stop
    # at exactly a_{max_rounds} when the peel hasn't converged
    # (idempotent past the fixpoint, so converged graphs are
    # unaffected)
    for _ in range(max_rounds - 1):
        live = hash_join(
            live, alive.map_batches(
                lambda df: df.rename(columns={"h": "lo"}),
                batch_format="pandas"),
            on="lo", n_buckets=n_buckets,
            left_schema=pa.schema([("lo", i64), ("hi", i64)]),
            right_schema=pa.schema([("lo", i64)]))
        live = hash_join(
            live, alive.map_batches(
                lambda df: df.rename(columns={"h": "hi"}),
                batch_format="pandas"),
            on="hi", n_buckets=n_buckets,
            left_schema=pa.schema([("lo", i64), ("hi", i64)]),
            right_schema=pa.schema([("hi", i64)])) \
            .repartition(n_blocks).materialize()
        alive = _alive_of(live)
        n_new = alive.count()
        if n_new == n_alive:  # monotone ⇒ equal count = fixpoint
            break
        n_alive = n_new
    if not n_alive:
        return rd.from_arrow(out_schema.empty_table())

    def _map_rows(df: pd.DataFrame) -> pd.DataFrame:
        g = df[df["kind"] == 1]
        out = pd.DataFrame({"h": g["a"].astype("int64"),
                            "node": g["node"].astype(str)})
        out["nb"] = out["h"] % B
        return out

    # min(node) per hash mirrors the oracle's collision tie-break
    # (the pre-built nodes view already carries it)
    if base is None:
        nodes = nodes_pre.repartition(n_blocks)
    else:
        nodes = (base.map_batches(_map_rows, batch_format="pandas")
                 .groupby("nb").map_groups(
                     lambda g: g.groupby("h", as_index=False)["node"]
                     .min(), batch_format="pandas")
                 .repartition(n_blocks))
    out = hash_join(
        alive, nodes, on="h", n_buckets=n_buckets,
        left_schema=pa.schema([("h", i64)]),
        right_schema=pa.schema([("h", i64), ("node", pa.string())]))

    def _project(df: pd.DataFrame) -> pd.DataFrame:
        if "node" not in df.columns:  # schema-less empty block
            return pd.DataFrame({"node": pd.Series(dtype=object)})
        return df[["node"]]

    return out.map_batches(_project, batch_format="pandas")


def _kcore_broadcast(und: rd.Dataset, H: np.ndarray, k: int,
                     max_rounds: int) -> np.ndarray:
    """Broadcast-mask execution of the k-core peel: returns the sorted
    node-hash array of the core (possibly empty). ``und`` is the
    deduped (lo, hi) edge table, ``H`` the sorted distinct node-hash
    array (position == dense index)."""
    import ray

    from .dedup_docs import _cached_get

    def _to_idx(df: pd.DataFrame) -> pd.DataFrame:
        hh = _cached_get(h_ref)
        return pd.DataFrame({
            "li": np.searchsorted(hh, df["lo"].to_numpy(dtype="int64")),
            "ri": np.searchsorted(hh, df["hi"].to_numpy(dtype="int64"))})

    h_ref = ray.put(H)
    eidx = und.map_batches(_to_idx, batch_format="pandas",
                           batch_size=None).materialize()

    alive = np.ones(len(H), dtype=bool)
    for _ in range(max_rounds):
        a_ref = ray.put(alive)

        def _deg_partial(df: pd.DataFrame) -> pd.DataFrame:
            a = _cached_get(a_ref)
            li = df["li"].to_numpy(dtype="int64")
            ri = df["ri"].to_numpy(dtype="int64")
            m = a[li] & a[ri]
            dense = np.zeros(len(a), dtype=np.int64)
            np.add.at(dense, li[m], 1)
            np.add.at(dense, ri[m], 1)
            (nz,) = dense.nonzero()
            return pd.DataFrame({"i": nz, "c": dense[nz]})

        deg = np.zeros(len(H), dtype=np.int64)
        for b in (eidx.map_batches(_deg_partial, batch_format="pandas",
                                   batch_size=None)
                  .iter_batches(batch_format="numpy", batch_size=None)):
            np.add.at(deg, b["i"], b["c"])
        new_alive = alive & (deg >= k)
        if (new_alive == alive).all():
            break
        alive = new_alive
    return H[alive]


def label_propagation(und: rd.Dataset, n_rounds: int = 3,
                      n_buckets: int = 64,
                      broadcast_max_nodes: int = 4_000_000,
                      force_exchange: bool = False) -> rd.Dataset:
    """Deterministic semi-synchronous LABEL PROPAGATION communities
    over a pre-deduped undirected simple graph (distinct (lo, hi)
    int64 edges, no self-loops): labels seed as the node hash; each
    round every node adopts the most frequent label among its
    neighbors' labels PLUS its own, ties broken by the smallest label
    value. Exactly ``n_rounds`` rounds (fixed depth, so the DuckDB
    oracle unrolls the identical recurrence as chained CTEs). Returns
    a (doc_id, component) int64 Dataset — the same label-map shape
    connected components emits, so the same string-resolution tail
    applies. Nodes absent from the edge set are absent from the
    output (their label never leaves the seed).

    Two executions of the same recurrence (equality-tested):

    - **broadcast path** (N ≤ ``broadcast_max_nodes``): edges are
      index-encoded ONCE into static (li, ri) blocks; each round is
      one ``ray.put`` of the label vector + per-block (node, label)
      vote-count partials + a bounded driver argmax — ZERO per-round
      exchanges.
    - **exchange path**: per round, one ``hash_join`` tags each
      directed edge with its source's current label, then one
      node-bucket groupby resolves the vote count and the argmax —
      int64 rows only, nothing node- or edge-shaped on the driver.
    """
    import pyarrow as pa
    import ray

    from .dedup_docs import _cached_get
    from .joins import hash_join

    B = np.int64(n_buckets)
    n_blocks = max(8, n_buckets // 4)
    out_schema = pa.schema([("doc_id", pa.int64()),
                            ("component", pa.int64())])
    und = und.repartition(n_blocks).materialize()

    if force_exchange:
        H = None
    else:
        H = _bounded_distinct_probe(und, ("lo", "hi"),
                                    broadcast_max_nodes)

    # the block-local argmax below requires every adjd block to hold
    # COMPLETE in-neighborhoods; map_groups emits whole groups per
    # block and Ray only splits a block when one group's output
    # exceeds the target block size, so bound the expected PER-GROUP
    # rows well under it (4M rows × 16 B = 64 MB vs the 128 MB
    # default — scaled by the actual bucket count) and take the
    # exchange path past the bound
    if H is not None and 2 * und.count() > n_buckets * 4_000_000:
        H = None

    if H is not None:
        if not len(H):
            return rd.from_arrow(out_schema.empty_table())
        h_ref = ray.put(H)
        n = np.int64(len(H))

        def _to_idx(df: pd.DataFrame) -> pd.DataFrame:
            # index-encode AND bucket by destination: each directed
            # (di ← si) vote row lands in di's bucket, so after the
            # one-time groupby every block holds its nodes' COMPLETE
            # in-neighborhoods and the per-round argmax is block-local
            hh = _cached_get(h_ref)
            li = np.searchsorted(hh, df["lo"].to_numpy(dtype="int64"))
            ri = np.searchsorted(hh, df["hi"].to_numpy(dtype="int64"))
            di = np.concatenate([li, ri])
            si = np.concatenate([ri, li])
            return pd.DataFrame({"di": di, "si": si, "db": di % B})

        adjd = (und.map_batches(_to_idx, batch_format="pandas",
                                batch_size=None)
                .groupby("db").map_groups(
                    lambda g: g[["di", "si"]].sort_values(
                        "di", kind="stable"),
                    batch_format="pandas")).materialize()
        L_idx = np.arange(int(n), dtype=np.int64)  # label AS INDEX
        for _ in range(n_rounds):
            l_ref = ray.put(L_idx)

            def _vote_block(df: pd.DataFrame) -> pd.DataFrame:
                # complete in-neighborhood per node in this block:
                # count votes per (node, label-index), add the self
                # vote, resolve the (count desc, label asc) argmax
                # locally — only (node, new-label) rows leave
                lab = _cached_get(l_ref)
                di = df["di"].to_numpy(dtype="int64")
                si = df["si"].to_numpy(dtype="int64")
                if not len(di):
                    return pd.DataFrame({
                        "i": pd.Series(dtype="int64"),
                        "nl": pd.Series(dtype="int64")})
                uniq = np.unique(di)
                key = np.concatenate([di * n + lab[si],
                                      uniq * n + lab[uniq]])
                key.sort(kind="stable")
                new = np.concatenate([[True], key[1:] != key[:-1]])
                starts = np.flatnonzero(new)
                gkey = key[starts]
                gc = np.diff(np.append(starts, len(key)))
                gi = gkey // n
                gl = gkey % n
                order2 = np.lexsort((gl, -gc, gi))
                gi2, gl2 = gi[order2], gl[order2]
                first = np.concatenate([[True], gi2[1:] != gi2[:-1]])
                return pd.DataFrame({"i": gi2[first],
                                     "nl": gl2[first]})

            nl = L_idx.copy()
            for b in (adjd.map_batches(_vote_block,
                                       batch_format="pandas",
                                       batch_size=None)
                      .iter_batches(batch_format="numpy",
                                    batch_size=None)):
                nl[np.asarray(b["i"], dtype=np.int64)] = \
                    np.asarray(b["nl"], dtype=np.int64)
            L_idx = nl
        return rd.from_arrow(pa.table({"doc_id": H,
                                       "component": H[L_idx]}))

    # ---- exchange path --------------------------------------------
    i64 = pa.int64()

    def _dir_rows(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(dtype="int64")
        hi = df["hi"].to_numpy(dtype="int64")
        return pd.DataFrame({"src": np.concatenate([lo, hi]),
                             "dst": np.concatenate([hi, lo])})

    dir_edges = und.map_batches(_dir_rows, batch_format="pandas") \
        .repartition(n_blocks).materialize()

    def _init_labels(df: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(np.concatenate(
            [df["lo"].to_numpy(dtype="int64"),
             df["hi"].to_numpy(dtype="int64")]))
        return pd.DataFrame({"n": h, "l": h, "nb": h % B})

    labels = (und.map_batches(_init_labels, batch_format="pandas")
              .groupby("nb").map_groups(
                  lambda g: g[["n", "l"]].drop_duplicates("n"),
                  batch_format="pandas")).materialize()

    def _nbr_rows(df: pd.DataFrame) -> pd.DataFrame:
        if "dst" not in df.columns:  # schema-less empty join block
            return pd.DataFrame({"n": pd.Series(dtype="int64"),
                                 "l": pd.Series(dtype="int64"),
                                 "cb": pd.Series(dtype="int64")})
        out = pd.DataFrame({"n": df["dst"].astype("int64"),
                            "l": df["l"].astype("int64")})
        out["cb"] = out["n"] % B
        return out

    def _self_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"n": df["n"].astype("int64"),
                            "l": df["l"].astype("int64")})
        out["cb"] = out["n"] % B
        return out

    def _resolve(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (g.groupby(["n", "l"], as_index=False)
               .agg(c=("l", "size")))
        cnt = cnt.sort_values(["n", "c", "l"],
                              ascending=[True, False, True],
                              kind="stable")
        return cnt.drop_duplicates("n")[["n", "l"]]

    for _ in range(n_rounds):
        tagged = hash_join(
            dir_edges,
            labels.map_batches(
                lambda df: df.rename(columns={"n": "src"}),
                batch_format="pandas"),
            on="src", n_buckets=n_buckets,
            left_schema=pa.schema([("src", i64), ("dst", i64)]),
            right_schema=pa.schema([("src", i64), ("l", i64)]))
        cand = tagged.map_batches(_nbr_rows, batch_format="pandas") \
            .union(labels.map_batches(_self_rows,
                                      batch_format="pandas"))
        labels = cand.groupby("cb").map_groups(
            _resolve, batch_format="pandas").materialize()

    return labels.map_batches(
        lambda df: df.rename(columns={"n": "doc_id",
                                      "l": "component"})
        if "n" in df.columns else
        pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                      "component": pd.Series(dtype="int64")}),
        batch_format="pandas")


def resolve_names(nodes_pre: rd.Dataset, need: np.ndarray) -> tuple:
    """RESULT-sized string resolution over the pre-built distinct
    (h, node) map view: broadcast the sorted needed-hash array,
    filter the streaming view, return (sorted_h, names) arrays for
    searchsorted lookup. The view is h-unique with the min(node)
    collision tie-break applied at build, so ordering is a pure
    int64 argsort — shared by the k-truss, random-walk and
    link-prediction tails."""
    import ray

    from .dedup_docs import _cached_get
    nref = ray.put(np.sort(np.unique(need)))

    def _name_rows(df: pd.DataFrame) -> pd.DataFrame:
        ns = _cached_get(nref)
        h = df["h"].to_numpy(dtype="int64")
        idx = np.searchsorted(ns, h)
        idx[idx == len(ns)] = 0
        keep = ns[idx] == h
        return pd.DataFrame({"h": h[keep],
                             "node": df["node"].astype(str)[keep]})

    nm = nodes_pre.map_batches(_name_rows,
                               batch_format="pandas").to_pandas()
    if not len(nm) or "h" not in nm.columns:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=object))
    order = np.argsort(nm["h"].to_numpy(dtype="int64"), kind="stable")
    return (nm["h"].to_numpy(dtype="int64")[order],
            nm["node"].to_numpy(dtype=object)[order])


def ktruss_edges(edges: rd.Dataset | None, k: int = 4,
                 n_rounds: int = 3, n_buckets: int = 64,
                 broadcast_max_nodes: int = 4_000_000,
                 und_pre: rd.Dataset | None = None,
                 nodes_pre: rd.Dataset | None = None,
                 driver_max_edges: int = 2_000_000) -> rd.Dataset:
    """``k``-TRUSS peel of the undirected simple graph, fixed depth:
    each round recomputes every surviving edge's triangle SUPPORT
    (number of triangles containing it, within the surviving edge
    set) and drops edges with support < k−2. Both engines run EXACTLY
    ``n_rounds`` rounds — peeling is monotone, so extra rounds past
    the fixpoint are idempotent, and a non-converged graph is cut at
    the same round on both sides. Returns surviving edges as
    (node_a, node_b, support) with the support each edge had in the
    final round.

    Scale shape per round (all int64 rows, nothing edge-shaped on
    the driver): degree-ordered orientation (broadcast degrees under
    the probe bound, hash-join fallback — :func:`_orient_edges`),
    apex-bucket wedge emission CARRYING the apex, one pair-key
    closure exchange where matched wedges convert to per-triangle
    support contributions for all THREE edges (pre-combined per
    bucket), and one support exchange joining contributions to the
    edge set for the ≥ k−2 filter. The SQL oracle replays the same
    recurrence with value-canonical triangle enumeration (x<y<z) —
    orientation-independent, so the per-edge supports are identical.

    Returns an ``rd.Dataset``. String resolution is two-path:
    surviving sets at or under ``driver_max_edges`` use the
    RESULT-sized need-set broadcast (one driver pull of result rows);
    larger survivors NEVER touch the driver — two partitioned hash
    joins against the streaming (h, node) map view resolve both
    endpoints in bucket exchanges (the ``kcore_nodes`` tail shape)."""
    import pyarrow as pa

    from .joins import hash_join
    assert nodes_pre is not None, \
        "ktruss_edges needs the pre-built (h, node) map view"

    B = np.int64(n_buckets)
    n_blocks = max(8, n_buckets // 4)
    # <1 would skip the peel entirely and crash on the missing
    # support column downstream — same guard as kcore_nodes
    n_rounds = max(1, n_rounds)
    out_schema = pa.schema([("node_a", pa.string()),
                            ("node_b", pa.string()),
                            ("support", pa.int64())])
    out_empty = rd.from_arrow(out_schema.empty_table())
    und, n_edges = _distinct_und_edges(edges, und_pre, B, n_buckets)
    if not n_edges:
        return out_empty

    _WCOLS = ["lo", "hi", "u", "c", "kind", "kb"]

    def _wedges_apex(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["src", "dst"], kind="stable")
        src = g["src"].to_numpy(dtype="int64")
        dst = g["dst"].to_numpy(dtype="int64")
        empty = pd.DataFrame({c: pd.Series(dtype="int64")
                              for c in _WCOLS})
        if not len(src):
            return empty
        change = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate([[0], change])
        cnt = np.diff(np.concatenate([starts, [len(src)]]))
        los, his, us = [], [], []
        for c in np.unique(cnt):
            if c < 2:
                continue
            runs = starts[cnt == c]
            ti, tj = np.triu_indices(int(c), k=1)
            los.append(dst[(runs[:, None] + ti[None, :]).ravel()])
            his.append(dst[(runs[:, None] + tj[None, :]).ravel()])
            us.append(np.repeat(src[runs], len(ti)))
        if not los:
            return empty
        lo = np.concatenate(los)
        hi = np.concatenate(his)
        return pd.DataFrame({"lo": lo, "hi": hi,
                             "u": np.concatenate(us),
                             "c": np.int64(0),
                             "kind": np.int64(1),
                             "kb": (lo ^ hi) % B})[_WCOLS]

    def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(dtype="int64")
        hi = df["hi"].to_numpy(dtype="int64")
        return pd.DataFrame({"lo": lo, "hi": hi,
                             "u": np.int64(-1), "c": np.int64(0),
                             "kind": np.int64(0),
                             "kb": (lo ^ hi) % B})[_WCOLS]

    def _close_contrib(group: pd.DataFrame) -> pd.DataFrame:
        # matched wedges = triangles (each exactly once, degree
        # orientation); convert to support contributions for all
        # three edges, pre-combined per pair within this bucket
        e = group.loc[group["kind"] == 0, ["lo", "hi"]]
        w = group.loc[group["kind"] == 1, ["lo", "hi", "u"]]
        empty = pd.DataFrame({c: pd.Series(dtype="int64")
                              for c in ("lo", "hi", "c", "kind",
                                        "sb")})
        if not len(e) or not len(w):
            return empty
        m = w.merge(e, on=["lo", "hi"])
        if not len(m):
            return empty
        a = m["lo"].to_numpy(dtype="int64")
        b = m["hi"].to_numpy(dtype="int64")
        u = m["u"].to_numpy(dtype="int64")
        lo = np.concatenate([a, np.minimum(u, a), np.minimum(u, b)])
        hi = np.concatenate([b, np.maximum(u, a), np.maximum(u, b)])
        out = (pd.DataFrame({"lo": lo, "hi": hi})
               .groupby(["lo", "hi"], as_index=False)
               .agg(c=("lo", "size")))
        out["kind"] = np.int64(1)
        out["sb"] = (out["lo"].to_numpy(dtype="int64")
                     ^ out["hi"].to_numpy(dtype="int64")) % B
        return out

    def _esup_rows(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(dtype="int64")
        hi = df["hi"].to_numpy(dtype="int64")
        return pd.DataFrame({"lo": lo, "hi": hi, "c": np.int64(0),
                             "kind": np.int64(0),
                             "sb": (lo ^ hi) % B})

    thr = k - 2

    def _filter_support(group: pd.DataFrame) -> pd.DataFrame:
        e = group.loc[group["kind"] == 0, ["lo", "hi"]]
        if not len(e):
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("lo", "hi", "support")})
        s = (group.loc[group["kind"] == 1, ["lo", "hi", "c"]]
             .groupby(["lo", "hi"], as_index=False)["c"].sum())
        out = e.merge(s, on=["lo", "hi"], how="left")
        out["c"] = out["c"].fillna(0).astype("int64")
        out = out[out["c"] >= thr]
        return out.rename(columns={"c": "support"})

    cur = und
    n_prev = n_edges
    for _ in range(n_rounds):
        oriented, _ = _orient_edges(cur, B, n_buckets,
                                    broadcast_max_nodes)
        wedges = (oriented.groupby("sb")
                  .map_groups(_wedges_apex, batch_format="pandas"))
        emarks = cur.map_batches(_edge_rows, batch_format="pandas")
        contrib = (wedges.union(emarks).groupby("kb")
                   .map_groups(_close_contrib, batch_format="pandas"))
        esup = cur.map_batches(_esup_rows, batch_format="pandas")
        cur = (contrib.union(esup).groupby("sb")
               .map_groups(_filter_support, batch_format="pandas")
               .repartition(n_blocks)).materialize()
        n_cur = cur.count()
        if not n_cur:
            return out_empty
        if n_cur == n_prev:
            # fixpoint: peeling is monotone, so an unchanged edge
            # count means the surviving SET is unchanged, every later
            # round recomputes identical supports, and this round's
            # supports already equal round n's — skip the idempotent
            # rounds (the oracle unrolls all n and agrees)
            break
        n_prev = n_cur

    n_surv = cur.count()
    if not n_surv:
        return out_empty
    if n_surv <= driver_max_edges:
        # result-sized driver path: pull the surviving (lo, hi,
        # support) rows once and resolve via the need-set broadcast
        surv = cur.to_pandas()
        if not len(surv) or "lo" not in surv.columns:
            return out_empty
        hh, names = resolve_names(nodes_pre, np.concatenate(
            [surv["lo"].to_numpy(dtype="int64"),
             surv["hi"].to_numpy(dtype="int64")]))

        def _lk(a: np.ndarray) -> np.ndarray:
            return names[np.searchsorted(hh, a)]

        out = pd.DataFrame({
            "node_a": _lk(surv["lo"].to_numpy(dtype="int64")),
            "node_b": _lk(surv["hi"].to_numpy(dtype="int64")),
            "support": surv["support"].astype("int64")})
        return rd.from_pandas(
            out.sort_values(["node_a", "node_b"], ignore_index=True))

    # large path: surviving edges never materialize on the driver —
    # resolve each endpoint with a partitioned hash join against the
    # streaming (h, node) map view (h-unique, min(node) tie-break
    # applied at view build, so each join is 1:1 and row counts are
    # preserved)
    i64 = pa.int64()
    surv_schema = pa.schema([("lo", i64), ("hi", i64),
                             ("support", i64)])
    j1 = hash_join(
        cur, nodes_pre.map_batches(
            lambda df: df.rename(columns={"h": "lo",
                                          "node": "node_a"}),
            batch_format="pandas"),
        on="lo", n_buckets=n_buckets,
        left_schema=surv_schema,
        right_schema=pa.schema([("lo", i64),
                                ("node_a", pa.string())]))
    j2 = hash_join(
        j1, nodes_pre.map_batches(
            lambda df: df.rename(columns={"h": "hi",
                                          "node": "node_b"}),
            batch_format="pandas"),
        on="hi", n_buckets=n_buckets,
        left_schema=pa.schema([("lo", i64), ("hi", i64),
                               ("support", i64),
                               ("node_a", pa.string())]),
        right_schema=pa.schema([("hi", i64),
                                ("node_b", pa.string())]))

    def _project(df: pd.DataFrame) -> pd.DataFrame:
        if "node_a" not in df.columns:  # schema-less empty block
            return pd.DataFrame({
                "node_a": pd.Series([], dtype=object),
                "node_b": pd.Series([], dtype=object),
                "support": pd.Series([], dtype="int64")})
        return pd.DataFrame({
            "node_a": df["node_a"].astype(str),
            "node_b": df["node_b"].astype(str),
            "support": df["support"].astype("int64")})

    return j2.map_batches(_project, batch_format="pandas")


def copredicate_pairs(triples: rd.Dataset, min_shared: int = 2,
                      max_df: int = 64,
                      n_buckets: int = 64) -> pd.DataFrame:
    """Entity-resolution BLOCKING over the triple table: pairs of
    subjects sharing at least ``min_shared`` (predicate, object)
    values, with blocking keys held by more than ``max_df`` subjects
    dropped as stop-keys (the standard ER guard — a key shared by
    everyone carries no resolution signal AND would emit O(n²) pairs).
    Returns (subj_a, subj_b, n_shared), pair-sorted. The corpus-wide
    candidate generator for the identity links the reference mints
    point-wise from its mapping CSVs (``owl:sameAs`` at
    cwrc/RDF-extraction Biography/biography.py:215-222).

    Scale shape — strings cross ZERO wide exchanges:

    - one scan emits per-batch-distinct (subj-hash, key-hash) rows
      AND per-batch-distinct (subj-hash, subj-string) map rows into
      the same materialized base (both hashes are internal
      co-location state, NOT SQL-replayed — the oracle groups by the
      exact strings — so they use the vectorized C siphash
      ``pd.util.hash_pandas_object``, fixed-key, deterministic; a
      64-bit collision, ~1e-9 at 10^5 keys, would merge two blocking
      keys or two subjects);
    - the key-bucket exchange co-locates each key's subject-hash
      list, so the df-filter and the vectorized triu pair emission
      run inside the group body with per-key pair volume capped at
      ``max_df``²/2 — int64 pairs out, never strings;
    - the pair-bucket exchange counts shared keys globally
      (group-local = global) and drops pairs under ``min_shared``;
    - string resolution is RESULT-SIZED: the surviving pair hashes
      (the operator's output, pruned by ``min_shared``) broadcast as
      a needed-set, map rows filter against it per batch, and only
      matching (hash, subject) rows — O(output) — reach the driver
      merge. Output ordering (subj_a < subj_b) is restored by string
      comparison at the end, matching the SQL oracle.
    """
    import ray

    B = np.int64(n_buckets)

    def _scan(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df["subj"].astype(str),
                                       index=False).astype("int64")
        key = pd.util.hash_pandas_object(
            df["pred"].astype(str) + "|" + df["obj"].astype(str),
            index=False).astype("int64")
        out = pd.DataFrame({"h": h, "key": key}) \
            .drop_duplicates(["h", "key"])
        out["kb"] = out["key"] % B
        return out

    def _emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64"),
                              "pb": pd.Series(dtype="int64")})
        g = group.drop_duplicates(["h", "key"]) \
            .sort_values(["key", "h"], kind="stable")
        key = g["key"].to_numpy(dtype="int64")
        h = g["h"].to_numpy(dtype="int64")
        if not len(key):
            return empty
        change = np.flatnonzero(np.diff(key)) + 1
        starts = np.concatenate([[0], change])
        cnt = np.diff(np.concatenate([starts, [len(key)]]))
        aa, bb = [], []
        for c in np.unique(cnt):
            if c < 2 or c > max_df:
                continue
            runs = starts[cnt == c]
            ti, tj = np.triu_indices(int(c), k=1)
            aa.append(h[(runs[:, None] + ti[None, :]).ravel()])
            bb.append(h[(runs[:, None] + tj[None, :]).ravel()])
        if not aa:
            return empty
        # h sorted within each run → a < b, one canonical direction
        out = pd.DataFrame({"a": np.concatenate(aa),
                            "b": np.concatenate(bb)})
        out["pb"] = (out["a"] ^ out["b"]) % B
        return out

    def _count_pairs(group: pd.DataFrame) -> pd.DataFrame:
        c = (group.groupby(["a", "b"], as_index=False)
             .size().rename(columns={"size": "n_shared"}))
        return c[c["n_shared"] >= min_shared]

    empty = pd.DataFrame({"subj_a": pd.Series(dtype=object),
                          "subj_b": pd.Series(dtype=object),
                          "n_shared": pd.Series(dtype="int64")})
    pairs = (triples.map_batches(_scan, batch_format="pandas")
             .groupby("kb").map_groups(_emit_pairs,
                                       batch_format="pandas")
             .groupby("pb").map_groups(_count_pairs,
                                       batch_format="pandas")
             .to_pandas())
    if pairs.empty:
        return empty
    need_ref = ray.put(frozenset(
        np.union1d(pairs["a"].to_numpy(dtype="int64"),
                   pairs["b"].to_numpy(dtype="int64")).tolist()))

    def _needed_names(df: pd.DataFrame) -> pd.DataFrame:
        from .dedup_docs import _cached_get
        need = _cached_get(need_ref)
        subj = df["subj"].astype(str)
        h = pd.util.hash_pandas_object(subj, index=False) \
            .astype("int64")
        keep = h.isin(need).to_numpy()
        return pd.DataFrame({"h": h[keep],
                             "node": subj[keep]}).drop_duplicates("h")

    names = triples.map_batches(_needed_names, batch_format="pandas") \
        .to_pandas().drop_duplicates("h")
    res = (pairs.merge(names.rename(columns={"h": "a",
                                             "node": "subj_a"}),
                       on="a")
           .merge(names.rename(columns={"h": "b", "node": "subj_b"}),
                  on="b"))
    # canonical hash order != string order; restore the oracle's
    # subj_a < subj_b string ordering
    swap = res["subj_a"] > res["subj_b"]
    res.loc[swap, ["subj_a", "subj_b"]] = \
        res.loc[swap, ["subj_b", "subj_a"]].to_numpy()
    res = res[["subj_a", "subj_b", "n_shared"]] \
        .astype({"n_shared": "int64"})
    return res.sort_values(["subj_a", "subj_b"], ignore_index=True)


def _is_var(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def _pattern_vars(pats) -> list[str]:
    """First-appearance variable list over (s, p, o[, g]) patterns in
    slot order — including VARIABLE predicates (a plain ``"?p"``
    string in the predicate slot) and the optional graph slot; a
    predicate that is an alternation tuple / inverse path binds
    nothing."""
    out: list[str] = []
    for pat in pats or []:
        pat = tuple(pat)
        terms = [pat[0]]
        if isinstance(pat[1], str):
            terms.append(pat[1])
        terms.append(pat[2])
        if len(pat) > 3 and pat[3] is not None:
            terms.append(pat[3])
        for t in terms:
            if _is_var(t) and t[1:] not in out:
                out.append(t[1:])
    return out


#: SPARQL FILTER operators — each maps (lhs Series, rhs Series-or-str)
#: to a boolean mask. Comparisons where either side is unbound (NULL)
#: are SPARQL type errors and drop the row (masks below are combined
#: with explicit notna() guards, because pandas ``ne`` would otherwise
#: pass NULL != x).
_FILTER_OPS = {
    "==": lambda a, b: a.eq(b),
    "!=": lambda a, b: a.ne(b),
    "<": lambda a, b: a.lt(b),
    "<=": lambda a, b: a.le(b),
    ">": lambda a, b: a.gt(b),
    ">=": lambda a, b: a.ge(b),
    "contains": lambda a, b: a.str.contains(b, regex=False, na=False),
    "strstarts": lambda a, b: a.str.startswith(b, na=False),
}

#: SPARQL BIND expression operators (each expr is a tuple AST whose
#: head names the op; arguments are "?var" references or constant
#: strings). All results are string terms — STRLEN renders its
#: integer as a decimal string, so downstream aggregates (sum/avg)
#: parse it back numerically, like a SQL replay via CAST.
_BIND_OPS = ("strlen", "lcase", "ucase", "concat", "substr",
             "strbefore", "strafter")


def _bind_expr_vars(expr) -> list[str]:
    """Variables referenced by a BIND expression tuple."""
    op = expr[0]
    if op in ("strlen", "lcase", "ucase", "substr",
              "strbefore", "strafter"):
        return [expr[1][1:]] if _is_var(expr[1]) else []
    if op == "concat":
        return [t[1:] for t in expr[1:] if _is_var(t)]
    raise ValueError(f"unknown BIND op {expr[0]!r}")


def _eval_bind(df: pd.DataFrame, expr) -> pd.Series:
    """Vectorized BIND expression evaluation over a binding batch.

    SPARQL error semantics: an expression over an UNBOUND argument is
    an evaluation error, which BIND maps to leaving the target
    variable unbound — so NULL inputs propagate to a NULL result
    (exactly SQL's NULL propagation, which the oracle replays).
    STRBEFORE/STRAFTER return '' when the needle does not occur, per
    the SPARQL spec."""
    op = expr[0]
    if op == "strlen":
        s = df[expr[1][1:]]
        n = s.str.len()
        return pd.Series(
            np.where(s.notna(),
                     n.fillna(0).astype(np.int64).astype(str), None),
            index=df.index, dtype=object)
    if op in ("lcase", "ucase"):
        s = df[expr[1][1:]]
        return s.str.lower() if op == "lcase" else s.str.upper()
    if op == "substr":
        # SPARQL SUBSTR is 1-based; length optional (to end)
        s = df[expr[1][1:]]
        start = int(expr[2]) - 1
        stop = None if len(expr) < 4 else start + int(expr[3])
        return s.str.slice(start, stop)
    if op in ("strbefore", "strafter"):
        s, needle = df[expr[1][1:]], expr[2]
        if _is_var(needle):
            raise ValueError(f"{op} needs a constant needle")
        parts = s.str.partition(needle)
        found = parts[1].eq(needle)
        out = pd.Series(
            np.where(found, parts[0 if op == "strbefore" else 2], ""),
            index=df.index, dtype=object)
        return out.where(s.notna(), None)
    if op == "concat":
        res = pd.Series("", index=df.index, dtype=object)
        mask = pd.Series(True, index=df.index)
        for t in expr[1:]:
            if _is_var(t):
                col = df[t[1:]]
                mask &= col.notna()
                res = res + col.fillna("")
            else:
                res = res + t
        return res.where(mask, None)
    raise ValueError(f"unknown BIND op {op!r}")


#: the right-side row count at or under which a SPARQL solution join
#: broadcasts instead of exchanging (1M rows ≈ 120 MB of URI strings,
#: one object-store copy per node)
_BROADCAST_ROWS = 1_000_000


def _str_schema(names) -> pa.Schema:
    return pa.schema([(v, pa.string()) for v in names])


def _solution_join(left: rd.Dataset, right: rd.Dataset, on: list[str],
                   how: str, right_rows: int, broadcast_rows: int,
                   n_buckets: int, left_schema: pa.Schema,
                   right_schema: pa.Schema) -> rd.Dataset:
    """Every SPARQL solution join (a BGP step, OPTIONAL, a subquery,
    MINUS, FILTER EXISTS): the one kernel of
    :mod:`~rdf_extraction_ray.stages.joins`, which never matches a
    NULL key. ``right_rows`` (the caller's known right row count) at
    or under ``broadcast_rows`` collects the right side once and
    broadcasts it into every left batch; above it the two sides meet
    in the partitioned hash-join exchange."""
    import ray
    from ray.data.block import BlockAccessor

    from .joins import _broadcast, hash_join

    if right_rows > broadcast_rows:
        return hash_join(left, right, on=on, how=how, n_buckets=n_buckets,
                         left_schema=left_schema,
                         right_schema=right_schema)
    # blocks may be pandas, and zero-row ones may have lost the
    # schema; the rest are cast to it
    tabs = [BlockAccessor.for_block(ray.get(ref)).to_arrow()
            for bundle in right.iter_internal_ref_bundles()
            for ref, _ in bundle.blocks]
    tabs = [t.select(right_schema.names).cast(right_schema)
            for t in tabs if t.num_rows]
    small = pa.concat_tables(tabs) if tabs else right_schema.empty_table()
    return _broadcast(left, small, on, how, left_schema=left_schema)


def bgp_match(triples: rd.Dataset,
              patterns: list[tuple[str, str, str]],
              select: list[str] | None = None,
              distinct: bool = False,
              optional: list[tuple[str, str, str]] | None = None,
              filters: list[tuple[str, str, str]] | None = None,
              values: tuple[list[str], list] | None = None,
              order_by: list[tuple[str, str]] | None = None,
              limit: int | None = None,
              binds: list[tuple[tuple, str]] | None = None,
              n_buckets: int = 64,
              broadcast_rows: int = _BROADCAST_ROWS) -> rd.Dataset:
    """General SPARQL basic-graph-pattern match over the triple set.

    Each pattern is ``(s, p, o)`` — or ``(s, p, o, g)`` for a
    quad/named-graph pattern — where ``s``/``o`` are either a
    ``"?var"`` or a constant term and ``p`` is a ``"?var"`` (VARIABLE
    PREDICATE: the pattern matches every triple and binds the
    predicate term into the solution — the unfiltered scan shape of
    the schema-census queries; reference analogue: arbitrary endpoint
    SPARQL, cwrc/RDF-extraction Utils/utilities.py:446-490) or a
    constant predicate path: a URI, a ``"^uri"`` INVERSE path (the
    s-slot binds the triple's object), or a tuple of either — SPARQL
    ALTERNATION ``p1|p2``, whose solutions are the bag-union over
    alternatives (SQL: UNION ALL). The optional 4th slot ``g`` is a
    SPARQL ``GRAPH`` term — a ``"?var"`` (binds the row's ``graph``
    column; rows with a NULL graph never match, per quad-store
    semantics) or a constant graph IRI (equality filter); it
    requires a ``graph`` column on the input (the engine's quad
    layout, stages/serialize.py N-Quads sink; reference analogue:
    named-graph quads, cwrc/RDF-extraction
    Huviz/huvizQuads.py:15,129-140). Returns the bindings of
    ``select`` (default: every variable, in
    first-appearance order) as a lazy Dataset of string columns;
    ``distinct=True`` applies the SPARQL DISTINCT solution modifier.
    ``optional`` patterns are SPARQL OPTIONAL clauses: each is
    LEFT-joined after the required plan (in list order, so an
    optional may chain on variables a previous optional introduced) —
    bindings extend where the pattern matches and survive with typed
    NULL columns where it does not. Every optional pattern must bind
    at least one variable and share one with the bindings built so
    far.

    ``values`` is the SPARQL VALUES clause ``([?v1, ...], [row,
    ...])``: inline data joined into the solutions (a solution
    survives iff some inline row agrees on every VALUES variable;
    duplicate inline rows are deduped — semi-join multiplicity).
    UNDEF is not supported, and the VALUES variables must be
    REQUIRED-bound (never only optional-introduced), so the join is
    the plain SQL ``(v1, ...) IN (VALUES ...)`` equality filter. Like
    filters, the clause pushes down to the earliest plan point where
    all its variables are bound, shrinking later exchanges.

    ``binds`` are SPARQL BIND clauses ``(expr, "?out")`` evaluated in
    list order over the COMPLETED solution sequence (after every join
    and OPTIONAL — each may reference pattern variables and earlier
    bind outputs). ``expr`` is a tuple AST over :data:`_BIND_OPS`:
    ``("strlen", "?v")`` (decimal string), ``("lcase"|"ucase",
    "?v")``, ``("substr", "?v", start[, len])`` (1-based, per
    SPARQL), ``("strbefore"|"strafter", "?v", const)`` ('' when the
    needle is absent, per spec) and ``("concat", part, ...)`` with
    var or constant parts. An unbound argument leaves the output
    unbound (SPARQL error → unbound = SQL NULL propagation).
    Evaluation is one vectorized pandas-string pass per batch — no
    exchange; a FILTER that references a bind output applies right
    after the binds instead of pushing into the plan.

    ``order_by`` (list of ``(var, "asc" | "desc")``, vars must be
    selected) + ``limit`` apply the SPARQL solution modifiers. With
    both, the result is a distributed TOP-K: each batch keeps its
    own k (combiner), the ≤ k × blocks survivors coalesce to one
    block for the final cut — the full binding set never converges
    anywhere. Ties break deterministically by the remaining selected
    variables ascending, and unbound (NULL) keys sort LAST under
    either direction (state ``NULLS LAST`` in a SQL replay).
    ``order_by`` alone is a full distributed sort; ``limit`` alone
    truncates the streaming plan (arbitrary-but-fast first-k, per
    SPARQL's unordered-LIMIT semantics).

    ``filters`` are SPARQL FILTER constraints ``(lhs, op, rhs)`` with
    ``lhs``/``rhs`` a ``"?var"`` or a constant string and ``op`` one
    of ``== != < <= > >= contains strstarts`` (string ops take a
    constant rhs). Comparisons are lexicographic over the string
    terms (ISO timestamps order correctly); a comparison touching an
    UNBOUND (NULL, from OPTIONAL) variable is a SPARQL type error and
    drops the row. Each filter is pushed down to the earliest plan
    point where all its variables are bound — filtering the
    accumulated bindings before later joins shrinks every subsequent
    exchange.

    Patterns may chain through ARBITRARY join variables, so the plan
    is a left-deep sequence of solution joins
    (:func:`_solution_join`), each on ALL variables shared between
    the accumulated bindings and the next pattern (natural-join
    semantics); a star on one subject is the same plan. A join step
    whose pattern relation is larger than ``broadcast_rows`` is a
    partitioned hash join, one |acc| + |rel| exchange. A pattern
    relation whose row count (known exactly from the materialized
    scan, before any join executes) is ≤ ``broadcast_rows`` skips
    its exchange entirely: the relation is collected once, put in
    the object store, and merged map-side into every binding batch
    (inner and left joins alike). Predicate-filtered relations
    of even a trillion-triple corpus are usually far below the cap
    (the default 1M rows ≈ 120 MB of URI strings, one object-store
    copy per node); the BINDING stream itself never collects, so a
    plan whose every pattern fits the cap runs with ZERO all-to-all
    exchanges. Relations above the cap keep the partitioned
    hash-join path. The join order is greedy-connected in user order
    (each step must share a variable with the bindings so far — a
    cartesian pattern set is rejected). Pattern relations are
    filtered projections of ONE shared scan, materialized once at
    output-input size (only rows matching some pattern's constants
    ever leave the scan). Dead variables — bound, not selected, and
    not needed by any later join — are projected away after every
    step, so intermediate width never exceeds live-variable width.
    DISTINCT dedups per-batch (combiner) before its single
    row-hash-bucket exchange. Constants-only patterns act as
    existence gates (SPARQL ASK semantics): zero matches anywhere
    empties the result.

    The output leads with a typed zero-row block, so that zero
    bindings still carry the schema.

    It is the pattern leaf (:func:`_bgp_leaf`) under the solution
    modifiers (:func:`_modifiers`), the two steps every SPARQL query
    form evaluates (:mod:`~rdf_extraction_ray.stages.sparql`).

    The reference answers such queries by loading the whole corpus
    into one in-RAM rdflib graph and walking it pattern by pattern
    (the uber-graph at cwrc/RDF-extraction Utils/utilities.py:552-556
    is the queried artifact); here the graph never exists in one
    place — bindings stream through partitioned exchanges.
    """
    if select is None:
        select = _leaf_vars(patterns, optional, binds)
    acc = _bgp_leaf(triples, patterns, select, optional=optional,
                    filters=filters, values=values, binds=binds,
                    n_buckets=n_buckets, broadcast_rows=broadcast_rows)
    return _modifiers(acc, _str_schema(select), distinct=distinct,
                      order_by=order_by, limit=limit, n_buckets=n_buckets)


def _leaf_vars(patterns, optional=None, binds=None) -> list[str]:
    """Every variable a pattern leaf binds, in first-appearance order:
    the pattern variables, then the BIND outputs."""
    return _pattern_vars(list(patterns) + list(optional or [])) + [
        out[1:] if _is_var(out) else out for _, out in binds or []]


def _filter_mask(df: pd.DataFrame, filters) -> np.ndarray:
    """The rows of ``df`` that pass every FILTER ``(lhs, op, rhs)``; a
    comparison touching an unbound (NULL) side drops the row. A
    constant compared with a numeric column (an aggregate) is read as
    a number."""
    def _side(t, other):
        if _is_var(t):
            return df[t[1:]]
        if _is_var(other) and pd.api.types.is_numeric_dtype(df[other[1:]]):
            return float(t)
        return t

    m = pd.Series(True, index=df.index)
    for lhs, op, rhs in filters:
        a, b = _side(lhs, rhs), _side(rhs, lhs)
        if not _is_var(lhs):
            a = pd.Series(a, index=df.index)
        mask = _FILTER_OPS[op](a, b) & a.notna()
        if _is_var(rhs):
            mask &= b.notna()
        m &= mask.astype(bool)
    return m.to_numpy()


def _bgp_leaf(triples: rd.Dataset, patterns, select: list[str],
              optional=None, filters=None, values=None, binds=None,
              n_buckets: int = 64,
              broadcast_rows: int = _BROADCAST_ROWS) -> rd.Dataset:
    """The solutions of one group's patterns, OPTIONAL, FILTER, VALUES
    and BIND (see :func:`bgp_match`), projected to ``select``, with no
    solution modifier and no typed seed: callers map them further, and
    Ray maps a zero-row block to a schema-less one."""
    n_req = len(patterns)

    def _norm(p) -> tuple:
        t = tuple(p)
        if len(t) == 3:
            return t + (None,)
        if len(t) == 4:
            return t
        raise ValueError(
            f"patterns are (s, p, o) or (s, p, o, graph); got {p!r}")

    parsed = [_norm(p) for p in patterns] \
        + [_norm(p) for p in (optional or [])]

    def _alts(p) -> list[tuple[str | None, bool]]:
        """Predicate term → [(base_uri, inverse)] alternatives: a
        plain URI, a ``"^uri"`` inverse path, or a tuple/list of
        either (SPARQL alternation ``p1|p2``; solutions are the
        bag-union over alternatives, replayed in SQL as UNION ALL).
        A VARIABLE predicate is the single unfiltered alternative
        ``(None, False)`` — every triple matches and the scan binds
        the predicate term."""
        if isinstance(p, str) and _is_var(p):
            return [(None, False)]
        alts = list(p) if isinstance(p, (tuple, list)) else [p]
        if not alts:
            raise ValueError("empty predicate alternation")
        out = []
        for a in alts:
            if not isinstance(a, str) or _is_var(a) or a in ("", "^"):
                raise ValueError(
                    "predicates must be constant URIs (optionally "
                    "'^'-inverted, a tuple of alternatives) or a "
                    "single '?var'; a variable inside an "
                    "alternation/inverse path is not supported")
            out.append((a[1:], True) if a.startswith("^")
                       else (a, False))
        return out

    alt_of = [_alts(p) for (_, p, _, _) in parsed]
    need_pred = any(base is None for alts in alt_of
                    for base, _ in alts)
    need_graph = any(gt is not None for (_, _, _, gt) in parsed)
    all_vars = _pattern_vars(parsed)

    def _pvars(i: int) -> list[str]:
        """Pattern i's variables in slot order (s, p, o, graph)."""
        return _pattern_vars([parsed[i]])
    if not all_vars:
        raise ValueError("at least one pattern must bind a variable")
    bind_list: list[tuple[tuple, str]] = []
    bind_outs: list[str] = []
    for expr, out in (binds or []):
        name = out[1:] if _is_var(out) else out
        if expr[0] not in _BIND_OPS:
            raise ValueError(f"unknown BIND op {expr[0]!r}")
        if name in all_vars or name in bind_outs:
            raise ValueError(f"BIND target ?{name} already bound")
        for v in _bind_expr_vars(expr):
            if v not in all_vars and v not in bind_outs:
                raise ValueError(f"BIND references unbound ?{v}")
        bind_list.append((tuple(expr), name))
        bind_outs.append(name)
    # pattern vars a bind expression consumes stay live until the
    # binds evaluate (the prune below would otherwise project them
    # away as dead once their joins are done)
    bind_needed = {v for e, _ in bind_list
                   for v in _bind_expr_vars(e) if v in all_vars}
    bindable = all_vars + bind_outs
    bad = [v for v in select if v not in bindable]
    if bad:
        raise ValueError(f"selected vars bound by no pattern: {bad}")

    def _fvars(f) -> list[str]:
        return [t[1:] for t in (f[0], f[2]) if _is_var(t)]

    pending = [tuple(f) for f in (filters or [])]
    for lhs, op, rhs in pending:
        if op not in _FILTER_OPS:
            raise ValueError(f"unknown filter op {op!r}")
        if not (_is_var(lhs) or _is_var(rhs)):
            raise ValueError("filter must reference a variable")
        if op in ("contains", "strstarts") and _is_var(rhs):
            raise ValueError(f"{op} needs a constant rhs")
        for t in (lhs, rhs):
            if _is_var(t) and t[1:] not in bindable:
                raise ValueError(
                    f"filter var ?{t[1:]} bound by no pattern")
    # a filter touching a BIND output cannot push into the plan — it
    # waits for the binds and applies right after them
    post_filters = [f for f in pending
                    if set(_fvars(f)) & set(bind_outs)]
    for f in post_filters:
        pending.remove(f)

    req_bound: list[str] = []
    for i in range(n_req):
        for v in _pvars(i):
            if v not in req_bound:
                req_bound.append(v)
    pending_vals: list[tuple[list[str], pd.DataFrame]] = []
    if values is not None:
        vvars_raw, vrows = values
        vvars = [t[1:] if _is_var(t) else t for t in vvars_raw]
        bad_v = [v for v in vvars if v not in req_bound]
        if bad_v:
            raise ValueError(
                f"VALUES vars must be required-bound: {bad_v}")
        vrows = [(r,) if isinstance(r, str) or r is None
                 else tuple(r) for r in vrows]
        vtab = pd.DataFrame(vrows, columns=vvars).drop_duplicates()
        if vtab.isna().any().any():
            raise ValueError("UNDEF (None) in VALUES is not supported")
        pending_vals.append((vvars, vtab.astype(str)))

    def _apply_filters(acc: rd.Dataset, acc_vars: list[str]) -> rd.Dataset:
        """Push down every pending filter / VALUES clause whose vars
        are all bound. VALUES is an inner solution join against its
        (deduplicated) inline rows."""
        from .joins import merge_sides

        ready = [f for f in pending if set(_fvars(f)) <= set(acc_vars)]
        for f in ready:
            pending.remove(f)
        ready_v = [x for x in pending_vals
                   if set(x[0]) <= set(acc_vars)]
        for x in ready_v:
            pending_vals.remove(x)
        schema = _str_schema(acc_vars)
        if ready:
            acc = acc.map_batches(
                lambda t: t.select(acc_vars).cast(schema).filter(
                    pa.array(_filter_mask(t.to_pandas(), ready))),
                batch_format="pyarrow")
        for vvars, vtab in ready_v:
            acc = acc.map_batches(
                lambda df, vvars=vvars, vtab=vtab: merge_sides(
                    df, vtab, vvars, "inner", schema),
                batch_format="pandas")
        return acc

    # ONE shared scan: a row matching pattern i's constants emits one
    # (pi=i, subj, obj[, pred][, graph]) row; everything else never
    # leaves the scan. The pred / graph columns exist ONLY when some
    # pattern binds them, and carry real values only for the rows of
    # the patterns that do — constant-predicate patterns' rows ship
    # '' so the selective patterns never pay the census pattern's
    # extra string column in earnest.
    def _scan(df: pd.DataFrame) -> pd.DataFrame:
        pred = df["pred"].to_numpy()
        subj = df["subj"].to_numpy()
        obj = df["obj"].to_numpy()
        if need_graph:
            if "graph" not in df.columns:
                raise ValueError(
                    "GRAPH patterns require a 'graph' column on the "
                    "input (quad layout)")
            grph = df["graph"].to_numpy()
        outs = []
        for i, (s, _, o, gt) in enumerate(parsed):
            for base, inv in alt_of[i]:
                # an inverse alternative binds the pattern's s-slot
                # from the triple's OBJECT (x ^p y  ≡  y p x)
                t_s, t_o = (obj, subj) if inv else (subj, obj)
                if base is None:  # variable predicate: every triple
                    m = np.ones(len(df), dtype=bool)
                else:
                    m = pred == base
                if not _is_var(s):
                    m &= t_s == s
                if not _is_var(o):
                    m &= t_o == o
                if gt is not None:
                    if _is_var(gt):
                        # a NULL graph is the default graph: GRAPH ?g
                        # matches NAMED graphs only (quad semantics)
                        m &= pd.notna(grph)
                    else:
                        m &= grph == gt
                if m.any():
                    cnt = int(m.sum())
                    cols = {
                        "pi": np.full(cnt, i, dtype=np.int64),
                        "subj": t_s[m].astype(str),
                        "obj": t_o[m].astype(str)}
                    if need_pred:
                        cols["pred"] = (pred[m].astype(str)
                                        if base is None
                                        else np.full(cnt, "",
                                                     dtype=object))
                    if need_graph:
                        cols["graph"] = (
                            grph[m].astype(str)
                            if gt is not None and _is_var(gt)
                            else np.full(cnt, "", dtype=object))
                    outs.append(pd.DataFrame(cols))
        if not outs:
            empty = {"pi": pd.Series(dtype="int64"),
                     "subj": pd.Series(dtype=object),
                     "obj": pd.Series(dtype=object)}
            if need_pred:
                empty["pred"] = pd.Series(dtype=object)
            if need_graph:
                empty["graph"] = pd.Series(dtype=object)
            return pd.DataFrame(empty)
        return pd.concat(outs, ignore_index=True)

    tagged = triples.map_batches(_scan,
                                 batch_format="pandas").materialize()

    # exact per-pattern row counts off the (materialized, already
    # pattern-pruned) scan drive the broadcast-vs-exchange decision
    # per join step. The scan's total (block metadata, no job) bounds
    # every pattern's count, so at or under ``broadcast_rows`` every
    # relation broadcasts and the per-pattern count job is skipped
    if tagged.count() <= broadcast_rows:
        pat_count: dict[int, int] = {}
    else:
        _cnt_parts = tagged.map_batches(
            lambda df: df["pi"].value_counts().rename_axis("pi")
            .reset_index(name="n"),
            batch_format="pandas").to_pandas()
        pat_count = (_cnt_parts.groupby("pi")["n"].sum().to_dict()
                     if len(_cnt_parts) else {})

    def _rel(i: int) -> rd.Dataset:
        """Pattern i's binding relation: var-named string columns.
        Emits TYPED Arrow blocks — most tagged blocks hold only other
        patterns' rows, so empty outputs are the common case and must
        carry the schema (object-dtype pandas empties also trip the
        executor's per-column size sampler into log spam). A variable
        repeated across slots (``?x p ?x``, ``?s ?x ?x``) keeps only
        the rows where those slots agree (SPARQL same-variable
        equality)."""
        s, p, o, gt = parsed[i]
        slots: list[tuple[str, str]] = []  # (scan column, var name)
        if _is_var(s):
            slots.append(("subj", s[1:]))
        if isinstance(p, str) and _is_var(p):
            slots.append(("pred", p[1:]))
        if _is_var(o):
            slots.append(("obj", o[1:]))
        if gt is not None and _is_var(gt):
            slots.append(("graph", gt[1:]))
        by_var: dict[str, list[str]] = {}
        for col, v in slots:
            by_var.setdefault(v, []).append(col)

        def _proj(df: pd.DataFrame) -> pa.Table:
            part = df[df["pi"].to_numpy() == i]
            for cols in by_var.values():
                for extra in cols[1:]:
                    part = part[part[cols[0]].to_numpy()
                                == part[extra].to_numpy()]
            return pa.table({
                v: pa.array(part[cols[0]].to_numpy(),
                            type=pa.string())
                for v, cols in by_var.items()})

        return tagged.map_batches(_proj, batch_format="pandas")

    def _join_rel(acc: rd.Dataset, acc_vars: list[str], j: int,
                  shared: list[str], how: str) -> rd.Dataset:
        """One join step: acc ⋈ _rel(j) on ``shared``."""
        return _solution_join(acc, _rel(j), shared, how,
                              pat_count.get(j, 0), broadcast_rows,
                              n_buckets, _str_schema(acc_vars),
                              _str_schema(_pvars(j)))

    # constants-only REQUIRED patterns gate the result (SPARQL ASK)
    for i in [i for i in range(n_req) if not _pvars(i)]:
        n = tagged.map_batches(
            lambda df, i=i: pd.DataFrame(
                {"n": [int((df["pi"].to_numpy() == i).sum())]}),
            batch_format="pandas").sum("n")
        if not n:
            return rd.from_arrow(_str_schema(select).empty_table())

    opt_idx = list(range(n_req, len(parsed)))
    if any(not _pvars(j) for j in opt_idx):
        raise ValueError("optional patterns must bind a variable")

    # Each optional's FULL shared-variable set — its variables bound
    # by any REQUIRED pattern or any EARLIER optional (list-order
    # chaining): exactly the keys the end-of-plan left join would
    # use. Computing these upfront lets an optional LEFT-join at the
    # EARLIEST plan point where all its keys are bound: a left join
    # introducing only fresh variables commutes with later inner
    # joins (a row's witnesses depend only on its key columns, which
    # later joins preserve), and joining BEFORE a fan-out step keeps
    # the fanned stream out of the optional's exchange — e.g. a
    # per-event timestamp OPTIONAL joins the 164k event bindings, not
    # the 2.6M rows after the person→places fan-out.
    bound_so_far = set(req_bound)
    opt_shared: dict[int, list[str]] = {}
    for j in opt_idx:
        vs = _pvars(j)
        opt_shared[j] = [v for v in vs if v in bound_so_far]
        if not opt_shared[j]:
            raise ValueError(
                "optional pattern shares no variable with the "
                "bindings built before it")
        bound_so_far |= set(vs)
    opt_queue = list(opt_idx)

    # greedy-connected left-deep join plan, user order as tie-break
    remaining = [i for i in range(n_req) if _pvars(i)]
    if not remaining:
        raise ValueError(
            "at least one required pattern must bind a variable")
    first = remaining.pop(0)
    acc = _rel(first)
    acc_vars = _pvars(first)
    acc = _apply_filters(acc, acc_vars)

    def _pend_vars() -> set[str]:
        return {v for f in pending for v in _fvars(f)}

    def _opt_vars_left() -> set[str]:
        return {v for j in opt_queue for v in _pvars(j)}

    def _prune(acc, acc_vars, later_vars):
        live = set(select) | later_vars
        if any(v not in live for v in acc_vars):
            acc_vars = [v for v in acc_vars if v in live]
            acc = acc.select_columns(acc_vars)
        return acc, acc_vars

    def _flush_opts(acc, acc_vars):
        """LEFT-join every queued optional whose full key set is
        bound, in list order (an optional never jumps an earlier one
        — it may chain on variables that one introduces)."""
        while opt_queue and \
                set(opt_shared[opt_queue[0]]) <= set(acc_vars):
            j = opt_queue.pop(0)
            vs = _pvars(j)
            shared = [v for v in acc_vars if v in opt_shared[j]]
            acc = _join_rel(acc, acc_vars, j, shared, "left")
            acc_vars = acc_vars + [v for v in vs if v not in shared]
            acc = _apply_filters(acc, acc_vars)
            acc, acc_vars = _prune(
                acc, acc_vars,
                {v for i in remaining for v in _pvars(i)}
                | _opt_vars_left() | _pend_vars() | bind_needed)
        return acc, acc_vars

    acc, acc_vars = _flush_opts(acc, acc_vars)

    while remaining:
        nxt = next((j for j in remaining
                    if set(_pvars(j)) & set(acc_vars)), None)
        if nxt is None:
            raise ValueError(
                "patterns do not form a connected graph "
                "(cartesian products are not supported)")
        remaining.remove(nxt)
        shared = [v for v in acc_vars if v in _pvars(nxt)]
        acc = _join_rel(acc, acc_vars, nxt, shared, "inner")
        acc_vars = acc_vars + [v for v in _pvars(nxt)
                               if v not in shared]
        acc = _apply_filters(acc, acc_vars)
        acc, acc_vars = _prune(
            acc, acc_vars,
            {v for j in remaining for v in _pvars(j)}
            | _opt_vars_left() | _pend_vars() | bind_needed)
        acc, acc_vars = _flush_opts(acc, acc_vars)

    assert not opt_queue, \
        "every optional key set is bound by the full required plan"
    assert not pending, "every filter var is bound by the full plan"
    assert not pending_vals, \
        "every VALUES var is bound by the full plan"

    if bind_list:
        def _bind(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            for expr, name in bind_list:
                df[name] = _eval_bind(df, expr)
            if post_filters:
                df = df[_filter_mask(df, post_filters)].reset_index(
                    drop=True)
            return df

        acc = acc.map_batches(_bind, batch_format="pandas")
        acc_vars = list(acc_vars) + bind_outs

    if list(acc_vars) != list(select):
        acc = acc.select_columns(select)
    return acc


class _Solutions(rd.Dataset):
    """A query result whose ``to_pandas()`` keeps its columns when it
    holds no rows (Ray's iterates the rows' blocks only, so an empty
    result would convert to a frame without columns)."""

    def to_pandas(self, limit: int | None = None) -> pd.DataFrame:
        df = super().to_pandas(limit=limit)
        return df if len(df.columns) else self._empty.to_pandas()


def _seeded(ds: rd.Dataset, schema: pa.Schema) -> rd.Dataset:
    """``ds`` led by a typed zero-row block, so that zero solutions
    still carry the schema (a materialized Dataset, a driver-built
    result, already carries it), as a :class:`_Solutions`."""
    if not isinstance(ds, MaterializedDataset):
        ds = rd.from_arrow(schema.empty_table()).union(ds)
    out = rd.Dataset.copy(ds, _as=_Solutions)
    out._empty = schema.empty_table()
    return out


def _modifiers(acc: rd.Dataset, out_schema: pa.Schema,
               distinct: bool = False,
               order_by: list[tuple[str, str]] | None = None,
               limit: int | None = None, offset: int | None = None,
               n_buckets: int = 64) -> rd.Dataset:
    """The SPARQL solution modifiers over projected solutions whose
    columns are ``out_schema``: DISTINCT, ORDER BY (+ LIMIT: the
    combiner top-k of :func:`bgp_match`), LIMIT alone, then the
    OFFSET page; the result leads with a typed zero-row block.

    OFFSET needs ORDER BY and LIMIT (an unordered OFFSET is
    nondeterministic): the top ``offset + limit`` rows are fetched and
    the first ``offset`` dropped, so the driver holds one result page,
    never the solution sequence."""
    if offset and (not order_by or limit is None):
        raise NotImplementedError("OFFSET requires ORDER BY and LIMIT")
    select = out_schema.names
    if order_by:
        if limit is not None and limit <= 0:
            raise ValueError("limit must be positive")
        for v, d in order_by:
            name = v[1:] if _is_var(v) else v
            if name not in select:
                raise ValueError(
                    f"order_by var ?{name} is not selected")
            if d not in ("asc", "desc"):
                raise ValueError(f"order direction {d!r} not in "
                                 "('asc', 'desc')")
    if distinct:
        acc = distinct_rows(acc, out_schema, n_buckets)

    if order_by:
        keys = [v[1:] if _is_var(v) else v for v, _ in order_by]
        asc = [d == "asc" for _, d in order_by]
        tie = [v for v in select if v not in keys]
        sort_cols, sort_asc = keys + tie, asc + [True] * len(tie)
        if limit is not None:
            k = int(limit) + (offset or 0)

            def _topk(df: pd.DataFrame) -> pa.Table:
                top = (df.sort_values(sort_cols, ascending=sort_asc,
                                      kind="stable", na_position="last")
                       .head(k)[select])
                return pa.Table.from_pandas(
                    top, schema=out_schema,
                    preserve_index=False).replace_schema_metadata(None)

            # combiner top-k per batch, then ONE coalesced final cut
            # over the <= k x blocks survivors
            acc = (acc.map_batches(_topk, batch_format="pandas")
                   .repartition(1)
                   .map_batches(_topk, batch_format="pandas",
                                batch_size=None))
        else:
            acc = acc.sort(sort_cols,
                           descending=[not a for a in sort_asc])
    elif limit is not None:
        acc = acc.limit(int(limit))

    if offset:
        page = _seeded(acc, out_schema).to_pandas().iloc[offset:]
        acc = rd.from_arrow(pa.Table.from_pandas(
            page, schema=out_schema,
            preserve_index=False).replace_schema_metadata(None))
    return _seeded(acc, out_schema)


def distinct_rows(ds: rd.Dataset, out_schema,
                  n_buckets: int = 64) -> rd.Dataset:
    """Exact distinct over whole rows, combiner-first: per-batch
    ``drop_duplicates`` (bounds the exchange at
    distinct-rows-per-batch), then one row-hash bucket exchange whose
    final ``drop_duplicates`` over whole rows runs once per sorted
    block. Blocks stay typed Arrow throughout (``out_schema`` pins
    names, order and types)."""
    import pyarrow as pa

    cols = list(out_schema.names)
    B = np.int64(n_buckets)
    bucketed_schema = pa.schema(list(out_schema)
                                + [("__bucket", pa.int64())])

    def _local(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop_duplicates()
        df["__bucket"] = pd.util.hash_pandas_object(
            df[cols], index=False).to_numpy().astype("int64") % B
        return pa.Table.from_pandas(
            df, schema=bucketed_schema,
            preserve_index=False).replace_schema_metadata(None)

    def _dd(t: pa.Table) -> pa.Table:
        g = t.to_pandas().drop(columns="__bucket").drop_duplicates()
        return pa.Table.from_pandas(
            g[cols], schema=out_schema,
            preserve_index=False).replace_schema_metadata(None)

    return bucket_exchange(ds.map_batches(_local, batch_format="pyarrow"),
                           _dd, key="__bucket", batch_format="pyarrow")


def bgp_construct(triples: rd.Dataset,
                  patterns: list[tuple[str, str, str]],
                  template: list[tuple[str, str, str]],
                  optional: list[tuple[str, str, str]] | None = None,
                  n_buckets: int = 64) -> rd.Dataset:
    """SPARQL CONSTRUCT: graph-to-graph transformation. Matches the
    basic graph pattern (``patterns`` + ``optional``, exactly as in
    :func:`bgp_match`) and instantiates every ``template`` triple —
    terms are ``"?var"`` or constants — once per binding, returning a
    NEW deduplicated (set-semantics) triple Dataset with columns
    (subj, pred, obj). Per SPARQL, a template triple with any UNBOUND
    slot (an OPTIONAL var that did not match) is skipped for that
    binding, not emitted with a NULL.

    Scale shape: bindings stream out of the bgp_match plan,
    instantiation is a vectorized per-batch column shuffle (k template
    rows per binding, emitted batch-local), and the output set
    semantics cost ONE combiner-first exact-dedup exchange
    (:func:`distinct_rows`) — the same shape as the engine's own
    triple dedup stage. The reference's extraction pipeline is this
    operation in the large: match context, emit templated triples
    into the uber-graph (cwrc/RDF-extraction
    Biography/bio_extraction.py:62-78).
    """
    return _construct(_leaf_of(triples, patterns, n_buckets,
                               optional=optional),
                      template, n_buckets)


def _leaf_of(triples: rd.Dataset, patterns, n_buckets: int, **clauses):
    """``need -> solutions``: the pattern leaf of one group (its
    ``optional`` / ``filters`` / ``binds`` clauses), projected to the
    variables a query form's body asks for."""
    return lambda need: _bgp_leaf(triples, patterns, need,
                                  n_buckets=n_buckets, **clauses)


def _template_vars(template, empty_msg: str) -> list[str]:
    tvars = sorted({t[1:] for tri in template for t in tri
                    if _is_var(t)})
    if not tvars:
        raise ValueError(empty_msg)
    return tvars


_TRIPLE_SCHEMA = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                            ("obj", pa.string())])


def _construct(solutions, template, n_buckets: int) -> rd.Dataset:
    """CONSTRUCT's body over the solutions ``solutions(vars)``: the
    template instantiated once per solution, set-deduplicated."""
    bindings = solutions(_template_vars(template,
                                        "template binds no variables"))

    def _instantiate(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(
            _instantiate_templates(t.to_pandas(), template),
            schema=_TRIPLE_SCHEMA,
            preserve_index=False).replace_schema_metadata(None)

    made = bindings.map_batches(_instantiate, batch_format="pyarrow")
    return _seeded(distinct_rows(made, _TRIPLE_SCHEMA, n_buckets),
                   _TRIPLE_SCHEMA)


def _instantiate_templates(df: pd.DataFrame,
                           template: list[tuple[str, str, str]],
                           ) -> pd.DataFrame:
    """Instantiate every template triple once per binding row —
    vectorized column shuffles, k template rows per binding. Per
    SPARQL, a template triple with any UNBOUND slot (an OPTIONAL var
    that did not match) is skipped for that binding, not emitted with
    a NULL. Shared by CONSTRUCT and DELETE/INSERT WHERE."""
    outs = []
    for s, p, o in template:
        cols = {}
        for name, term in (("subj", s), ("pred", p), ("obj", o)):
            cols[name] = (df[term[1:]].to_numpy() if _is_var(term)
                          else np.full(len(df), term, dtype=object))
        tri = pd.DataFrame(cols)
        tri = tri[tri["subj"].notna() & tri["pred"].notna()
                  & tri["obj"].notna()]
        outs.append(tri)
    return (pd.concat(outs, ignore_index=True) if outs
            else pd.DataFrame(columns=["subj", "pred", "obj"]))


def sparql_update(triples: rd.Dataset,
                  patterns: list[tuple[str, str, str]],
                  delete: list[tuple[str, str, str]] | None = None,
                  insert: list[tuple[str, str, str]] | None = None,
                  optional: list[tuple[str, str, str]] | None = None,
                  n_buckets: int = 64) -> rd.Dataset:
    """SPARQL 1.1 Update ``DELETE {...} INSERT {...} WHERE {...}`` as
    a pure graph→graph transform over the triple store: the engine's
    in-pipeline stand-in for the reference's SPARQL-endpoint updates
    (cwrc/RDF-extraction Utils/utilities.py:446-490 POSTs per-person
    DELETE/INSERT bodies to a Stardog endpoint — network-external per
    SURVEY §7.6, but the graph semantics are replayed here exactly).

    Result = (store ∖ Δdel) ∪ Δins under RDF set semantics, where
    Δdel / Δins instantiate the ``delete`` / ``insert`` templates
    once per WHERE binding (:func:`_instantiate_templates`; template
    triples with an unbound slot are skipped, per spec). The deltas
    are evaluated against the ORIGINAL store, as the spec requires —
    a binding matched before the delete still drives an insert.

    Scale shape: the WHERE bindings stream out of the
    :func:`bgp_match` plan and BOTH template sets instantiate in the
    same per-batch pass (the binding stream is consumed once, never
    re-executed); the store streams through once; the only all-to-all
    is ONE shared (subj, pred, obj) row-hash bucket exchange over
    store + delta rows; each sorted block (many buckets) resolves
    membership per triple — emit a triple iff (in-store ∧ ¬deleted)
    ∨ inserted.
    Per-batch ``drop_duplicates`` combiners bound the exchange, and
    nothing materializes on the driver.
    """
    return _update(triples, _leaf_of(triples, patterns, n_buckets,
                                     optional=optional),
                   delete, insert, n_buckets)


def _update(triples: rd.Dataset, solutions, delete, insert,
            n_buckets: int) -> rd.Dataset:
    """The DELETE/INSERT body over the WHERE solutions
    ``solutions(vars)`` (see :func:`sparql_update`)."""
    delete = list(delete or ())
    insert = list(insert or ())
    if not delete and not insert:
        raise ValueError("update needs a delete or insert template")
    bindings = solutions(_template_vars(
        delete + insert,
        "templates bind no variables — ground INSERT/DELETE DATA "
        "is a plain union / anti-join, not an update pattern"))

    cols = ["subj", "pred", "obj"]
    out_schema = _TRIPLE_SCHEMA
    tag_schema = pa.schema(list(out_schema)
                           + [("__tag", pa.int8()),
                              ("__bucket", pa.int64())])
    B = np.int64(n_buckets)

    def _bucketed(df: pd.DataFrame, tag: int) -> pd.DataFrame:
        df = df.drop_duplicates()  # combiner: bounds the exchange
        df["__tag"] = np.int8(tag)
        df["__bucket"] = pd.util.hash_pandas_object(
            df[cols], index=False).to_numpy().astype("int64") % B
        return df

    def _store(t: pa.Table) -> pa.Table:
        out = _bucketed(t.to_pandas()[cols], 0)
        return pa.Table.from_pandas(
            out, schema=tag_schema,
            preserve_index=False).replace_schema_metadata(None)

    def _deltas(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        parts = [_bucketed(_instantiate_templates(df, tpl), tag)
                 for tag, tpl in ((1, delete), (2, insert)) if tpl]
        out = pd.concat(parts, ignore_index=True)
        return pa.Table.from_pandas(
            out, schema=tag_schema,
            preserve_index=False).replace_schema_metadata(None)

    tagged = (triples.map_batches(_store, batch_format="pyarrow")
              .union(bindings.map_batches(_deltas,
                                          batch_format="pyarrow")))

    def _resolve(t: pa.Table) -> pa.Table:
        df = t.to_pandas().drop(columns="__bucket")
        df["__bit"] = np.left_shift(
            np.int64(1), df.pop("__tag").to_numpy().astype("int64"))
        # combiners dedup within a source batch, not across batches:
        # dedup (triple, bit) rows so the per-key sum below is a
        # true bitwise OR (a repeated tag must not carry into the
        # next bit)
        d = df.drop_duplicates()
        bits = d.groupby(cols, sort=False)["__bit"].sum()
        keep = bits[((bits & 1).astype(bool)
                     & ~(bits & 2).astype(bool))
                    | (bits & 4).astype(bool)]
        out = keep.reset_index()[cols]
        return pa.Table.from_pandas(
            out, schema=out_schema,
            preserve_index=False).replace_schema_metadata(None)

    return _seeded(bucket_exchange(tagged, _resolve, key="__bucket",
                                   batch_format="pyarrow"), out_schema)


def _pred_edges(triples: rd.Dataset, pred: str, n_buckets: int,
                broadcast_cap: int):
    """The distinct (src, dst) edges of ``pred`` (materialized), with
    what a closure walks them by: a driver-side adjacency dict when
    there are at most ``broadcast_cap`` edges, else the (node, nxt)
    relation a frontier joins per round. ``(None, None, None)`` when
    ``pred`` has no edge."""
    edge_schema = pa.schema([("src", pa.string()),
                             ("dst", pa.string())])

    def _edges(df: pd.DataFrame) -> pd.DataFrame:
        m = df["pred"].to_numpy() == pred
        return pd.DataFrame({"src": df["subj"].to_numpy()[m].astype(str),
                             "dst": df["obj"].to_numpy()[m].astype(str)})

    edges = distinct_rows(
        triples.map_batches(_edges, batch_format="pandas"),
        edge_schema, n_buckets).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return None, None, None
    if n_edges <= broadcast_cap:
        ed = edges.to_pandas()
        nxt: dict[str, list[str]] = {}
        for s, d in zip(ed["src"].to_numpy(), ed["dst"].to_numpy()):
            nxt.setdefault(s, []).append(d)
        return edges, nxt, None
    erel = edges.map_batches(
        lambda df: pd.DataFrame({"node": df["src"].to_numpy(),
                                 "nxt": df["dst"].to_numpy()}),
        batch_format="pandas").materialize()
    return edges, None, erel


def path_closure(triples: rd.Dataset, pred: str,
                 starts: list[str] | None = None,
                 max_rounds: int = 32, n_buckets: int = 64,
                 broadcast_cap: int = 2_000_000) -> rd.Dataset:
    """SPARQL property path ``pred+``: every (start, node) pair where
    ``node`` is reachable from ``start`` via 1..n hops of ``pred``
    edges. ``starts`` optionally restricts the origin set (the common
    SPARQL shape ``<x> pred+ ?y``); cycles terminate naturally under
    the set semantics.

    Two paths, equality-tested against each other:

    - **broadcast** (distinct edge count ≤ ``broadcast_cap``): the
      deduped (src, dst) edge list — already projected down from the
      corpus by the predicate filter — collects once to the driver
      and a C-speed frontier BFS per origin computes the closure.
      Right whenever the EDGE SET (not the corpus) fits one machine,
      which for a single predicate of a trillion-triple KG it
      usually does.
    - **distributed semi-naive**: per round, the frontier Δ joins the
      static edge relation in one partitioned hash exchange
      (Δ ⋈ E on node = src), then ONE tag-union row-hash exchange
      both dedups the candidate pairs and anti-joins them against
      the visited set; only genuinely new pairs re-enter the loop.
      Rounds = the reachability radius of the graph; ``max_rounds``
      caps runaway inputs and raises rather than return a silently
      truncated closure.

    The reference walks such chains pointer-by-pointer inside its
    in-RAM rdflib uber-graph (cwrc/RDF-extraction
    Utils/utilities.py:552-556); here the closure is a dataflow whose
    every round exchanges only (start, node) string pairs.
    """
    import pyarrow as pa

    import ray

    from .joins import hash_join

    pair_schema = pa.schema([("start", pa.string()),
                             ("node", pa.string())])

    edges, nxt, erel = _pred_edges(triples, pred, n_buckets, broadcast_cap)
    if edges is None:  # no pred edges at all -> typed empty closure
        return rd.from_arrow(pair_schema.empty_table())
    if nxt is not None:
        # driver BFS over the (bounded) edge list
        origins = (sorted(set(starts) & nxt.keys())
                   if starts is not None else sorted(nxt.keys()))
        rows_s: list[str] = []
        rows_n: list[str] = []
        for o in origins:
            seen: set[str] = set()
            frontier = set(nxt.get(o, ()))
            while frontier:
                seen |= frontier
                frontier = {d for n in frontier
                            for d in nxt.get(n, ())} - seen
            rows_s.extend([o] * len(seen))
            rows_n.extend(sorted(seen))
        out = pa.Table.from_pydict(
            {"start": rows_s, "node": rows_n}, schema=pair_schema)
        return rd.from_arrow(out)

    # distributed semi-naive expansion
    if starts is not None:
        sref = ray.put(frozenset(starts))

        def _seed(df: pd.DataFrame) -> pa.Table:
            keep = df[df["src"].isin(ray.get(sref))]
            return pa.table([keep["src"].to_numpy(),
                             keep["dst"].to_numpy()], schema=pair_schema)
    else:
        def _seed(df: pd.DataFrame) -> pa.Table:
            return pa.table([df["src"].to_numpy(), df["dst"].to_numpy()],
                            schema=pair_schema)

    visited = edges.map_batches(_seed,
                                batch_format="pandas").materialize()
    frontier = visited
    B = np.int64(n_buckets)
    # a sort makes one output block per input block, so each round's
    # exchanges would return more blocks than they took, and the
    # block (and task) count would compound round over round: every
    # round re-cuts its outputs to the edge set's block count
    n_blocks = edges.num_blocks()

    def _tag(flag: int):
        def _t(df: pd.DataFrame) -> pd.DataFrame:
            out = df[["start", "node"]].copy()
            if flag:  # candidate side: local pre-dedup (combiner)
                out = out.drop_duplicates()
            out["__tag"] = np.int64(flag)
            out["__bucket"] = pd.util.hash_pandas_object(
                out[["start", "node"]], index=False) \
                .to_numpy().astype("int64") % B
            return out
        return _t

    def _fresh(g: pd.DataFrame) -> pa.Table:
        tag = g["__tag"].to_numpy()
        new = g[tag == 1][["start", "node"]].drop_duplicates()
        old = g[tag == 0][["start", "node"]]
        m = new.merge(old, on=["start", "node"], how="left",
                      indicator=True)
        return pa.Table.from_pandas(
            m[m["_merge"] == "left_only"][["start", "node"]],
            schema=pair_schema, preserve_index=False) \
            .replace_schema_metadata(None)

    for _ in range(max_rounds):
        stepped = hash_join(
            frontier, erel, on="node",
            left_schema=pair_schema,
            right_schema=pa.schema([("node", pa.string()),
                                    ("nxt", pa.string())]))
        cand = stepped.map_batches(
            lambda df: pd.DataFrame({"start": df["start"].to_numpy(),
                                     "node": df["nxt"].to_numpy()}),
            batch_format="pandas")
        tagged = (visited.map_batches(_tag(0), batch_format="pandas")
                  .union(cand.map_batches(_tag(1), batch_format="pandas")))
        new = bucket_exchange(tagged, _fresh, key="__bucket") \
            .repartition(n_blocks).materialize()
        if new.count() == 0:
            return rd.from_arrow(pair_schema.empty_table()) \
                .union(visited)
        visited = visited.union(new).repartition(n_blocks).materialize()
        frontier = new
    raise RuntimeError(
        f"path_closure did not converge within {max_rounds} rounds; "
        "raise max_rounds (rounds track the graph's reachability "
        "radius)")


def bfs_levels(triples: rd.Dataset, pred: str, starts: list[str],
               max_rounds: int = 32, n_buckets: int = 64,
               broadcast_cap: int = 2_000_000) -> rd.Dataset:
    """Multi-source BFS hop distance over the ``pred`` edge graph:
    ``(node, level)`` where ``level`` is the MINIMUM number of hops
    from any seed in ``starts`` (seeds themselves at level 0). The
    shortest-path complement to :func:`path_closure`'s reachability
    semantics — closure answers *whether* a node is reachable, this
    answers *how far*.

    Same two equality-tested execution paths as the closure:

    - **broadcast** (distinct edge count ≤ ``broadcast_cap``): the
      predicate-projected edge list collects once and a C-speed
      multi-source frontier BFS assigns levels.
    - **distributed frontier rounds**: BFS's invariant — a node is
      first reached AT its minimum level — means the visited set
      needs no min-merge: per round the frontier joins the static
      edge relation in one partitioned hash exchange, then ONE
      node-hash tag-union exchange anti-joins the candidates against
      every previously visited node; survivors are exactly the nodes
      whose min level equals this round. Each round exchanges only
      (node,) strings plus one int64.

    The reference's chain walks (cwrc/RDF-extraction
    Utils/utilities.py:552-556) have no distance notion; this is the
    scale-side generalization a KG analytics user expects next to
    closure. Raises if the frontier is still live after
    ``max_rounds`` (a truncated level map is silently wrong).
    """
    import pyarrow as pa

    import ray

    from .joins import hash_join

    out_schema = pa.schema([("node", pa.string()),
                            ("level", pa.int64())])
    seeds = sorted(set(starts))

    def _seed_table() -> pa.Table:
        return pa.table({"node": pa.array(seeds, type=pa.string()),
                         "level": pa.array([0] * len(seeds),
                                           type=pa.int64())})

    edges, nxt, erel = _pred_edges(triples, pred, n_buckets, broadcast_cap)
    if edges is None or not seeds:
        return rd.from_arrow(_seed_table())
    if nxt is not None:
        level: dict[str, int] = {s: 0 for s in seeds}
        frontier = list(seeds)
        lv = 0
        while frontier:
            lv += 1
            nxt_frontier: list[str] = []
            for n in frontier:
                for d in nxt.get(n, ()):
                    if d not in level:
                        level[d] = lv
                        nxt_frontier.append(d)
            frontier = nxt_frontier
        items = sorted(level.items())
        return rd.from_arrow(pa.table(
            {"node": pa.array([k for k, _ in items], type=pa.string()),
             "level": pa.array([v for _, v in items], type=pa.int64())}))

    # distributed frontier rounds
    visited = rd.from_arrow(_seed_table()).materialize()
    frontier = visited
    B = np.int64(n_buckets)
    n_blocks = edges.num_blocks()  # bounds the blocks, as in the closure

    def _tag(flag: int):
        def _t(df: pd.DataFrame) -> pd.DataFrame:
            out = df[["node", "level"]].copy()
            if flag:  # candidate side: local pre-dedup (combiner)
                out = out.drop_duplicates("node")
            out["__tag"] = np.int64(flag)
            out["__bucket"] = pd.util.hash_pandas_object(
                out["node"], index=False) \
                .to_numpy().astype("int64") % B
            return out
        return _t

    def _fresh(g: pd.DataFrame) -> pa.Table:
        tag = g["__tag"].to_numpy()
        new = g[tag == 1].drop_duplicates("node")
        old = g.loc[tag == 0, "node"]
        return pa.Table.from_pandas(
            new.loc[~new["node"].isin(old), ["node", "level"]],
            schema=out_schema, preserve_index=False) \
            .replace_schema_metadata(None)

    for rnd in range(1, max_rounds + 1):
        stepped = hash_join(
            frontier.map_batches(lambda df: df[["node"]],
                                 batch_format="pandas"),
            erel, on="node",
            left_schema=pa.schema([("node", pa.string())]),
            right_schema=pa.schema([("node", pa.string()),
                                    ("nxt", pa.string())]))
        lv = np.int64(rnd)
        cand = stepped.map_batches(
            lambda df, _lv=lv: pd.DataFrame(
                {"node": df["nxt"].to_numpy(),
                 "level": np.full(len(df), _lv)}),
            batch_format="pandas")
        tagged = (visited.map_batches(_tag(0), batch_format="pandas")
                  .union(cand.map_batches(_tag(1), batch_format="pandas")))
        new = bucket_exchange(tagged, _fresh, key="__bucket") \
            .repartition(n_blocks).materialize()
        if new.count() == 0:
            return rd.from_arrow(out_schema.empty_table()) \
                .union(visited)
        visited = visited.union(new).repartition(n_blocks).materialize()
        frontier = new
    raise RuntimeError(
        f"bfs_levels frontier still live after {max_rounds} rounds; "
        "raise max_rounds (rounds track the graph's eccentricity "
        "from the seed set)")


def describe_subjects(triples: rd.Dataset,
                      patterns: list[tuple[str, str, str]],
                      var: str,
                      optional: list[tuple[str, str, str]] | None = None,
                      n_buckets: int = 64,
                      broadcast_cap: int = 5_000_000) -> rd.Dataset:
    """SPARQL DESCRIBE ?var: every triple (full source rows, all
    columns) whose SUBJECT is a binding of ``?var`` in the graph
    pattern. The distinct binding set reduces through a bucketed
    unique (never the raw binding stream) and broadcasts once via the
    object store into a semi-join filter over the streaming triple
    scan — DESCRIBE sets are query results, small by construction;
    ``broadcast_cap`` guards the assumption and fails loudly rather
    than ship an unbounded set to every task."""
    return _describe(triples, _leaf_of(triples, patterns, n_buckets,
                                       optional=optional),
                     var, n_buckets, broadcast_cap)


def _describe(triples: rd.Dataset, solutions, var: str, n_buckets: int,
              broadcast_cap: int = 5_000_000) -> rd.Dataset:
    """DESCRIBE's body over the solutions ``solutions(vars)`` (see
    :func:`describe_subjects`)."""
    from .joins import distinct_values, semi_join_filter

    v = var[1:] if var.startswith("?") else var
    vals = distinct_values(solutions([v]), v, n_buckets=n_buckets)
    if len(vals) > broadcast_cap:
        raise ValueError(
            f"DESCRIBE set ({len(vals)} subjects) exceeds the "
            f"{broadcast_cap} broadcast cap; narrow the pattern")
    return semi_join_filter(triples, vals.to_numpy(), "subj")


_BGP_AGG_FNS = ("count", "count_distinct", "min", "max",
                "group_concat", "sum", "avg")
_GC_SEP = "|"
#: lexical forms SUM/AVG treat as numeric — integer literals only,
#: pinned by regex on BOTH sides (the SQL replay guards its CAST with
#: the same regexp_matches), so no locale/float parsing ambiguity
_NUM_RE = r"-?\d+"


def _sum_n(df: pd.DataFrame, out: pd.DataFrame, gcols: list[str],
           v: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-group ``(sum, n)`` over the values of ``v`` whose lexical
    form is an integer (:data:`_NUM_RE`); non-numeric and unbound
    values are skipped like SQL aggregates skip NULL. Aligned to
    ``out``'s group rows; a group with no numeric value gets
    ``(0, 0)`` — the finalizer turns ``n == 0`` into NULL (SQL SUM
    semantics) so partials stay null-free int64 on the exchange."""
    s = df[v]
    m = s.notna() & s.str.fullmatch(_NUM_RE, na=False)
    if not m.any():
        z = np.zeros(len(out), dtype=np.int64)
        return z, z.copy()
    nn = df.loc[m, gcols].copy()
    nn["__v"] = s[m].astype(np.int64)
    agg = (nn.groupby(gcols, dropna=False, sort=False)["__v"]
           .agg(["sum", "count"]).reset_index())
    mg = out[gcols].merge(agg, on=gcols, how="left")
    return (mg["sum"].fillna(0).astype(np.int64).to_numpy(),
            mg["count"].fillna(0).astype(np.int64).to_numpy())


def bgp_aggregate(triples: rd.Dataset,
                  patterns: list[tuple[str, str, str]],
                  group_by: list[str],
                  aggs: list[tuple[str, str, str]],
                  optional: list[tuple[str, str, str]] | None = None,
                  filters: list[tuple[str, str, str]] | None = None,
                  having: list[tuple[str, str, float]] | None = None,
                  binds: list[tuple[tuple, str]] | None = None,
                  n_buckets: int = 64) -> rd.Dataset:
    """SPARQL GROUP BY + aggregates over BGP bindings: ``SELECT
    ?g1 ?g2 (AGG(?v) AS alias) ... WHERE { ... } GROUP BY ?g1 ?g2
    [HAVING ...]``. An EMPTY ``group_by`` is the SPARQL global
    aggregate (no GROUP BY): the whole solution sequence is one
    group and the result is exactly one row — even over zero
    solutions (counts 0, min/max/concat NULL), per SPARQL/SQL.

    ``aggs`` entries are ``(fn, var, alias)`` with ``fn`` one of
    ``count`` (``var="*"`` counts solutions; a variable counts its
    BOUND values, per SPARQL/SQL), ``count_distinct``, ``min``,
    ``max`` (lexicographic over the string terms, = SQL VARCHAR
    min/max; a group with no bound value yields NULL), or
    ``group_concat`` (SPARQL GROUP_CONCAT: the group's bound values
    joined with ``"|"``; SPARQL leaves the concatenation order
    undefined, so this engine pins it LEXICOGRAPHIC — a SQL replay is
    ``string_agg(v, '|' ORDER BY v)`` — and a group with no bound
    value yields NULL), ``sum`` (int64) or ``avg`` (float64) — both
    numeric aggregates parse the variable's LEXICAL form under the
    integer regex :data:`_NUM_RE` and skip unbound/non-numeric values
    (SQL: ``CASE WHEN regexp_matches(v, '^-?[0-9]+$') THEN CAST(v AS
    BIGINT) END`` under SUM/AVG); a group with no numeric value
    yields NULL, and AVG is the float64 quotient of the exact integer
    sum and count — bit-identical to the SQL
    ``CAST(s AS DOUBLE) / n``. ``binds`` pass through to
    :func:`bgp_match`, so an aggregate variable may be a BIND output
    (e.g. ``SUM(STRLEN(?x))``). ``having``
    entries are ``(alias, op, value)`` filters over the aggregated
    rows (``op`` in ``== != < <= > >=``).

    Scale shape: bindings stream out of the :func:`bgp_match` plan
    and EVERY aggregate pre-combines before its group-key hash-bucket
    exchange. count/min/max ship per-batch partials (exchange rows
    bounded by groups-per-batch × batches); ``count_distinct`` ships
    per-batch DISTINCT (group, value) pairs into its own bucketed
    exact-nunique exchange, then LEFT-joins the (tiny, one row per
    group) result back onto the partial-merge output — the raw
    binding stream never exchanges. The one exception is
    ``group_concat``, which needs every value of its group
    (duplicates included) co-located, so requesting it routes the
    projected binding rows through the exchange (exact path). HAVING
    filters the already-aggregated stream, so it is always cheap.
    The reference computes such reports by Counter walks over the
    in-RAM graph (cwrc/RDF-extraction Utils/utilities.py:552-556).
    """
    agg, schema = _group(
        _leaf_of(triples, patterns, n_buckets, optional=optional,
                 filters=filters, binds=binds),
        _pattern_vars(patterns)[:1], group_by, aggs, having, n_buckets)
    return _seeded(agg, schema)


_HAVING_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
               "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _having_mask(df: pd.DataFrame, having) -> np.ndarray:
    """The aggregate rows that pass every HAVING ``(alias, op, value)``;
    an unbound (NULL) aggregate fails the comparison."""
    m = pd.Series(True, index=df.index)
    for alias, op, val in having:
        col = df[alias]
        m &= _HAVING_OPS[op](col, val) & col.notna()
    return m.to_numpy(dtype=bool)


def _group(solutions, fallback: list[str], group_by: list[str],
           aggs: list[tuple[str, str, str]], having, n_buckets: int
           ) -> tuple[rd.Dataset, pa.Schema]:
    """GROUP BY + aggregates + HAVING over the solutions
    ``solutions(vars)`` (see :func:`bgp_aggregate`): the aggregated
    Dataset, without a typed seed, and its schema. ``fallback`` is the
    variable a global ``COUNT(*)`` carries when no aggregate names
    one."""
    global_agg = not group_by
    if global_agg:
        # SPARQL allows aggregates with no GROUP BY: the whole
        # solution sequence is one group, the result is exactly one
        # row (even over zero solutions: counts 0, min/max/concat
        # NULL — then HAVING, if any, filters that row like SQL).
        # Internally a constant synthetic key reuses the grouped
        # machinery; the (<= 1 row) result is built eagerly, which is
        # a bounded driver materialization by construction.
        group_by = ["__g"]
    for fn, v, alias in aggs:
        if fn not in _BGP_AGG_FNS:
            raise ValueError(f"unknown aggregate fn {fn!r}")
        if v == "*" and fn != "count":
            raise ValueError(f"{fn}(*) is not defined")
    aliases = [a for _, _, a in aggs]
    if len(set(aliases)) != len(aliases):
        raise ValueError("duplicate aggregate aliases")
    agg_vars = [v for _, v, _ in aggs if v != "*"]
    needed = list(dict.fromkeys(
        ([] if global_agg else list(group_by)) + agg_vars))
    if not needed:
        # global COUNT(*) with no var aggregates: carry one pattern
        # variable so the solution stream keeps a row shape
        needed = list(fallback)
        if not needed:
            raise ValueError("patterns bind no variable")
    if having:
        for alias, op, _ in having:
            if op not in _HAVING_OPS:
                raise ValueError(f"unknown HAVING op {op!r}")
            if alias not in aliases + list(group_by):
                raise ValueError(f"HAVING references unknown {alias!r}")
    bindings = solutions(needed)
    if global_agg:
        def _addg(df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df["__g"] = ""
            return df

        bindings = bindings.map_batches(_addg, batch_format="pandas")
    gcols = list(group_by)
    B = np.int64(n_buckets)
    out_fields = [(g, pa.string()) for g in gcols]
    for fn, _, alias in aggs:
        if fn in ("count", "count_distinct", "sum"):
            t = pa.int64()
        elif fn == "avg":
            t = pa.float64()
        else:
            t = pa.string()
        out_fields.append((alias, t))
    out_schema = pa.schema(out_fields)
    # group_concat is the only aggregate that genuinely needs every
    # binding row of its group co-located (all values, duplicates
    # included); count_distinct pre-combines as per-batch DISTINCT
    # (group, value) pairs, and count/min/max pre-combine as plain
    # partials — so the binding stream itself only exchanges when a
    # group_concat is requested
    exact = any(fn == "group_concat" for fn, _, _ in aggs)
    cd = [(v, alias) for fn, v, alias in aggs
          if fn == "count_distinct"]
    rest = [a for a in aggs if a[0] != "count_distinct"]

    def _bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__bucket"] = (pd.util.hash_pandas_object(
            df[gcols], index=False).to_numpy().astype("int64") % B)
        return df

    def _minmax_col(df: pd.DataFrame, out: pd.DataFrame, v: str,
                    fn: str) -> pd.Series:
        """Per-group min/max over the BOUND values only (pandas'
        cython groupby min/max raises on object columns mixing str
        and None, and SPARQL/SQL aggregates skip unbound anyway);
        groups with no bound value come back NULL via the left
        merge."""
        nn = df[df[v].notna()]
        if not len(nn):
            return pd.Series([None] * len(out), dtype=object)
        s = (nn.groupby(gcols, dropna=False, sort=False)[v].agg(fn)
             .rename("__mm").reset_index())
        return out[gcols].merge(s, on=gcols, how="left")["__mm"]

    if exact:
        # projected binding rows exchange; every aggregate computed
        # exactly per co-located group, all groups of a sorted block
        # in one call
        def _final(g: pd.DataFrame) -> pa.Table:
            gb = g.groupby(gcols, dropna=False, sort=False)
            out = gb.size().rename("__n").reset_index()
            for fn, v, alias in aggs:
                if fn == "count" and v == "*":
                    out[alias] = out["__n"]
                elif fn == "count":
                    out[alias] = gb[v].count().to_numpy()
                elif fn == "count_distinct":
                    out[alias] = gb[v].nunique(dropna=True).to_numpy()
                elif fn == "group_concat":
                    out[alias] = gb[v].agg(
                        lambda s: _GC_SEP.join(sorted(s.dropna()))
                        if s.notna().any() else None).to_numpy()
                elif fn in ("sum", "avg"):
                    s_, n_ = _sum_n(g, out, gcols, v)
                    if fn == "sum":
                        sv = pd.array(s_, dtype="Int64")
                        sv[n_ == 0] = pd.NA
                        out[alias] = sv
                    else:
                        out[alias] = np.where(
                            n_ > 0,
                            s_.astype(np.float64) / np.maximum(n_, 1),
                            np.nan)
                else:
                    out[alias] = _minmax_col(g, out, v, fn).to_numpy()
            return pa.Table.from_pandas(
                out[out_schema.names], schema=out_schema,
                preserve_index=False).replace_schema_metadata(None)

        agg = bucket_exchange(
            bindings.map_batches(_bucket, batch_format="pandas"),
            _final, key="__bucket")
    else:
        # combiner path, ONE consumer of the binding stream and ONE
        # group-key exchange: each batch emits a tagged union of
        # (a) kind-0 partial rows for count/min/max (one per group)
        # and (b) kind-i per-batch DISTINCT (group, value) pair rows
        # per count_distinct aggregate; the finalizer, once per
        # sorted block of buckets, merges partials and counts exact
        # nuniques per group side by side.
        # Exchange rows are bounded by (groups + distinct pairs) per
        # batch — the raw binding stream never exchanges.
        base_fields = [(g, pa.string()) for g in gcols]
        for fn, _, alias in rest:
            if fn == "count":
                base_fields.append((alias, pa.int64()))
            elif fn in ("sum", "avg"):
                # null-free int64 (sum, n) partials per group — the
                # finalizer derives NULL (n == 0) and the float AVG
                base_fields.append((f"__s_{alias}", pa.int64()))
                base_fields.append((f"__n_{alias}", pa.int64()))
            else:
                base_fields.append((alias, pa.string()))
        base_schema = pa.schema(base_fields)
        union_schema = pa.schema(
            list(base_schema)
            + [(f"__cd_{alias}", pa.string()) for _, alias in cd]
            + [("__kind", pa.int8()), ("__bucket", pa.int64())])

        def _pad(df: pd.DataFrame) -> pa.Table:
            arrs = []
            for f in union_schema:
                if f.name in df.columns:
                    arrs.append(pa.Array.from_pandas(df[f.name],
                                                     type=f.type))
                else:
                    arrs.append(pa.nulls(len(df), f.type))
            return pa.Table.from_arrays(arrs, schema=union_schema)

        def _partial(df: pd.DataFrame) -> pa.Table:
            gb = df.groupby(gcols, dropna=False, sort=False)
            out = gb.size().rename("__n").reset_index()
            for fn, v, alias in rest:
                if fn == "count" and v == "*":
                    out[alias] = out["__n"]
                elif fn == "count":
                    out[alias] = gb[v].count().to_numpy()
                elif fn in ("sum", "avg"):
                    s_, n_ = _sum_n(df, out, gcols, v)
                    out[f"__s_{alias}"] = s_
                    out[f"__n_{alias}"] = n_
                else:
                    out[alias] = _minmax_col(df, out, v, fn).to_numpy()
            out = _bucket(out.drop(columns="__n"))
            out["__kind"] = np.int8(0)
            parts = [_pad(out)]
            for i, (v, alias) in enumerate(cd, 1):
                p = (df[df[v].notna()][gcols + [v]].drop_duplicates()
                     .rename(columns={v: f"__cd_{alias}"}))
                p = _bucket(p)
                p["__kind"] = np.int8(i)
                parts.append(_pad(p))
            return pa.concat_tables(parts)

        def _final(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            kind = t.column("__kind")
            # each side selects its OWN columns before to_pandas, so
            # padding nulls never NaN-promote the int64 partials
            p = (t.filter(pc.equal(kind, 0))
                 .select(base_schema.names).to_pandas())
            gb = p.groupby(gcols, dropna=False, sort=False)
            out = gb.size().rename("__n").reset_index()
            for fn, v, alias in rest:
                if fn == "count":
                    out[alias] = gb[alias].sum().to_numpy()
                elif fn in ("sum", "avg"):
                    s_ = gb[f"__s_{alias}"].sum().to_numpy()
                    n_ = gb[f"__n_{alias}"].sum().to_numpy()
                    if fn == "sum":
                        sv = pd.array(s_, dtype="Int64")
                        sv[n_ == 0] = pd.NA
                        out[alias] = sv
                    else:
                        out[alias] = np.where(
                            n_ > 0,
                            s_.astype(np.float64) / np.maximum(n_, 1),
                            np.nan)
                else:
                    # re-min/max the partials, skipping NULL partials
                    # (a batch whose group had no bound value)
                    out[alias] = _minmax_col(p, out, alias,
                                             fn).to_numpy()
            for i, (v, alias) in enumerate(cd, 1):
                col = f"__cd_{alias}"
                d = (t.filter(pc.equal(kind, np.int8(i)))
                     .select(gcols + [col]).to_pandas()
                     .drop_duplicates())
                nn = (d.groupby(gcols, dropna=False, sort=False)[col]
                      .nunique(dropna=True).rename(alias)
                      .reset_index())
                out = out.merge(nn, on=gcols, how="left")
                # a group whose distinct var never binds has no pair
                # row: COUNT(DISTINCT) of nothing = 0, never NULL
                out[alias] = (out[alias].fillna(0).astype("int64"))
            return pa.Table.from_pandas(
                out[out_schema.names], schema=out_schema,
                preserve_index=False).replace_schema_metadata(None)

        agg = bucket_exchange(
            bindings.map_batches(_partial, batch_format="pandas"),
            _final, key="__bucket", batch_format="pyarrow")

    if having:
        def _having(t: pa.Table) -> pa.Table:
            # the mask is computed in pandas, the rows are kept in
            # Arrow: the typed aggregate columns pass through exactly
            df = t.select(list(dict.fromkeys(
                a for a, _, _ in having))).to_pandas()
            return t.filter(pa.array(_having_mask(df, having)))

        agg = agg.map_batches(_having, batch_format="pyarrow")

    if global_agg:
        # <= 1 row by construction: materializing is bounded. Over an
        # EMPTY solution sequence SPARQL/SQL still yield one aggregate
        # row (counts 0, min/max/concat NULL) — synthesize it, then
        # re-apply HAVING so a filtered-out row stays filtered.
        res_schema = pa.schema([f for f in out_schema
                                if f.name != "__g"])
        df = agg.to_pandas()
        if "__g" in df.columns:
            df = df.drop(columns="__g")
        if not len(df):
            row = {alias: (0 if fn in ("count", "count_distinct")
                           else None) for fn, _, alias in aggs}
            df = pd.DataFrame([row])
            if having:
                df = df[_having_mask(df, having)]
        return rd.from_arrow(pa.Table.from_pandas(
            df[res_schema.names].reset_index(drop=True),
            schema=res_schema,
            preserve_index=False).replace_schema_metadata(None)), res_schema

    return agg, out_schema


def link_prediction(edges: rd.Dataset | None, k: int = 100,
                    min_common: int = 2, max_apex_deg: int = 64,
                    n_buckets: int = 64,
                    und_pre: rd.Dataset | None = None,
                    nodes_pre: rd.Dataset | None = None,
                    apex_weights: dict[int, int] | None = None,
                    jaccard: bool = False,
                    broadcast_max_nodes: int = 4_000_000
                    ) -> pd.DataFrame:
    """Common-neighbor link prediction over the undirected simple
    graph: the top-``k`` NON-adjacent node pairs ranked by how many
    neighbors they share (Liben-Nowell & Kleinberg 2003's strongest
    simple predictor) — the "which entities should probably be
    connected" report a KG-construction pipeline runs after each
    build to surface missing edges.

    Declared semantics: apexes with degree > ``max_apex_deg`` emit no
    wedges (the same stop-key guard as the ER blocking operator — a
    hub adjacent to everyone carries no signal AND would emit O(d²)
    pairs); pairs need ≥ ``min_common`` shared neighbors; ranking is
    (n_common DESC, lo-hash, hi-hash) with the md5-15 node hashes as
    the replayable tie-break; hash collisions (~1e-9 at 10^5 nodes)
    merge two nodes, mirrored exactly by the oracle's min(node)
    resolution.

    Scale shape: adjacency rows bucket by APEX (a node lives in one
    bucket, so its degree and neighbor run are bucket-local); wedges
    emit per out-degree class with one vectorized triu expansion and
    ride a pair-key bucket exchange TOGETHER with the edge rows, so
    counting, the adjacency anti-join and the ≥ min_common filter all
    resolve in-bucket; each bucket forwards only its top-``k``
    partial, the driver merges ≤ buckets×k rows, and string
    resolution is RESULT-sized (needed hashes broadcast, node-map
    stream filtered).

    ``apex_weights`` switches the scoring to WEIGHTED common
    neighbors (Adamic–Adar when the table is ``round(1e9/ln(d))``):
    each wedge contributes its apex's int64 weight by degree class
    instead of 1, pairs rank by (score DESC, lo, hi), and the output
    gains a ``score`` column. Weights are integer constants shared
    verbatim with the SQL oracle (quantized map-side — the float log
    never enters the distributed sum), so the ranking replays
    bit-for-bit. ``min_common`` still applies to the raw count.

    ``jaccard`` ranks by the JACCARD coefficient instead — the exact
    integer quotient ``(10⁹·c) // (deg(lo) + deg(hi) − c)`` with the
    pair endpoints' FULL degrees, replayed identically in SQL.
    Degrees come from the bounded broadcast probe; a graph past
    ``broadcast_max_nodes`` raises (an explicit refusal, never a
    silent semantics change). Mutually exclusive with
    ``apex_weights``."""
    import ray

    from .dedup_docs import _cached_get

    B = np.int64(n_buckets)
    n_blocks = max(8, n_buckets // 4)
    weighted = apex_weights is not None
    assert not (weighted and jaccard)
    if weighted:
        # Fail fast at call time: _wedge_rows looks up
        # apex_weights[c] for every apex degree class 2..max_apex_deg
        # inside a Ray task; a table that doesn't cover that range
        # would otherwise surface as a KeyError deep in a worker.
        missing = [c for c in range(2, max_apex_deg + 1)
                   if c not in apex_weights]
        if missing:
            raise ValueError(
                "apex_weights must cover every degree class in "
                f"range(2, max_apex_deg+1={max_apex_deg + 1}); "
                f"missing {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}")
    out_cols = {"node_a": object, "node_b": object,
                "n_common": "int64"}
    if weighted or jaccard:
        out_cols["score"] = "int64"
    out_empty = pd.DataFrame({c: pd.Series([], dtype=t)
                              for c, t in out_cols.items()})

    if und_pre is not None:
        assert nodes_pre is not None
        base = None
        und = und_pre.repartition(n_blocks).materialize()
    else:
        base = edges.map_batches(
            lambda df: tagged_graph_scan(df, undirected=True),
            batch_format="pandas").materialize()

        def _und_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df.loc[df["kind"] == 0, ["a", "b"]]
            out = pd.DataFrame({"lo": g["a"].astype("int64"),
                                "hi": g["b"].astype("int64")})
            out["lb"] = out["lo"] % B
            return out

        und = (base.map_batches(_und_rows, batch_format="pandas")
               .groupby("lb").map_groups(
                   lambda g: g[["lo", "hi"]].drop_duplicates(),
                   batch_format="pandas")
               .repartition(n_blocks)).materialize()
    if not und.count():
        return out_empty

    deg_ref = None
    if jaccard:
        # cheap node-count probe FIRST: the refusal must not pay for
        # _node_degrees' full exchange-path degree materialization
        # whose only use would be to be discarded; the probe result
        # is SHARED with _node_degrees (the old code re-probed,
        # doubling a full pass on every in-bounds call)
        H = _bounded_distinct_probe(und, ("lo", "hi"),
                                    broadcast_max_nodes)
        if H is None:
            raise ValueError(
                "jaccard link prediction needs the broadcast degree "
                f"path (<= {broadcast_max_nodes} nodes): refusing "
                "rather than silently changing ranking semantics")
        degsrc = _node_degrees(und, B, n_buckets, broadcast_max_nodes,
                               H_pre=H)
        assert degsrc[0] == "bcast"
        deg_ref = degsrc[1]

    _PCOLS = ["lo", "hi", "kind", "w", "kb"]

    def _pair_bucket(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # Reduce mod B BEFORE mixing so the product stays well inside
        # int64 (lo/hi are md5-15 hashes up to ~2^60; lo·1000003
        # would silently wrap). B ≤ a few thousand, so
        # (lo%B)·1000003 + hi%B ≤ ~2^42 — no overflow, and the
        # bucket assignment stays deterministic across numpy versions.
        return (((lo % B) * np.int64(1000003) + (hi % B)) % B) \
            .astype("int64")

    def _adj_rows(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(dtype="int64")
        hi = df["hi"].to_numpy(dtype="int64")
        out = pd.DataFrame({
            "u": np.concatenate([lo, hi]),
            "v": np.concatenate([hi, lo])})
        out["ub"] = (out["u"] % B).astype("int64")
        return out

    def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        lo = df["lo"].to_numpy(dtype="int64")
        hi = df["hi"].to_numpy(dtype="int64")
        return pd.DataFrame({"lo": lo, "hi": hi,
                             "kind": np.int64(0),
                             "w": np.int64(0),
                             "kb": _pair_bucket(lo, hi)})[_PCOLS]

    def _wedge_rows(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["u", "v"], kind="stable")
        u = g["u"].to_numpy(dtype="int64")
        v = g["v"].to_numpy(dtype="int64")
        empty = pd.DataFrame({c: pd.Series([], dtype="int64")
                              for c in _PCOLS})
        if len(u) < 2:
            return empty
        change = np.flatnonzero(np.diff(u)) + 1
        starts = np.concatenate([[0], change])
        cnt = np.diff(np.concatenate([starts, [len(u)]]))
        los, his, ws = [], [], []
        for c in np.unique(cnt):
            if c < 2 or c > max_apex_deg:
                continue
            runs = starts[cnt == c]
            ti, tj = np.triu_indices(int(c), k=1)
            a = v[(runs[:, None] + ti[None, :]).ravel()]
            b = v[(runs[:, None] + tj[None, :]).ravel()]
            los.append(np.minimum(a, b))
            his.append(np.maximum(a, b))
            wc = np.int64(apex_weights[int(c)]) if weighted \
                else np.int64(1)
            ws.append(np.full(len(los[-1]), wc, dtype=np.int64))
        if not los:
            return empty
        lo = np.concatenate(los)
        hi = np.concatenate(his)
        return pd.DataFrame({"lo": lo, "hi": hi,
                             "kind": np.int64(1),
                             "w": np.concatenate(ws),
                             "kb": _pair_bucket(lo, hi)})[_PCOLS]

    wedges = (und.map_batches(_adj_rows, batch_format="pandas")
              .groupby("ub").map_groups(_wedge_rows,
                                        batch_format="pandas"))
    edge_marks = und.map_batches(_edge_rows, batch_format="pandas")

    scored = weighted or jaccard
    _RANK = ["score", "lo", "hi"] if scored \
        else ["n_common", "lo", "hi"]
    _OUT = ["lo", "hi", "n_common", "score"] if scored \
        else ["lo", "hi", "n_common"]

    def _count_topk(group: pd.DataFrame) -> pd.DataFrame:
        wg = group[group["kind"] == 1]
        if not len(wg):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in _OUT})
        c = (wg.groupby(["lo", "hi"], as_index=False)
             .agg(n_common=("w", "size"), score=("w", "sum")))
        e = group.loc[group["kind"] == 0, ["lo", "hi"]]
        c = c.merge(e, on=["lo", "hi"], how="left", indicator=True)
        c = c[(c["_merge"] == "left_only")
              & (c["n_common"] >= min_common)]
        if jaccard and len(c):
            # exact integer Jaccard quotient with the endpoints'
            # full degrees (broadcast); |union| = dlo + dhi − c
            hh, dd = _cached_get(deg_ref)
            dlo = dd[np.searchsorted(
                hh, c["lo"].to_numpy(dtype="int64"))]
            dhi = dd[np.searchsorted(
                hh, c["hi"].to_numpy(dtype="int64"))]
            cc = c["n_common"].to_numpy(dtype="int64")
            c = c.assign(score=(1_000_000_000 * cc)
                         // (dlo + dhi - cc))
        c = c.sort_values(_RANK, ascending=[False, True, True],
                          kind="stable").head(k)
        return c[_OUT].astype("int64")

    parts = (wedges.union(edge_marks).groupby("kb")
             .map_groups(_count_topk, batch_format="pandas")
             .to_pandas())
    if not len(parts) or "lo" not in parts.columns:
        return out_empty
    top = parts.sort_values(_RANK, ascending=[False, True, True],
                            kind="stable").head(k)
    need = np.sort(np.unique(np.concatenate(
        [top["lo"].to_numpy(dtype="int64"),
         top["hi"].to_numpy(dtype="int64")])))
    need_ref = ray.put(need)

    def _filter_pre(df: pd.DataFrame) -> pd.DataFrame:
        ns = _cached_get(need_ref)
        h = df["h"].to_numpy(dtype="int64")
        idx = np.searchsorted(ns, h)
        idx[idx == len(ns)] = 0
        keep = ns[idx] == h
        return pd.DataFrame({"h": h[keep],
                             "node": df["node"].astype(str)[keep]})

    def _filter_base(df: pd.DataFrame) -> pd.DataFrame:
        ns = _cached_get(need_ref)
        g = df[df["kind"] == 1]
        h = g["a"].to_numpy(dtype="int64")
        idx = np.searchsorted(ns, h)
        idx[idx == len(ns)] = 0
        keep = ns[idx] == h
        return pd.DataFrame({"h": h[keep],
                             "node": g["node"].astype(str)[keep]})

    if base is None:
        names = nodes_pre.map_batches(_filter_pre,
                                      batch_format="pandas").to_pandas()
    else:
        names = base.map_batches(_filter_base,
                                 batch_format="pandas").to_pandas()
    nmap = names.groupby("h")["node"].min() if len(names) \
        else pd.Series(dtype=object)
    out = pd.DataFrame({
        "node_a": top["lo"].map(nmap).astype(object),
        "node_b": top["hi"].map(nmap).astype(object),
        "n_common": top["n_common"].astype("int64")})
    if weighted or jaccard:
        out["score"] = top["score"].astype("int64").to_numpy()
    return out.reset_index(drop=True)


HITS_SCALE = 10**6  # int64-safe: max raw sum ≤ N·scale ≤ 4e12 at the
#                     4M-node broadcast bound; ×scale ≤ 4e18 < 2^63


def hits_int(edges: rd.Dataset | None, n_iter: int = 2,
             scale: int = HITS_SCALE, n_buckets: int = 64,
             broadcast_max_nodes: int = 4_000_000,
             deg_pre: rd.Dataset | None = None,
             nodes_pre: rd.Dataset | None = None) -> rd.Dataset:
    """``n_iter`` rounds of integer fixed-point HITS (Kleinberg's
    hubs & authorities) over the DIRECTED distinct edge set. Returns
    (node, hub, authority) int64.

    Normalization is BY THE MAX, not the L2 norm: each half-round
    computes ``x'(v) = (Σ raw) · scale // max_v(Σ raw)`` — exact
    integer arithmetic both engines replay bit-identically (an L2
    norm would put an irrational in the recurrence). ``h₀ = scale``
    everywhere; round i sets authorities from hubs (in-edges), then
    hubs from the new authorities (out-edges).

    Scale shape mirrors :func:`pagerank_int`: the broadcast path
    index-encodes the distinct edges ONCE into static (si, di) int64
    blocks — each half-round is one ``ray.put`` of the current vector
    + one ``map_batches`` (dense ``np.add.at`` per block) + a bounded
    driver merge, and the global max is a scalar off that merge; the
    exchange path (node count above ``broadcast_max_nodes``) runs the
    same recurrence as two hash-bucket exchanges per half-round with
    per-bucket max partials, nothing node-shaped on the driver."""
    import pyarrow as pa

    from .dedup_docs import _cached_get
    import ray

    B = np.int64(n_buckets)
    n_blocks = max(8, n_buckets // 4)
    out_schema = pa.schema([("node", pa.string()),
                            ("hub", pa.int64()),
                            ("authority", pa.int64())])

    if deg_pre is not None:
        assert nodes_pre is not None
        base = None

        def _ed_pre(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "hs": df["hs"].astype("int64"),
                "hd": df["hd"].astype("int64")})

        ed = (deg_pre.map_batches(_ed_pre, batch_format="pandas")
              .repartition(n_blocks)).materialize()
        nodes = nodes_pre
    else:
        base = edges.map_batches(
            lambda df: tagged_graph_scan(df),
            batch_format="pandas").materialize()

        def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df[df["kind"] == 0]
            out = pd.DataFrame({"hs": g["a"].astype("int64"),
                                "hd": g["b"].astype("int64")})
            out["sb"] = out["hs"] % B
            return out

        ed = (base.map_batches(_edge_rows, batch_format="pandas")
              .groupby("sb").map_groups(
                  lambda g: g[["hs", "hd"]].drop_duplicates(),
                  batch_format="pandas")
              .repartition(n_blocks)).materialize()

        def _map_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df[df["kind"] == 1]
            out = pd.DataFrame({"h": g["a"].astype("int64"),
                                "node": g["node"].astype(str)})
            out["nb"] = out["h"] % B
            return out

        nodes = (base.map_batches(_map_rows, batch_format="pandas")
                 .groupby("nb").map_groups(
                     lambda g: g[["h", "node"]].drop_duplicates("h"),
                     batch_format="pandas").repartition(n_blocks))

    H = _bounded_distinct_probe(ed, ("hs", "hd"),
                                broadcast_max_nodes)

    if H is not None:
        if not len(H):
            return rd.from_arrow(out_schema.empty_table())
        n = len(H)
        Hs = H

        def _encode(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "si": np.searchsorted(Hs, df["hs"].to_numpy(
                    dtype="int64")).astype("int64"),
                "di": np.searchsorted(Hs, df["hd"].to_numpy(
                    dtype="int64")).astype("int64")})

        enc = ed.map_batches(_encode, batch_format="pandas",
                             batch_size=None).materialize()

        def _half_round(vec: np.ndarray, src: str, dst: str
                        ) -> np.ndarray:
            ref = ray.put(vec)

            def _acc(df: pd.DataFrame) -> pd.DataFrame:
                v = _cached_get(ref)
                acc = np.zeros(n, dtype=np.int64)
                np.add.at(acc, df[dst].to_numpy(dtype="int64"),
                          v[df[src].to_numpy(dtype="int64")])
                nz = np.flatnonzero(acc)
                return pd.DataFrame({"i": nz, "c": acc[nz]})

            raw = np.zeros(n, dtype=np.int64)
            for b in (enc.map_batches(_acc, batch_format="pandas",
                                      batch_size=None)
                      .iter_batches(batch_format="numpy",
                                    batch_size=None)):
                np.add.at(raw, b["i"], b["c"])
            m = int(raw.max()) if len(raw) else 0
            if m <= 0:
                return raw
            if m > (2**63 - 1) // scale:
                # same wide guard as the exchange path: nothing pins
                # broadcast_max_nodes to the int64-safe default, and
                # raw·scale wraps silently past it — exact Python-int
                # division (output ≤ scale always fits int64)
                return np.fromiter(
                    ((int(v) * scale) // m for v in raw),
                    dtype="int64", count=len(raw))
            return raw * np.int64(scale) // np.int64(m)

        hub = np.full(n, np.int64(scale))
        auth = np.zeros(n, dtype=np.int64)
        for _ in range(n_iter):
            auth = _half_round(hub, "si", "di")
            hub = _half_round(auth, "di", "si")
        hub_ref = ray.put(hub)
        auth_ref = ray.put(auth)

        def _resolve(df: pd.DataFrame) -> pd.DataFrame:
            hb = _cached_get(hub_ref)
            au = _cached_get(auth_ref)
            h = df["h"].to_numpy(dtype="int64")
            idx = np.searchsorted(Hs, h)
            idx[idx == len(Hs)] = 0
            keep = Hs[idx] == h
            return pd.DataFrame({
                "node": df["node"].astype(str)[keep],
                "hub": hb[idx[keep]],
                "authority": au[idx[keep]]})

        return nodes.map_batches(_resolve, batch_format="pandas")

    # ---- exchange path: nothing node-shaped on the driver ----------
    from .joins import hash_join

    def _vec0(df: pd.DataFrame) -> pd.DataFrame:
        h = df["h"].astype("int64")
        return pd.DataFrame({"h": h, "x": np.int64(scale)})

    hub_ds = nodes.map_batches(_vec0,
                               batch_format="pandas").materialize()
    zero_ds = nodes.map_batches(
        lambda df: pd.DataFrame({"h": df["h"].astype("int64"),
                                 "x": np.int64(0)}),
        batch_format="pandas").materialize()

    def _sum_exchange(vec: rd.Dataset, src: str, dst: str
                      ) -> rd.Dataset:
        """raw(v) = Σ_{edges src→dst} vec(src), over ALL nodes."""
        j = hash_join(ed.map_batches(
            lambda df: df[["hs", "hd"]], batch_format="pandas"),
            vec.map_batches(
                lambda df: df.rename(columns={"h": src})[[src, "x"]],
                batch_format="pandas"),
            on=src, n_buckets=n_buckets)

        def _contrib(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"h": df[dst].astype("int64"),
                                "x": df["x"].astype("int64")})
            out["hb"] = out["h"] % B
            return out

        def _sum(group: pd.DataFrame) -> pd.DataFrame:
            s = group.groupby("h", as_index=False)["x"].sum()
            s["x"] = s["x"].astype("int64")
            return s

        return (j.map_batches(_contrib, batch_format="pandas")
                .union(zero_ds.map_batches(
                    lambda df: df.assign(hb=(df["h"] % B)
                                         .astype("int64")),
                    batch_format="pandas"))
                .groupby("hb").map_groups(_sum,
                                          batch_format="pandas")
                .repartition(n_blocks)).materialize()

    def _global_max(vec: rd.Dataset) -> int:
        m = vec.map_batches(
            lambda df: pd.DataFrame(
                {"m": [int(df["x"].max()) if len(df) else 0]}),
            batch_format="pandas").to_pandas()
        return int(m["m"].max()) if len(m) else 0

    def _normalize(vec: rd.Dataset, m: int) -> rd.Dataset:
        if m <= 0:
            return vec
        # Exchange-path overflow guard: the max raw value IS m (a
        # global max over x), so every x·scale fits int64 iff
        # m·scale does. Unlike the broadcast path, this path has no
        # 4M-node bound, so a hub with in-degree above ~2^63/scale²
        # is reachable; fall back to exact Python-int division there
        # (result ≤ scale, so the OUTPUT always fits int64).
        wide = m > (2**63 - 1) // scale

        def _norm(df: pd.DataFrame) -> pd.DataFrame:
            xs = df["x"].to_numpy(dtype="int64")
            if wide:
                vals = np.fromiter(
                    ((int(v) * scale) // m for v in xs),
                    dtype="int64", count=len(xs))
            else:
                vals = xs * np.int64(scale) // np.int64(m)
            return pd.DataFrame({
                "h": df["h"].astype("int64"), "x": vals})

        return vec.map_batches(_norm,
                               batch_format="pandas").materialize()

    auth_ds = zero_ds
    for _ in range(n_iter):
        raw_a = _sum_exchange(hub_ds, "hs", "hd")
        auth_ds = _normalize(raw_a, _global_max(raw_a))
        raw_h = _sum_exchange(auth_ds, "hd", "hs")
        hub_ds = _normalize(raw_h, _global_max(raw_h))

    both = hash_join(
        hub_ds.map_batches(
            lambda df: df.rename(columns={"x": "hub"}),
            batch_format="pandas"),
        auth_ds.map_batches(
            lambda df: df.rename(columns={"x": "authority"}),
            batch_format="pandas"),
        on="h", n_buckets=n_buckets)
    out = hash_join(both, nodes.map_batches(
        lambda df: df[["h", "node"]], batch_format="pandas"),
        on="h", n_buckets=n_buckets)
    return out.map_batches(
        lambda df: df[["node", "hub", "authority"]],
        batch_format="pandas")


def random_walks(edges: rd.Dataset | None, n_steps: int = 3,
                 n_buckets: int = 64,
                 broadcast_max_nodes: int = 1_000_000,
                 deg_pre: rd.Dataset | None = None,
                 nodes_pre: rd.Dataset | None = None) -> rd.Dataset:
    """Deterministic random-walk corpus over the directed edge set —
    the walk-sequence generator of DeepWalk/node2vec-style graph
    embedding training, with the RNG replaced by a replayable hash
    coin so the oracle can re-derive every step.

    One walk starts at EVERY node; step ``t`` moves from node ``v``
    to its ``md5(str(hv) || '|' || str(t)) % outdeg(v)``-th
    out-neighbor in dst-hash order (hv = v's md5-15 node hash); a
    node with no out-edges ends its walk. Returns (start, step,
    node) — step 0 is the start node itself.

    Two executions of the same step rule (equality-tested):

    - **broadcast-state path** (node count ≤ ``broadcast_max_nodes``):
      the walk STATE is node-sized — tiny next to the edge set — so
      the adjacency is materialized ONCE into bucket-aligned sorted
      blocks (each block holds its sources' complete neighbor runs)
      and each step is one ``ray.put`` of the (start, cur) arrays +
      one ``map_batches`` over those static blocks (a walk's current
      node matches exactly one block, searchsorted picks the
      neighbor) + a walk-count-bounded driver merge. The adjacency
      never moves again — measured 10.6 s → ~3 s at sf0.1 vs the
      exchange path's per-step adjacency re-shuffle.
    - **exchange path** (above the threshold): L exchanges, one per
      step — walk-state int64 rows bucket by ``cur % B`` together
      with the adjacency rows, in-bucket searchsorted pick, string
      resolution via hash join. Nothing node-shaped on the driver.
    """
    import ray

    from .dedup_docs import _cached_get, _gram_hash

    B = np.int64(n_buckets)
    n_blocks = max(8, n_buckets // 4)
    import pyarrow as pa
    out_schema = pa.schema([("start", pa.string()),
                            ("step", pa.int64()),
                            ("node", pa.string())])

    if deg_pre is not None:
        assert nodes_pre is not None

        def _adj_pre(df: pd.DataFrame) -> pd.DataFrame:
            hs = df["hs"].astype("int64")
            return pd.DataFrame({
                "kind": np.int64(0), "a": hs,
                "b": df["hd"].astype("int64"),
                "t": np.int64(0), "cb": hs % B})

        adj = (deg_pre.map_batches(_adj_pre, batch_format="pandas")
               .repartition(n_blocks)).materialize()
        nodes = nodes_pre
        base = None
    else:
        base = edges.map_batches(
            lambda df: tagged_graph_scan(df),
            batch_format="pandas").materialize()

        def _adj_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df[df["kind"] == 0]
            hs = g["a"].astype("int64")
            out = pd.DataFrame({"kind": np.int64(0), "a": hs,
                                "b": g["b"].astype("int64")})
            out["t"] = np.int64(0)
            out["cb"] = out["a"] % B
            return out.drop_duplicates(["a", "b"])

        adj = (base.map_batches(_adj_rows, batch_format="pandas")
               .groupby("cb").map_groups(
                   lambda g: g.drop_duplicates(["a", "b"]),
                   batch_format="pandas")
               .repartition(n_blocks)).materialize()

        def _node_rows(df: pd.DataFrame) -> pd.DataFrame:
            g = df[df["kind"] == 1]
            out = pd.DataFrame({"h": g["a"].astype("int64"),
                                "node": g["node"].astype(str)})
            out["nb"] = out["h"] % B
            return out

        # materialized BEFORE the probe: the probe's driver
        # iter_batches pass executes this groupby lineage, and the
        # later consumers (walk seeding, resolve_names, the exchange
        # path's name join) would otherwise RE-execute it — the
        # re-execution-after-driver-pass pattern documented above as
        # corrupting re-run blocks on this Ray version
        nodes = (base.map_batches(_node_rows, batch_format="pandas")
                 .groupby("nb").map_groups(
                     lambda g: g[["h", "node"]].drop_duplicates("h"),
                     batch_format="pandas").repartition(n_blocks)
                 ).materialize()

    # ---- broadcast-state path: node-hash probe over the node map
    H = _bounded_distinct_probe(nodes, ("h",),
                                broadcast_max_nodes)

    # the block-local neighbor pick below requires every adjb block
    # to hold COMPLETE out-neighbor runs; map_groups emits whole
    # groups per block and Ray only splits a block when one group's
    # output exceeds the target block size, so bound the expected
    # PER-GROUP rows well under it (4M rows × 16 B = 64 MB vs the
    # 128 MB default — scaled by the actual bucket count) and take
    # the exchange path past the bound
    if H is not None and adj.count() > n_buckets * 4_000_000:
        H = None

    if H is not None:
        if not len(H):
            return rd.from_arrow(out_schema.empty_table())
        # bucket-aligned adjacency: one exchange, then each block is
        # fully sorted so it holds its sources' COMPLETE neighbor
        # runs — the walk state streams over these static blocks
        adjb = (adj.groupby("cb").map_groups(
            lambda g: g[["a", "b"]].drop_duplicates(),
            batch_format="pandas")
            .map_batches(
                lambda df: df.sort_values(["a", "b"], kind="stable"),
                batch_format="pandas", batch_size=None)).materialize()
        start = H.copy()
        cur = H.copy()
        frames = [pd.DataFrame({"sh": start, "ch": cur,
                                "step": np.int64(0)})]
        step_empty = pd.DataFrame({
            "sh": pd.Series([], dtype="int64"),
            "ch": pd.Series([], dtype="int64")})
        for t in range(1, n_steps + 1):
            ref = ray.put((start, cur))

            def _stepb(df: pd.DataFrame, _t=t, _ref=ref
                       ) -> pd.DataFrame:
                s0, c0 = _cached_get(_ref)
                src = df["a"].to_numpy(dtype="int64")
                dst = df["b"].to_numpy(dtype="int64")
                if not len(src) or not len(c0):
                    return step_empty
                lo = np.searchsorted(src, c0, side="left")
                hi = np.searchsorted(src, c0, side="right")
                alive = hi > lo
                if not alive.any():
                    return step_empty
                cs = c0[alive]
                dg = (hi - lo)[alive]
                uq, inv = np.unique(cs, return_inverse=True)
                hv = np.fromiter(
                    (_gram_hash(f"{u}|{_t}") for u in uq),
                    dtype=np.int64, count=len(uq))[inv]
                pick = lo[alive] + (hv % dg)
                return pd.DataFrame({"sh": s0[alive],
                                     "ch": dst[pick]})

            nxt = adjb.map_batches(_stepb, batch_format="pandas",
                                   batch_size=None).to_pandas()
            if not len(nxt):
                break
            start = nxt["sh"].to_numpy(dtype="int64")
            cur = nxt["ch"].to_numpy(dtype="int64")
            frames.append(pd.DataFrame({"sh": start, "ch": cur,
                                        "step": np.int64(t)}))
        # RESULT-sized string resolution (shared tail; the earlier
        # per-hash groupby().min() here was a pure-Python loop over
        # 846k single-row string groups, measured 26 s)
        hh, names = resolve_names(nodes, np.concatenate(
            [f["sh"].to_numpy(dtype="int64") for f in frames]
            + [f["ch"].to_numpy(dtype="int64") for f in frames]))
        allw = pd.concat(frames, ignore_index=True)

        def _lk(a: np.ndarray) -> np.ndarray:
            # every walk hash is in the node map by construction;
            # searchsorted beats Series.map ~5× at walk-corpus size
            return names[np.searchsorted(hh, a)]

        out = pd.DataFrame({
            "start": _lk(allw["sh"].to_numpy(dtype="int64")),
            "step": allw["step"].astype("int64"),
            "node": _lk(allw["ch"].to_numpy(dtype="int64"))})
        return rd.from_pandas(out)

    # ---- exchange path: nothing node-shaped on the driver ----------
    # walk state: kind=1 rows (a=start-hash, b=cur-hash, t=step) —
    # seeded from the DEDUPLICATED node map (the raw-scan kind=1 rows
    # are only per-batch distinct; seeding from them would start a
    # walk once per batch a node appears in)
    def _start_rows(df: pd.DataFrame) -> pd.DataFrame:
        h = df["h"].astype("int64")
        return pd.DataFrame({"kind": np.int64(1), "a": h, "b": h,
                             "t": np.int64(0), "cb": h % B})

    state = nodes.map_batches(_start_rows,
                              batch_format="pandas").materialize()
    emitted = [state]

    def _step(group: pd.DataFrame) -> pd.DataFrame:
        ad = group[group["kind"] == 0].drop_duplicates(["a", "b"]) \
            .sort_values(["a", "b"], kind="stable")
        wk = group[group["kind"] == 1]
        if not len(wk) or not len(ad):
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("kind", "a", "b", "t",
                                           "cb")})
        src = ad["a"].to_numpy(dtype="int64")
        dst = ad["b"].to_numpy(dtype="int64")
        bounds_lo = np.searchsorted(src, wk["b"].to_numpy("int64"),
                                    side="left")
        bounds_hi = np.searchsorted(src, wk["b"].to_numpy("int64"),
                                    side="right")
        deg = bounds_hi - bounds_lo
        alive = deg > 0
        if not alive.any():
            return pd.DataFrame({c: pd.Series([], dtype="int64")
                                 for c in ("kind", "a", "b", "t",
                                           "cb")})
        w = wk[alive]
        cur = w["b"].to_numpy(dtype="int64")
        t = w["t"].to_numpy(dtype="int64")
        dg = deg[alive]
        keys = pd.Series([f"{c}|{tt + 1}" for c, tt in zip(cur, t)])
        uniq, inv = np.unique(keys.to_numpy(), return_inverse=True)
        hv = np.fromiter((_gram_hash(u) for u in uniq),
                         dtype=np.int64, count=len(uniq))[inv]
        pick = bounds_lo[alive] + (hv % dg)
        nxt = dst[pick]
        out = pd.DataFrame({"kind": np.int64(1),
                            "a": w["a"].to_numpy(dtype="int64"),
                            "b": nxt, "t": t + 1})
        out["cb"] = out["b"] % B
        return out

    for _ in range(n_steps):
        state = (adj.union(state).groupby("cb")
                 .map_groups(_step, batch_format="pandas")
                 .repartition(n_blocks)).materialize()
        if not state.count():
            break
        emitted.append(state)

    from .joins import hash_join
    walks = emitted[0]
    for e in emitted[1:]:
        walks = walks.union(e)

    def _walk_rows(df: pd.DataFrame) -> pd.DataFrame:
        g = df[df["kind"] == 1] if "kind" in df.columns else df
        return pd.DataFrame({"sh": g["a"].astype("int64"),
                             "ch": g["b"].astype("int64"),
                             "step": g["t"].astype("int64")})

    w = walks.map_batches(_walk_rows, batch_format="pandas")
    nm = nodes.map_batches(
        lambda df: pd.DataFrame({"h": df["h"].astype("int64"),
                                 "node": df["node"].astype(str)}),
        batch_format="pandas")
    j1 = hash_join(w, nm.map_batches(
        lambda df: df.rename(columns={"h": "sh",
                                      "node": "start"}),
        batch_format="pandas"), on="sh", n_buckets=n_buckets)
    j2 = hash_join(j1, nm.map_batches(
        lambda df: df.rename(columns={"h": "ch", "node": "node"}),
        batch_format="pandas"), on="ch", n_buckets=n_buckets)
    return j2.map_batches(
        lambda df: df[["start", "step", "node"]],
        batch_format="pandas")

"""Pipeline stages (SURVEY.md §7.1).

Stage order: detect (stateless map_batches over turns) → finalize
(bucket exchange over candidate facts: sort on the conversation-hash
bucket, one call per sorted block) → link (task or actor pool) →
template (stateless map_batches) → dedup (the same exchange on the
triple-hash bucket). The exchange is ``dedup.bucket_exchange``, which
the SPARQL operators and the partitioned joins use too.
"""

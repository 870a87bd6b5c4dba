"""Permissioned append-only ledger: world state, hash-chained blocks, and the
propose / endorse / order / commit pipeline replicated across organization
nodes. A client loads ``client`` and what it needs; ``node`` and ``ordering``
run on the server side only.
"""

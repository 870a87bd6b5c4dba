"""Federated provenance tracking on a permissioned, hash-chained ledger.

The package wires together six cooperating subsystems:

* ``identity``     -- per-federation PKI: organizations, user identities,
  signed permission grants, and the authorization predicate used by the
  ledger.
* ``ledger``       -- an append-only, hash-chained ledger replicated across
  organization nodes with an endorse/order/commit pipeline.
* ``pid_registry`` -- a handle-style persistent identifier service with
  linear version chains; it answers only what the ledger has committed.
* ``prov_store``   -- immutable, content-addressed storage of provenance
  documents plus the update classifier.
* ``updates``      -- the atomic update coordinator: ``publish`` and
  ``update-prov`` store blobs, reserve PIDs, then commit one ledger
  transaction, the only commit point.
* ``lineage``      -- the cross-experiment derivation graph: lineage traces,
  invalidation cascades, and iteration histories.

``cli`` exposes the whole system as the ``fedprov`` command; ``scenarios``
contains executable end-to-end walkthroughs that double as integration
fixtures.
"""

__version__ = "0.1.0"

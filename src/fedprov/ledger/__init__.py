"""Permissioned append-only ledger: world state, hash-chained blocks, and the
propose / endorse / order / commit pipeline replicated across organization
nodes.
"""

from .values import LedgerValue
from .blocks import Block, genesis_block, verify_chain_file, VerificationReport
from .node import OrgNode
from .ordering import OrderingService
from .client import LedgerClient, Receipt

__all__ = [
    "Block",
    "LedgerClient",
    "LedgerValue",
    "OrderingService",
    "OrgNode",
    "Receipt",
    "VerificationReport",
    "genesis_block",
    "verify_chain_file",
]

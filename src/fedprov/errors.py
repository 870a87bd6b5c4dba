"""Exception hierarchy shared across subsystems.

The CLI maps each of these to an exit code; related errors share one (see
``cli._ERROR_EXITS``).
"""

from __future__ import annotations


class FedprovError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FedprovError):
    """Federation configuration is missing, malformed, or inconsistent."""


class UnknownOrgError(FedprovError):
    """Referenced organization is not part of the federation."""


class DuplicateUserError(FedprovError):
    """A user id is already registered in the federation."""


class UnauthorizedError(FedprovError):
    """Caller lacks ownership or a valid grant for the operation."""


class UnknownPIDError(FedprovError):
    """PID is malformed or does not resolve in the registry."""


class SuccessorExistsError(FedprovError):
    """The old version already has a successor; version chains are linear."""


class KindMismatchError(FedprovError):
    """Operation applied to a PID of the wrong object kind."""


class BrokenChainError(FedprovError):
    """A version-chain link points at a record that fails to resolve."""


class RegistryUnavailableError(FedprovError):
    """The PID registry cannot be reached or its storage is unusable."""


class InvalidDocumentError(FedprovError):
    """Provenance document violates structural invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid document: " + "; ".join(violations))
        self.violations = violations


class DocumentNotFoundError(FedprovError):
    """No stored content for the given URI."""


class ChecksumMismatchError(FedprovError):
    """Fetched bytes do not hash to the expected checksum."""


class IllegalUpdateError(FedprovError):
    """Proposed document revision removes or alters original content."""


class LedgerRejectedError(FedprovError):
    """The ledger refused to commit the transaction."""

    def __init__(self, message: str, receipt: dict | None = None):
        super().__init__(message)
        self.receipt = receipt


class EndorsementPolicyUnmetError(LedgerRejectedError):
    """Collected endorsements do not satisfy the federation policy."""


class SimulationDivergenceError(LedgerRejectedError):
    """Endorsing peers returned inconsistent simulation results."""


class NotInvalidatedError(FedprovError):
    """Cascade refused: the source artifact is still valid on the ledger."""


class CycleError(FedprovError):
    """Derivation graph is not acyclic; provenance is inconsistent."""


class TransportError(FedprovError):
    """A peer or service endpoint could not be reached."""

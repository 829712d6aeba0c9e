"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
GatewayError -> 4.
"""


class PatternQRError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PatternQRError):
    """Invalid or inconsistent configuration (bad flags, missing files, mismatched models)."""


class DataError(PatternQRError):
    """Malformed or invariant-violating data (corpus files, runs, qrels, pair files)."""


class GatewayError(PatternQRError):
    """LLM gateway failure."""


class TransportError(GatewayError):
    """Transient network failure that exhausted its retries.

    Carries the per-attempt error log in ``attempts``, and in ``retry_after``
    the least number of seconds the service asked to wait before a retry.
    """

    def __init__(
        self, message: str, attempts: list[str] | None = None, retry_after: float | None = None
    ):
        super().__init__(message)
        self.attempts = attempts or []
        self.retry_after = retry_after


class ProtocolError(GatewayError):
    """The service answered but the response body was not a valid chat completion."""


class MockMissError(GatewayError):
    """A scripted mock had no entry for the request fingerprint and no fallback."""

    def __init__(self, fingerprint: str):
        super().__init__(
            f"mock script has no entry for request fingerprint {fingerprint} and no fallback"
        )
        self.fingerprint = fingerprint

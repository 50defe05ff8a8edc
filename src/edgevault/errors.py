"""Error taxonomy shared across the toolkit.

Every error carries a stable machine-readable ``code`` so the CLI can emit a
uniform error envelope and callers can dispatch without string matching.

Malformed input follows one rule.  Each parser of outside data declares its
error with :func:`parses`.  An exception in ``MALFORMED`` or an
``EdgeVaultError`` (from a nested parser, say) escaping it is re-raised as
that error, so the outermost parser names the code.  A parser checks what
later code indexes (lengths, ranges, cross-references) and catches nothing.
"""

import functools


class EdgeVaultError(Exception):
    """Base class; ``code`` is stable across releases, the message is not."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.__doc__ or self.code)


#: built-in exceptions that mean bad input; ``ValueError`` covers bad UTF-8 and
#: JSON, ``AttributeError`` a JSON list where a mapping belongs
MALFORMED = (LookupError, ValueError, TypeError, OverflowError, RecursionError, AttributeError)


def parses(error: type[EdgeVaultError], what: str):
    """Make ``error`` the parser's error; ``what`` starts its message and may
    name the parser's positional arguments as ``{0}``, ``{1}``..."""

    def decorate(parser):
        @functools.wraps(parser)
        def wrapper(*args, **kwargs):
            try:
                return parser(*args, **kwargs)
            except (*MALFORMED, EdgeVaultError) as exc:
                raise error(f"{what.format(*args)}: {exc}") from exc

        return wrapper

    return decorate


# --- quasigroup algebra ---

class InvalidOrderError(EdgeVaultError):
    code = "invalid-order"


class MalformedTableError(EdgeVaultError):
    code = "malformed-table"


class InvalidElementError(EdgeVaultError):
    code = "invalid-element"


# --- secret splitting / share verification ---

class EmptySecretError(EdgeVaultError):
    code = "empty-secret"


class UnsupportedOrderError(EdgeVaultError):
    code = "unsupported-order"


class EncryptionError(EdgeVaultError):
    code = "encryption-failure"


class ShareVerificationError(EdgeVaultError):
    """Base for the distinct combine-time failure modes."""

    code = "share-verification-failure"


class DecryptFailureError(ShareVerificationError):
    code = "decrypt-failure"


class TagMismatchError(ShareVerificationError):
    code = "tag-mismatch"


class AlgebraFailureError(ShareVerificationError):
    code = "algebra-failure"


class ChecksumMismatchError(ShareVerificationError):
    code = "checksum-mismatch"


# --- crypto core ---

class AuthenticationFailure(EdgeVaultError):
    code = "authentication-failure"


class ClockError(EdgeVaultError):
    code = "clock-error"


# --- elliptic-curve identity ---

class CurveError(EdgeVaultError):
    code = "invalid-curve"


class GroupFullError(EdgeVaultError):
    code = "group-full"


class DuplicateDeviceError(EdgeVaultError):
    code = "duplicate-device"


class RefuseSyncError(EdgeVaultError):
    code = "refuse-sync"


# --- key lifecycle ---

class UnknownKeyError(EdgeVaultError):
    code = "unknown-key"


class WrongPurposeError(EdgeVaultError):
    code = "wrong-purpose"


class AlreadySplitError(EdgeVaultError):
    code = "already-split"


class KeyStateError(EdgeVaultError):
    code = "key-state"


# --- data profiler ---

class TooFewSamplesError(EdgeVaultError):
    code = "too-few-samples"


class NonFiniteValuesError(EdgeVaultError):
    code = "non-finite-values"


class ZeroVarianceError(EdgeVaultError):
    code = "zero-variance"


class TooFewDistinctValuesError(EdgeVaultError):
    code = "too-few-distinct-values"


class ValueRangeError(EdgeVaultError):
    code = "value-range"


# --- access filter ---

class FilterParameterError(EdgeVaultError):
    code = "parameter-out-of-range"


# --- simulation ---

class ClassificationError(EdgeVaultError):
    code = "unclassified-record"


class ScenarioConfigError(EdgeVaultError):
    code = "config-error"


# --- CLI / state files ---

class StateError(EdgeVaultError):
    code = "corrupted-state"

"""Exception hierarchy for the isis-vs reproduction.

Every error raised by the library derives from :class:`IsisError` so that
applications can catch toolkit failures without masking programming errors.
"""

from __future__ import annotations


class IsisError(Exception):
    """Base class for all errors raised by the toolkit."""


class SimulationError(IsisError):
    """The discrete-event kernel was used incorrectly."""


class TaskKilled(BaseException):
    """Injected into a task's generator when its owning process dies.

    Derives from ``BaseException`` (like ``GeneratorExit``) so that task code
    which catches ``Exception`` for application purposes does not
    accidentally survive the death of its process.
    """


class CodecError(IsisError):
    """A message or address could not be encoded or decoded."""


class AddressError(CodecError):
    """An address was malformed or used in the wrong context."""


class NetworkError(IsisError):
    """Transport-level failure (e.g. destination site is down)."""


class SiteDown(NetworkError):
    """The destination site has failed (and this was observed)."""


class GroupError(IsisError):
    """Process-group operation failed."""


class NoSuchGroup(GroupError):
    """Symbolic name lookup failed or the group no longer exists."""


class JoinRefused(GroupError):
    """A join request was rejected (e.g. by the protection tool)."""


class BroadcastFailed(IsisError):
    """A multicast could not collect the requested number of replies.

    This is the error code of §3.2 / §5: *"the caller will now obtain an
    error code from the multicast it used to issue the query"* — raised when
    all remaining potential respondents have failed.
    """

    def __init__(self, message: str, replies: list | None = None):
        super().__init__(message)
        #: Replies that *were* collected before the failure was detected.
        self.replies: list = list(replies or [])


class StateTransferError(GroupError):
    """A state transfer could not be completed."""


class RecoveryError(IsisError):
    """The recovery manager could not restart a group."""


class ProtectionError(IsisError):
    """The protection tool rejected a message or join."""


class SemaphoreError(IsisError):
    """Replicated semaphore misuse (e.g. V without matching P)."""


class DeadlockDetected(SemaphoreError):
    """The semaphore tool detected a wait-for cycle."""


class TransactionAborted(IsisError):
    """A transaction was rolled back (explicitly or by failure)."""

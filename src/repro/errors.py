"""Exception hierarchy for the repro (Chase & Backchase) library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  More specific classes are provided for the
major subsystems: the surface language, schema definition, the chase engine,
and the execution engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ParseError(ReproError):
    """Raised when the OQL-like surface syntax cannot be parsed.

    Attributes
    ----------
    message:
        Human-readable description of the problem.
    position:
        Character offset in the input at which the error was detected, or
        ``None`` when not applicable.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self):
        if self.position is None:
            return self.message
        return f"{self.message} (at position {self.position})"


class SchemaError(ReproError):
    """Raised for inconsistent schema definitions.

    Examples: a relation declared twice, an index over a missing attribute,
    or a materialized view whose defining query references an unknown name.
    """


class QueryError(ReproError):
    """Raised when a query is malformed with respect to a schema.

    Examples: a binding over an unknown collection, an output path rooted at
    an unbound variable, or a condition using a variable that is never bound.
    """


class ConstraintError(ReproError):
    """Raised when a dependency (constraint) is malformed.

    Examples: an existential binding that references a variable bound neither
    universally nor earlier in the existential prefix.
    """


class ChaseError(ReproError):
    """Raised when the chase or backchase cannot proceed.

    The most common cause is a non-terminating chase detected via the
    ``max_rounds`` safety bound.
    """


class ChaseTimeout(ReproError):
    """Raised when a chase required by a timeboxed search exceeds its deadline.

    Only raised on paths that cannot report a partial result through a
    ``timed_out`` flag (e.g. :meth:`repro.chase.implication.ChaseCache.chase`
    inside a backchase equivalence check); the top-level
    :func:`repro.chase.chase.chase` returns a :class:`ChaseResult` with
    ``timed_out=True`` instead.
    """


class ExecutionError(ReproError):
    """Raised by the execution engine when a plan cannot be evaluated.

    Examples: a plan referencing a collection that is not populated in the
    database instance, or a dictionary lookup on a key path that cannot be
    resolved.
    """


class ServiceOverloaded(ReproError):
    """Raised when the optimizer service rejects a request at admission.

    A shard whose queue depth (queued + executing requests) has reached its
    ``max_queue_depth`` bound sheds load instead of buffering without bound;
    the socket front end translates this into a typed ``overloaded`` JSONL
    response so clients can back off and retry.

    Attributes
    ----------
    shard:
        The shard that rejected the request.
    queue_depth:
        The depth observed at rejection time.
    retry_after:
        Optional hint (seconds) for how long a client should back off before
        retrying; surfaced on the ``overloaded`` JSONL record and honoured by
        :class:`~repro.service.client.OptimizerClient`.
    """

    def __init__(self, message, shard=None, queue_depth=None, retry_after=None):
        super().__init__(message)
        self.shard = shard
        self.queue_depth = queue_depth
        self.retry_after = retry_after


class ProtocolError(ReproError):
    """Raised when a JSONL frame on the wire cannot be understood.

    The client's reader thread raises this to every pending future when the
    response stream desynchronises (a malformed or truncated line): once
    framing is lost, no in-flight request on that connection can be matched
    to a response, so the connection is torn down and the caller may retry
    on a fresh one.
    """


class ConnectionLost(ReproError, ConnectionError):
    """Raised to pending futures when the server connection goes away.

    Subclasses :class:`ConnectionError` so callers that treated the untyped
    historical failure (``ConnectionError("connection closed ...")``) keep
    working; the retry layer treats it as transient.
    """


class CodecError(ReproError, ValueError):
    """Raised when a session document does not decode (or encode).

    :func:`repro.service.codec.decode_session` raises it for anything that
    is not a well-formed session document.  Subclasses :class:`ValueError`
    so ``except ValueError`` handlers count it as a rejection.
    """


class SnapshotError(ReproError):
    """Raised when a cache snapshot cannot be read or fails validation.

    Covers every way an operator-supplied snapshot file can be unusable:
    missing, truncated, not a snapshot (an old pickle snapshot included),
    failing its body checksum, or carrying an unsupported version.  Loaders
    degrade to a cold start instead of crashing the server at boot.

    Attributes
    ----------
    path:
        The snapshot file involved.
    reason:
        Short machine-readable cause (``"missing"``, ``"corrupt"``,
        ``"checksum"``, ``"version"``, ``"io"``).
    """

    def __init__(self, message, path=None, reason=None):
        super().__init__(message)
        self.path = path
        self.reason = reason


class RunnerCrash(ReproError):
    """A shard runner thread died while executing a request.

    The shard supervisor resolves the in-flight request's future with this
    error (never a hung future), restarts the runner, and keeps serving.

    Attributes
    ----------
    shard:
        The shard whose runner died.
    request_id:
        The request that was executing when the runner died.
    """

    def __init__(self, message, shard=None, request_id=None):
        super().__init__(message)
        self.shard = shard
        self.request_id = request_id


class InjectedFault(ReproError):
    """A transient failure raised by :class:`~repro.service.faults.FaultInjector`.

    Derives from :class:`Exception`, so ordinary per-request error handling
    (engine failure -> typed ``error`` response) absorbs it; IO sites treat
    it as the corresponding IO failure (dropped connection, failed write).

    Attributes
    ----------
    site:
        The fault-injection site that fired (e.g. ``"server.write"``).
    """

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class InjectedCrash(BaseException):
    """A fault-injected *crash*: sails through ``except Exception`` handlers.

    Used by the chaos suite to kill a shard runner thread mid-request the
    way a real unhandled executor failure would, exercising the supervisor's
    detect/restart/fail-the-in-flight-request path.  Deliberately not a
    :class:`ReproError` (nor an :class:`Exception`): anything that catches it
    would defeat its purpose.
    """

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site

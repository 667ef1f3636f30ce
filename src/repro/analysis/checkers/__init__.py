"""The repro-lint checkers (see each module's docstring for the rule).

Three module-scope rules plus four project-scope families over the
whole-program :class:`~repro.analysis.project.ProjectModel`.
"""

from repro.analysis.checkers.deadline import DeadlinePropagationChecker
from repro.analysis.checkers.futures import FutureResolutionChecker
from repro.analysis.checkers.lock_discipline import LockDisciplineChecker
from repro.analysis.checkers.lock_order import LockOrderChecker
from repro.analysis.checkers.metrics_conformance import MetricsConformanceChecker
from repro.analysis.checkers.protocol_conformance import ProtocolConformanceChecker
from repro.analysis.checkers.resources import ResourceLifecycleChecker

ALL_CHECKERS = (
    LockDisciplineChecker,
    DeadlinePropagationChecker,
    FutureResolutionChecker,
    LockOrderChecker,
    ResourceLifecycleChecker,
    MetricsConformanceChecker,
    ProtocolConformanceChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "DeadlinePropagationChecker",
    "FutureResolutionChecker",
    "LockDisciplineChecker",
    "LockOrderChecker",
    "MetricsConformanceChecker",
    "ProtocolConformanceChecker",
    "ResourceLifecycleChecker",
]

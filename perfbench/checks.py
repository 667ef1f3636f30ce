"""Output checking: every response against the checked-in reference table.

An operation fails when its response is an error, ``overloaded`` or
``timed_out``, when it never arrives, or when its plan digests or plan count
differ from ``reference.json`` (or from the workload module's closed-form
plan count, where one exists).  Only the last two make the run incorrect.
"""

from __future__ import annotations

import json
import os
from collections import Counter

from configs import request_key

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def closed_form_plan_count(workload, params):
    """The plan count the workload module predicts, or ``None`` when it has no formula."""
    if workload == "ec1":
        from repro.workloads.ec1 import expected_plan_count

        return expected_plan_count(params["relations"], params.get("secondary_indexes", 0))
    if workload == "ec3" and params.get("asrs", 0) == 0:
        from repro.workloads.ec3 import expected_plan_count

        return expected_plan_count(params["classes"])
    return None


class Tally:
    """Attempted / failed operation counts, with the reason for each failure."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = Counter()
        self._closed_forms = {}

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        """No response contradicted the reference and none went missing."""
        return not (self.failures["mismatch"] or self.failures["missing"])

    def fail(self, reason, count=1):
        self.failures[reason] += count

    def check(self, request, status, plan_count=None, plan_digests=None, timed_out=False):
        """Count one completed operation; returns ``True`` when it succeeded."""
        self.attempted += 1
        if status != "ok":
            self.fail("overloaded" if status == "overloaded" else "error")
            return False
        if timed_out:
            self.fail("timed_out")
            return False
        workload, params, _ = request
        expected = self.reference.get(request_key(*request))
        if expected is None:
            raise KeyError(f"no reference entry for {request!r}; run make_reference.py")
        closed_form = self._closed_form(workload, params)
        if (
            plan_digests != expected["plan_digests"]
            or plan_count != expected["plan_count"]
            or (closed_form is not None and plan_count != closed_form)
        ):
            self.fail("mismatch")
            return False
        return True

    def missing(self, count):
        """Operations submitted whose response never arrived."""
        self.attempted += count
        self.fail("missing", count)

    def _closed_form(self, workload, params):
        key = (workload, tuple(sorted(params.items())))
        if key not in self._closed_forms:
            self._closed_forms[key] = closed_form_plan_count(workload, params)
        return self._closed_forms[key]

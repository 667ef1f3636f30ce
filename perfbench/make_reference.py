"""Regenerate ``reference.json``: the expected plan digests of every request.

Each entry comes from one single-shot ``CBOptimizer(catalog).optimize`` call
(fresh optimizer, no shared caches), so the table is independent of the
service, the socket path and every cache the workloads exercise.  Where the
workload module has a closed-form plan count it is checked here as well.

Run from the repository root (only when the request sets change, and at the
commit whose plans the table should pin)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from configs import CHURN_CATALOGS, COLD_PAIRS, mix_requests, request_key
    from checks import REFERENCE_PATH, closed_form_plan_count
    from repro.chase.optimizer import CBOptimizer
    from repro.experiments.harness import default_service_mix
    from repro.service.protocol import WORKLOAD_BUILDERS, plan_digest

    requests = {}
    for workload, params, strategy in (
        COLD_PAIRS + CHURN_CATALOGS + mix_requests(default_service_mix())
    ):
        requests[request_key(workload, params, strategy)] = (workload, params, strategy)
    table = {}
    for key in sorted(requests):
        workload, params, strategy = requests[key]
        built = WORKLOAD_BUILDERS[workload][0](**params)
        result = CBOptimizer(built.catalog).optimize(built.query, strategy, timeout=120.0)
        if result.timed_out:
            raise SystemExit(f"{key}: timed out; the reference must be complete")
        expected = closed_form_plan_count(workload, params)
        if expected is not None and expected != result.plan_count:
            raise SystemExit(f"{key}: {result.plan_count} plans, closed form says {expected}")
        table[key] = {"plan_count": result.plan_count, "plan_digests": plan_digest(result.plans)}
        print(f"{key}: {result.plan_count} plans", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()

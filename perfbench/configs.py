"""The request sets the workloads draw from, and the key of each request.

A request is a ``(workload, params, strategy)`` triple: ``workload`` names an
EC builder (``ec1``/``ec2``/``ec3``), ``params`` are that builder's keyword
arguments, ``strategy`` is ``fb``/``oqf``/``ocs``.  The same triple is what the
JSONL protocol carries, so one key identifies a request on every path.
"""

from __future__ import annotations

import random

#: cold-optimize: 41 pairs whose single-shot optimize takes roughly 10-450 ms
#: on a 2-vCPU host (no pair times out, none is trivial).
COLD_PAIRS = (
    ("ec1", {"relations": 2, "secondary_indexes": 0}, "fb"),
    ("ec1", {"relations": 2, "secondary_indexes": 0}, "ocs"),
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "fb"),
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "oqf"),
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "ocs"),
    ("ec1", {"relations": 2, "secondary_indexes": 2}, "oqf"),
    ("ec1", {"relations": 2, "secondary_indexes": 2}, "ocs"),
    ("ec1", {"relations": 3, "secondary_indexes": 0}, "fb"),
    ("ec1", {"relations": 3, "secondary_indexes": 0}, "ocs"),
    ("ec1", {"relations": 3, "secondary_indexes": 1}, "ocs"),
    ("ec1", {"relations": 3, "secondary_indexes": 2}, "oqf"),
    ("ec1", {"relations": 3, "secondary_indexes": 2}, "ocs"),
    ("ec1", {"relations": 3, "secondary_indexes": 3}, "oqf"),
    ("ec1", {"relations": 4, "secondary_indexes": 3}, "oqf"),
    ("ec1", {"relations": 4, "secondary_indexes": 4}, "oqf"),
    ("ec1", {"relations": 5, "secondary_indexes": 4}, "oqf"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "fb"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "oqf"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "ocs"),
    ("ec2", {"stars": 1, "corners": 4, "views": 2}, "fb"),
    ("ec2", {"stars": 1, "corners": 4, "views": 3}, "ocs"),
    ("ec2", {"stars": 2, "corners": 2, "views": 1}, "fb"),
    ("ec2", {"stars": 2, "corners": 2, "views": 1}, "oqf"),
    ("ec2", {"stars": 2, "corners": 2, "views": 1}, "ocs"),
    ("ec2", {"stars": 2, "corners": 3, "views": 1}, "fb"),
    ("ec2", {"stars": 2, "corners": 3, "views": 1}, "ocs"),
    ("ec2", {"stars": 2, "corners": 3, "views": 2}, "oqf"),
    ("ec2", {"stars": 2, "corners": 3, "views": 2}, "ocs"),
    ("ec2", {"stars": 2, "corners": 4, "views": 1}, "ocs"),
    ("ec2", {"stars": 3, "corners": 3, "views": 2}, "oqf"),
    ("ec2", {"stars": 3, "corners": 4, "views": 2}, "oqf"),
    ("ec3", {"classes": 3, "asrs": 0}, "fb"),
    ("ec3", {"classes": 3, "asrs": 0}, "oqf"),
    ("ec3", {"classes": 3, "asrs": 0}, "ocs"),
    ("ec3", {"classes": 3, "asrs": 1}, "fb"),
    ("ec3", {"classes": 3, "asrs": 1}, "ocs"),
    ("ec3", {"classes": 4, "asrs": 0}, "fb"),
    ("ec3", {"classes": 4, "asrs": 0}, "oqf"),
    ("ec3", {"classes": 4, "asrs": 0}, "ocs"),
    ("ec3", {"classes": 4, "asrs": 1}, "ocs"),
    ("ec3", {"classes": 5, "asrs": 0}, "ocs"),
)

#: churn-socket: 12 catalogs in Zipf rank order, each a distinct constraint
#: set (EC2's corner count alone does not change the constraints),
#: with the strategy its requests use.  With ``--max-sessions 8`` the
#: four least popular ones keep falling out of the session LRU.
CHURN_CATALOGS = (
    ("ec2", {"stars": 1, "corners": 3, "views": 1}, "fb"),
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "ocs"),
    ("ec3", {"classes": 3, "asrs": 0}, "fb"),
    ("ec2", {"stars": 2, "corners": 2, "views": 1}, "oqf"),
    ("ec1", {"relations": 3, "secondary_indexes": 0}, "ocs"),
    ("ec3", {"classes": 3, "asrs": 1}, "ocs"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "oqf"),
    ("ec1", {"relations": 2, "secondary_indexes": 2}, "oqf"),
    ("ec2", {"stars": 3, "corners": 2, "views": 1}, "oqf"),
    ("ec3", {"classes": 4, "asrs": 0}, "ocs"),
    ("ec1", {"relations": 3, "secondary_indexes": 1}, "ocs"),
    ("ec2", {"stars": 1, "corners": 4, "views": 3}, "ocs"),
)


def request_key(workload, params, strategy):
    """The reference-table key of one request, e.g. ``ec1:relations=2,secondary_indexes=1:fb``."""
    args = ",".join(f"{name}={params[name]}" for name in sorted(params))
    return f"{workload}:{args}:{strategy}"


def catalog_key(workload, params):
    return (workload, tuple(sorted(params.items())))


def build_catalogs(requests, builders):
    """Build each distinct catalog of ``requests`` once, constraints compiled.

    ``builders`` is ``repro.service.protocol.WORKLOAD_BUILDERS``; returns
    ``{catalog_key: workload}``.
    """
    built = {}
    for workload, params, _ in requests:
        key = catalog_key(workload, params)
        if key not in built:
            built[key] = builders[workload][0](**params)
            built[key].catalog.constraints()
    return built


def mix_requests(mix):
    """``(workload, params, strategy)`` triples of ``experiments.harness.default_service_mix``."""
    return tuple((workload.name.lower(), dict(workload.params), strategy) for workload, strategy in mix)


def shuffled_passes(items, rng):
    """Endless sequence of passes over ``items``, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def zipf_blocks(items, rng, block=100, exponent=1.0):
    """Endless Zipf(``exponent``) traffic over ``items`` in rank order.

    Each block of ``block`` requests holds every item its Zipf share of times
    (largest remainders rounded up) in a fresh seeded order, so the seed
    changes the order of the traffic but not its mix.
    """
    weights = [1.0 / (rank ** exponent) for rank in range(1, len(items) + 1)]
    shares = [block * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[: block - sum(counts)]:
        counts[index] += 1
    while True:
        order = [item for item, count in zip(items, counts) for _ in range(count)]
        rng.shuffle(order)
        yield from order


def seeded_rng(seed, stream):
    """An independent RNG per (seed, stream), so workloads never share draws."""
    return random.Random(f"{stream}:{seed}")

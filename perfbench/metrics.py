"""The end-to-end metrics of a measured phase, and each workload's stated property.

The in-process workloads (``BENCHMARK.json``'s) time each request by the CPU
time of the caller's thread, on which the serial engine does all of the
request's work.  Their wall-clock figures go in the run record only: on a
shared host they mostly measure how long the host took the vCPU away (CPU
steal), which is not the program's doing.  Their ``p50_cpu_ms`` is the
median request kind's median: the request times of a fixed mix of kinds form
clusters with gaps between them, and the median over all requests can jump
across a gap when the clusters shift a little.  The service workloads run on
several threads (and, for churn-socket, processes), so their metrics are the
wall-clock latencies the client sees.
"""

from __future__ import annotations

import statistics

from loop import percentile_ms

IN_PROCESS = ("cold-optimize", "warm-optimize")

IN_PROCESS_UNITS = {
    "setup_s": "s",
    "p50_cpu_ms": "ms",
    "p95_cpu_ms": "ms",
    "cpu_ms_per_plan": "ms",
    "peak_rss_mb": "MB",
}
SERVICE_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "p99_ms": "ms",
    "throughput_rps": "1/s",
    "ms_per_plan": "ms",
    "peak_rss_mb": "MB",
}


def units(name):
    """``{metric: unit}`` of the end-to-end metrics workload ``name`` prints."""
    return IN_PROCESS_UNITS if name in IN_PROCESS else SERVICE_UNITS


def end_to_end(name, phase):
    """The end-to-end metrics of one phase (``{name: value}``)."""
    if not phase.requests:
        raise RuntimeError("no request completed successfully")
    if name in IN_PROCESS:
        cpu = [request["cpu"] for request in phase.requests]
        return {
            "setup_s": statistics.median(phase.setup_s),
            "p50_cpu_ms": statistics.median(
                statistics.median(times) for times, _ in by_kind(phase, "cpu").values()
            )
            * 1000.0,
            "p95_cpu_ms": percentile_ms(cpu, 95),
            "cpu_ms_per_plan": per_plan_ms(phase, "cpu"),
            "peak_rss_mb": phase.peak_rss_mb,
        }
    latencies = [request["completed"] - request["submitted"] for request in phase.requests]
    plans = sum(request["plans"] for request in phase.requests)
    return {
        "setup_s": statistics.median(phase.setup_s),
        "p50_ms": percentile_ms(latencies, 50),
        "p95_ms": percentile_ms(latencies, 95),
        "p99_ms": percentile_ms(latencies, 99),
        "throughput_rps": len(latencies) / (phase.last - phase.started),
        "ms_per_plan": sum(latencies) / plans * 1000.0,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def by_kind(phase, field=None):
    """``{request key: (times, plans)}``; ``field`` names the per-request time, ``None`` for latency."""
    kinds = {}
    for request in phase.requests:
        seconds = request[field] if field else request["completed"] - request["submitted"]
        kinds.setdefault(request["key"], ([], request["plans"]))[0].append(seconds)
    return kinds


def per_plan_ms(phase, field=None):
    """The paper's measure: time per generated plan over one pass of the pairs.

    Each pair's time is its median over the run's passes (a GC pause that
    lands on one sample does not move it).
    """
    kinds = by_kind(phase, field)
    seconds = sum(statistics.median(times) for times, _ in kinds.values())
    plans = sum(count for _, count in kinds.values())
    return seconds / plans * 1000.0


def properties(name, phase):
    """The workload's stated property, measured on this phase.

    ``property_holds`` is ``False`` when the phase is not the workload it
    claims to be: a cold-optimize request that hit a chase cache (so some
    state outlived a request), a warm-optimize or warm-service hit rate under
    0.98, or a churn-socket phase without both session evictions and cache
    misses.  The in-process workloads also record their wall-clock figures.
    """
    record = {"requests": len(phase.requests), "setup_samples_s": phase.setup_s}
    hits = sum(request["cache_hits"] for request in phase.requests)
    misses = sum(request["cache_misses"] for request in phase.requests)
    if name in IN_PROCESS:
        latencies = [request["completed"] - request["submitted"] for request in phase.requests]
        record["wall"] = {
            "p50_ms": percentile_ms(latencies, 50),
            "p95_ms": percentile_ms(latencies, 95),
            "ms_per_plan": per_plan_ms(phase),
            "throughput_rps": len(latencies) / (phase.last - phase.started),
        }
    if name == "cold-optimize":
        record["cache_hits"] = hits
        record["property_holds"] = hits == 0
        return record
    record["cache_hit_rate"] = hits / (hits + misses) if hits + misses else 1.0
    record["miss_share"] = sum(
        1 for request in phase.requests if request["cache_misses"]
    ) / len(phase.requests)
    if name == "warm-optimize":
        record["property_holds"] = record["cache_hit_rate"] >= 0.98
        return record
    before, after = phase.stats_before, phase.stats_after
    record["sessions_evicted_total"] = after["sessions_evicted"]
    record["sessions_evicted_in_phase"] = after["sessions_evicted"] - before["sessions_evicted"]
    if name == "warm-service":
        record["property_holds"] = record["cache_hit_rate"] >= 0.98
    else:
        record["snapshot_bytes"] = phase.snapshot_bytes
        record["sessions_restored"] = after["sessions_restored"]
        record["property_holds"] = (
            record["sessions_evicted_in_phase"] > 0 and record["miss_share"] > 0
        )
    return record

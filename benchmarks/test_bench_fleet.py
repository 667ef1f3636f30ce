"""Fleet benchmark: routed throughput and cross-process warm state.

Runs the mixed EC1/EC2/EC3 request mix through a consistent-hash
:class:`~repro.service.fleet.FleetRouter` in front of two real TCP backends
that share one :class:`~repro.service.fleet.SnapshotStore`, then has each
backend save its sessions into the store once and probes each catalog on
the backend that did *not* compute it.  Records into ``BENCH_PR10.json``:

* **fleet vs single-shot** — identical plan-set digests (the differential
  bar) plus both wall clocks;
* **cross-process warm-hit rate** — the fraction of catalogs whose first
  request on the *peer* backend hit chase-cache or containment-memo state
  it never computed locally, read from the store on that first contact
  (must be 1.0: every catalog's file is in the store);
* router gauges (routed / rerouted / shed), the sessions saved, the time
  the saves took and the sessions the peers restored.

``BENCH_QUICK=1`` shrinks the routed phase to one round of the mix.
"""

import os
import tempfile
import time

from conftest import record_bench

from repro.chase.implication import constraints_digest
from repro.service import OptimizerClient, OptimizerServer
from repro.service.fleet import FleetRouter, SnapshotStore, StoreSaver, parse_backend
from repro.service.protocol import WORKLOAD_BUILDERS, plan_digest

BENCH_FILE = "BENCH_PR10.json"

#: The differential request mix: every workload family, every strategy.
MIX = [
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "fb"),
    ("ec1", {"relations": 3, "secondary_indexes": 0}, "ocs"),
    ("ec2", {"stars": 1, "corners": 3, "views": 1}, "fb"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "oqf"),
    ("ec3", {"classes": 3, "asrs": 0}, "fb"),
    ("ec3", {"classes": 3, "asrs": 1}, "ocs"),
]


def _records(rounds):
    records = []
    for round_index in range(rounds):
        for index, (name, params, strategy) in enumerate(MIX):
            records.append(
                {
                    "id": f"b{round_index}-{index}",
                    "workload": name,
                    "params": dict(params),
                    "strategy": strategy,
                }
            )
    return records


def _run_fleet(rounds):
    """The measured scenario; returns a dict of counters."""
    single_start = time.perf_counter()
    reference = []
    for name, params, strategy in MIX:
        builder, _ = WORKLOAD_BUILDERS[name]
        workload = builder(**params)
        result = workload.optimizer().optimize(workload.query, strategy=strategy)
        reference.append(plan_digest(result.plans))
    single_shot_wall = time.perf_counter() - single_start

    with tempfile.TemporaryDirectory() as root, OptimizerServer(
        shards=1, workers=2, store=SnapshotStore(root)
    ) as server_a:
        with OptimizerServer(shards=1, workers=2, store=server_a.service.store) as server_b:
            servers = {
                f"127.0.0.1:{server_a.port}": server_a,
                f"127.0.0.1:{server_b.port}": server_b,
            }
            with FleetRouter(list(servers)) as router:
                routed_start = time.perf_counter()
                with OptimizerClient(port=router.port) as client:
                    responses = client.request_many(_records(rounds), timeout=600)
                fleet_wall = time.perf_counter() - routed_start
                assert all(r["status"] == "ok" for r in responses)
                fleet_digests = [r["plan_digests"] for r in responses]
                digests_match = fleet_digests == reference * rounds

                # One save per backend into the shared store.
                save_start = time.perf_counter()
                sessions_saved = sum(
                    StoreSaver(server.service, server.service.store).save_caches(None)
                    for server in servers.values()
                )
                store_save_s = time.perf_counter() - save_start

                # Probe every catalog on the backend that did NOT serve it:
                # its first contact reads the catalog's file, so it is warm.
                warm_hits = 0
                peer_digests_match = True
                peer_clients = {}
                try:
                    for index, (name, params, strategy) in enumerate(MIX):
                        builder, _ = WORKLOAD_BUILDERS[name]
                        workload = builder(**params)
                        digest = constraints_digest(workload.catalog.constraints())
                        peer = router.ring.preference(digest)[1]
                        if peer not in peer_clients:
                            host, port = parse_backend(peer)
                            peer_clients[peer] = OptimizerClient(host=host, port=port)
                        response = peer_clients[peer].request(
                            {
                                "id": f"p{index}",
                                "workload": name,
                                "params": dict(params),
                                "strategy": strategy,
                            },
                            timeout=600,
                        )
                        assert response["status"] == "ok"
                        if response["plan_digests"] != reference[index]:
                            peer_digests_match = False
                        if response["cache_hits"] > 0 or response["memo_hits"] > 0:
                            warm_hits += 1
                finally:
                    for peer_client in peer_clients.values():
                        peer_client.close()
                stats = router.stats()
                sessions_restored = sum(
                    server.service.stats().sessions_restored
                    for server in servers.values()
                )
    return {
        "requests_routed": stats.routed,
        "rerouted": stats.rerouted,
        "shed": stats.shed,
        "errors": stats.errors,
        "digests_match": digests_match,
        "peer_digests_match": peer_digests_match,
        "store_sessions_saved": sessions_saved,
        "store_save_s": round(store_save_s, 4),
        "sessions_restored": sessions_restored,
        "cross_process_warm_hits": warm_hits,
        "cross_process_warm_hit_rate": round(warm_hits / len(MIX), 4),
        "single_shot_wall_s": round(single_shot_wall, 4),
        "fleet_wall_s": round(fleet_wall, 4),
    }


def test_fleet_router_and_store(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    rounds = 1 if quick else 2
    start = time.perf_counter()
    measurement = benchmark.pedantic(
        _run_fleet, kwargs={"rounds": rounds}, iterations=1, rounds=1
    )
    wall_clock = time.perf_counter() - start

    # The differential bar: the fleet is invisible to plan quality.
    assert measurement["digests_match"]
    assert measurement["peer_digests_match"]
    assert measurement["errors"] == 0
    assert measurement["shed"] == 0
    assert measurement["requests_routed"] == rounds * len(MIX)

    # After one save per backend, each peer reads every catalog it never
    # computed from the store on first contact, and serves it warm.
    assert measurement["store_sessions_saved"] == len(MIX)
    assert measurement["sessions_restored"] == len(MIX)
    assert measurement["cross_process_warm_hit_rate"] == 1.0

    record_bench(
        "fleet_router_store",
        wall_clock=wall_clock,
        counters=measurement,
        backends=2,
        rounds=rounds,
        requests=rounds * len(MIX),
        bench_file=BENCH_FILE,
    )

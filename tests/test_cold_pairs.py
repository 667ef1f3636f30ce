"""Every cold-optimize pair against the checked-in plan digests.

``perfbench/configs.py`` lists the 41 EC1-EC3 x fb/oqf/ocs pairs the
cold-optimize workload runs, and ``perfbench/reference.json`` the plan count
and plan digests each must produce.  Both files are read here without being
changed, and every pair is checked on both sides of the backchase's check
selection:

* single-shot (``CBOptimizer(catalog)``, no shared cache): every check is a
  goal-directed chase, and no request hits a cache;
* through one shared ``ChaseCacheRegistry`` and ``ContainmentMemo``, as a
  service session keeps them: a cold pass that chases full fixpoints into
  the registry, then a warm pass that finds every one of them cached.
"""

import importlib.util
import json
import os

import pytest

from repro.chase.implication import ChaseCacheRegistry
from repro.chase.optimizer import CBOptimizer
from repro.cq.memo import ContainmentMemo
from repro.service.protocol import WORKLOAD_BUILDERS, plan_digest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_configs():
    path = os.path.join(PERFBENCH, "configs.py")
    spec = importlib.util.spec_from_file_location("perfbench_configs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONFIGS = _load_configs()


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def catalogs():
    return CONFIGS.build_catalogs(CONFIGS.COLD_PAIRS, WORKLOAD_BUILDERS)


def _optimize(catalogs, pair, **optimizer_kwargs):
    workload, params, strategy = pair
    built = catalogs[CONFIGS.catalog_key(workload, params)]
    return CBOptimizer(built.catalog, **optimizer_kwargs).optimize(
        built.query, strategy, timeout=120.0
    )


def _assert_matches_reference(reference, pair, result):
    expected = reference[CONFIGS.request_key(*pair)]
    assert not result.timed_out, pair
    assert result.plan_count == expected["plan_count"], pair
    assert plan_digest(result.plans) == expected["plan_digests"], pair


def test_there_are_41_cold_pairs(reference):
    assert len(CONFIGS.COLD_PAIRS) == 41
    assert all(CONFIGS.request_key(*pair) in reference for pair in CONFIGS.COLD_PAIRS)


def test_single_shot_pairs_match_the_reference(reference, catalogs):
    for pair in CONFIGS.COLD_PAIRS:
        result = _optimize(catalogs, pair)
        _assert_matches_reference(reference, pair, result)
        assert result.cache_hits == 0, pair
        assert result.cache_misses > 0, pair


def test_shared_registry_pairs_match_the_reference_cold_then_warm(reference, catalogs):
    registry = ChaseCacheRegistry()
    memo = ContainmentMemo()
    for pair in CONFIGS.COLD_PAIRS:
        result = _optimize(catalogs, pair, cache_registry=registry, containment_memo=memo)
        _assert_matches_reference(reference, pair, result)
    for pair in CONFIGS.COLD_PAIRS:
        result = _optimize(catalogs, pair, cache_registry=registry, containment_memo=memo)
        _assert_matches_reference(reference, pair, result)
        assert result.cache_misses == 0, pair

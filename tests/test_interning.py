"""Path nodes are hash-consed: one live node per structure.

Constructing a path returns the one live node with that class and those
fields (see :mod:`repro.lang.ast`), so ``==`` on paths is identity.  These
tests hold the intern tables to that under concurrent construction and
across every way a node is rebuilt (unpickling, the session codec,
``substitute``), and hold them to their weak grip: once a cold request's
result and the process-wide closure caches are dropped, the request leaves
no node behind.
"""

import gc
import json
import os
import pickle
import sys
import threading
import time

import pytest

from repro.chase.implication import constraints_digest
from repro.chase.optimizer import CBOptimizer
from repro.cq.query import PCQuery, _shared_congruence, _shared_saturated_congruence
from repro.lang import ast
from repro.lang.ast import Attr, Const, Dom, Lookup, SchemaRef, Var, substitute
from repro.service.codec import Session, decode_session, encode_session
from repro.workloads import build_ec1, build_ec2, build_ec3


def live_nodes():
    """The number of live path nodes (each has exactly one table entry)."""
    return sum(len(table) for table in ast._TABLES)


def _structures(tag, count=30):
    """Paths of every class over names no other test builds."""
    dictionary = SchemaRef(f"{tag}_M")
    paths = [dictionary]
    for i in range(count):
        key = Var(f"{tag}_k{i}")
        entry = Lookup(dictionary, key)
        paths += [key, Const(f"{tag}-{i}"), entry, Attr(entry, "N"), Dom(Attr(entry, "N"))]
    return paths


class TestIdentity:
    def test_equal_structures_are_one_node(self):
        assert Attr(Lookup(SchemaRef("M"), Var("k")), "N") is Attr(Lookup(SchemaRef("M"), Var("k")), "N")
        assert Dom(SchemaRef("M")) is SchemaRef("M").dom
        # A variable and a schema reference with the same name stay apart.
        assert Var("R") is not SchemaRef("R")

    def test_constants_are_interned_by_type_and_value(self):
        one, true, real = Const(1), Const(True), Const(1.0)
        assert len({id(one), id(true), id(real)}) == 3
        assert one != true and one != real and true != real
        # Each keeps its own text whichever was built first.
        assert (str(one), str(true), str(real)) == ("1", "True", "1.0")
        assert Const(1) is one and Const(True) is true and Const(1.0) is real

    def test_the_closure_keeps_one_and_true_apart(self):
        query = PCQuery.parse(
            "select struct(A: r.A) from R r where r.A = 1 and r.B = true"
        ).validate()
        r = Var("r")
        assert not query.congruence().equal(r.attr("A"), r.attr("B"))
        assert not query.saturated_congruence().equal(r.attr("A"), r.attr("B"))
        assert query.congruence().equal(r.attr("B"), Const(True))

    def test_nodes_are_immutable(self):
        path = Attr(Var("r"), "A")
        with pytest.raises(AttributeError):
            path.name = "B"
        with pytest.raises(AttributeError):
            del path.base
        assert path is Attr(Var("r"), "A")

    def test_a_node_keeps_its_text_variables_and_schema_names(self):
        path = Attr(Lookup(SchemaRef("M"), Attr(Var("k"), "K")), "N")
        assert str(path) == "M[k.K].N"
        assert ast.path_variables(path) == frozenset({"k"})
        assert ast.schema_names(path) == frozenset({"M"})
        assert repr(Attr(Var("r"), "A")) == "Attr(base=Var(name='r'), name='A')"

    def test_children_must_be_paths(self):
        with pytest.raises(TypeError):
            Attr("r", "A")
        with pytest.raises(TypeError):
            Lookup(SchemaRef("M"), "k")


class TestRebuiltNodes:
    PATHS = (
        Var("x"),
        Const(1),
        Const(True),
        Const(1.0),
        Const("x"),
        SchemaRef("R"),
        Attr(Lookup(SchemaRef("M"), Var("k")), "N"),
        Dom(SchemaRef("M")),
    )

    def test_unpickling_returns_the_identical_node(self):
        for path in self.PATHS:
            assert pickle.loads(pickle.dumps(path)) is path
        query = PCQuery.parse("select struct(A: M[r.K].N) from R r where r.A = 1").validate()
        clone = pickle.loads(pickle.dumps(query))
        assert clone.output[0][1] is query.output[0][1]
        assert clone.conditions[0].right is query.conditions[0].right

    def test_the_session_codec_returns_the_identical_nodes(self):
        workload = build_ec1(2, 1)
        constraints = tuple(workload.catalog.constraints())
        query = workload.query
        caches = [([], [(query.signature(), query)])]
        session = Session("test", constraints_digest(constraints), constraints, caches, [])
        decoded = decode_session(json.loads(json.dumps(encode_session(session))))
        (_, entries), = decoded.caches
        ((_, twin),) = entries
        assert twin == query
        for (_, path), (_, twin_path) in zip(query.output, twin.output):
            assert twin_path is path
        for binding, twin_binding in zip(query.bindings, twin.bindings):
            assert twin_binding.range is binding.range
        for dependency, twin_dependency in zip(constraints, decoded.constraints):
            for condition, twin_condition in zip(dependency.conclusion, twin_dependency.conclusion):
                assert twin_condition.left is condition.left and twin_condition.right is condition.right

    def test_substitute_returns_the_interned_node(self):
        path = Attr(Lookup(SchemaRef("M"), Var("k")), "N")
        assert substitute(path, {"k": Var("j")}) is Attr(Lookup(SchemaRef("M"), Var("j")), "N")
        # A path the mapping does not touch comes back as it is.
        assert substitute(path, {"x": Var("j")}) is path
        assert substitute(Dom(SchemaRef("M")), {"k": Var("j")}) is Dom(SchemaRef("M"))


def test_concurrent_construction_yields_one_node_per_structure():
    """More threads than cores build, drop and rebuild the same paths.

    Each round every thread builds the same structures, and the round's
    first barrier compares the threads' nodes; then every thread drops its
    nodes, and the second barrier checks that their entries died with them,
    so the next round builds every node anew, racing the other threads.
    """
    threads = min(2 * (os.cpu_count() or 1) + 2, 16)
    built = [None] * threads
    errors = []
    rounds = []
    done = threading.Event()
    deadline = time.monotonic() + 2.0

    def compare():
        first = built[0]
        for other in built[1:]:
            if len(other) != len(first) or any(mine is not theirs for mine, theirs in zip(first, other)):
                errors.append(f"round {len(rounds)}: two nodes for one structure")
        rounds.append(len(first))
        if time.monotonic() > deadline:
            done.set()

    def check_dropped():
        # Probed by key, without building a node.
        keys = ((ast._SCHEMA_REFS, "stress_M"), (ast._VARS, "stress_k0"), (ast._CONSTS, (str, "stress-0")))
        if any(table.find(key) is not None for table, key in keys):
            errors.append(f"round {len(rounds)}: an entry outlived its node")

    built_all = threading.Barrier(threads, action=compare)
    dropped_all = threading.Barrier(threads, action=check_dropped)

    def work(slot):
        try:
            while True:
                built[slot] = _structures("stress")
                built_all.wait(timeout=60)
                built[slot] = None
                dropped_all.wait(timeout=60)
                if done.is_set():
                    return
        except threading.BrokenBarrierError:
            errors.append(f"thread {slot}: barrier broken")
        except Exception as error:  # surfaced through ``errors``
            errors.append(f"thread {slot}: {error!r}")
            built_all.abort()
            dropped_all.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors[:5]
    assert len(rounds) >= 2


@pytest.mark.parametrize(
    "build, params",
    [(build_ec1, (2, 1)), (build_ec2, (1, 3, 1)), (build_ec3, (3, 0))],
    ids=["EC1(2,1)", "EC2(1,3,1)", "EC3(3,0)"],
)
@pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
def test_a_cold_request_leaves_no_interned_node_behind(build, params, strategy):
    """The tables hold nodes weakly: a request's nodes die with its result.

    The query's variables get names no other test uses, so the request
    builds nodes (paths over them) that nothing else holds.
    """
    workload = build(*params)
    workload.catalog.compiled()
    query = workload.query.rename_variables({var: f"leak_{var}" for var in workload.query.variables})
    _shared_congruence.cache_clear()
    _shared_saturated_congruence.cache_clear()
    gc.collect()
    before = live_nodes()
    result = CBOptimizer(workload.catalog).optimize(query, strategy=strategy)
    assert result.plan_count > 0
    assert live_nodes() > before
    del result
    _shared_congruence.cache_clear()
    _shared_saturated_congruence.cache_clear()
    gc.collect()
    assert live_nodes() == before

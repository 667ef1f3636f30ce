"""A catalog compiles its constraints once, and again after any declaration.

* Each declaration kind added after a first ``constraints()`` call shows up
  in ``constraints()``, ``skeletons()`` and ``semantic_constraints()``, also
  when it is declared straight on ``catalog.logical``.
* The compiled set equals a fresh compile of the declarations, element for
  element and in order.
* One query object decomposed under two catalogs that differ only in a
  primary vs a secondary index: the decomposition memo serves both, and each
  OQF run still gets its own catalog's skeletons and fragment constraints,
  so ``_nonempty`` appears under the secondary index only.
* No OQF fragment task chases a dependency twice: a secondary index's
  ``_nonempty`` is both a semantic constraint and its skeleton's extra.
"""

from dataclasses import replace

import pytest

import repro.chase.optimizer as optimizer_module
from repro.chase.optimizer import CBOptimizer
from repro.chase.stratify import decompose_query
from repro.cq.query import PCQuery
from repro.schema.catalog import Catalog
from repro.schema.compile import compile_logical_constraints, compile_structure
from repro.schema.constraints import Dependency
from repro.workloads import build_ec1, build_ec2, build_ec3

EXTRA = "forall r in R implies exists s in S where r.A = s.A"


def _base_catalog():
    catalog = Catalog()
    catalog.add_relation("R", ["K", "N", "A"], key=["K"])
    catalog.add_relation("S", ["A"])
    for name in ("C", "D"):
        catalog.add_class(name, attributes=[], set_attributes=["N", "P"])
    return catalog


# (id, declare(catalog), new constraint names, new skeleton name, semantic?)
DECLARATIONS = [
    ("key", lambda c: c.add_key("R", ["K"]), ["KEY_R"], None, True),
    ("logical-key", lambda c: c.logical.add_key("R", ["K"]), ["KEY_R"], None, True),
    ("foreign-key", lambda c: c.add_foreign_key("R", ["A"], "S", ["A"]), ["FK_R_S"], None, True),
    (
        "inverse",
        lambda c: c.add_inverse_relationship("C", "N", "D", "P"),
        ["INV_C_D_fwd", "INV_C_D_bwd"],
        None,
        True,
    ),
    (
        "primary-index",
        lambda c: c.add_primary_index("PI", "R", ["K"]),
        ["PI_fwd", "PI_bwd"],
        "PI",
        False,
    ),
    (
        "secondary-index",
        lambda c: c.add_secondary_index("SI", "R", ["N"]),
        ["SI_fwd", "SI_bwd", "SI_nonempty"],
        "SI",
        False,
    ),
    (
        "view",
        lambda c: c.add_materialized_view(
            "V", PCQuery.parse("select struct(K: r.K, A: s.A) from R r, S s where r.A = s.A")
        ),
        ["V_fwd", "V_bwd"],
        "V",
        False,
    ),
    (
        "asr",
        lambda c: c.add_access_support_relation(
            "ASR",
            PCQuery.parse(
                "select struct(S: k, T: o2) from dom C k, C[k].N o, dom D k2, D[k2].P o2 "
                "where o = k2"
            ),
        ),
        ["ASR_fwd", "ASR_bwd"],
        "ASR",
        False,
    ),
    (
        "dependency",
        lambda c: c.add_dependency(Dependency.parse("EXTRA", EXTRA)),
        ["EXTRA"],
        None,
        True,
    ),
]


@pytest.mark.parametrize(
    "declare, names, skeleton, semantic",
    [declaration[1:] for declaration in DECLARATIONS],
    ids=[declaration[0] for declaration in DECLARATIONS],
)
def test_a_declaration_after_the_first_compile_shows_up(declare, names, skeleton, semantic):
    catalog = _base_catalog()
    before = catalog.constraints()
    assert catalog.constraints() is before  # compiled once
    declare(catalog)
    after = [dep.name for dep in catalog.constraints()]
    assert all(name in after for name in names)
    skeletons = [each.name for each in catalog.skeletons()]
    assert skeletons == ([skeleton] if skeleton else [])
    semantic_names = [dep.name for dep in catalog.semantic_constraints()]
    assert all((name in semantic_names) == semantic for name in names)
    assert catalog.constraints() is catalog.constraints()


def _fresh_compile(catalog, custom):
    """The constraint set built straight from the compile functions."""
    semantic = compile_logical_constraints(catalog.logical) + list(custom)
    skeletons, physical = [], []
    for structure in catalog.physical.structures.values():
        skeleton, extras = compile_structure(structure)
        skeletons.append(skeleton)
        physical += [*skeleton.constraints, *extras]
    return semantic, skeletons, physical


@pytest.mark.parametrize(
    "workload",
    [build_ec1(3, 2), build_ec2(2, 3, 2), build_ec3(5, 2)],
    ids=lambda workload: f"{workload.name}-{sorted(workload.params.items())}",
)
def test_the_compiled_set_equals_a_fresh_compile_in_order(workload):
    catalog = workload.catalog
    custom = [replace(catalog.constraints()[-1], name="EXTRA", kind="semantic")]
    catalog.add_dependency(custom[0])
    semantic, skeletons, physical = _fresh_compile(catalog, custom)
    assert list(catalog.constraints()) == semantic + physical
    assert [dep.name for dep in catalog.constraints()] == [dep.name for dep in semantic + physical]
    assert catalog.semantic_constraints() == semantic
    assert catalog.physical_constraints() == physical
    assert catalog.skeletons() == skeletons
    # Callers get lists of their own; the compiled tuples stay intact.
    catalog.skeletons().clear()
    catalog.semantic_constraints().clear()
    assert catalog.skeletons() == skeletons and catalog.semantic_constraints() == semantic


def _index_catalog(declare_index):
    catalog = Catalog()
    catalog.add_relation("R", ["K", "N"], key=["K"])
    catalog.add_key("R", ["K"])
    declare_index(catalog)
    return catalog


def _stage_constraint_names(monkeypatch, catalog, query):
    """The constraint names of each OQF fragment task of one optimize call."""
    tasks = []
    run = optimizer_module._run_stage_task

    def recording(task):
        tasks.append([dep.name for dep in task.constraints])
        return run(task)

    monkeypatch.setattr(optimizer_module, "_run_stage_task", recording)
    CBOptimizer(catalog).optimize(query, strategy="oqf")
    monkeypatch.setattr(optimizer_module, "_run_stage_task", run)
    return tasks


@pytest.mark.parametrize("secondary_first", [True, False], ids=["secondary-first", "primary-first"])
def test_one_query_under_primary_and_secondary_index_keeps_each_catalogs_skeletons(
    monkeypatch, secondary_first
):
    primary = _index_catalog(lambda c: c.add_primary_index("IX", "R", ["K"]))
    secondary = _index_catalog(lambda c: c.add_secondary_index("IX", "R", ["K"]))
    # Same name, relation and key: the same forward/backward pair, so both
    # catalogs hit one decomposition memo entry.
    assert primary.skeletons()[0].constraints == secondary.skeletons()[0].constraints
    query = PCQuery.parse("select struct(K: r.K, N: r.N) from R r").validate()
    order = [secondary, primary] if secondary_first else [primary, secondary]

    decompositions = [decompose_query(query, catalog.skeletons()) for catalog in order]
    assert [fragment.query for fragment in decompositions[0].fragments] == [
        fragment.query for fragment in decompositions[1].fragments
    ]
    assert all(
        first.query is second.query
        for first, second in zip(decompositions[0].fragments, decompositions[1].fragments)
    )
    for catalog, decomposition in zip(order, decompositions):
        own = catalog.skeletons()
        assert any(fragment.skeletons for fragment in decomposition.fragments)
        for fragment in decomposition.fragments:
            assert all(any(skeleton is mine for mine in own) for skeleton in fragment.skeletons)

    tasks = {id(catalog): _stage_constraint_names(monkeypatch, catalog, query) for catalog in order}
    primary_names = [name for task in tasks[id(primary)] for name in task]
    secondary_names = [name for task in tasks[id(secondary)] for name in task]
    assert "IX_fwd" in primary_names and "IX_fwd" in secondary_names
    assert "IX_nonempty" not in primary_names
    assert "IX_nonempty" in secondary_names


@pytest.mark.parametrize(
    "relations, secondary_indexes", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
)
def test_no_oqf_stage_task_repeats_a_dependency(monkeypatch, relations, secondary_indexes):
    workload = build_ec1(relations, secondary_indexes)
    tasks = _stage_constraint_names(monkeypatch, workload.catalog, workload.query)
    names = [name for task in tasks for name in task]
    assert tasks and any(name.endswith("_nonempty") for name in names)
    for task in tasks:
        assert len(task) == len(set(task)), task

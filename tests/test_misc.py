"""Tests for the remaining public surface: pretty printer, canonical DB, plans, errors, package API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cq.canonical import CanonicalDatabase
from repro.cq.query import PCQuery
from repro.chase.plans import Plan, dedupe_plans
from repro.errors import ChaseError, ExecutionError, ParseError, QueryError, ReproError, SchemaError
from repro.lang.parser import parse_path
from repro.lang.pretty import (
    format_bindings,
    format_conditions,
    format_dependency,
    format_plan_summary,
    format_query,
)
from repro.schema.compile import key_dependency


def q(text):
    return PCQuery.parse(text).validate()


class TestPrettyPrinter:
    def test_format_query_round_trips(self, star_query):
        assert PCQuery.parse(format_query(star_query)) == star_query

    def test_format_query_without_conditions(self):
        query = q("select struct(A: r.A) from R r")
        assert "where" not in format_query(query)

    def test_format_bindings_and_conditions(self, star_query):
        assert "R1 r" in format_bindings(star_query.bindings)
        assert " and " in format_conditions(star_query.conditions)

    def test_format_dependency_tgd_and_egd(self):
        egd = key_dependency("R", ["K"])
        assert "implies r = r2" in format_dependency(egd)
        tgd = ("forall", "premise", "exists", "conclusion")
        rendered = format_dependency(
            (
                q("select struct(X: r.A) from R r").bindings,
                (),
                q("select struct(X: s.A) from S s").bindings,
                q("select struct(X: s.A) from S s, R r where r.A = s.A").conditions,
            )
        )
        assert rendered.startswith("forall r in R")
        assert "exists s in S" in rendered
        assert tgd  # silence unused warning

    def test_format_plan_summary(self, star_query):
        assert "R1" in format_plan_summary(star_query)


class TestCanonicalDatabase:
    def test_equalities_and_classes(self, star_query):
        canonical = CanonicalDatabase.of(star_query)
        assert canonical.equal(parse_path("r.A1"), parse_path("s1.A"))
        assert canonical.node_count() >= 1
        assert parse_path("s1.A") in canonical.class_of(parse_path("r.A1"))

    def test_variables_equal_to(self):
        query = q("select struct(X: a.A) from R a, R b where a = b")
        canonical = CanonicalDatabase.of(query)
        assert set(canonical.variables_equal_to(parse_path("a"))) == {"a", "b"}

    def test_unsaturated_variant(self, star_query):
        canonical = CanonicalDatabase.of(star_query, saturated=False)
        assert canonical.equal(parse_path("r.A1"), parse_path("s1.A"))


class TestPlans:
    def test_plan_bookkeeping(self, star_catalog, star_query):
        plan = Plan(star_query, strategy="fb")
        assert plan.size() == 4
        assert plan.logical_collections_used(star_catalog) == ["R1", "S11", "S12", "S13"]
        assert plan.physical_structures_used(star_catalog) == []
        assert "scans" in plan.describe(star_catalog)
        assert plan.describe() != ""

    def test_dedupe_plans(self, star_query):
        plans = [Plan(star_query), Plan(star_query), Plan(star_query.with_output(star_query.output[:1]))]
        assert len(dedupe_plans(plans)) == 2


class TestErrorsAndPackage:
    def test_error_hierarchy(self):
        for error in (ParseError, SchemaError, QueryError, ChaseError, ExecutionError):
            assert issubclass(error, ReproError)

    def test_parse_error_position_rendering(self):
        error = ParseError("bad token", position=7)
        assert "position 7" in str(error)
        assert str(ParseError("oops")) == "oops"

    def test_package_exports(self):
        assert repro.__version__
        assert repro.PCQuery is PCQuery
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_imports_load_no_http_server_or_multiprocessing(self):
        # The HTTP sidecar and the process-pool backchase import these on
        # use; importing the package must not load them into every process.
        src = str(Path(repro.__file__).resolve().parent.parent)
        code = (
            "import sys, repro, repro.service, repro.chase.optimizer; "
            "print(sorted({'http.server', 'ssl', 'multiprocessing'} & set(sys.modules)))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_quickstart_from_module_docstring(self):
        catalog = repro.Catalog()
        catalog.add_relation("R", ["A", "B", "C", "E"])
        catalog.add_relation("S", ["A"])
        catalog.add_foreign_key("R", ["A"], "S", ["A"])
        query = repro.PCQuery.parse(
            "select struct(A: r.A, E: r.E) from R r where r.B = 1 and r.C = 2"
        )
        result = repro.CBOptimizer(catalog).optimize(query, strategy="fb")
        assert result.plan_count >= 1


class TestTypes:
    def test_struct_type_accessors(self):
        from repro.lang.types import IntType, SetType, StructType, DictType

        struct = StructType.of(A=IntType, N=SetType(IntType))
        assert struct.attribute_names == ("A", "N")
        assert struct.attribute_type("A") is IntType
        assert struct.has_attribute("N")
        with pytest.raises(KeyError):
            struct.attribute_type("Z")
        assert str(DictType(IntType, struct)).startswith("dict<")
        assert SetType(IntType).is_collection()
        assert not IntType.is_collection()

    def test_relation_and_class_struct_types(self):
        from repro.schema.logical import ClassDef, Relation

        relation = Relation("R", ("A", "B"), key=("A",))
        assert relation.struct_type().attribute_names == ("A", "B")
        assert relation.has_attribute("A")
        class_def = ClassDef("M", attributes=("X",), set_attributes=("N",))
        assert class_def.struct_type().has_attribute("N")
        assert class_def.has_attribute("X")

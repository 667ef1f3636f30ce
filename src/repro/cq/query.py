"""The internal path-conjunctive query representation.

A :class:`PCQuery` is the canonical, immutable form on which the chase and
backchase operate.  It has the same three components as the surface
select-from-where form (output, bindings, conditions) but adds the reasoning
helpers the optimizer needs: congruence closure construction, variable
renaming, and restriction to a subset of bindings (the "subquery" notion of
the backchase and the "query fragment" notion of OQF).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.errors import QueryError
from repro.lang.ast import (
    Attr,
    Binding,
    Dom,
    Eq,
    Lookup,
    SelectFromWhere,
    Var,
    path_variables,
    schema_names,
    subpaths,
    substitute,
)
from repro.cq.congruence import CongruenceClosure
from repro.trace import traced_stage


@dataclass(frozen=True)
class PCQuery:
    """A path-conjunctive query: struct output, range bindings, equalities.

    Attributes
    ----------
    output:
        Tuple of ``(label, path)`` pairs.
    bindings:
        Tuple of :class:`~repro.lang.ast.Binding`; ranges may reference
        variables bound earlier in the tuple (dependent joins / navigation).
    conditions:
        Tuple of :class:`~repro.lang.ast.Eq`.
    """

    output: tuple
    bindings: tuple
    conditions: tuple

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, output, bindings, conditions=()):
        """Build a query from any iterables, normalising to tuples."""
        return cls(
            tuple((label, path) for label, path in output),
            tuple(bindings),
            tuple(conditions),
        )

    @classmethod
    def from_sfw(cls, sfw):
        """Convert a parsed :class:`~repro.lang.ast.SelectFromWhere`."""
        return cls(tuple(sfw.output), tuple(sfw.bindings), tuple(sfw.conditions))

    @classmethod
    def parse(cls, source):
        """Parse the OQL-like concrete syntax directly into a ``PCQuery``."""
        from repro.lang.parser import parse_query

        return cls.from_sfw(parse_query(source))

    def to_sfw(self):
        """Return the surface :class:`~repro.lang.ast.SelectFromWhere` form."""
        return SelectFromWhere(self.output, self.bindings, self.conditions)

    def __str__(self):
        from repro.lang.pretty import format_query

        return format_query(self)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def variables(self):
        """Return the tuple of bound variable names, in binding order."""
        return tuple(binding.var for binding in self.bindings)

    @property
    def variable_set(self):
        """Return the set of bound variable names.

        Memoised on the instance like :meth:`signature` (the backchase asks
        every lattice node and every restriction for it).
        """
        variables = self.__dict__.get("_variable_set")
        if variables is None:
            variables = frozenset(binding.var for binding in self.bindings)
            object.__setattr__(self, "_variable_set", variables)
        return variables

    def binding_for(self, var):
        """Return the binding of variable ``var``.

        Raises
        ------
        QueryError
            If ``var`` is not bound by this query.
        """
        for binding in self.bindings:
            if binding.var == var:
                return binding
        raise QueryError(f"variable {var!r} is not bound in this query")

    @property
    def output_labels(self):
        """Return the output labels, in order."""
        return tuple(label for label, _ in self.output)

    def output_path(self, label):
        """Return the path of output field ``label``."""
        for field_label, path in self.output:
            if field_label == label:
                return path
        raise QueryError(f"no output field labelled {label!r}")

    def collections_used(self):
        """Return the set of schema collection names scanned by this query."""
        names = set()
        for binding in self.bindings:
            names |= schema_names(binding.range)
        return names

    def size(self):
        """Return the number of bindings (the query size measure of the paper)."""
        return len(self.bindings)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self):
        """Check well-formedness; raise :class:`QueryError` on violations.

        * bound variable names are unique,
        * each range references only variables bound earlier,
        * conditions and outputs reference only bound variables.
        """
        seen = set()
        for binding in self.bindings:
            if binding.var in seen:
                raise QueryError(f"variable {binding.var!r} bound twice")
            unknown = path_variables(binding.range) - seen
            if unknown:
                raise QueryError(
                    f"range of {binding.var!r} references unbound variables {sorted(unknown)}"
                )
            seen.add(binding.var)
        for condition in self.conditions:
            unknown = (path_variables(condition.left) | path_variables(condition.right)) - seen
            if unknown:
                raise QueryError(f"condition {condition} references unbound variables {sorted(unknown)}")
        for label, path in self.output:
            unknown = path_variables(path) - seen
            if unknown:
                raise QueryError(f"output {label!r} references unbound variables {sorted(unknown)}")
        return self

    # ------------------------------------------------------------------ #
    # equality reasoning
    # ------------------------------------------------------------------ #
    def congruence(self):
        """Return a congruence closure of the where clause.

        All range paths, condition sides and output paths (plus their
        sub-paths) are interned so that callers can ask about any path that
        occurs in the query.  The result is cached per query value; callers
        must not assert new equalities on the shared instance (build a private
        :class:`CongruenceClosure` for that).
        """
        return _shared_congruence(self)

    def private_congruence(self, extra_equalities=()):
        """Return a fresh congruence closure, optionally with extra equalities."""
        closure = CongruenceClosure()
        for path in self.all_paths():
            closure.add_term(path)
        closure.add_equalities(self.conditions)
        closure.add_equalities(extra_equalities)
        return closure

    def saturated_congruence(self):
        """Return a congruence closure saturated with derived attribute paths.

        The plain closure only knows about paths that literally occur in the
        query, which makes the restriction of a subquery lossy: from
        ``t = r and r.N = x`` it cannot recover ``t.N = x`` once ``r`` is
        dropped, because ``t.N`` was never interned.  Saturation interns, for
        every variable congruent to the base of an interned attribute or
        lookup path, the corresponding derived path, so the projection keeps
        every equality the paper's canonical-database representation would
        keep.  Used by :meth:`restrict_to`; cached per query value.
        """
        return _shared_saturated_congruence(self)

    def all_paths(self):
        """Return every path occurring in the query (ranges, conditions, outputs)."""
        paths = []
        for binding in self.bindings:
            paths.append(Var(binding.var))
            paths.append(binding.range)
        for condition in self.conditions:
            paths.append(condition.left)
            paths.append(condition.right)
        for _, path in self.output:
            paths.append(path)
        return paths

    def implies_equality(self, left, right):
        """Return ``True`` when ``left = right`` follows from the where clause."""
        return self.congruence().equal(left, right)

    # ------------------------------------------------------------------ #
    # rewriting
    # ------------------------------------------------------------------ #
    def rename_variables(self, mapping):
        """Return the query with variables renamed according to ``mapping``.

        ``mapping`` maps old names to new names; unmapped names are kept.
        """
        path_mapping = {old: Var(new) for old, new in mapping.items()}
        bindings = tuple(
            Binding(mapping.get(binding.var, binding.var), substitute(binding.range, path_mapping))
            for binding in self.bindings
        )
        conditions = tuple(condition.substitute(path_mapping) for condition in self.conditions)
        output = tuple((label, substitute(path, path_mapping)) for label, path in self.output)
        return PCQuery(output, bindings, conditions)

    def freshen(self, taken, prefix=""):
        """Rename variables that collide with names in ``taken``.

        Returns the renamed query together with the mapping that was applied.
        """
        mapping = {}
        used = set(taken) | set(self.variables)
        for var in self.variables:
            if var in taken:
                fresh = fresh_name(f"{prefix}{var}", used)
                mapping[var] = fresh
                used.add(fresh)
        if not mapping:
            return self, {}
        return self.rename_variables(mapping), mapping

    def add(self, bindings=(), conditions=()):
        """Return the query extended with extra bindings and conditions."""
        return PCQuery(
            self.output,
            self.bindings + tuple(bindings),
            self.conditions + tuple(conditions),
        )

    def with_output(self, output):
        """Return the query with a different output clause."""
        return PCQuery(tuple(output), self.bindings, self.conditions)

    def with_conditions(self, conditions):
        """Return the query with a different where clause."""
        return PCQuery(self.output, self.bindings, tuple(conditions))

    # ------------------------------------------------------------------ #
    # restriction (subqueries and fragments)
    # ------------------------------------------------------------------ #
    @traced_stage("restrict")
    def restrict_to(self, keep_vars, extra_output=()):
        """Return the subquery induced by the bindings in ``keep_vars``.

        This implements the subquery notion of the backchase (and, with
        ``extra_output``, the fragment notion of Appendix B): the conditions
        are all equalities over surviving paths that follow from the closure
        of the where clause, and every output path is rewritten to an equal
        path over the surviving variables.

        Parameters
        ----------
        keep_vars:
            The set of binding variables to keep.
        extra_output:
            Extra ``(label, path)`` pairs that must also be preserved (used
            for fragment link paths).

        Returns
        -------
        PCQuery or None
            ``None`` when some output (or extra output) path cannot be
            rewritten over the surviving variables.
        """
        keep = frozenset(keep_vars)
        unknown = keep - self.variable_set
        if unknown:
            raise QueryError(f"cannot restrict to unbound variables {sorted(unknown)}")
        # Restrictions are memoised per *instance*: the backchase restricts
        # the same universal plan to thousands of variable subsets, and a
        # warm optimizer-service request repeats the very same restrictions
        # (the universal plan object is shared through the chase cache) —
        # profiling shows restriction construction dominating fully-warm
        # requests once chase and containment results are cached.  Storing
        # the table on the instance keeps its lifetime tied to the query
        # (evicted together with the chase-cache entry that holds it, so
        # the service's LRU bounds stay meaningful); the session codec
        # carries the table with its fixpoint across restarts and replicas.
        key = (keep, tuple(extra_output))
        table = self.__dict__.get("_restrictions")
        if table is None:
            table = {}
            object.__setattr__(self, "_restrictions", table)
        if key in table:
            return table[key]
        result = _build_restriction(self, keep, key[1])
        table[key] = result
        return result

    def __getstate__(self):
        """Pickle state for the process-pool backchase (trusted local processes).

        A copy of the instance dict without the memoised ``_signature`` and
        ``_variable_set``: the receiver rebuilds them on first use, so a
        payload carries the fields and the restriction table only.  The
        table is copied too, so pickling never iterates a table a concurrent
        request is still filling.
        """
        state = dict(self.__dict__)
        state.pop("_signature", None)
        state.pop("_variable_set", None)
        table = state.get("_restrictions")
        if table is not None:
            state["_restrictions"] = dict(table)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # memoisation keys
    # ------------------------------------------------------------------ #
    def signature(self):
        """A hashable, order-insensitive key for caching chase results.

        The key of every warm lookup: :class:`~repro.chase.implication.
        ChaseCache` entries and both sides of a :class:`~repro.cq.memo.
        ContainmentMemo` verdict.  It is a pure function of the immutable
        fields, so it is built once per instance and kept in the instance
        dict (like the ``restrict_to`` table); a cached fixpoint and the
        subqueries in its restriction table then pay for it once in their
        lifetime.  Two threads racing on a fresh instance both compute the
        same value, and either store wins.
        """
        signature = self.__dict__.get("_signature")
        if signature is None:
            signature = (
                frozenset(self.bindings),
                frozenset(condition.normalized() for condition in self.conditions),
                frozenset(self.output),
            )
            object.__setattr__(self, "_signature", signature)
        return signature


def fresh_name(base, taken):
    """Return a variable name based on ``base`` that does not occur in ``taken``."""
    if base not in taken:
        return base
    counter = 1
    while f"{base}_{counter}" in taken:
        counter += 1
    return f"{base}_{counter}"


def _rewrite_over(path, keep_vars, closure):
    """Rewrite ``path`` into an equal path using only variables in ``keep_vars``.

    Returns ``None`` when no equal surviving path exists.  The search first
    looks for an interned term in the same congruence class (this is how an
    output such as ``s11.B`` is redirected to a view field ``v1.B1``); when
    none survives, it falls back to rewriting the path structurally -- e.g.
    ``r.E`` survives the removal of ``r`` when some surviving ``t`` satisfies
    ``t = r``, by rebuilding the path as ``t.E``.
    """
    if path_variables(path) <= keep_vars:
        return path
    candidates = [
        term
        for term in closure.equivalent_terms(path)
        if path_variables(term) <= keep_vars
    ]
    if candidates:
        return min(candidates, key=lambda term: (len(str(term)), str(term)))
    if isinstance(path, Attr):
        base = _rewrite_over(path.base, keep_vars, closure)
        if base is not None:
            return Attr(base, path.name)
    elif isinstance(path, Lookup):
        dictionary = _rewrite_over(path.dictionary, keep_vars, closure)
        key = _rewrite_over(path.key, keep_vars, closure)
        if dictionary is not None and key is not None:
            return Lookup(dictionary, key)
    elif isinstance(path, Dom):
        base = _rewrite_over(path.base, keep_vars, closure)
        if base is not None:
            return Dom(base)
    return None


def _restricted_conditions(closure, keep_vars):
    """Project the closure of the where clause onto the surviving variables.

    For every congruence class, the surviving member terms are chained with
    equalities; this retains equalities that were only derivable through a
    removed variable (e.g. ``x = z`` from ``x = y and y = z`` when ``y`` is
    dropped).  Redundant equalities (those already implied by the ones kept
    so far, e.g. ``M[x] = M[y]`` next to ``x = y``) are filtered out so the
    resulting subquery stays readable and cheap to execute.
    """
    candidates = []
    for cls in closure.classes():
        survivors = [term for term in cls if path_variables(term) <= keep_vars]
        survivors = _dedupe(survivors)
        if len(survivors) < 2:
            continue
        survivors.sort(key=lambda term: (_composite_rank(term), len(str(term)), str(term)))
        anchor = survivors[0]
        for other in survivors[1:]:
            candidates.append(Eq(anchor, other).normalized())
    candidates = sorted(set(candidates), key=lambda eq: (_composite_rank(eq.left) + _composite_rank(eq.right), str(eq)))
    kept = []
    checker = CongruenceClosure()
    for condition in candidates:
        if checker.equal(condition.left, condition.right):
            continue
        checker.merge(condition.left, condition.right)
        kept.append(condition)
    return tuple(sorted(kept, key=str))


def _composite_rank(path):
    """Order paths so that variables and attributes are preferred as anchors."""
    if isinstance(path, Var):
        return 0
    if isinstance(path, (Attr,)):
        return 1
    return 2


def _dedupe(paths):
    seen = set()
    result = []
    for path in paths:
        if path not in seen:
            seen.add(path)
            result.append(path)
    return result


def _build_restriction(query, keep, extra_output):
    """The uncached body of :meth:`PCQuery.restrict_to` (see its memo note)."""
    closure = query.saturated_congruence()
    bindings = tuple(binding for binding in query.bindings if binding.var in keep)
    for binding in bindings:
        if not path_variables(binding.range) <= keep:
            # A surviving binding navigates through a removed variable, so
            # the candidate is not a well-formed subquery.  (The backchase
            # only removes bindings; it never rewrites the ranges of the
            # remaining ones.)
            return None
    conditions = _restricted_conditions(closure, keep)
    output = []
    for label, path in tuple(query.output) + tuple(extra_output):
        rewritten = _rewrite_over(path, keep, closure)
        if rewritten is None:
            return None
        output.append((label, rewritten))
    return PCQuery(tuple(output), bindings, conditions)


@functools.lru_cache(maxsize=4096)
def _shared_congruence(query):
    closure = CongruenceClosure()
    for path in query.all_paths():
        for sub in subpaths(path):
            closure.add_term(sub)
    closure.add_equalities(query.conditions)
    return closure


@functools.lru_cache(maxsize=2048)
def _shared_saturated_congruence(query):
    closure = query.private_congruence()
    variables = [Var(var) for var in query.variables]
    for var in variables:
        closure.add_term(var)
    changed = True
    passes = 0
    while changed and passes < 5:
        changed = False
        passes += 1
        for term in list(closure.terms()):
            if isinstance(term, Attr):
                for var in variables:
                    derived = Attr(var, term.name)
                    if not closure.has_term(derived) and closure.equal(term.base, var):
                        closure.add_term(derived)
                        changed = True
            elif isinstance(term, Lookup):
                for var in variables:
                    derived = Lookup(term.dictionary, var)
                    if not closure.has_term(derived) and closure.equal(term.key, var):
                        closure.add_term(derived)
                        changed = True
    return closure


def query_from_text(source):
    """Convenience wrapper: parse and validate a query from concrete syntax."""
    return PCQuery.parse(source).validate()


__all__ = ["PCQuery", "fresh_name", "query_from_text"]

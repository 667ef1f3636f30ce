"""Congruence closure over path terms.

The chase needs to decide, many times per step, whether an equality between
two paths follows from the where clause of a query.  Following the paper
(Section 3.1 and the architecture of Section 4), queries are compiled into a
canonical database on which equality reasoning is done by congruence closure,
a variation of Nelson & Oppen's fast union-find based decision procedure.

Terms are path expressions (:mod:`repro.lang.ast`).  Constants, variables and
schema references are leaves; ``Attr``, ``Lookup`` and ``Dom`` are function
applications whose congruence is propagated: if ``r`` and ``r'`` are equal
then ``r.K`` and ``r'.K`` are equal as well (once both terms are known).

Beyond the decision procedure itself, the closure maintains the bookkeeping
the indexed hot paths of the engine rely on:

* per-class member lists, so :meth:`representative`, :meth:`equivalent_terms`
  and :meth:`classes` are proportional to the class (or partition) size
  instead of scanning every interned term;
* a *generation* counter bumped on every union, so external candidate
  indexes keyed by class representatives (:class:`repro.cq.homomorphism.
  BindingIndex`, the chase's trigger index) can detect that class structure
  changed and rebuild lazily;
* a union event log (:meth:`unions_since`), so the incremental chase can
  compute which equivalence classes an applied step actually disturbed.
"""

from __future__ import annotations

from repro.lang.ast import Attr, Dom, Lookup, Path


class CongruenceClosure:
    """Incremental congruence closure over path terms.

    The structure is mutable: terms are interned with :meth:`add_term`,
    equalities are asserted with :meth:`merge`, and queries are answered with
    :meth:`equal`.  Asking about a term that was never interned simply interns
    it on the fly (its signature is computed with respect to the current
    classes, so congruent existing terms are detected).
    """

    def __init__(self, equalities=None):
        # term id -> Path
        self._terms = []
        # Path -> term id (structural interning)
        self._ids = {}
        # union-find parent / rank
        self._parent = []
        self._rank = []
        # class representative id -> list of term ids that use it as a child
        self._uses = {}
        # signature (op key, child representative ids) -> term id
        self._signatures = {}
        # class root id -> list of member term ids (unsorted; merged on union)
        self._members = {}
        # class root id -> smallest member term id (deterministic representative)
        self._min_member = {}
        # bumped on every union; external indexes use it to detect staleness
        self._generation = 0
        # (surviving root, absorbed root) of each union, in order; the
        # incremental chase and the candidate indexes read a suffix of this
        # log to find the classes a merge cascade disturbed
        self._union_log = []
        # slot owned by repro.cq.homomorphism: the shared candidate index for
        # the query this closure was built from (None until first search)
        self.binding_index = None
        # slot owned by repro.cq.query: the class layout restrictions read
        # (None until the first restriction against this closure)
        self.restriction_layout = None
        if equalities:
            for equality in equalities:
                self.merge(equality.left, equality.right)

    # ------------------------------------------------------------------ #
    # interning and union-find
    # ------------------------------------------------------------------ #
    def add_term(self, path):
        """Intern ``path`` (and its sub-paths) and return its term id."""
        if not isinstance(path, Path):
            raise TypeError(f"not a path expression: {path!r}")
        existing = self._ids.get(path)
        if existing is not None:
            return existing
        children = _child_paths(path)
        child_ids = [self.add_term(child) for child in children]
        term_id = len(self._terms)
        self._terms.append(path)
        self._ids[path] = term_id
        self._parent.append(term_id)
        self._rank.append(0)
        self._members[term_id] = [term_id]
        self._min_member[term_id] = term_id
        if child_ids:
            signature = self._signature_of(path, child_ids)
            congruent = self._signatures.get(signature)
            for child_id in child_ids:
                self._uses.setdefault(self._find(child_id), []).append(term_id)
            if congruent is not None:
                self._union(term_id, congruent)
            else:
                self._signatures[signature] = term_id
        return term_id

    def _find(self, term_id):
        root = term_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[term_id] != root:
            self._parent[term_id], term_id = root, self._parent[term_id]
        return root

    def _signature_of(self, path, child_ids):
        key = _op_key(path)
        return (key, tuple(self._find(child) for child in child_ids))

    def _union(self, a, b):
        """Merge the classes of term ids ``a`` and ``b`` and propagate congruence."""
        worklist = [(a, b)]
        while worklist:
            left, right = worklist.pop()
            left_root = self._find(left)
            right_root = self._find(right)
            if left_root == right_root:
                continue
            if self._rank[left_root] < self._rank[right_root]:
                left_root, right_root = right_root, left_root
            if self._rank[left_root] == self._rank[right_root]:
                self._rank[left_root] += 1
            # right_root is absorbed into left_root
            self._parent[right_root] = left_root
            self._generation += 1
            self._union_log.append((left_root, right_root))
            self._members[left_root].extend(self._members.pop(right_root))
            right_min = self._min_member.pop(right_root)
            if right_min < self._min_member[left_root]:
                self._min_member[left_root] = right_min
            absorbed_uses = self._uses.pop(right_root, [])
            surviving_uses = self._uses.setdefault(left_root, [])
            for user in absorbed_uses:
                path = self._terms[user]
                child_ids = [self._ids[child] for child in _child_paths(path)]
                signature = self._signature_of(path, child_ids)
                congruent = self._signatures.get(signature)
                if congruent is not None and self._find(congruent) != self._find(user):
                    worklist.append((congruent, user))
                else:
                    self._signatures[signature] = user
                surviving_uses.append(user)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def merge(self, left, right):
        """Assert that two paths are equal."""
        self._union(self.add_term(left), self.add_term(right))

    def add_equalities(self, equalities):
        """Assert a collection of :class:`~repro.lang.ast.Eq` conditions."""
        for equality in equalities:
            self.merge(equality.left, equality.right)

    def equal(self, left, right):
        """Return ``True`` when ``left = right`` follows from the asserted facts."""
        if left == right:
            return True
        # Intern both sides before comparing roots: interning the second term
        # can trigger a congruence union that changes the first term's root.
        left_id = self.add_term(left)
        right_id = self.add_term(right)
        return self._find(left_id) == self._find(right_id)

    def root_of(self, path):
        """Intern ``path`` and return its current class root id.

        The root id is only stable until the next union (watch
        :attr:`generation`); it is the key the candidate indexes bucket by.
        """
        return self._find(self.add_term(path))

    @property
    def generation(self):
        """Monotone counter of unions; any change invalidates root-keyed indexes."""
        return self._generation

    @property
    def union_count(self):
        """Total number of unions performed (length of the union log)."""
        return len(self._union_log)

    def unions_since(self, mark):
        """Return the current roots of the classes merged since ``mark``.

        ``mark`` is a previous :attr:`union_count` value.  Roots are
        deduplicated and resolved to their *current* representative, so a
        cascade of unions collapsing into one class reports a single root.
        """
        roots = {self._find(surviving) for surviving, _ in self._union_log[mark:]}
        return list(roots)

    def union_pairs_since(self, mark):
        """Return the raw ``(surviving, absorbed)`` root pairs since ``mark``.

        Processing the pairs in order lets an index repair its root-keyed
        buckets with dictionary moves only: entries keyed by an absorbed root
        belong to the surviving root, and cascaded absorptions of a surviving
        root appear as later pairs.
        """
        return self._union_log[mark:]

    def class_terms(self, root_id):
        """Return the member terms of the class with root ``root_id``."""
        return [self._terms[term_id] for term_id in self._members[self._find(root_id)]]

    def representative(self, path):
        """Return a canonical path representing the class of ``path``.

        The representative is deterministic (smallest interned term id in the
        class), so callers can use it as a dictionary key.
        """
        root = self._find(self.add_term(path))
        return self._terms[self._min_member[root]]

    def equivalent_terms(self, path):
        """Return every interned term in the same class as ``path``."""
        root = self._find(self.add_term(path))
        return [self._terms[term_id] for term_id in sorted(self._members[root])]

    def classes(self):
        """Return the partition of interned terms into equivalence classes.

        Classes are ordered by their smallest member term id and members are
        listed in interning order, matching the historical full-scan output.
        """
        roots = sorted(self._members, key=self._min_member.__getitem__)
        return [
            [self._terms[term_id] for term_id in sorted(self._members[root])]
            for root in roots
        ]

    def terms(self):
        """Return every interned term."""
        return list(self._terms)

    def has_term(self, path):
        """Return ``True`` when ``path`` is already interned (without interning it)."""
        return path in self._ids

    def __len__(self):
        return len(self._terms)


def _child_paths(path):
    """Return the immediate sub-paths of ``path`` (empty for leaves)."""
    if isinstance(path, Attr):
        return (path.base,)
    if isinstance(path, Lookup):
        return (path.dictionary, path.key)
    if isinstance(path, Dom):
        return (path.base,)
    return ()


def _op_key(path):
    """Return the function symbol of a non-leaf term."""
    if isinstance(path, Attr):
        return ("attr", path.name)
    if isinstance(path, Lookup):
        return ("lookup",)
    if isinstance(path, Dom):
        return ("dom",)
    raise TypeError(f"leaf term has no signature: {path!r}")

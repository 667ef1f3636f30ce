"""An OQL-like concrete syntax for path-conjunctive queries and dependencies.

The grammar covers exactly the fragment used by the paper:

Queries::

    select struct(B11: s11.B, B12: s12.B)
    from R1 r1, S11 s11, S12 s12
    where r1.A1 = s11.A1 and r1.A2 = s12.A2

The ``from`` clause also accepts the ``var in collection`` spelling
(``from r1 in R1, s11 in S11``) and dictionary ranges such as
``dom M1 k1`` and ``M1[k1].N o1``.

Dependencies (embedded path-conjunctive dependencies)::

    forall r in R, s in S where r.A = s.A
    implies exists v in V where v.K = r.K and v.B = s.B

    forall r in R1, r2 in R1 where r.K = r2.K implies r = r2

The first form is a tuple-generating dependency (TGD); the second, with no
``exists`` clause, is an equality-generating dependency (EGD).
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.lang.ast import (
    MAX_PATH_DEPTH,
    Attr,
    Binding,
    Const,
    Dom,
    Eq,
    Lookup,
    SchemaRef,
    SelectFromWhere,
    Var,
)

_KEYWORDS = {
    "select",
    "struct",
    "from",
    "where",
    "and",
    "dom",
    "forall",
    "exists",
    "implies",
    "in",
    "distinct",
    "true",
    "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[()\[\].,=:])
    """,
    re.VERBOSE,
)


class _Token:
    """A single lexical token with its kind, text and input position."""

    __slots__ = ("kind", "text", "position")

    def __init__(self, kind, text, position):
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self):
        return f"_Token({self.kind!r}, {self.text!r}, {self.position})"


def _tokenize(source):
    """Split ``source`` into tokens, raising :class:`ParseError` on garbage."""
    tokens = []
    position = 0
    length = len(source)
    while position < length:
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise ParseError(f"unexpected character {source[position]!r}", position)
        position = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind == "ws":
            continue
        if kind == "ident" and text.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", text.lower(), match.start()))
        else:
            tokens.append(_Token(kind, text, match.start()))
    tokens.append(_Token("eof", "", length))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.bound_vars = set()
        self.nesting = 0  # paths being parsed: parentheses, ``dom`` and ``[...]``

    # ------------------------------------------------------------------ #
    # token-stream helpers
    # ------------------------------------------------------------------ #
    def _peek(self, offset=0):
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self):
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def _check(self, kind, text=None, offset=0):
        token = self._peek(offset)
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _accept(self, kind, text=None):
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind, text=None):
        token = self._accept(kind, text)
        if token is None:
            found = self._peek()
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r} but found {found.text or found.kind!r}",
                found.position,
            )
        return token

    def _expect_done(self):
        token = self._peek()
        if token.kind != "eof":
            raise ParseError(f"unexpected trailing input {token.text!r}", token.position)

    # ------------------------------------------------------------------ #
    # paths and conditions
    # ------------------------------------------------------------------ #
    def parse_path(self):
        """Parse a path expression with attribute and lookup postfixes.

        Raises :class:`ParseError` when parentheses, ``dom`` and ``[...]``
        nest, or the built path reaches, deeper than
        :data:`~repro.lang.ast.MAX_PATH_DEPTH`.
        """
        return self._parse_path()[0]

    def _parse_path(self):
        """Parse a path; return it with its depth, counted as the session
        codec counts it (see :data:`~repro.lang.ast.MAX_PATH_DEPTH`)."""
        self.nesting += 1
        if self.nesting > MAX_PATH_DEPTH:
            raise ParseError(f"paths nested deeper than {MAX_PATH_DEPTH}", self._peek().position)
        path, depth = self._parse_path_primary()
        while True:
            position = self._peek().position
            if self._accept("symbol", "."):
                attr = self._expect("ident")
                path, depth = Attr(path, attr.text), depth + 1
            elif self._accept("symbol", "["):
                key, key_depth = self._parse_path()
                self._expect("symbol", "]")
                path, depth = Lookup(path, key), 1 + max(depth, key_depth)
            else:
                self.nesting -= 1
                return path, depth
            _check_depth(depth, position)

    def _parse_path_primary(self):
        token = self._peek()
        if self._accept("keyword", "dom"):
            base, depth = self._parse_path()
            _check_depth(depth + 1, token.position)
            return Dom(base), depth + 1
        if self._accept("symbol", "("):
            path, depth = self._parse_path()
            self._expect("symbol", ")")
            return path, depth
        return self._parse_leaf(), 1

    def _parse_leaf(self):
        token = self._peek()
        if token.kind == "int":
            self._advance()
            try:
                return Const(int(token.text))
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal too long", token.position) from None
        if token.kind == "float":
            self._advance()
            return Const(float(token.text))
        if token.kind == "string":
            self._advance()
            return Const(_unquote(token.text))
        if token.kind == "keyword" and token.text in ("true", "false"):
            self._advance()
            return Const(token.text == "true")
        if token.kind == "ident":
            self._advance()
            if token.text in self.bound_vars:
                return Var(token.text)
            return SchemaRef(token.text)
        raise ParseError(f"expected a path but found {token.text or token.kind!r}", token.position)

    def parse_conditions(self):
        """Parse ``eq and eq and ...`` into a list of :class:`Eq`."""
        conditions = [self._parse_equality()]
        while self._accept("keyword", "and"):
            conditions.append(self._parse_equality())
        return conditions

    def _parse_equality(self):
        left = self.parse_path()
        self._expect("symbol", "=")
        right = self.parse_path()
        return Eq(left, right)

    # ------------------------------------------------------------------ #
    # bindings
    # ------------------------------------------------------------------ #
    def parse_binding(self):
        """Parse a single range binding in either spelling.

        ``R r`` (OQL style, range first) and ``r in R`` (comprehension style)
        are both accepted.
        """
        if self._check("ident") and self._check("keyword", "in", offset=1):
            var = self._expect("ident").text
            self._expect("keyword", "in")
            range_path = self.parse_path()
        else:
            range_path = self.parse_path()
            var = self._expect("ident").text
        self.bound_vars.add(var)
        return Binding(var, range_path)

    def parse_binding_list(self):
        bindings = [self.parse_binding()]
        while self._accept("symbol", ","):
            bindings.append(self.parse_binding())
        return bindings

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def parse_query(self):
        """Parse a full select-from-where query."""
        self._expect("keyword", "select")
        self._accept("keyword", "distinct")
        output_tokens_start = self.index
        # The output references variables of the from clause, which has not
        # been parsed yet.  Parse the from/where clauses first by skipping
        # ahead, then come back for the output with the variables in scope.
        self._skip_until_keyword("from")
        self._expect("keyword", "from")
        bindings = self.parse_binding_list()
        conditions = []
        if self._accept("keyword", "where"):
            conditions = self.parse_conditions()
        self._expect_done()
        end_index = self.index
        self.index = output_tokens_start
        output = self._parse_output()
        self._expect("keyword", "from")
        self.index = end_index
        return SelectFromWhere(tuple(output), tuple(bindings), tuple(conditions))

    def _skip_until_keyword(self, keyword):
        depth = 0
        while True:
            token = self._peek()
            if token.kind == "eof":
                raise ParseError(f"expected keyword {keyword!r}", token.position)
            if token.kind == "symbol" and token.text in "([":
                depth += 1
            elif token.kind == "symbol" and token.text in ")]":
                depth -= 1
            elif token.kind == "keyword" and token.text == keyword and depth == 0:
                return
            self._advance()

    def _parse_output(self):
        if self._accept("keyword", "struct"):
            self._expect("symbol", "(")
            fields = [self._parse_output_field()]
            while self._accept("symbol", ","):
                fields.append(self._parse_output_field())
            self._expect("symbol", ")")
            return fields
        # Bare output list: ``select r.A, s.B`` labels the fields positionally.
        fields = []
        path = self.parse_path()
        fields.append((_default_label(path, 0), path))
        while self._accept("symbol", ","):
            path = self.parse_path()
            fields.append((_default_label(path, len(fields)), path))
        return fields

    def _parse_output_field(self):
        label = self._expect("ident").text
        if not (self._accept("symbol", ":") or self._accept("symbol", "=")):
            token = self._peek()
            raise ParseError("expected ':' or '=' in struct field", token.position)
        path = self.parse_path()
        return (label, path)

    # ------------------------------------------------------------------ #
    # dependencies
    # ------------------------------------------------------------------ #
    def parse_dependency(self):
        """Parse an embedded dependency (TGD or EGD).

        Returns a tuple ``(universal, premise, existential, conclusion)`` of
        binding/condition tuples; the schema layer wraps it into a
        :class:`repro.schema.constraints.Dependency`.
        """
        self._expect("keyword", "forall")
        universal = self.parse_binding_list()
        premise = []
        if self._accept("keyword", "where"):
            premise = self.parse_conditions()
        self._expect("keyword", "implies")
        existential = []
        conclusion = []
        if self._accept("keyword", "exists"):
            existential = self.parse_binding_list()
            if self._accept("keyword", "where"):
                conclusion = self.parse_conditions()
        else:
            conclusion = self.parse_conditions()
        self._expect_done()
        return (
            tuple(universal),
            tuple(premise),
            tuple(existential),
            tuple(conclusion),
        )


def _check_depth(depth, position):
    if depth > MAX_PATH_DEPTH:
        raise ParseError(f"path deeper than {MAX_PATH_DEPTH}", position)


def _unquote(text):
    """Strip quotes from a string literal and process simple escapes."""
    body = text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


def _default_label(path, index):
    """Choose a label for an unlabelled output field."""
    if isinstance(path, Attr):
        return path.name
    if isinstance(path, Var):
        return path.name
    return f"field{index}"


def parse_path(source):
    """Parse ``source`` as a path expression (all identifiers become variables).

    Intended for tests and interactive use; inside queries, identifier
    resolution depends on the bound variables of the from clause.
    """
    parser = _Parser(source)
    # Outside any query every identifier is treated as a variable, which is
    # the natural reading for standalone path expressions.
    parser.bound_vars = _AllNames()
    path = parser.parse_path()
    parser._expect_done()
    return path


class _AllNames:
    """A pseudo-set that contains every name (used by :func:`parse_path`)."""

    def __contains__(self, name):
        return True

    def add(self, name):
        """Accept additions silently (bindings register their variables)."""


def parse_query(source):
    """Parse an OQL-like query string into a :class:`SelectFromWhere`."""
    return _Parser(source).parse_query()


def parse_dependency(source):
    """Parse a dependency string into ``(universal, premise, existential, conclusion)``."""
    return _Parser(source).parse_dependency()

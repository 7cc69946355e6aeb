"""A small INDRI-style structured query language.

The paper writes expansion queries "in the INDRI query language, based on
exact phrase matching".  This module implements the subset those queries
need, with INDRI's syntax:

* bare terms: ``gondola venice``
* exact phrases: ``#1(bridge of sighs)`` or, equivalently, ``"bridge of sighs"``
* belief combination: ``#combine(node node ...)`` — mean of child log beliefs
* boolean conjunction filter: ``#band(node node ...)``
* nesting: ``#combine(gondola #1(grand canal) #band(venice regatta))``

A query string with several top-level nodes is an implicit ``#combine``.

The module exposes the AST (:class:`TermNode`, :class:`PhraseNode`,
:class:`CombineNode`, :class:`BandNode`), :func:`parse_query`, and
:func:`build_phrase_query` which constructs the expansion query shape the
paper uses (one ``#1`` phrase per article title under one ``#combine``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import QueryLanguageError
from repro.retrieval.tokenizer import Tokenizer

__all__ = [
    "QueryNode",
    "TermNode",
    "PhraseNode",
    "CombineNode",
    "BandNode",
    "parse_query",
    "build_phrase_query",
]


class QueryNode:
    """Base class of query AST nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TermNode(QueryNode):
    """A single bag-of-words term."""

    term: str

    def __str__(self) -> str:
        return self.term


@dataclass(frozen=True, slots=True)
class PhraseNode(QueryNode):
    """An exact ordered phrase (INDRI ``#1``)."""

    tokens: tuple[str, ...]

    def __str__(self) -> str:
        return f"#1({' '.join(self.tokens)})"


@dataclass(frozen=True, slots=True)
class _OperatorNode(QueryNode):
    """An operator over child nodes; a tree is hashed once, when built."""

    children: tuple[QueryNode, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.children,)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        inner = " ".join(str(child) for child in self.children)
        return f"{self.operator}({inner})"


class CombineNode(_OperatorNode):
    """Belief combination: the mean of child log beliefs (INDRI ``#combine``)."""

    __slots__ = ()
    operator = "#combine"


class BandNode(_OperatorNode):
    """Boolean AND filter over children (INDRI ``#band``)."""

    __slots__ = ()
    operator = "#band"


_LEXER_RE = re.compile(
    r"""
    (?P<operator>\#[a-z0-9]+)\s*\(   # e.g. '#combine(' or '#1('
    | (?P<open>\()
    | (?P<close>\))
    | (?P<quoted>"[^"]*")
    | (?P<word>[^\s()"#]+)
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_OPERATORS = {"#combine", "#band", "#1"}


def _lex(query: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(query):
        match = _LEXER_RE.match(query, position)
        if match is None:
            raise QueryLanguageError(
                f"cannot lex query at position {position}: {query[position:position + 10]!r}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        if kind == "operator":
            op = match.group("operator")
            if op not in _OPERATORS:
                raise QueryLanguageError(f"unknown operator {op!r}")
            tokens.append(("operator", op))
        elif kind == "quoted":
            tokens.append(("quoted", match.group("quoted")[1:-1]))
        elif kind == "word":
            tokens.append(("word", match.group("word")))
        elif kind == "close":
            tokens.append(("close", ")"))
        elif kind == "open":
            raise QueryLanguageError("bare parentheses are not part of the language")
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]], tokenizer: Tokenizer) -> None:
        self._tokens = tokens
        self._position = 0
        self._tokenizer = tokenizer

    def _peek(self) -> tuple[str, str] | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise QueryLanguageError("unexpected end of query")
        self._position += 1
        return token

    def parse_sequence(self, *, stop_at_close: bool) -> list[QueryNode]:
        nodes: list[QueryNode] = []
        while True:
            token = self._peek()
            if token is None:
                if stop_at_close:
                    raise QueryLanguageError("missing closing parenthesis")
                return nodes
            kind, value = token
            if kind == "close":
                if not stop_at_close:
                    raise QueryLanguageError("unbalanced closing parenthesis")
                self._advance()
                return nodes
            nodes.append(self.parse_node())

    def parse_node(self) -> QueryNode:
        kind, value = self._advance()
        if kind == "word":
            terms = self._tokenizer.tokenize(value)
            if not terms:
                raise QueryLanguageError(f"term {value!r} normalises to nothing")
            if len(terms) == 1:
                return TermNode(terms[0])
            return PhraseNode(tuple(terms))
        if kind == "quoted":
            tokens = self._tokenizer.tokenize_phrase(value)
            if not tokens:
                raise QueryLanguageError(f"phrase {value!r} normalises to nothing")
            return PhraseNode(tokens)
        if kind == "operator":
            children = self.parse_sequence(stop_at_close=True)
            if value == "#1":
                return self._phrase_from_children(children)
            if not children:
                raise QueryLanguageError(f"{value} requires at least one child")
            if value == "#combine":
                return CombineNode(tuple(children))
            return BandNode(tuple(children))
        raise QueryLanguageError(f"unexpected token {value!r}")

    @staticmethod
    def _phrase_from_children(children: list[QueryNode]) -> PhraseNode:
        tokens: list[str] = []
        for child in children:
            if isinstance(child, TermNode):
                tokens.append(child.term)
            elif isinstance(child, PhraseNode):
                tokens.extend(child.tokens)
            else:
                raise QueryLanguageError("#1(...) may contain only plain terms")
        if not tokens:
            raise QueryLanguageError("#1() requires at least one term")
        return PhraseNode(tuple(tokens))


def parse_query(query: str, tokenizer: Tokenizer | None = None) -> QueryNode:
    """Parse ``query`` into an AST.

    Multiple top-level nodes become an implicit ``#combine``; a single node
    is returned unwrapped.  Raises :class:`QueryLanguageError` on syntax
    errors or an effectively-empty query.
    """
    tokenizer = tokenizer or Tokenizer()
    parser = _Parser(_lex(query), tokenizer)
    nodes = parser.parse_sequence(stop_at_close=False)
    if not nodes:
        raise QueryLanguageError("empty query")
    if len(nodes) == 1:
        return nodes[0]
    return CombineNode(tuple(nodes))


def build_phrase_query(
    phrases: list[str], tokenizer: Tokenizer | None = None
) -> CombineNode:
    """Build the paper's expansion-query shape directly (no string parsing).

    Given article titles/keywords, produces
    ``#combine(#1(title1) #1(title2) ...)`` with single-word titles reduced
    to plain terms.  Phrases that normalise to nothing (e.g. punctuation
    only) are dropped; an entirely empty input raises.
    """
    tokenizer = tokenizer or Tokenizer()
    children: list[QueryNode] = []
    for phrase in phrases:
        tokens = tokenizer.tokenize_phrase(phrase)
        if not tokens:
            continue
        if len(tokens) == 1:
            children.append(TermNode(tokens[0]))
        else:
            children.append(PhraseNode(tokens))
    if not children:
        raise QueryLanguageError("no usable phrases in expansion query")
    return CombineNode(tuple(children))

"""Largest-substring entity linking against Wikipedia article titles.

Section 2.1:

    "The entity linking process consists in identifying the set of the
    largest substrings in the input query that matches with the title of
    an article in Wikipedia."

The linker tokenises the input, then greedily matches the longest title
n-gram starting at each position (longest-match-first, left to right,
non-overlapping).  Optionally it also scans *synonym phrases* (variants of
the input built from redirect titles, see
:class:`repro.linking.synonyms.SynonymProvider`) and maps every match to
its main article by resolving redirects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.errors import LinkingError
from repro.linking.synonyms import SynonymProvider
from repro.retrieval.tokenizer import Tokenizer
from repro.wiki.graph import WikiGraph

__all__ = ["EntityLinker", "EntityMatch", "LinkResult"]


@dataclass(frozen=True, slots=True)
class EntityMatch:
    """One matched entity.

    ``start``/``end`` index the *token* span in the text the match was
    found in (``end`` exclusive); for synonym-phrase matches they index the
    variant token sequence, and ``via_synonym`` is True.
    """

    article_id: int
    title_tokens: tuple[str, ...]
    start: int
    end: int
    via_synonym: bool = False

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class LinkResult:
    """Outcome of linking one text: matches plus the resolved entity set."""

    matches: tuple[EntityMatch, ...]
    article_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.article_ids)

    def __contains__(self, article_id: int) -> bool:
        return article_id in self.article_ids


class EntityLinker:
    """Matches text substrings against article titles of a WikiGraph.

    Parameters
    ----------
    graph:
        The knowledge base.  Every article (redirects included) is an
        entity whose title participates in matching.
    tokenizer:
        Must match the tokenizer used elsewhere in the pipeline so phrases
        align with the retrieval index.
    use_synonyms:
        Also link inside redirect-derived synonym phrases (the paper's
        accuracy booster; ablation benchmarks switch it off).
    resolve_redirects:
        Map matched redirect articles onto their main article (the query
        graph is built over main articles; Section 2.3).
    max_title_tokens:
        Upper bound for candidate n-gram length, capped for speed; real
        titles hardly exceed ~10 tokens.
    title_index:
        A prebuilt vocabulary (tokenised title -> article id), e.g. one
        loaded from a service snapshot.  When given, the title scan over
        ``graph`` is skipped entirely; the caller asserts the vocabulary
        was built with a compatible tokenizer.  It is adopted, not copied.
    """

    def __init__(
        self,
        graph: WikiGraph,
        tokenizer: Tokenizer | None = None,
        *,
        use_synonyms: bool = True,
        resolve_redirects: bool = True,
        max_title_tokens: int = 12,
        title_index: dict[tuple[str, ...], int] | None = None,
    ) -> None:
        if graph.num_articles == 0:
            raise LinkingError("cannot link against a graph with no articles")
        if max_title_tokens < 1:
            raise LinkingError("max_title_tokens must be >= 1")
        self._graph = graph
        self._tokenizer = tokenizer or Tokenizer()
        self._use_synonyms = use_synonyms
        self._resolve_redirects = resolve_redirects
        self._max_title_tokens = max_title_tokens
        self._synonyms = SynonymProvider(graph, self._tokenizer) if use_synonyms else None

        # Map of tokenised title -> article id.  When two articles tokenise
        # identically (e.g. "color" vs "Color!"), the lowest id wins, making
        # linking deterministic.
        self._title_index: dict[tuple[str, ...], int] = {}
        if title_index is not None:
            if not title_index:
                raise LinkingError("prebuilt title_index must be non-empty")
            self._title_index = title_index
        else:
            for article in sorted(graph.articles(), key=lambda a: a.node_id):
                tokens = self._title_key(article.title)
                if tokens:
                    self._title_index.setdefault(tokens, article.node_id)
        self._max_len = max(map(len, self._title_index), default=1)

    def _title_key(self, title: str) -> tuple[str, ...]:
        """The vocabulary key of ``title``; empty when it cannot have one."""
        tokens = self._tokenizer.tokenize_phrase(title)
        return tokens if len(tokens) <= self._max_title_tokens else ()

    def rebuilt(self, graph) -> "EntityLinker":
        """A linker with these settings from a rescan of ``graph``'s titles."""
        return EntityLinker(
            graph, self._tokenizer, use_synonyms=self._use_synonyms,
            resolve_redirects=self._resolve_redirects,
            max_title_tokens=self._max_title_tokens,
        )

    def patched(self, graph, applied, before) -> "EntityLinker | None":
        """:meth:`rebuilt` over ``graph`` (``before`` plus the ``applied``
        deltas) at the cost of the batch: the vocabulary is copied (only
        shared when no article came or went) and only the batch's titles
        are tokenised; the synonym cache starts empty, ``self`` is left
        as published.  ``None`` when the batch removes the owner of a
        vocabulary key — a twin it shadowed may have to take the key
        over, and only the rescan can name it.
        """
        index = self._title_index
        if any(delta.op in ("add_article", "remove_article") for delta in applied):
            index = dict(index)
        max_len = self._max_len
        added: dict[int, str] = {}  # titles this batch gave, by node
        for delta in applied:
            node = delta.node_id
            if delta.op == "add_article":
                added[node] = delta.title
                tokens = self._title_key(delta.title)
                if tokens and index.get(tokens, node) >= node:
                    index[tokens] = node
                    max_len = max(max_len, len(tokens))
            elif delta.op == "remove_article":
                tokens = self._title_key(added.pop(node, None) or before.title(node))
                if tokens and index.get(tokens) == node:
                    return None
        successor = copy.copy(self)
        successor._graph = graph
        successor._title_index = index
        successor._max_len = max_len
        if self._use_synonyms:
            successor._synonyms = SynonymProvider(graph, self._tokenizer)
        return successor

    @property
    def num_titles(self) -> int:
        """Number of distinct tokenised titles the linker can match."""
        return len(self._title_index)

    def vocabulary(self) -> dict[tuple[str, ...], int]:
        """Copy of the matching vocabulary (tokenised title -> article id).

        The inverse of the ``title_index`` constructor parameter: feeding
        this back into a new linker over the same graph reproduces the
        original linking behaviour without rescanning titles.
        """
        return dict(self._title_index)

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------

    def link(self, text: str) -> LinkResult:
        """Link ``text`` and return every matched entity.

        Matching is greedy longest-first over the direct text; when synonym
        scanning is enabled, single-term replacements derived from
        redirects are scanned the same way and contribute additional
        entities (flagged ``via_synonym``).
        """
        tokens = self._tokenizer.tokenize_phrase(text)
        matches = list(self._scan(tokens, via_synonym=False))
        if self._synonyms is not None and tokens:
            direct_ids = {m.article_id for m in matches}
            for variant in self._synonyms.synonym_phrases(tokens):
                for match in self._scan(variant, via_synonym=True):
                    if match.article_id not in direct_ids:
                        matches.append(match)
                        direct_ids.add(match.article_id)
        article_ids = frozenset(self._finalize(m.article_id) for m in matches)
        return LinkResult(matches=tuple(matches), article_ids=article_ids)

    def link_keywords(self, keywords: str) -> frozenset[int]:
        """Convenience: the entity set ``L(k)`` of a keyword list."""
        return self.link(keywords).article_ids

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _finalize(self, article_id: int) -> int:
        if self._resolve_redirects:
            return self._graph.resolve(article_id)
        return article_id

    def _scan(self, tokens: tuple[str, ...], *, via_synonym: bool):
        position = 0
        n = len(tokens)
        while position < n:
            matched = None
            longest = min(self._max_len, n - position)
            for length in range(longest, 0, -1):
                candidate = tokens[position : position + length]
                article_id = self._title_index.get(candidate)
                if article_id is not None:
                    matched = EntityMatch(
                        article_id=article_id,
                        title_tokens=candidate,
                        start=position,
                        end=position + length,
                        via_synonym=via_synonym,
                    )
                    break
            if matched is not None:
                yield matched
                position = matched.end
            else:
                position += 1

    def __repr__(self) -> str:
        return (
            f"EntityLinker(titles={self.num_titles}, "
            f"synonyms={self._synonyms is not None}, "
            f"resolve_redirects={self._resolve_redirects})"
        )

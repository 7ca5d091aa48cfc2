"""Answer key for the benchmark: which payloads must a query return?

An exhaustive per-dimension index over the published keys — no curve, overlay,
engine or store code — that follows the mutation stream in lockstep.  It gives
the same sets as ``SquidSystem.brute_force_matches`` (``run.py`` cross-checks a
sample of queries against it on every run) but answers in microseconds, which
is what lets *every* answer of a run be checked inside the time cap:
``brute_force_matches`` costs 70-170 ms per query on these corpora.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro import Exact, NumericRange, Prefix, Wildcard, WordDimension

__all__ = ["Oracle", "cross_check"]

_AFTER_Z = chr(ord("z") + 1)


class Oracle:
    """Expected payload set of any query over the keys published so far.

    The payload of ``keys[i]`` is ``i``.  Word dimensions keep ``word ->
    payloads`` plus the sorted distinct words (prefix terms bisect it);
    numeric dimensions keep one value column and support no mutation, which
    the one numeric workload does not need.
    """

    def __init__(self, space, keys) -> None:
        self.space = space
        self.alive: set[int] = set(range(len(keys)))
        self.by_word: list[dict[str, set[int]] | None] = []
        self.words: list[list[str] | None] = []
        self.column: list[np.ndarray | None] = []
        for d, dim in enumerate(space.dimensions):
            if isinstance(dim, WordDimension):
                index: dict[str, set[int]] = {}
                for payload, key in enumerate(keys):
                    index.setdefault(key[d], set()).add(payload)
                self.by_word.append(index)
                self.words.append(sorted(index))
                self.column.append(None)
            else:
                self.by_word.append(None)
                self.words.append(None)
                self.column.append(np.asarray([key[d] for key in keys], dtype=float))

    def add(self, key, payload: int) -> None:
        self.alive.add(payload)
        for d, word in enumerate(key):
            bucket = self.by_word[d].get(word)
            if bucket is None:
                bucket = self.by_word[d][word] = set()
                insort(self.words[d], word)
            bucket.add(payload)

    def remove(self, key, payload: int) -> None:
        self.alive.discard(payload)
        for d, word in enumerate(key):
            self.by_word[d][word].discard(payload)

    def expected(self, query) -> set[int]:
        """Payloads of every published element matching ``query``."""
        parts: list[set[int]] = []
        for d, term in enumerate(self.space.as_query(query).terms):
            if isinstance(term, Wildcard):
                continue
            if self.column[d] is not None:
                parts.append(self._numeric(d, term))
            elif isinstance(term, Exact):
                parts.append(self.by_word[d].get(term.value, set()))
            else:
                assert isinstance(term, Prefix)
                words = self.words[d]
                start = bisect_left(words, term.prefix)
                stop = bisect_left(words, term.prefix + _AFTER_Z)
                found: set[int] = set()
                for word in words[start:stop]:
                    found |= self.by_word[d][word]
                parts.append(found)
        if not parts:
            return set(self.alive)
        parts.sort(key=len)
        return set.intersection(*parts)

    def _numeric(self, d: int, term) -> set[int]:
        column = self.column[d]
        if isinstance(term, Exact):
            mask = column == float(term.value)
        else:
            assert isinstance(term, NumericRange)
            mask = np.ones(len(column), dtype=bool)
            if term.low is not None:
                mask &= column >= term.low
            if term.high is not None:
                mask &= column <= term.high
        return set(np.flatnonzero(mask).tolist())


def cross_check(system, oracle: Oracle, texts, samples: int = 3) -> int:
    """Check the checker: oracle against ``SquidSystem.brute_force_matches``.

    ``system`` must hold what the oracle holds.  Returns how many of
    ``samples`` queries, spread evenly over ``texts``, disagree (must be 0).
    """
    texts = list(dict.fromkeys(texts))
    step = max(len(texts) // samples, 1)
    wrong = 0
    for text in texts[::step][:samples]:
        brute = {element.payload for element in system.brute_force_matches(text)}
        wrong += brute != oracle.expected(text)
    return wrong

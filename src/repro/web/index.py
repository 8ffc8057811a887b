"""Positional inverted index with phrase and proximity evaluation.

The index maps each term to ``{doc_id: sorted positions}``.  Phrase
occurrences are found by position intersection; the ``near`` operator is
evaluated over phrase start positions with a configurable word window
(default 10, the AltaVista convention of the era).
"""

from repro.web.searchexpr import NEAR

DEFAULT_NEAR_WINDOW = 10


class InvertedIndex:
    """Positional inverted index over tokenized documents."""

    def __init__(self):
        self._postings = {}  # term -> {doc_id: [positions]}
        self._phrase_cache = {}  # multi-word phrase -> occurrence map
        self.doc_count = 0

    def add_document(self, doc_id, tokens):
        self.doc_count += 1
        self._phrase_cache.clear()  # index mutated: memoized phrases stale
        for position, term in enumerate(tokens):
            by_doc = self._postings.setdefault(term, {})
            positions = by_doc.get(doc_id)
            if positions is None:
                by_doc[doc_id] = [position]
            else:
                positions.append(position)

    # -- term/phrase level ----------------------------------------------------

    def phrase_occurrences(self, phrase):
        """Map doc_id -> sorted start positions of *phrase* (a token tuple).

        Multi-word intersections are memoized (cleared on writes), since
        engines re-evaluate the same entity phrases constantly.
        """
        if not phrase:
            return {}
        first = self._postings.get(phrase[0])
        if first is None:
            return {}
        if len(phrase) == 1:
            return first
        phrase = tuple(phrase)
        cached = self._phrase_cache.get(phrase)
        if cached is not None:
            return cached
        # Candidate docs must contain every word of the phrase.
        candidates = set(first)
        for term in phrase[1:]:
            postings = self._postings.get(term)
            if postings is None:
                self._phrase_cache[phrase] = {}
                return {}
            candidates &= set(postings)
            if not candidates:
                self._phrase_cache[phrase] = {}
                return {}
        result = {}
        for doc_id in candidates:
            starts = []
            rest = [set(self._postings[t][doc_id]) for t in phrase[1:]]
            for start in first[doc_id]:
                if all(start + 1 + i in positions for i, positions in enumerate(rest)):
                    starts.append(start)
            if starts:
                result[doc_id] = starts
        self._phrase_cache[phrase] = result
        return result

    # -- expression level -------------------------------------------------------

    def matching_documents(self, expression, near_window=DEFAULT_NEAR_WINDOW):
        """Return the set of doc ids matching a parsed search expression.

        An expression is the OR of its clauses; each clause is an AND/NEAR
        chain of phrases minus its exclusions.
        """
        docs = set()
        for clause in expression.clauses:
            docs |= self._matching_clause(clause, near_window)
        return docs

    def _matching_clause(self, clause, near_window):
        occurrence_maps = [self.phrase_occurrences(p) for p in clause.phrases]
        if not occurrence_maps:
            return set()
        docs = set(occurrence_maps[0])
        for occurrences in occurrence_maps[1:]:
            docs &= set(occurrences)
            if not docs:
                return set()
        # Apply proximity constraints for each adjacent NEAR pair.
        for i, op in enumerate(clause.operators):
            if op != NEAR:
                continue
            left, right = occurrence_maps[i], occurrence_maps[i + 1]
            left_len = len(clause.phrases[i])
            right_len = len(clause.phrases[i + 1])
            docs = {
                doc_id
                for doc_id in docs
                if _within_window(
                    left[doc_id], left_len, right[doc_id], right_len, near_window
                )
            }
            if not docs:
                return set()
        for excluded in clause.exclusions:
            docs -= set(self.phrase_occurrences(excluded))
            if not docs:
                return set()
        return docs

    def count(self, expression, near_window=DEFAULT_NEAR_WINDOW):
        return len(self.matching_documents(expression, near_window))


def _within_window(left_starts, left_len, right_starts, right_len, window):
    """Is any pair of occurrences within *window* words of each other?

    The gap is measured between the nearest edges of the two phrase spans,
    so adjacent phrases have gap 0.
    """
    for a in left_starts:
        a_end = a + left_len - 1
        for b in right_starts:
            b_end = b + right_len - 1
            if b > a_end:
                gap = b - a_end - 1
            elif a > b_end:
                gap = a - b_end - 1
            else:
                gap = 0  # overlapping spans
            if gap <= window:
                return True
    return False

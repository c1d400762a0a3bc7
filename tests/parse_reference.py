"""The parser's two phrase scanners as they were before one greedy matcher replaced both.

find_objects tries a two-lemma class name, then a one-lemma one, at each
word; find_prepositions tries each multi-word predicate in table order,
then a single preposition other than "to" and "of". The tests compare
textgraph._longest_matches against them, so they stay as written.
"""

MULTIWORD_PREPOSITIONS = (
    ("in", "front", "of"),
    ("on", "top", "of"),
    ("next", "to"),
    ("close", "to"),
)
PREPOSITIONS = frozenset(
    "on in under over above below near behind beside by against at with inside "
    "outside around along across beneath underneath atop upon to of".split()
)


def find_objects(lemmas, tokens, vocab):
    """Greedy left-to-right matching; two-token names take priority over one-token.

    Returns (start, length, surface, class index) per mention, and which words the mentions cover.
    """
    matches = []
    occupied = [False] * len(lemmas)
    i = 0
    while i < len(lemmas):
        idx = None
        length = 0
        if i + 1 < len(lemmas):
            idx = vocab.match_phrase((lemmas[i], lemmas[i + 1]))
            length = 2
        if idx is None:
            idx = vocab.match_phrase((lemmas[i],))
            length = 1
        if idx is None:
            i += 1
            continue
        matches.append((i, length, " ".join(tokens[i : i + length]), idx))
        for k in range(i, i + length):
            occupied[k] = True
        i += length
    return matches, occupied


def find_prepositions(tokens):
    """(start, end, predicate) per preposition phrase."""
    spans = []
    i = 0
    while i < len(tokens):
        matched = False
        for phrase in MULTIWORD_PREPOSITIONS:
            n = len(phrase)
            if tuple(tokens[i : i + n]) == phrase:
                spans.append((i, i + n, " ".join(phrase)))
                i += n
                matched = True
                break
        if matched:
            continue
        if tokens[i] in PREPOSITIONS and tokens[i] not in ("to", "of"):
            spans.append((i, i + 1, tokens[i]))
        i += 1
    return spans

"""Reference copy of Kuhn's augmenting-path matching, as ``torusvc.matching``
had it before ``maximum_matching`` learned to take a row's free first column
without a search.

It is kept verbatim but for the guard that turns a RecursionError into
GuardExceeded, so that ``reference_lift`` matches with code of its own and
the tests can check that ``maximum_matching`` still returns exactly this
``(size, match)``.  It imports nothing from ``torusvc``.
"""


def augment(adjacency, i: int, match_right, visited) -> bool:
    """Kuhn's step: find an augmenting path from left vertex i and flip it.

    Updates match_right in place; visited collects the right vertices this
    search has tried.
    """
    for j in adjacency[i]:
        if j in visited:
            continue
        visited.add(j)
        if match_right[j] is None or augment(adjacency, match_right[j], match_right, visited):
            match_right[j] = i
            return True
    return False


def maximum_matching(adjacency, n_right: int):
    """Match left vertices to right vertices.

    adjacency[i] is the sorted list of right vertices available to left
    vertex i.  Returns (size, match) where match[i] is the right vertex
    matched to left i, or None.
    """
    match_right = [None] * n_right
    for i in range(len(adjacency)):
        augment(adjacency, i, match_right, set())
    match = [None] * len(adjacency)
    for j, i in enumerate(match_right):
        if i is not None:
            match[i] = j
    return n_right - match_right.count(None), match

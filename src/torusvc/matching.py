"""Maximum bipartite matching via augmenting paths.

Sizes here are tiny (rows = matrix rows, columns = matrix columns), so the
classic Kuhn algorithm is plenty.  Neighbour lists are explored in
ascending column order, which makes the returned matching deterministic.
"""

import sys

from .errors import GuardExceeded


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
    matched to left i, or None.  An augmenting path recurses once per left
    vertex on it, so one deeper than the recursion limit is refused.
    """
    match_right = [None] * n_right
    try:
        for i, row in enumerate(adjacency):
            # augment would stop at once on a free first column
            if row and match_right[row[0]] is None:
                match_right[row[0]] = i
            else:
                augment(adjacency, i, match_right, set())
    except RecursionError:
        raise GuardExceeded(
            f"maximum_matching guard: an augmenting path is deeper than the recursion limit "
            f"({sys.getrecursionlimit()} frames)"
        ) from None
    match, size = [None] * len(adjacency), 0
    for j, i in enumerate(match_right):
        if i is not None:
            match[i] = j
            size += 1
    return size, match

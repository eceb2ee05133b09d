"""Reference copy of the unanchored ``canonical_class`` that ``torusvc.vcsearch`` replaced.

Kept verbatim, so that the tests can check the anchored minimisation
against the answers the package gave before; it imports nothing from
``torusvc``.  Slow: d!·∏(2b_j) sorted images per call.
"""

import itertools


def canonical_class(levels) -> tuple:
    """The class of a configuration: the minimum, over dimension
    permutations and per-dimension rotations and reflections of the
    dense-ranked levels, of the sorted tuple of points."""
    images = []
    for col in levels:
        rank = {v: r for r, v in enumerate(sorted(set(col)))}
        b = len(rank)
        dense = [rank[v] for v in col]
        images.append([tuple((s * x + r) % b for x in dense) for s in (1, -1) for r in range(b)])
    return min(
        tuple(sorted(zip(*cols)))
        for perm in itertools.permutations(images)
        for cols in itertools.product(*perm)
    )

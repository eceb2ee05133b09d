import random
import sys

import pytest

import reference_matching
from reference_lift import deficient_set
from torusvc.errors import GuardExceeded
from torusvc.matching import maximum_matching


def test_perfect_matching():
    size, match = maximum_matching([[0, 1], [1, 2], [0, 2]], 3)
    assert size == 3
    assert sorted(match) == [0, 1, 2]


def test_deterministic_lowest_column_preference():
    # left 0 takes column 0 first, then gets reassigned to 1 when left 1
    # augments through it
    size, match = maximum_matching([[0, 1], [0, 1]], 2)
    assert size == 2
    assert match == [1, 0]
    assert maximum_matching([[0, 1], [0, 1]], 2)[1] == match


def test_deficient_instance():
    adjacency = [[0], [0], [1]]
    size, _ = maximum_matching(adjacency, 2)
    assert size == 2
    rows, cols = deficient_set(adjacency, 2)
    # Hall violator: strictly more rows than their whole neighbourhood
    nbhd = set()
    for r in rows:
        nbhd |= set(adjacency[r])
    assert nbhd <= set(cols)
    assert len(cols) < len(rows)


def test_deficient_set_none_when_matchable():
    assert deficient_set([[0], [1]], 2) is None


def test_random_instances_hall_consistency():
    rng = random.Random(5)
    for _ in range(200):
        n_left = rng.randint(1, 6)
        n_right = rng.randint(1, 6)
        adjacency = [
            sorted(rng.sample(range(n_right), rng.randint(0, n_right)))
            for _ in range(n_left)
        ]
        size, match = maximum_matching(adjacency, n_right)
        used = [j for j in match if j is not None]
        assert len(used) == len(set(used)) == size
        for i, j in enumerate(match):
            if j is not None:
                assert j in adjacency[i]
        if size < n_left:
            rows, cols = deficient_set(adjacency, n_right)
            nbhd = set()
            for r in rows:
                nbhd |= set(adjacency[r])
            assert nbhd <= set(cols)
            assert len(cols) < len(rows)


def test_matching_equals_the_kuhn_loop_it_replaced():
    # taking a free first column without a search must not change which
    # matching comes back: empty rows, repeated supports, perfect and deficient
    rng = random.Random(25)
    seen = {"perfect": 0, "deficient": 0, "empty row": 0, "repeated support": 0}
    for _ in range(3000):
        n_right = rng.randint(1, 12)
        pool = [sorted(rng.sample(range(n_right), rng.randint(0, min(n_right, 4))))
                for _ in range(rng.randint(1, 4))]
        adjacency = [list(rng.choice(pool)) if rng.random() < 0.5
                     else sorted(rng.sample(range(n_right), rng.randint(0, n_right)))
                     for _ in range(rng.randint(1, 12))]
        size, match = maximum_matching(adjacency, n_right)
        assert (size, match) == reference_matching.maximum_matching(adjacency, n_right), adjacency
        seen["perfect" if size == len(adjacency) else "deficient"] += 1
        seen["empty row"] += [] in adjacency
        seen["repeated support"] += len(set(map(tuple, adjacency))) < len(adjacency)
    assert min(seen.values()) > 100, seen


def chain(n):
    """Row i may take column i - 1 or i: row i's augmenting path runs back
    through every row before it."""
    return [[0]] + [[i - 1, i] for i in range(1, n)]


def test_a_path_deeper_than_the_recursion_limit_is_refused():
    limit = sys.getrecursionlimit()
    with pytest.raises(GuardExceeded, match="^maximum_matching guard: an augmenting path is deeper"):
        maximum_matching(chain(limit + 500), limit + 500)
    size, match = maximum_matching(chain(limit * 9 // 10), limit * 9 // 10)
    assert size == limit * 9 // 10 and match == list(range(size))

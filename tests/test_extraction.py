import random
import time
from fractions import Fraction

import pytest

import reference_lift
from torusvc import extraction
from torusvc.errors import GuardExceeded, PostconditionError
from torusvc.extraction import (
    ExtractionVerdict,
    SymbolMatrix,
    check_extraction,
    failure_probability_bound,
    random_balanced_matrix,
    sample_extraction_matrix,
    shifted_staircase,
    superdiagonal_matrix,
    validate_failure_witness,
    verify_ext_req,
    word_matchable,
)

F = Fraction


def test_symbol_matrix_validation():
    with pytest.raises(ValueError):
        SymbolMatrix(((0, 1), (0,)), 2)
    with pytest.raises(ValueError):
        SymbolMatrix(((0, 2),), 2)
    with pytest.raises(ValueError):
        SymbolMatrix((), 2)
    with pytest.raises(ValueError, match="^alphabet size must be positive$"):
        SymbolMatrix(((0, 1),), 0)
    m = SymbolMatrix(((0, 1, 0, 1),), 2)
    assert m.is_balanced()
    assert m.support(0, 1) == [1, 3]
    assert not SymbolMatrix(((0, 0, 0, 1),), 2).is_balanced()
    # k does not divide d, so no row can hold every symbol equally often
    assert not SymbolMatrix(((0, 1, 2, 0),), 3).is_balanced()
    assert not SymbolMatrix(((0, 1),), 3).is_balanced()


def test_superdiagonal_has_extraction_property():
    for c in (1, 2, 3, 4, 5):
        m = superdiagonal_matrix(c)
        assert m.n_rows == c and m.n_cols == c + 1
        assert check_extraction(m, "exhaustive").holds
        assert check_extraction(m, "witness").holds
    with pytest.raises(ValueError, match="^c must be positive$"):
        superdiagonal_matrix(0)
    # the largest the (k+1)^c <= 10^8 guard of the subset search admitted
    assert check_extraction(superdiagonal_matrix(16), "witness").holds


def test_failing_matrix_reports_valid_evidence():
    # two rows whose only symbol-1 support is the same single column
    m = SymbolMatrix(((0, 1), (0, 1)), 2)
    ex = check_extraction(m, "exhaustive")
    assert not ex.holds
    assert not word_matchable(m, ex.counterexample_word)
    assert validate_failure_witness(m, ex.failure_witness)
    wit = check_extraction(m, "witness")
    assert not wit.holds
    assert validate_failure_witness(m, wit.failure_witness)


def test_mode_agreement_on_seeded_matrices():
    rng = random.Random(42)
    matrices = []
    for _ in range(120):
        c = rng.randint(1, 6)
        d = rng.randint(c, 10)
        k = rng.randint(1, 3)
        rows = tuple(
            tuple(rng.randrange(k) for _ in range(d)) for _ in range(c)
        )
        matrices.append(SymbolMatrix(rows, k))
    # balanced matrices with c = mk <= 8 and d = qm * k
    for seed in range(120):
        k = rng.randint(1, 3)
        m = rng.randint(1, 8 // k)
        matrices.append(random_balanced_matrix(m, k, F(rng.randint(1, 3), m), seed))
    verdicts = set()
    for m in matrices:
        ex = check_extraction(m, "exhaustive")
        wit = check_extraction(m, "witness")
        assert ex.holds == wit.holds
        if not ex.holds:
            assert not word_matchable(m, ex.counterexample_word)
            assert validate_failure_witness(m, ex.failure_witness)
            assert validate_failure_witness(m, wit.failure_witness)
        verdicts.add(ex.holds)
    assert verdicts == {True, False}


def test_witness_search_decides_the_ledger_row_at_d_32():
    # c = 24, k = 4: far past the (k+1)^c <= 10^8 that the subset search admitted
    for seed in range(3):
        m = random_balanced_matrix(6, 4, F(4, 3), seed)
        assert (m.n_rows, m.n_cols) == (24, 32)
        assert check_extraction(m, "witness").holds
    for seed in range(3):
        m = random_balanced_matrix(7, 4, F(8, 7), seed)
        verdict = check_extraction(m, "witness")
        assert not verdict.holds
        assert validate_failure_witness(m, verdict.failure_witness)


def test_witness_search_matches_the_search_without_its_memo():
    # the (r, V) memo cuts only subtrees the stack has already searched, so
    # verdicts and failure witnesses are those of the search without it
    rng = random.Random(1416)
    failing = 0
    for _ in range(1200):
        c = rng.randint(1, 9)
        k = rng.randint(1, 4)
        d = rng.randint(c, 12)
        m = SymbolMatrix(tuple(tuple(rng.randrange(k) for _ in range(d)) for _ in range(c)), k)
        got = check_extraction(m, "witness")
        want = reference_lift._check_witness(m)
        assert (got.holds, got.failure_witness) == (want.holds, want.failure_witness)
        failing += not got.holds
    assert 300 < failing < 1100


def test_witness_search_decides_the_staircase_at_d_64():
    # M[i][j] = [j <= i] has the 2-extraction property with c = d - 1 rows:
    # every support is a prefix or a suffix of the columns
    d = 64
    staircase = SymbolMatrix(tuple(tuple(int(j <= i) for j in range(d)) for i in range(d - 1)), 2)
    start = time.perf_counter()
    assert check_extraction(staircase, "witness").holds
    assert time.perf_counter() - start < 0.1


def word_by_word_checked(m):
    """The exhaustive verdict, once the word-by-word reference gives the
    same first word and the same witness."""
    got = check_extraction(m, "exhaustive")
    want = reference_lift._check_exhaustive(m)
    assert (got.holds, got.counterexample_word, got.failure_witness) == (
        want.holds, want.counterexample_word, want.failure_witness), m
    return got


def test_exhaustive_checker_matches_word_by_word_reference():
    # the prefix DFS must name the same first word and the same witness as
    # matching every word from scratch, on holding and failing matrices
    rng = random.Random(2004)
    failed_at = set()
    holds = 0
    for _ in range(600):
        c = rng.randint(1, 6)
        k = rng.randint(1, 4)
        d = rng.randint(c, c + 2 * k)
        m = SymbolMatrix(tuple(tuple(rng.randrange(k) for _ in range(d)) for _ in range(c)), k)
        got = word_by_word_checked(m)
        if got.holds:
            holds += 1
        else:
            failed_at.add(max((i for i, s in enumerate(got.counterexample_word) if s), default=0))
    # both verdicts, and first failing words whose last nonzero symbol sits
    # in each of the six rows
    assert 100 < holds < 500
    assert set(range(6)) <= failed_at
    # interval matrices, whose subtrees the walk settles most often: holding
    # ones, and failing ones whose first failure lies past settled subtrees
    holding = [shifted_staircase(d) for d in range(3, 10)]
    holding += [superdiagonal_matrix(c) for c in range(1, 11)]
    # the k = 4 staircase (row i choosing 2 and row i + 1 choosing 1 both
    # need column i + 2), and the k = 3 one with a row repeated
    failing = [SymbolMatrix(tuple(tuple(min(max(j - i, 0), 3) for j in range(d))
                                  for i in range(d - 3)), 4) for d in range(5, 10)]
    for d in range(3, 9):
        rows = shifted_staircase(d).rows
        failing += [SymbolMatrix(rows + (rows[i],), 3) for i in range(d - 2)]
    for m in holding + failing:
        got = word_by_word_checked(m)
        assert got.holds == (m in holding)
    # and random matrices with few spare columns, where augmenting paths
    # often leave a subtree's columns: a settled state that read a prefix
    # row, or that hid what its subtree read, changes some of these answers
    rng = random.Random(28)
    verdicts = []
    for _ in range(150):
        c = rng.randint(5, 7)
        k = rng.randint(2, 3)
        d = rng.randint(c, c + 2)
        m = SymbolMatrix(tuple(tuple(rng.randrange(k) for _ in range(d)) for _ in range(c)), k)
        got = word_by_word_checked(m)
        verdicts.append(got.holds)
    assert 20 < sum(verdicts) < 130


def test_shifted_staircase_is_the_k3_interval_matrix():
    m = shifted_staircase(6)
    assert (m.n_rows, m.n_cols, m.k) == (4, 6, 3)
    for i in range(4):
        assert (m.support(i, 0), m.support(i, 1), m.support(i, 2)) == (
            list(range(i + 1)), [i + 1], list(range(i + 2, 6)))
    assert check_extraction(m, "witness").holds
    for d in (-1, 0, 1, 2):
        with pytest.raises(ValueError, match="^d must be at least 3$"):
            shifted_staircase(d)


@pytest.mark.parametrize("matrix, seconds", [(shifted_staircase(14), 0.25),
                                             (superdiagonal_matrix(18), 0.05)],
                         ids=["staircase_d14", "superdiagonal_c18"])
def test_exhaustive_walk_settles_interval_matrices_fast(matrix, seconds):
    # 3^12 = 531,441 and 2^18 = 262,144 words
    start = time.perf_counter()
    assert check_extraction(matrix, "exhaustive").holds
    assert time.perf_counter() - start < seconds


def test_column_monotonicity():
    rng = random.Random(9)
    grown = 0
    for _ in range(60):
        c = rng.randint(1, 4)
        d = rng.randint(c, 8)
        k = rng.randint(1, 3)
        rows = tuple(
            tuple(rng.randrange(k) for _ in range(d)) for _ in range(c)
        )
        m = SymbolMatrix(rows, k)
        if not check_extraction(m, "witness").holds:
            continue
        extra = tuple(rng.randrange(k) for _ in range(c))
        wider = SymbolMatrix(
            tuple(row + (extra[i],) for i, row in enumerate(m.rows)), k
        )
        assert check_extraction(wider, "witness").holds
        grown += 1
    assert grown > 0


def test_random_balanced_matrix_properties():
    m = random_balanced_matrix(3, 2, 2, seed=1)
    assert m.n_rows == 6 and m.n_cols == 12 and m.k == 2
    assert m.is_balanced()
    assert random_balanced_matrix(3, 2, 2, seed=1) == m
    assert random_balanced_matrix(3, 2, 2, seed=2) != m


def test_random_balanced_matrix_requires_integral_qm():
    with pytest.raises(ValueError):
        random_balanced_matrix(3, 2, F(1, 2), seed=0)
    for m, k in ((0, 2), (3, 0)):
        with pytest.raises(ValueError, match="^m and k must be positive$"):
            random_balanced_matrix(m, k, 2, seed=0)


def test_sampler_finds_matrix():
    result = sample_extraction_matrix(2, 2, 2, max_trials=50, seed=0)
    assert result is not None
    matrix, trials = result
    assert 1 <= trials <= 50
    assert matrix.is_balanced()
    assert check_extraction(matrix, "exhaustive").holds
    # same seed reproduces the same matrix and trial count
    assert sample_extraction_matrix(2, 2, 2, max_trials=50, seed=0) == result


def test_verify_ext_req_examples():
    assert verify_ext_req(2, 14, 4)
    assert not verify_ext_req(2, 8, 4)
    assert not verify_ext_req(2, 4, 1)  # k=1 makes the left side vanish


def test_failure_bound_degenerate_case_is_zero():
    ledger = failure_probability_bound(2, 1, 2)
    assert ledger.ratio_bound == 0
    assert ledger.B_bound == 0


def test_failure_bound_below_one_over_q_when_req_holds():
    for m in (14, 16, 18):
        q, k = F(2), 4
        assert verify_ext_req(q, m, k)
        ledger = failure_probability_bound(q, m, k)
        assert 0 <= ledger.ratio_bound < 1 / q
        assert ledger.T == ledger.A ** ledger.c


def test_check_extraction_guards(monkeypatch):
    wide = SymbolMatrix(tuple((0,) * 30 for _ in range(30)), 3)
    with pytest.raises(GuardExceeded):
        check_extraction(wide, "exhaustive")
    monkeypatch.setattr(extraction, "WITNESS_NODE_BUDGET", 1000)
    with pytest.raises(GuardExceeded, match="witness check guard: more than 1000 search nodes"):
        check_extraction(superdiagonal_matrix(16), "witness")
    with pytest.raises(ValueError):
        check_extraction(superdiagonal_matrix(2), "magic")


def test_failure_witness_validator_rejects_each_malformed_witness():
    m = SymbolMatrix(((0, 1), (0, 1)), 2)
    assert validate_failure_witness(m, ((0, 1), (0,), {0: 0, 1: 0}))
    assert not validate_failure_witness(m, ((0, 1), (0, 1), {0: 0, 1: 0}))  # |V| != |U| - 1
    assert not validate_failure_witness(m, ((0, 1), (0,), {0: 0}))  # row 1 has no symbol
    assert not validate_failure_witness(m, ((0, 1), (1,), {0: 0, 1: 0}))  # support {0} outside V
    sd = superdiagonal_matrix(2)  # rows 010 and 001
    assert not validate_failure_witness(sd, ((0, 0), (1,), {0: 1}))  # row 0 twice
    assert not validate_failure_witness(sd, ((0, 1), (2,), {0: 7, 1: 1}))  # symbol 7, empty support
    assert not validate_failure_witness(sd, ((0, 1), (2,), {0: -1, 1: 1}))  # symbol -1
    assert not validate_failure_witness(sd, ((-1, 1), (2,), {-1: 1, 1: 1}))  # row -1 wraps to row 1
    assert not validate_failure_witness(sd, ((0, 2), (1,), {0: 1, 2: 1}))  # no row 2
    blank = SymbolMatrix(((0, 0),) * 3, 2)  # symbol 1 has an empty support in every row
    assert validate_failure_witness(blank, ((0, 1, 2), (0, 1), {0: 1, 1: 1, 2: 1}))
    assert not validate_failure_witness(blank, ((0, 1, 2), (0, 0), {0: 1, 1: 1, 2: 1}))  # column 0 twice
    assert not validate_failure_witness(blank, ((0, 1), (2,), {0: 1, 1: 1}))  # no column 2
    assert not validate_failure_witness(blank, ((0, 1), (-1,), {0: 1, 1: 1}))  # column -1


def test_negative_verdicts_are_rechecked(monkeypatch):
    m = SymbolMatrix(((0, 1), (0, 1)), 2)
    corrupt = ExtractionVerdict(False, None, ((0, 1), (1,), {0: 0, 1: 0}))
    monkeypatch.setattr(extraction, "_check_witness", lambda matrix: corrupt)
    with pytest.raises(PostconditionError, match="fails its re-check"):
        check_extraction(m, "witness")
    # a valid failure witness beside a word that rows (0, 1) and (0, 1) can match
    matchable = ExtractionVerdict(False, (0, 1), ((0, 1), (0,), {0: 0, 1: 0}))
    monkeypatch.setattr(extraction, "_check_exhaustive", lambda matrix: matchable)
    with pytest.raises(PostconditionError, match="fails its re-check"):
        check_extraction(m, "exhaustive")

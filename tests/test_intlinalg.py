from fractions import Fraction

from edgering.intlinalg import rank
from conftest import sparse_rows


def fraction_rank(matrix):
    """Reference rank by plain Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def dense_rank(matrix):
    return rank(sparse_rows(matrix))


def test_known_ranks():
    assert dense_rank([]) == 0
    assert dense_rank([[0, 0], [0, 0]]) == 0
    assert dense_rank([[1, 2], [2, 4]]) == 1
    assert dense_rank([[1, 0], [0, 1]]) == 2
    assert dense_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2


def test_sparse_rows_read_missing_columns_and_zero_entries_as_zero():
    assert rank([{}, {}]) == 0
    assert rank([{3: 0}, {0: 0, 7: 0}]) == 0
    assert rank([{5: 2, 9: -4}, {9: 6, 5: -3}]) == 1
    assert rank([{10**9: 1}, {0: 1}, {10**9: 2, 0: 0}]) == 2


def test_input_rows_are_not_changed():
    matrix = [{0: 2, 1: 4}, {0: 3, 1: 5}, {1: 7}]
    copy = [dict(r) for r in matrix]
    assert rank(matrix) == 2
    assert matrix == copy


def test_against_fraction_elimination(rng):
    for _ in range(300):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        matrix = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        assert dense_rank(matrix) == fraction_rank(matrix)


def test_large_entries_exact(rng):
    # values big enough that float rank computations would be unreliable
    for _ in range(20):
        base = [rng.randint(-10**18, 10**18) for _ in range(4)]
        matrix = [[x * s for x in base] for s in (1, 7, -3)]
        matrix.append([rng.randint(-10**18, 10**18) for _ in range(4)])
        assert dense_rank(matrix) == fraction_rank(matrix)

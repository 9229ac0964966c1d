"""Exact integer primitives, the package's only copy of each: standard
library only, and nothing imported from weylkit."""

from math import gcd

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def _bareiss(rows: list[list[int]], n: int) -> int:
    """Bareiss's fraction-free Gauss-Jordan (Math. Comp. 22, 1968) on n
    rows, in place: the determinant of their first n columns, or 0 at
    the first column without a pivot.  A swap negates a row to keep the
    determinant; if nonzero, the rows end as adj(block) times the input.
    """
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], [-x for x in rows[k]]
        pk = rows[k]
        d = pk[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(d * x - f * y) // prev
                           for x, y in zip(rows[i], pk)]
        prev = d
    return prev


def det(m) -> int:
    """Determinant of a square integer matrix, from one Bareiss pass.

    >>> det([[2, -1], [-1, 2]]), det([[1, 2], [2, 4]])
    (3, 0)
    """
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return _bareiss([list(row) for row in m], len(m))


def det_adjugate(m) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a square integer matrix:
    m * adj = adj * m = det * I.

    >>> det_adjugate([[2, -1], [-1, 2]]), det_adjugate([[1, 2], [2, 4]])
    ((3, [[2, 1], [1, 2]]), (0, [[4, -2], [-2, 1]]))
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(m)]
    det = _bareiss(rows, n)
    if det:
        return det, [row[n:] for row in rows]
    # singular: adj[i][j] is the (j, i) cofactor
    return 0, [[(-1) ** (i + j) * _bareiss(
        [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j],
        n - 1) for j in range(n)] for i in range(n)]


# a sparse row: its nonzero entries, as (columns ascending, entries)
SparseRow = tuple[tuple[int, ...], tuple[int, ...]]


def _sparse_digits(packed: int, width: int) -> SparseRow:
    """(columns, entries) of the nonzero digits e_j of packed = sum of
    e_j 2^(width j), each |e_j| < 2^(width - 1); the zero digits are
    skipped by the lowest set bit."""
    cols, vals = [], []
    j = 0
    while packed:
        skip = ((packed & -packed).bit_length() - 1) // width
        packed >>= width * skip
        e = packed & ((1 << width) - 1)
        if e >> (width - 1):
            e -= 1 << width
        j += skip
        cols.append(j)
        vals.append(e)
        packed = (packed - e) >> width
        j += 1
    return tuple(cols), tuple(vals)


def unitriangular_inverse(rows: list[SparseRow]) -> list[SparseRow]:
    """Inverse of a lower unitriangular integer matrix in sparse rows,
    by forward substitution: row i of the inverse is e_i minus m[i][k]
    times row k, summed over the k < i with m[i][k] != 0.  A sparse
    row is a pair (columns, entries): its nonzero entries, by ascending
    column.  The inverse comes back in the same form.  ValueError if m
    is not lower unitriangular.

    Each row of the inverse is summed as one int, entry j being the
    digit of 2^(width j), so that a row costs one big-int operation per
    nonzero of m, not one per pair of nonzeros.  Its entries are at
    most 1 + sum |m[i][k]| max |inverse row k| in absolute value; while
    that stays below 2^(width - 1) the digits are exact, and when it
    does not the width doubles and the rows are packed again.

    >>> unitriangular_inverse([((0,), (1,)), ((0, 1), (2, 1)),
    ...                        ((1, 2), (3, 1))])
    [((0,), (1,)), ((0, 1), (-2, 1)), ((0, 1, 2), (6, -3, 1))]
    """
    width = 16
    inv: list[SparseRow] = []
    packed: list[int] = []  # row k of the inverse as one int
    top: list[int] = []  # the largest |entry| of row k of the inverse
    for i, (cols, vals) in enumerate(rows):
        if (not cols or cols[-1] != i or vals[-1] != 1
                or min(cols) < 0 or max(cols[:-1], default=-1) >= i):
            raise ValueError("matrix is not unitriangular")
        below = list(zip(cols[:-1], vals[:-1]))
        bound = 1 + sum(abs(c) * top[k] for k, c in below)
        if bound >> (width - 1):
            while bound >> (width - 1):
                width *= 2
            packed = [sum(e << (width * j) for j, e in zip(*row))
                      for row in inv]
        acc = 1 << (width * i)
        for k, c in below:
            acc -= c * packed[k]
        inv.append(_sparse_digits(acc, width))
        packed.append(acc)
        top.append(max(map(abs, inv[-1][1])))
    return inv


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form: nonnegative, each dividing
    the next, length min(rows, cols), zeros included.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # the first nonzero pivot of smallest absolute value
        nonzero = [(abs(m[i][j]), i, j) for i in range(top, rows)
                   for j in range(top, cols) if m[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        m[top], m[i] = m[i], m[top]
        for r in range(rows):
            m[r][top], m[r][j] = m[r][j], m[r][top]
        for r in range(top + 1, rows):
            q = m[r][top] // m[top][top]
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[top])]
        for c in range(top + 1, cols):
            q = m[top][c] // m[top][top]
            if q:
                for r in range(rows):
                    m[r][c] -= q * m[r][top]
        # remainders left in the pivot row or column: pivot again
        if (any(m[r][top] for r in range(top + 1, rows))
                or any(m[top][top + 1:])):
            continue
        diag.append(abs(m[top][top]))
        top += 1
    diag += [0] * (min(rows, cols) - len(diag))
    # enforce the divisibility chain (zeros are already last)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return diag


def is_prime(n: int) -> bool:
    """Trial division by the 13 primes up to 41, then Miller-Rabin with
    them as bases, which is exact below psi_13 (Sorenson and Webster,
    Math. Comp. 86, 2017); ValueError from psi_13 on.

    >>> is_prime(2 ** 61 - 1), is_prime(3215031751)
    (True, False)
    """
    if n >= _PSI13:
        raise ValueError("p too large to certify prime")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def base_p_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first.

    >>> base_p_digits(0, 7), base_p_digits(48, 5)
    ([0], [3, 4, 1])
    """
    if p < 2 or n < 0:
        raise ValueError("need a base p >= 2 and n >= 0")
    digits = []
    while True:
        n, r = divmod(n, p)
        digits.append(r)
        if n == 0:
            return digits

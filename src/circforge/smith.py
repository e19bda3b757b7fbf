"""Exact matrix algebra on lists of rows.

Over the integers: Smith normal form, kernel lattices, integer solves,
cokernel invariant factors and lattice membership.  Over an exact field
(entries ``Fraction``, ``Cyclo``, or either mixed with ``int``): one forward
elimination, ``echelon``, and one back-substitution on top of it,
``reduced_echelon``; ``det`` reads the forward pass and ``solve`` the
reduced form, and a fraction-free ``rank`` inverts no entry.  Every entry
stays an exact Python number; no float is ever formed.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


def _matrix(a) -> list[list]:
    rows = [list(row) for row in a]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("expected a 2-d matrix")
    return rows


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _diagonal_rank(d) -> int:
    return sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0)


def smith_normal_form(a):
    """Return (d, u, v) with d = u a v diagonal, u and v unimodular.

    The diagonal entries satisfy d[0] | d[1] | ... and are nonnegative.
    """
    d = _matrix(a)
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d + v:
            row[i], row[j] = row[j], row[i]

    for t in range(min(m, n)):
        # smallest nonzero magnitude, first in row-major order
        nonzero = [(abs(d[i][j]), i, j) for i in range(t, m) for j in range(t, n) if d[i][j] != 0]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        swap_rows(t, i)
        swap_cols(t, j)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    for row in d + v:
                        row[j] -= q * row[t]
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # Enforce divisibility of the remaining block by the pivot.
                i = next((i for i in range(t + 1, m) if any(d[i][j] % d[t][t] for j in range(t + 1, n))), None)
                if i is not None:
                    d[t] = [x + y for x, y in zip(d[t], d[i])]
                    u[t] = [x + y for x, y in zip(u[t], u[i])]
                    dirty = True
    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return d, u, v


def kernel_basis(a) -> list[list[int]]:
    """Basis (as rows) of the integer lattice {x : a x = 0}."""
    d, _u, v = smith_normal_form(a)
    n = len(v)
    return [[v[i][j] for i in range(n)] for j in range(_diagonal_rank(d), n)]


def solve_integer(a, b):
    """One integer solution x of a x = b, or None if none exists."""
    d, u, v = smith_normal_form(a)
    b = list(b)
    if len(b) != len(d):
        raise ValueError("right-hand side does not match the matrix rows")
    c = [sum(x * y for x, y in zip(row, b)) for row in u]
    y = [0] * len(v)
    for i, ci in enumerate(c):
        di = d[i][i] if i < len(v) else 0
        if di == 0:
            if ci != 0:
                return None
        else:
            if ci % di != 0:
                return None
            y[i] = ci // di
    return [sum(x * yj for x, yj in zip(row, y)) for row in v]


def cokernel_invariant_factors(a) -> list[int]:
    """Invariant factors (> 1) of Z^m / column-lattice(a), ascending."""
    d, _u, _v = smith_normal_form(a)
    if _diagonal_rank(d) < len(d):
        raise ValueError("cokernel is infinite")
    return [d[i][i] for i in range(len(d)) if d[i][i] > 1]


def in_lattice(basis_rows, vec) -> bool:
    """Whether vec lies in the integer row span of basis_rows."""
    if not basis_rows:
        return all(x == 0 for x in vec)
    return solve_integer(list(zip(*basis_rows)), vec) is not None


# -- elimination over an exact field -------------------------------------------------


def echelon(rows):
    """Forward Gaussian elimination over an exact field.

    Returns (e, pivots, sign): e is a row echelon form of rows, pivots[r] is
    the column of the leading entry of row r of e (one per nonzero row), and
    sign is -1 when an odd number of row swaps was made, else 1.  Each pivot
    is the first nonzero entry of its column at or below the current row.
    """
    e = _matrix(rows)
    pivots = []
    sign = 1
    for col in range(len(e[0]) if e else 0):
        r = len(pivots)
        if r == len(e):
            break
        piv = next((i for i in range(r, len(e)) if e[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            e[r], e[piv] = e[piv], e[r]
            sign = -sign
        inv = _ONE / e[r][col]
        for i in range(r + 1, len(e)):
            if e[i][col]:
                c = e[i][col] * inv
                e[i] = [x - c * y for x, y in zip(e[i], e[r])]
        pivots.append(col)
    return e, pivots, sign


def reduced_echelon(rows):
    """Reduced row echelon form over an exact field: (e, pivots) with e and
    pivots as from `echelon`, and then, from the last pivot row up, each
    pivot row scaled by the inverse of its pivot and that pivot cleared
    from the rows above it.  So every pivot is 1 and the only nonzero entry
    of its column."""
    e, pivots, _sign = echelon(rows)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        inv = _ONE / e[r][col]
        e[r] = [x * inv for x in e[r]]
        for a in range(r):
            c = e[a][col]
            if c:
                e[a] = [x - c * y for x, y in zip(e[a], e[r])]
    return e, pivots


def rank(rows) -> int:
    """Rank of a matrix over an exact field, by fraction-free elimination:
    each row below the pivot row becomes p * row - c * (pivot row), p the
    pivot and c the row's entry in the pivot column.  No entry is inverted:
    the inverse of a cyclotomic entry is a norm, which at the lcm of mixed
    orders costs far more than the products."""
    e = _matrix(rows)
    r = 0
    for col in range(len(e[0]) if e else 0):
        if r == len(e):
            break
        piv = next((i for i in range(r, len(e)) if e[i][col]), None)
        if piv is None:
            continue
        e[r], e[piv] = e[piv], e[r]
        p = e[r][col]
        for i in range(r + 1, len(e)):
            c = e[i][col]
            if c:
                e[i] = [p * x - c * y for x, y in zip(e[i], e[r])]
        r += 1
    return r


def det(rows):
    """Determinant of a square matrix over an exact field (1 when empty)."""
    e, _pivots, sign = echelon(rows)
    if any(len(row) != len(e) for row in e):
        raise ValueError("determinant of a non-square matrix")
    if not e:
        return _ONE
    # a square echelon form is upper triangular
    out = e[0][0]
    for i in range(1, len(e)):
        out = out * e[i][i]
    return -out if sign < 0 else out


def solve(a, b):
    """One solution x of a x = b over an exact field, or None if none exists.

    x is read off the reduced augmented matrix.  Free variables are set to
    0, so the solution is the unique one whenever a has full column rank.
    """
    e, pivots = reduced_echelon([list(row) + [bi] for row, bi in zip(a, b, strict=True)])
    n = len(e[0]) - 1 if e else 0
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for row, col in zip(e, pivots):
        x[col] = row[n]
    return x

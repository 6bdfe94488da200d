"""Small exact linear algebra over prime fields F_p.

Matrices are tuples of row tuples with entries reduced mod p. Everything here
is pure Python; the matrices involved are tiny (dimension vectors of string
modules), so clarity beats vectorization. Whether p is an accepted prime is
checked where a prime enters the package, by `io.check_field_prime`, so a
command that never builds a module (`mgs`, `mutate`) never loads this module.
"""

from __future__ import annotations

from itertools import combinations, product

Matrix = tuple[tuple[int, ...], ...]


def zeros(rows: int, cols: int) -> Matrix:
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    ra = len(a)
    rb = len(b)
    cb = len(b[0]) if b else 0
    if a and len(a[0]) != rb:
        raise ValueError(f"shape mismatch: {shape(a)} @ {shape(b)}")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            s = 0
            for t in range(rb):
                s += a[i][t] * b[t][j]
            row.append(s % p)
        out.append(tuple(row))
    return tuple(out)


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a))


def is_zero(a: Matrix) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def rref(a: Matrix, p: int) -> tuple[list[list[int]], list[int]]:
    """Row-reduced echelon form; returns (rows, pivot column indices)."""
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c] % p != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p != 0:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a: Matrix, p: int) -> int:
    return len(rref(a, p)[1])


def nullspace(a: Matrix, p: int) -> list[tuple[int, ...]]:
    """Basis of the right null space {x : a x = 0}."""
    ncols = len(a[0]) if a else 0
    if not a:
        return [tuple(identity(ncols)[i]) for i in range(ncols)]
    red, pivots = rref(a, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-red[r][f]) % p
        basis.append(tuple(vec))
    return basis


def solve(a: Matrix, b: tuple[int, ...], p: int) -> tuple[int, ...] | None:
    """One solution of a x = b, or None if inconsistent."""
    nrows, ncols = shape(a)
    aug = tuple(row + (b[i],) for i, row in enumerate(a))
    red, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return tuple(x)


def solve_matrix(a: Matrix, b: Matrix, p: int) -> Matrix | None:
    """One solution X of a X = b (columnwise), or None."""
    bt = transpose(b)
    cols = []
    for col in bt:
        x = solve(a, tuple(col), p)
        if x is None:
            return None
        cols.append(x)
    if not cols:
        return tuple(() for _ in range(len(a[0]) if a else 0))
    return transpose(tuple(cols))


def cokernel_projection(a: Matrix, p: int) -> Matrix:
    """Projection q: F^m -> F^c onto the cokernel of a: F^n -> F^m.

    q has full row rank c = m - rank(a) and q a = 0.
    """
    m = len(a)
    cols = [tuple(a[i][j] for i in range(m)) for j in range(len(a[0]) if a else 0)]
    basis: list[tuple[int, ...]] = []
    for v in cols:
        if rank(tuple(basis + [v]), p) > len(basis):
            basis.append(v)
    r = len(basis)
    added = []
    for i in range(m):
        e = tuple(1 if t == i else 0 for t in range(m))
        if rank(tuple(basis + [e]), p) > len(basis):
            basis.append(e)
            added.append(i)
    if len(basis) != m:
        raise AssertionError("failed to complete basis")
    # change of basis: columns of B are the basis vectors; q = last c rows of B^-1
    bmat = transpose(tuple(basis))
    binv = inverse(bmat, p)
    return tuple(binv[r:])


def inverse(a: Matrix, p: int) -> Matrix:
    n = len(a)
    aug = tuple(a[i] + tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    red, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return tuple(tuple(red[i][n:]) for i in range(n))


def reduce_against(v: tuple[int, ...], red_rows: list[list[int]], pivots: list[int], p: int) -> tuple[int, ...]:
    """Reduce v against an rref basis; zero result means membership."""
    w = list(v)
    for r, c in enumerate(pivots):
        if w[c] % p != 0:
            f = w[c]
            w = [(x - f * y) % p for x, y in zip(w, red_rows[r])]
    return tuple(x % p for x in w)


def subspace_count(d: int, p: int) -> int:
    """The number of subspaces of F_p^d, i.e. len(subspaces(d, p)), without
    building them: the sum over k of the Gaussian binomials [d choose k]_p."""
    total = 0
    for k in range(d + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def subspaces(d: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    """All subspaces of F_p^d, each as a tuple of rref basis rows.

    The zero subspace is the empty tuple. Enumeration is by rref normal form,
    so each subspace appears exactly once.
    """
    out: list[tuple[tuple[int, ...], ...]] = [()]
    for k in range(1, d + 1):
        for piv in combinations(range(d), k):
            free_positions = [
                (r, c)
                for r in range(k)
                for c in range(d)
                if c > piv[r] and c not in piv
            ]
            for values in product(range(p), repeat=len(free_positions)):
                rows = [[0] * d for _ in range(k)]
                for r in range(k):
                    rows[r][piv[r]] = 1
                for (r, c), val in zip(free_positions, values):
                    rows[r][c] = val
                out.append(tuple(tuple(row) for row in rows))
    return out

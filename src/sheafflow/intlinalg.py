"""Exact integer linear algebra: Smith normal form, kernels, cokernels.

The ring-ground backend for every (co)equalizer in the library, and the
independent cross-check for homology ranks.
"""

from __future__ import annotations

from fractions import Fraction


def smith_normal_form(A):
    """Return (U, S, V) with U*A*V = S diagonal, d_i | d_{i+1}, det(U),det(V)=+-1."""
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        S[dst] = [a + c * b for a, b in zip(S[dst], S[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, c):
        for r in S:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def neg_row(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # find pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0:
                    if pivot is None or abs(S[i][j]) < abs(S[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    addmul_row(i, t, -q)
                    if S[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    addmul_col(j, t, -q)
                    if S[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # ensure divisibility of the remaining block
        if S[t][t] != 0:
            fixed = False
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        addmul_row(t, i, 1)
                        fixed = True
                        break
                if fixed:
                    break
            if fixed:
                continue
        if S[t][t] < 0:
            neg_row(t)
        t += 1
    return U, S, V


def kernel_basis(A):
    """Integer basis of {x : A x = 0} (columns as tuples)."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    _, S, V = smith_normal_form(A)
    r = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    basis = []
    for j in range(r, n):
        basis.append(tuple(V[i][j] for i in range(n)))
    return basis


def cokernel_invariants(A, m=None):
    """Invariants (free_rank, torsion) of Z^m / columnspan(A).

    A maps Z^n -> Z^m; rows of A have length n and there are m of them.
    """
    if m is None:
        m = len(A)
    if not A or not A[0]:
        return m, []
    _, S, _ = smith_normal_form(A)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    torsion = [abs(d) for d in diag if d != 0 and abs(d) != 1]
    rank = sum(1 for d in diag if d != 0)
    return m - rank, sorted(torsion)


def rational_rank(A):
    """Rank of A over Q (fraction-free Gaussian elimination)."""
    M = [[Fraction(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        pivot = None
        for i in range(row, m):
            if M[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        M[row], M[pivot] = M[pivot], M[row]
        inv = M[row][col]
        M[row] = [x / inv for x in M[row]]
        for i in range(m):
            if i != row and M[i][col] != 0:
                c = M[i][col]
                M[i] = [a - c * b for a, b in zip(M[i], M[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def solve_integer(A, b):
    """One integer solution x of A x = b, or None."""
    m = len(A)
    U, S, V = smith_normal_form(A)
    n = len(A[0]) if m else 0
    c = [sum(U[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        d = S[i][i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(min(m, n), m):
        if c[i] != 0:
            return None
    return tuple(sum(V[i][j] * y[j] for j in range(n)) for i in range(n))


def in_lattice_span(x, gens):
    """Is x in the Z-span of gens?"""
    if not gens:
        return not any(x)
    A = [[g[i] for g in gens] for i in range(len(x))]
    return solve_integer(A, list(x)) is not None

"""Rational polyhedral cones: extreme rays and an exact simplex.

`extreme_rays(A)` runs the double description method on
{x >= 0 : A x = 0}, returning primitive integer generators.

`lp_feasible`, `lp_maximize` and `in_cone` share one simplex over
{x >= 0 : A_eq x = b_eq, x_j <= upper_j}.  Each upper bound becomes a row
with its own slack and each row is scaled to integers.  The tableau is then
pivoted fraction-free (Bareiss, Math. Comp. 1968): every entry is an integer
over one shared denominator, the previous pivot, each update divides by it
exactly, and ratio tests compare by cross-multiplication.  Phase 1 minimises
the sum of the artificial variables; phase 2 maximises an objective from the
phase-1 basis.  Both use Bland's rule, and artificial columns are never
stored, so they never re-enter.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SheafflowError


def _normalize_ray(r):
    den = 1
    for x in r:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in r]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def extreme_rays(A, n=None):
    """Extreme rays of {x in R^n : x >= 0, A x = 0} as primitive int tuples."""
    if n is None:
        n = len(A[0]) if A else 0
    # start from the nonnegative orthant
    rays = [tuple(Fraction(1) if k == j else Fraction(0) for k in range(n))
            for j in range(n)]
    # orthant facet structure: track which x_j >= 0 constraints are tight
    for row in A:
        rays = _cut_with_hyperplane(rays, row, n)
    return sorted(_normalize_ray(r) for r in rays)


def _zero_set(ray):
    return frozenset(j for j, x in enumerate(ray) if x == 0)


def _cut_with_hyperplane(rays, a, n):
    vals = [sum(Fraction(ai) * ri for ai, ri in zip(a, r)) for r in rays]
    zero = [r for r, v in zip(rays, vals) if v == 0]
    pos = [(r, v) for r, v in zip(rays, vals) if v > 0]
    neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
    new = list(zero)
    for rp, vp in pos:
        for rn, vn in neg:
            if not _adjacent(rp, rn, rays):
                continue
            comb = tuple(vp * xn - vn * xp for xp, xn in zip(rp, rn))
            new.append(comb)
    # drop duplicates up to scaling
    seen = {}
    for r in new:
        seen[_normalize_ray(r)] = r
    return list(seen.values())


def _adjacent(r1, r2, rays):
    z = _zero_set(r1) & _zero_set(r2)
    for r in rays:
        if r is r1 or r is r2:
            continue
        if _zero_set(r) >= z:
            return False
    return True


def _integer_row(row):
    """The least positive integer multiple of a rational row, and that
    multiplier; int entries are taken as they are, with no Fraction built.
    A loop, not lcm(*generator): over thousands of solves the generator
    form grew the resident set by about 2 MB (CPython 3.11)."""
    den = 1
    for v in row:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in row], den


def _pivot(table, r, c, den):
    """One fraction-free pivot on (r, c); returns the new shared denominator.

    Each row other than r becomes (p * row - row[c] * table[r]) // den with p
    the pivot entry; the division is exact (Bareiss).  A negative pivot
    negates the whole table so that the denominator stays positive."""
    prow = table[r]
    p = prow[c]
    for i, row in enumerate(table):
        if i == r:
            continue
        f = row[c]
        if f:
            table[i] = [(p * a - f * b) // den for a, b in zip(row, prow)]
        elif p != den:
            table[i] = [a * p // den for a in row]
    if p < 0:
        table[:] = [[-a for a in row] for row in table]
    return abs(p)


def _optimise(table, m, basis, den):
    """Pivot under Bland's rule until row m, the objective, has no negative
    reduced cost among the stored columns.  The ratio test takes the least
    rhs/entry over the positive entries of the first m rows, compared by
    cross-multiplication, ties to the least basic index.  Returns the
    denominator, or None when the entering column has no positive entry."""
    nvar = len(table[m]) - 1
    while True:
        obj = table[m]
        enter = next((j for j in range(nvar) if obj[j] < 0), None)
        if enter is None:
            return den
        leave = None
        for i in range(m):
            a, b = table[i][enter], table[i][-1]
            if a > 0 and (leave is None or b * la < lb * a or (
                    b * la == lb * a and basis[i] < basis[leave])):
                leave, la, lb = i, a, b
        if leave is None:
            return None
        den = _pivot(table, leave, enter, den)
        basis[leave] = enter


def _simplex(A_eq, b_eq, n, upper, c):
    """Phase 1 on {x >= 0 : A_eq x = b_eq, x_j <= upper_j}, then, when c is
    given, phase 2 maximising c.x from the phase-1 basis.

    Returns None when the system is infeasible, else (point, value): the
    basic solution as a Fraction tuple and the optimum (None without c).
    Raises SheafflowError when c.x is unbounded."""
    bounds = []
    if upper is not None:
        bounds = [(j, u) for j, u in enumerate(upper) if u is not None]
    nvar = n + len(bounds)  # original variables plus a slack per bound
    pad = [0] * len(bounds)
    rows = [list(row) + pad + [b] for row, b in zip(A_eq, b_eq)]
    for k, (j, u) in enumerate(bounds):
        r = [0] * (nvar + 1)
        r[j] = r[n + k] = 1
        r[nvar] = u
        rows.append(r)
    table, scales = [], []
    for r in rows:
        r, s = _integer_row([-v for v in r] if r[nvar] < 0 else r)
        table.append(r)
        scales.append(s)
    m = len(table)
    # reduced costs of the artificial sum over the unscaled rows, times
    # lcm(scales) > 0: the same pivots as the unscaled tableau
    big = 1
    for s in scales:
        big = lcm(big, s)
    obj = [0] * (nvar + 1)
    for r, s in zip(table, scales):
        obj = [o - big // s * v for o, v in zip(obj, r)]
    table.append(obj)
    if c is not None:
        goal, goal_scale = _integer_row([-v for v in c] + pad + [0])
        table.append(goal)
    basis = [nvar + i for i in range(m)]  # artificial columns are not kept
    den = _optimise(table, m, basis, 1)
    if den is None or table[m][nvar] != 0:
        return None
    del table[m]
    value = None
    if c is not None:
        # drive zero-level artificials out of the basis; a row with no
        # structural entry left is redundant and stays inert
        for i in range(m):
            if basis[i] >= nvar:
                j = next((j for j in range(nvar) if table[i][j]), None)
                if j is not None:
                    den = _pivot(table, i, j, den)
                    basis[i] = j
        den = _optimise(table, m, basis, den)
        if den is None:
            raise SheafflowError("the objective is unbounded")
        value = Fraction(table[m][nvar], den * goal_scale)
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(table[i][nvar], den)
    return tuple(x), value


def lp_feasible(A_eq, b_eq, n, upper=None):
    """Exact feasibility of {x >= 0 : A_eq x = b_eq, x_j <= upper_j}.

    upper entries may be None for unbounded coordinates.  Returns a feasible
    point (tuple of Fractions) or None.  Phase-1 simplex with Bland's rule.
    """
    res = _simplex(A_eq, b_eq, n, upper, None)
    return None if res is None else res[0]


def lp_maximize(c, A_eq, b_eq, n, upper=None):
    """Maximise c.x over {x >= 0 : A_eq x = b_eq, x_j <= upper_j}.

    Returns (point, value) with a Fraction tuple and a Fraction, or None when
    the system is infeasible; raises SheafflowError when c.x is unbounded
    on it.  Phase 2 starts from the phase-1 basis of `lp_feasible`.
    """
    return _simplex(A_eq, b_eq, n, upper, c)


def in_cone(x, gens):
    """Is x a nonnegative rational combination of gens?"""
    if not any(x):
        return True
    if not gens:
        return False
    n = len(gens)
    A = [[g[i] for g in gens] for i in range(len(x))]
    return lp_feasible(A, list(x), n) is not None

"""Rational polyhedral cones: extreme rays and exact feasibility.

`extreme_rays(A)` runs the double description method on
{x >= 0 : A x = 0}, returning primitive integer generators.  `lp_feasible`
is a tiny exact phase-1 simplex used for cone membership and truncated-cone
tests; everything is Fraction arithmetic, no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


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


def lp_feasible(A_eq, b_eq, n, upper=None):
    """Exact feasibility of {x >= 0 : A_eq x = b_eq, x_j <= upper_j}.

    upper entries may be None for unbounded coordinates.  Returns a feasible
    point (tuple of Fractions) or None.  Phase-1 simplex with Bland's rule.
    """
    bounds = []
    if upper is not None:
        bounds = [(j, Fraction(u)) for j, u in enumerate(upper)
                  if u is not None]
    nvar = n + len(bounds)  # original variables plus slack per bound
    rows = []
    rhs = []
    for row, b in zip(A_eq, b_eq):
        r = [Fraction(v) for v in row] + [Fraction(0)] * len(bounds)
        rows.append(r)
        rhs.append(Fraction(b))
    for k, (j, u) in enumerate(bounds):
        r = [Fraction(0)] * nvar
        r[j] = Fraction(1)
        r[n + k] = Fraction(1)
        rows.append(r)
        rhs.append(u)
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)
    total = nvar + m
    table = []
    for i in range(m):
        art = [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        table.append(rows[i] + art + [rhs[i]])
    basis = [nvar + i for i in range(m)]
    # reduced costs for minimizing the artificial sum
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        for k in range(total + 1):
            obj[k] -= table[i][k]
    while True:
        enter = None
        for j in range(nvar):  # artificial columns never re-enter
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        ratio, leave = None, None
        for i in range(m):
            if table[i][enter] > 0:
                r = table[i][total] / table[i][enter]
                if ratio is None or r < ratio or \
                        (r == ratio and basis[i] < basis[leave]):
                    ratio, leave = r, i
        if leave is None:
            return None
        piv = table[leave][enter]
        table[leave] = [v / piv for v in table[leave]]
        for i in range(m):
            if i != leave and table[i][enter] != 0:
                c = table[i][enter]
                table[i] = [a - c * b for a, b in zip(table[i], table[leave])]
        c = obj[enter]
        if c != 0:
            obj = [a - c * b for a, b in zip(obj, table[leave])]
        basis[leave] = enter
    artificial_sum = -obj[total]
    if artificial_sum != 0:
        return None
    x = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = table[i][total]
    return tuple(x[:n])


def in_cone(x, gens):
    """Is x a nonnegative rational combination of gens?"""
    if not any(x):
        return True
    if not gens:
        return False
    n = len(gens)
    A = [[g[i] for g in gens] for i in range(len(x))]
    return lp_feasible(A, list(x), n) is not None

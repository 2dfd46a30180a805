"""Double description extreme rays against brute-force ray filtering."""

import random
from fractions import Fraction

from sheafflow.cones import extreme_rays, in_cone, lp_feasible


def _brute_rays(a, n, box=3):
    """Candidate rays with small integer coordinates, minimal support."""
    from itertools import product
    sols = []
    for x in product(range(box + 1), repeat=n):
        if not any(x):
            continue
        if all(sum(r[j] * x[j] for j in range(n)) == 0 for r in a):
            sols.append(x)
    out = []
    for x in sols:
        supp = {j for j, c in enumerate(x) if c}
        if not any({j for j, c in enumerate(y) if c} < supp for y in sols):
            out.append(x)
    return out


def test_circulation_square():
    # 2-cycle: x_ab = x_ba
    rays = extreme_rays([[1, -1]])
    assert rays == [(1, 1)]


def test_diamond_rays():
    # conservation for the two-path diamond: rays are the two paths
    # edges f1 (s->a), f2 (s->b), f3 (a->t), f4 (b->t), e (t->s)
    rows = [
        [1, 1, 0, 0, -1],   # s
        [-1, 0, 1, 0, 0],   # a
        [0, -1, 0, 1, 0],   # b
        [0, 0, -1, -1, 1],  # t
    ]
    rays = extreme_rays(rows)
    assert sorted(rays) == [(0, 1, 0, 1, 1), (1, 0, 1, 0, 1)]


def test_extreme_rays_are_the_minimal_supports():
    # extreme rays of {x >= 0 : Ax = 0} are exactly the support-minimal
    # nonzero solutions, and their supports form an antichain
    rng = random.Random(13)
    for _ in range(30):
        m = rng.randint(1, 2)
        n = rng.randint(2, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        rays = extreme_rays(a)
        for r in rays:
            assert all(sum(row[j] * r[j] for j in range(n)) == 0 for row in a)
            assert all(c >= 0 for c in r)
        ray_supports = [frozenset(j for j, c in enumerate(r) if c)
                        for r in rays]
        for i, s in enumerate(ray_supports):
            for j, t in enumerate(ray_supports):
                if i != j:
                    assert not s < t, (a, rays)
        # every bounded solution's support contains a ray support
        for b in _brute_rays(a, n):
            supp = frozenset(j for j, c in enumerate(b) if c)
            assert any(s <= supp for s in ray_supports), (a, b, rays)


def test_in_cone():
    gens = [(1, 0), (1, 1)]
    assert in_cone((2, 1), gens)
    assert not in_cone((0, 1), [(1, 0)])
    assert in_cone((0, 0), [])


def test_lp_feasible_with_bounds():
    # x1 + x2 = 3, x <= (2, 2)
    pt = lp_feasible([[1, 1]], [3], 2, upper=[2, 2])
    assert pt is not None and pt[0] + pt[1] == 3
    assert lp_feasible([[1, 1]], [5], 2, upper=[2, 2]) is None


def test_lp_rational():
    pt = lp_feasible([[2, 3]], [Fraction(1)], 2)
    assert pt is not None
    assert 2 * pt[0] + 3 * pt[1] == 1


# -- the simplex against a Fraction reference -----------------------------------

def _fraction_phase1(A_eq, b_eq, n, upper=None):
    """Reference phase-1 simplex in plain Fraction arithmetic (Bland's rule,
    one slack row per bound): a feasible point or None."""
    bounds = []
    if upper is not None:
        bounds = [(j, Fraction(u)) for j, u in enumerate(upper)
                  if u is not None]
    nvar = n + len(bounds)
    rows, rhs = [], []
    for row, b in zip(A_eq, b_eq):
        rows.append([Fraction(v) for v in row] + [Fraction(0)] * len(bounds))
        rhs.append(Fraction(b))
    for k, (j, u) in enumerate(bounds):
        r = [Fraction(0)] * nvar
        r[j] = r[n + k] = Fraction(1)
        rows.append(r)
        rhs.append(u)
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    m = len(rows)
    total = nvar + m
    table = [rows[i] + [Fraction(int(k == i)) for k in range(m)] + [rhs[i]]
             for i in range(m)]
    basis = [nvar + i for i in range(m)]
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        for k in range(total + 1):
            obj[k] -= table[i][k]
    while True:
        enter = next((j for j in range(nvar) if obj[j] < 0), None)
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
    if obj[total] != 0:
        return None
    x = [Fraction(0)] * nvar
    for i, b in enumerate(basis):
        if b < nvar:
            x[b] = table[i][total]
    return tuple(x[:n])


def _random_system(rng, max_n, max_m):
    def entry():
        if rng.random() < 0.5:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-3, 3)
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    a = [[entry() if rng.random() < 0.7 else 0 for _ in range(n)]
         for _ in range(m)]
    b = [entry() for _ in range(m)]
    upper = None
    if rng.random() < 0.7:
        upper = [rng.choice([None, rng.randint(0, 4)]) for _ in range(n)]
    return a, b, n, upper


def _assert_in_system(pt, a, b, n, upper):
    assert len(pt) == n and all(v >= 0 for v in pt)
    for row, rhs in zip(a, b):
        assert sum(Fraction(c) * v for c, v in zip(row, pt)) == rhs
    if upper is not None:
        assert all(u is None or v <= u for v, u in zip(pt, upper))


def _denominator_bound(c, a, b, upper):
    """A bound on the denominator of every vertex value of c.x: the lcm of
    c's denominators times a bound on every basis determinant of the system
    with each row (right-hand side included) scaled to integers, namely the
    product of the scaled rows' absolute sums."""
    from math import lcm
    bound = lcm(*(Fraction(v).denominator for v in c))
    for row, rhs in zip(a, b):
        scale = lcm(*(Fraction(v).denominator for v in list(row) + [rhs]))
        bound *= max(1, sum(abs(Fraction(v)) * scale for v in row))
    for u in upper or []:
        if u is not None:
            bound *= 2  # x_j + slack = u
    return int(bound)


def _at_least_feasible(c, a, b, n, upper, t):
    """Reference feasibility of {c.x >= t} within the system."""
    rows = [list(r) + [0] for r in a] + [list(c) + [-1]]
    ups = None if upper is None else list(upper) + [None]
    return _fraction_phase1(rows, list(b) + [t], n + 1, ups) is not None


def _bisect_maximum(c, a, b, n, upper, lo):
    """The maximum of c.x, given a feasible lower bound lo, by bisection
    over the reference.  [lo, hi) is shrunk below 1/(2 q^2), where q bounds
    the denominator of every vertex value; the maximum is then the only
    rational with denominator at most q that close to lo."""
    q = _denominator_bound(c, a, b, upper)
    lo, step = Fraction(lo), Fraction(1)
    while _at_least_feasible(c, a, b, n, upper, lo + step):
        lo, step = lo + step, step * 2
    hi = lo + step
    while hi - lo >= Fraction(1, 2 * q * q):
        mid = (lo + hi) / 2
        if _at_least_feasible(c, a, b, n, upper, mid):
            lo = mid
        else:
            hi = mid
    return lo.limit_denominator(q)


def test_lp_feasible_matches_fraction_reference():
    rng = random.Random(20)
    feasible = 0
    for _ in range(1000):
        a, b, n, upper = _random_system(rng, 8, 5)
        pt = lp_feasible(a, b, n, upper)
        assert pt == _fraction_phase1(a, b, n, upper), (a, b, upper)
        if pt is not None:
            feasible += 1
            _assert_in_system(pt, a, b, n, upper)
    assert 250 < feasible < 750


def test_lp_maximize_matches_bisection_over_reference():
    from sheafflow.cones import lp_maximize
    from sheafflow.errors import SheafflowError
    rng = random.Random(21)
    solved = unbounded = 0
    for _ in range(80):
        a, b, n, upper = _random_system(rng, 5, 3)
        c = [rng.choice([rng.randint(-2, 3), Fraction(rng.randint(-3, 3), 2)])
             for _ in range(n)]
        reference = _fraction_phase1(a, b, n, upper)
        try:
            res = lp_maximize(c, a, b, n, upper)
        except SheafflowError:
            unbounded += 1
            assert reference is not None
            assert _at_least_feasible(c, a, b, n, upper, 10 ** 6)
            continue
        if reference is None:
            assert res is None
            continue
        pt, value = res
        _assert_in_system(pt, a, b, n, upper)
        assert value == sum(Fraction(cj) * v for cj, v in zip(c, pt))
        assert value == _bisect_maximum(c, a, b, n, upper, value), (a, b, c)
        solved += 1
    assert solved > 20 and unbounded > 0


def test_lp_maximize_degenerate_and_redundant_rows():
    from sheafflow.cones import lp_maximize
    # a repeated row and an all-zero row keep an artificial basic at zero
    pt, value = lp_maximize([1, 2], [[1, 1], [2, 2], [0, 0]], [2, 4, 0], 2)
    assert value == 4 and pt == (0, 2)
    assert lp_maximize([1], [[0]], [1], 1) is None
    pt, value = lp_maximize([Fraction(1, 3), 1], [], [], 2, upper=[3, 0])
    assert value == 1 and pt == (3, 0)

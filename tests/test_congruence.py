"""Congruence closure on N^n against the naive translation-closure oracle."""

import random
from itertools import product

from sheafflow.congruence import (NatCongruence, brute_force_classes,
                                  congruence_closure_finite)


def test_single_relation_quotient():
    # identify the two generators of N^2: quotient is N
    cong = NatCongruence(2, [((1, 0), (0, 1))])
    assert cong.equal((3, 1), (0, 4))[0]
    assert not cong.equal((1, 0), (2, 0))[0]
    nf, complete = cong.normal_form((2, 2))
    assert complete
    assert nf == (0, 4)


def test_relation_to_zero():
    # g = 0 collapses every multiple of g
    cong = NatCongruence(2, [((1, 0), (0, 0))])
    assert cong.equal((5, 2), (0, 2))[0]
    assert not cong.equal((0, 1), (0, 2))[0]


def test_graded_relation_against_oracle():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 3)
        pairs = []
        for _ in range(rng.randint(1, 2)):
            u = tuple(rng.randint(0, 2) for _ in range(n))
            v = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(u) != sum(v):
                # keep the rewrite graph finite so the oracle window is exact
                continue
            pairs.append((u, v))
        cong = NatCongruence(n, pairs, bound=12)
        oracle = brute_force_classes(n, pairs, 4)
        for rep, members in oracle.items():
            for m in members:
                eq, certified = cong.equal(rep, m)
                assert eq, (pairs, rep, m)
        # distinct oracle classes must stay distinct (grade-preserving
        # relations cannot merge outside the window)
        reps = list(oracle)
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                if sum(a) <= 2 and sum(b) <= 2:
                    assert not cong.equal(a, b)[0], (pairs, a, b)


def test_saturation_flag_on_growing_relation():
    # x -> x + y grows without bound; exploration must report incomplete
    cong = NatCongruence(2, [((1, 0), (1, 1))], bound=6)
    _, complete = cong.normal_form((1, 0))
    assert not complete


def test_classes_up_to():
    cong = NatCongruence(2, [((2, 0), (0, 1))])
    classes = cong.classes_up_to(2)
    # (2,0) ~ (0,1)
    assert any((2, 0) in members and (0, 1) in members
               for members in classes.values())


def test_finite_closure_by_generators_matches_closure_by_all_elements():
    # a product of chains under componentwise max: every sum is defined and
    # the unit vectors of each coordinate generate the carrier
    rng = random.Random(7)
    sizes = (3, 2, 3)
    els = list(product(*(range(k) for k in sizes)))

    def add(x, y):
        return tuple(max(a, b) for a, b in zip(x, y))

    units = [tuple(v if j == i else 0 for j in range(len(sizes)))
             for i, k in enumerate(sizes) for v in range(k)]
    for _ in range(30):
        pairs = [(rng.choice(els), rng.choice(els))
                 for _ in range(rng.randint(1, 3))]
        assert congruence_closure_finite(els, pairs, add, shifts=units) == \
            congruence_closure_finite(els, pairs, add)

"""Congruence closure on free commutative monoids N^n.

A semimodule congruence on N^n generated by pairs (u_i, v_i) is the smallest
equivalence closed under translation and scaling.  The word problem is
decidable but expensive in general, so `NatCongruence` explores the rewrite
graph u -> u - a + b (for seed pairs (a, b), both directions) breadth-first
up to a configurable grade bound and reports whether the exploration closed.

Normal form: the graded-lexicographically least vector reachable from the
input.  When the reachable class is fully explored the normal form is exact;
otherwise results carry ``complete=False`` and equality is sound but possibly
incomplete (equal normal forms still certify congruence).
"""

from __future__ import annotations

DEFAULT_BOUND = 64


def _grade(v):
    return sum(v)


def _gl_key(v):
    return (_grade(v), v)


class NatCongruence:
    def __init__(self, n, pairs, bound=DEFAULT_BOUND, slack=12):
        self.n = n
        self.bound = bound
        self.slack = slack
        seen = set()
        rules = []
        for a, b in pairs:
            a, b = tuple(a), tuple(b)
            if a == b or (a, b) in seen:
                continue
            seen.add((a, b))
            seen.add((b, a))
            rules.append((a, b))
            rules.append((b, a))
        self.rules = rules
        self._nf_cache = {}

    def _class_of(self, v):
        """Explore the congruence class of v. Returns (frozenset, complete).

        The rewrite graph is explored up to grade(v) + slack, capped by the
        configured saturation bound; classes that keep growing are flagged
        incomplete.  Previously explored classes are absorbed when touched.
        """
        v = tuple(v)
        if v in self._nf_cache:
            return self._nf_cache[v]
        limit = min(self.bound, _grade(v) + self.slack)
        frontier = [v]
        seen = {v}
        complete = True
        while frontier:
            x = frontier.pop()
            cached = self._nf_cache.get(x)
            if cached is not None:
                # absorb the already-explored class (closed within its limit)
                seen |= cached[0]
                complete = complete and cached[1]
                continue
            for a, b in self.rules:
                if all(xi >= ai for xi, ai in zip(x, a)):
                    y = tuple(xi - ai + bi for xi, ai, bi in zip(x, a, b))
                    if y in seen:
                        continue
                    if _grade(y) > limit:
                        complete = False
                        continue
                    seen.add(y)
                    frontier.append(y)
        result = (frozenset(seen), complete)
        for x in seen:
            self._nf_cache[x] = result
        return result

    def normal_form(self, v):
        """(normal form, complete flag)."""
        cls, complete = self._class_of(v)
        return min(cls, key=_gl_key), complete

    def equal(self, u, v):
        """(equal?, certified?) - equal normal forms always certify equality."""
        nu, cu = self.normal_form(u)
        nv, cv = self.normal_form(v)
        if nu == nv:
            return True, True
        return False, cu and cv

    def classes_up_to(self, grade):
        """Partition of all vectors of grade <= grade into congruence classes."""
        out = {}
        for v in _vectors_up_to(self.n, grade):
            nf, _ = self.normal_form(v)
            out.setdefault(nf, []).append(v)
        return out


def _vectors_up_to(n, total):
    if n == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _vectors_up_to(n - 1, total - head):
            yield (head,) + tail


def congruence_closure_finite(els, pairs, add, defined=None, shifts=None):
    """Smallest semimodule congruence containing the pairs, on a finite
    enumerated carrier; returns the representative map.

    Worklist closure: every merged pair is translated by every element of
    `shifts` (by default the whole carrier) exactly once, which suffices by
    transitivity.  When every sum is defined, any additive generating set
    of the carrier gives the same congruence.  `add` may return None for
    undefined partial sums.
    """
    els = list(els)
    index = {v: i for i, v in enumerate(els)}
    parent = list(range(len(els)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    work = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            work.append((els[a], els[b]))

    for a, b in pairs:
        if a in index and b in index:
            union(index[a], index[b])
    while work:
        a, b = work.pop()
        for w in els if shifts is None else shifts:
            wa = add(w, a)
            wb = add(w, b)
            if wa is None or wb is None:
                continue
            if defined is not None and not (defined(wa) and defined(wb)):
                continue
            union(index[wa], index[wb])
    rep = {}
    groups = {}
    for v in els:
        groups.setdefault(find(index[v]), []).append(v)
    for grp in groups.values():
        r = sorted(grp, key=repr)[0]
        for v in grp:
            rep[v] = r
    return rep


def brute_force_classes(n, pairs, grade):
    """Oracle: congruence classes of grade <= grade by naive closure.

    Generates the congruence as an equivalence relation on bounded vectors:
    translation closure of all seed pairs, then transitive closure.  Vectors
    whose class escapes the grade window may be under-merged, so oracle
    comparisons should stay well below the window.
    """
    vecs = list(_vectors_up_to(n, grade))
    index = {v: i for i, v in enumerate(vecs)}
    parent = list(range(len(vecs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for a, b in pairs:
        a, b = tuple(a), tuple(b)
        for w in vecs:
            u = tuple(wi + ai for wi, ai in zip(w, a))
            v = tuple(wi + bi for wi, bi in zip(w, b))
            if u in index and v in index:
                union(index[u], index[v])
    classes = {}
    for v, i in index.items():
        classes.setdefault(find(i), []).append(v)
    return {min(c, key=_gl_key): sorted(c) for c in classes.values()}

"""Semimodules over a ground semiring, partial semimodules, homomorphisms.

Representations
---------------
* ``FreeSemimodule``  - elements are coefficient tuples over the ground.
* ``FiniteSemimodule``- explicit element set with addition / scalar tables,
  axioms checked exhaustively at construction.
* ``PresentedSemimodule`` - quotient of a free semimodule by the congruence
  generated by finitely many relation pairs.  Over the integers equality is
  exact (lattice reduction); over the naturals it is congruence-closure
  saturation with a completeness flag.
* ``SubSemimodule``   - a subsemimodule of a free ambient given by generators
  (Hilbert basis over N, lattice basis over Z, extreme rays over Q>=0).

Partial semimodules wrap an ambient semimodule with a decidable defined-set
whose complement is an additive ideal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import cones, hilbert, intlinalg
from .congruence import DEFAULT_BOUND, NatCongruence
from .errors import MixedGround, SheafflowError, UnsupportedRepresentation
from .semiring import (BOOL_KIND, FINITE_KIND, INT_KIND, NAT_KIND, QPOS_KIND,
                       GroundSemiring)


# ---------------------------------------------------------------------------
# semimodules
# ---------------------------------------------------------------------------

class Semimodule:
    ground: GroundSemiring

    def zero(self):
        raise NotImplementedError

    def add(self, x, y):
        raise NotImplementedError

    def smul(self, lam, x):
        raise NotImplementedError

    def eq(self, x, y):
        return x == y

    def is_finite(self):
        return False

    def elements(self):
        raise UnsupportedRepresentation("%r is not enumerable" % self)

    def generators(self):
        raise UnsupportedRepresentation("%r has no generator list" % self)

    def sum(self, xs):
        acc = self.zero()
        for x in xs:
            acc = self.add(acc, x)
        return acc


class FreeSemimodule(Semimodule):
    def __init__(self, ground, gens):
        self.ground = ground
        self.gens = tuple(gens)

    @property
    def rank(self):
        return len(self.gens)

    def zero(self):
        return tuple(self.ground.zero for _ in self.gens)

    def gen(self, i):
        z = self.ground.zero
        o = self.ground.one
        return tuple(o if k == i else z for k in range(len(self.gens)))

    def generators(self):
        return [self.gen(i) for i in range(len(self.gens))]

    def add(self, x, y):
        return tuple(self.ground.add(a, b) for a, b in zip(x, y))

    def smul(self, lam, x):
        return tuple(self.ground.mul(lam, a) for a in x)

    def is_finite(self):
        return self.ground.is_finite() or not self.gens

    def elements(self):
        if not self.gens:
            return [()]
        if not self.is_finite():
            raise UnsupportedRepresentation("free semimodule over %s is infinite"
                                            % self.ground.name)
        return [tuple(c) for c in product(self.ground.elements(),
                                          repeat=len(self.gens))]

    def elements_up_to(self, grade):
        """Vectors of coordinate sum <= grade (nat ground only)."""
        if self.ground.kind != NAT_KIND:
            raise UnsupportedRepresentation("graded enumeration needs nat ground")
        return list(_nat_vectors(len(self.gens), grade))

    def __repr__(self):
        return "Free(%s;%s)" % (self.ground.name, ",".join(self.gens))


def _nat_vectors(n, total):
    if n == 0:
        yield ()
        return
    for head in range(total + 1):
        for tail in _nat_vectors(n - 1, total - head):
            yield (head,) + tail


class FiniteSemimodule(Semimodule):
    def __init__(self, ground, name, elements, add_table, smul_table,
                 zero, check=True):
        self.ground = ground
        self.name = name
        self._elements = tuple(elements)
        self._add = add_table
        self._smul = smul_table
        self._zero = zero
        if check:
            self._check_axioms()

    def _check_axioms(self):
        els = self._elements
        S = self.ground
        scalars = S.elements() if S.is_finite() else S.nonzero_scalars(3) + (S.zero,)
        for x in els:
            if self._add[(self._zero, x)] != x:
                raise SheafflowError("0 + %r != %r in %s" % (x, x, self.name))
            if self._smul[(S.one, x)] != x:
                raise SheafflowError("1 * %r != %r in %s" % (x, x, self.name))
            if self._smul[(S.zero, x)] != self._zero:
                raise SheafflowError("0 * %r != 0 in %s" % (x, self.name))
        for x, y in product(els, repeat=2):
            if self._add[(x, y)] != self._add[(y, x)]:
                raise SheafflowError("addition not commutative in %s" % self.name)
        for x, y, z in product(els, repeat=3):
            if self._add[(self._add[(x, y)], z)] != self._add[(x, self._add[(y, z)])]:
                raise SheafflowError("addition not associative in %s" % self.name)
        for lam in scalars:
            for x, y in product(els, repeat=2):
                if self._smul[(lam, self._add[(x, y)])] != \
                        self._add[(self._smul[(lam, x)], self._smul[(lam, y)])]:
                    raise SheafflowError("scalar distributivity fails in %s" % self.name)
        if S.is_finite():
            for l1, l2 in product(S.elements(), repeat=2):
                for x in els:
                    if self._smul[(S.add(l1, l2), x)] != \
                            self._add[(self._smul[(l1, x)], self._smul[(l2, x)])]:
                        raise SheafflowError("additivity in the scalar fails in %s"
                                             % self.name)
                    if self._smul[(S.mul(l1, l2), x)] != \
                            self._smul[(l1, self._smul[(l2, x)])]:
                        raise SheafflowError("scalar associativity fails in %s"
                                             % self.name)

    def zero(self):
        return self._zero

    def add(self, x, y):
        return self._add[(x, y)]

    def smul(self, lam, x):
        if self.ground.is_finite():
            return self._smul[(lam, x)]
        # over an infinite ground, scalar action is iterated addition of the
        # 1-action image (only nat makes sense here)
        if self.ground.kind == NAT_KIND:
            acc = self._zero
            for _ in range(int(lam)):
                acc = self._add[(acc, x)]
            return acc
        return self._smul[(lam, x)]

    def is_finite(self):
        return True

    def elements(self):
        return self._elements

    def generators(self):
        return [x for x in self._elements if x != self._zero]

    def __repr__(self):
        return "FiniteSemimodule(%s,|%d|)" % (self.name, len(self._elements))


def join_semilattice(name, elements, joins, bottom):
    """A semimodule over BOOL: addition is the join table, 0 the bottom."""
    from .semiring import BOOL
    S = BOOL()
    smul = {}
    for x in elements:
        smul[(0, x)] = bottom
        smul[(1, x)] = x
    return FiniteSemimodule(S, name, elements, joins, smul, bottom)


def join_semilattice_from_leq(name, elements, leq_pairs, bottom):
    """Build the join table from a partial order given as a <= relation."""
    leq = {(a, b) for a, b in leq_pairs}
    for a in elements:
        leq.add((a, a))
        leq.add((bottom, a))
    # transitive closure
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    joins = {}
    for a in elements:
        for b in elements:
            ub = [c for c in elements if (a, c) in leq and (b, c) in leq]
            lub = [c for c in ub if all((c, d) in leq for d in ub)]
            if len(lub) != 1:
                raise SheafflowError("no unique join of %r,%r in %s" % (a, b, name))
            joins[(a, b)] = lub[0]
    return join_semilattice(name, elements, joins, bottom)


class ZLattice:
    """Integer lattice spanned by given vectors, with canonical residues."""

    def __init__(self, vectors, dim):
        self.dim = dim
        rows = [list(v) for v in vectors if any(v)]
        self.hnf = self._hermite(rows)

    @staticmethod
    def _hermite(rows):
        rows = [r[:] for r in rows]
        if not rows:
            return []
        n = len(rows[0])
        basis = []
        col = 0
        while col < n and rows:
            nz = [r for r in rows if r[col] != 0]
            rest = [r for r in rows if r[col] == 0]
            if not nz:
                rows = rest
                col += 1
                continue
            while len(nz) > 1:
                nz.sort(key=lambda r: abs(r[col]))
                p = nz[0]
                out = [p]
                for r in nz[1:]:
                    q = r[col] // p[col]
                    r2 = [a - q * b for a, b in zip(r, p)]
                    if r2[col] != 0:
                        out.append(r2)
                    elif any(r2):
                        rest.append(r2)
                nz = out
            pivot = nz[0]
            if pivot[col] < 0:
                pivot = [-a for a in pivot]
            basis.append(pivot)
            rows = rest
            col += 1
        return basis

    def reduce(self, v):
        v = list(v)
        for b in self.hnf:
            col = next(i for i, x in enumerate(b) if x != 0)
            if v[col] != 0:
                q = v[col] // b[col]
                v = [a - q * c for a, c in zip(v, b)]
        return tuple(v)

    def contains(self, v):
        return not any(self.reduce(v))


class PresentedSemimodule(Semimodule):
    """Free semimodule on `gens` modulo the congruence from `relations`."""

    def __init__(self, ground, gens, relations, bound=DEFAULT_BOUND, name=""):
        self.ground = ground
        self.gens = tuple(gens)
        self.relations = [(tuple(u), tuple(v)) for u, v in relations]
        self.bound = bound
        self.name = name or "presented"
        self.free = FreeSemimodule(ground, gens)
        if ground.kind == NAT_KIND:
            self._cong = NatCongruence(len(gens), self.relations, bound)
        elif ground.kind == INT_KIND:
            diffs = [tuple(a - b for a, b in zip(u, v))
                     for u, v in self.relations]
            self._lattice = ZLattice(diffs, len(gens))
        elif ground.is_finite():
            pass  # equality via materialization
        else:
            raise UnsupportedRepresentation(
                "no presented backend over %s" % ground.name)
        self._materialized = None

    # elements are coefficient vectors of the free cover
    def zero(self):
        return self.free.zero()

    def gen(self, i):
        return self.free.gen(i)

    def generators(self):
        return self.free.generators()

    def add(self, x, y):
        return self.free.add(x, y)

    def smul(self, lam, x):
        return self.free.smul(lam, x)

    def normal_form(self, x):
        if self.ground.kind == NAT_KIND:
            return self._cong.normal_form(x)
        if self.ground.kind == INT_KIND:
            return self._lattice.reduce(x), True
        quot = self.materialize()
        return quot.class_of(x), True

    def eq(self, x, y):
        if self.ground.kind == NAT_KIND:
            res, _certified = self._cong.equal(x, y)
            return res
        nx, _ = self.normal_form(x)
        ny, _ = self.normal_form(y)
        return nx == ny

    def is_finite(self):
        return self.ground.is_finite()

    def elements(self):
        return self.materialize().elements()

    def materialize(self):
        """Exhaustive quotient for finite grounds."""
        if self._materialized is not None:
            return self._materialized
        if not self.ground.is_finite():
            raise UnsupportedRepresentation("cannot materialize over %s"
                                            % self.ground.name)
        self._materialized = _materialize_quotient(self)
        return self._materialized

    def z_invariants(self):
        if self.ground.kind != INT_KIND:
            raise UnsupportedRepresentation("Z-invariants need ground int")
        diffs = [[u[i] - v[i] for (u, v) in self.relations]
                 for i in range(len(self.gens))]
        if not self.relations:
            return len(self.gens), []
        return intlinalg.cokernel_invariants(diffs, m=len(self.gens))

    def __repr__(self):
        return "Presented(%s;%d gens,%d rels)" % (
            self.ground.name, len(self.gens), len(self.relations))


class _QuotientView:
    """Finite quotient of a free/presented semimodule over a finite ground."""

    def __init__(self, class_map, module):
        self._class_map = class_map
        self.module = module

    def class_of(self, x):
        return self._class_map[tuple(x)]

    def elements(self):
        return sorted(set(self._class_map.values()))


def _materialize_quotient(pres):
    free = pres.free
    vecs = free.elements()
    index = {v: i for i, v in enumerate(vecs)}
    parent = list(range(len(vecs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    changed = True
    while changed:
        changed = False
        for u, v in pres.relations:
            for w in vecs:
                a = free.add(w, u)
                b = free.add(w, v)
                if find(index[a]) != find(index[b]):
                    union(index[a], index[b])
                    changed = True
        # close under the congruence property for addition with merged classes
        reps = {}
        for v in vecs:
            reps.setdefault(find(index[v]), []).append(v)
        for cls in reps.values():
            if len(cls) < 2:
                continue
            base = cls[0]
            for other in cls[1:]:
                for w in vecs:
                    a = free.add(w, base)
                    b = free.add(w, other)
                    if find(index[a]) != find(index[b]):
                        union(index[a], index[b])
                        changed = True
    class_map = {v: min(vecs[j] for j in range(len(vecs))
                        if find(j) == find(index[v])) for v in vecs}
    return _QuotientView(class_map, pres)


class SubSemimodule(Semimodule):
    """Subsemimodule of a free ambient, given by a generating set."""

    def __init__(self, ambient, gens, name=""):
        self.ambient = ambient
        self.ground = ambient.ground
        self.gens = [tuple(g) for g in gens]
        self.name = name or "sub"

    def zero(self):
        return self.ambient.zero()

    def add(self, x, y):
        return self.ambient.add(x, y)

    def smul(self, lam, x):
        return self.ambient.smul(lam, x)

    def generators(self):
        return list(self.gens)

    def contains(self, x):
        k = self.ground.kind
        if k == NAT_KIND:
            return hilbert.is_nat_combination(tuple(x), self.gens)
        if k == INT_KIND:
            return intlinalg.in_lattice_span(tuple(x), self.gens)
        if k == QPOS_KIND:
            return cones.in_cone(tuple(x), self.gens)
        raise UnsupportedRepresentation("membership over %s" % self.ground.name)

    def is_finite(self):
        return self.ground.is_finite()

    def presentation(self, bound=6):
        """Abstract presentation: one generator per listed generator plus
        the syzygies discovered up to the bound (nat ground)."""
        if self.ground.kind != NAT_KIND:
            raise UnsupportedRepresentation("presentation only over nat")
        rels = hilbert.syzygy_pairs(self.gens, bound=bound)
        names = ["g%d" % i for i in range(len(self.gens))]
        return PresentedSemimodule(self.ground, names, rels, name=self.name)

    def __repr__(self):
        return "Sub(%s;%d gens)" % (self.ground.name, len(self.gens))


# ---------------------------------------------------------------------------
# partial semimodules
# ---------------------------------------------------------------------------

class DefinedSet:
    """Decidable subset of an ambient semimodule containing zero."""

    TOTAL = "total"
    FINITE = "finite"
    PRED = "pred"

    def __init__(self, kind, members=None, pred=None, description="",
                 enumerator=None):
        self.kind = kind
        self.members = frozenset(members) if members is not None else None
        self.pred = pred
        self.description = description
        self.enumerator = enumerator

    def contains(self, x):
        if self.kind == DefinedSet.TOTAL:
            return True
        if self.kind == DefinedSet.FINITE:
            return x in self.members
        return self.pred(x)

    def is_enumerable(self):
        return self.kind == DefinedSet.FINITE or self.enumerator is not None

    def enumerate(self):
        if self.kind == DefinedSet.FINITE:
            return sorted(self.members)
        if self.enumerator is not None:
            return list(self.enumerator())
        raise UnsupportedRepresentation("defined set %s is not enumerable"
                                        % (self.description or self.kind))


def total_set():
    return DefinedSet(DefinedSet.TOTAL, description="all")


class PartialSemimodule:
    """An ambient semimodule with a distinguished defined subset.

    The complement of the defined set must be an additive ideal; this is
    checked exhaustively for finite ambients and by sampling otherwise
    (see `check_complement_ideal`).
    """

    def __init__(self, ambient, defined=None, name=""):
        self.ambient = ambient
        self.ground = ambient.ground
        self.defined = defined or total_set()
        self.name = name

    def is_total(self):
        return self.defined.kind == DefinedSet.TOTAL

    def zero(self):
        return self.ambient.zero()

    def contains(self, x):
        return self.defined.contains(x)

    def padd(self, x, y):
        z = self.ambient.add(x, y)
        return z if self.defined.contains(z) else None

    def psmul(self, lam, x):
        z = self.ambient.smul(lam, x)
        return z if self.defined.contains(z) else None

    def eq(self, x, y):
        return self.ambient.eq(x, y)

    def is_finite(self):
        return self.defined.kind == DefinedSet.FINITE or self.ambient.is_finite()

    def elements(self):
        if self.defined.kind == DefinedSet.TOTAL:
            return list(self.ambient.elements())
        if self.defined.is_enumerable():
            return list(self.defined.enumerate())
        return [x for x in self.ambient.elements() if self.defined.contains(x)]

    def generators(self):
        """Generators of the ambient that lie in the defined set, else the
        nonzero defined elements for finite defined sets."""
        if self.is_total():
            return self.ambient.generators()
        if self.defined.is_enumerable():
            z = self.zero()
            return [x for x in self.defined.enumerate() if x != z]
        gens = [g for g in self.ambient.generators() if self.contains(g)]
        return gens

    def __repr__(self):
        tag = "" if self.is_total() else "|%s" % (self.defined.description or
                                                  self.defined.kind)
        return "Partial(%r%s)" % (self.ambient, tag)


def as_partial(m):
    if isinstance(m, PartialSemimodule):
        return m
    return PartialSemimodule(m)


def check_complement_ideal(p, samples=200):
    """Verify the complement of the defined set is an additive ideal.

    Exhaustive for finite ambients; for infinite ones, checked on a graded
    sample (sound smoke test, not a proof).
    """
    amb = p.ambient
    if p.is_total():
        return True
    if amb.is_finite():
        els = amb.elements()
        scalars = [s for s in p.ground.nonzero_scalars()]
        for y in els:
            if p.contains(y):
                continue
            for lam in scalars:
                for x in els:
                    z = amb.add(amb.smul(lam, x), y)
                    if p.contains(z):
                        return False
        return True
    if isinstance(amb, FreeSemimodule) and amb.ground.kind == NAT_KIND:
        els = amb.elements_up_to(4)
        count = 0
        for y in els:
            if p.contains(y):
                continue
            for x in els:
                z = amb.add(x, y)
                if p.contains(z):
                    return False
                count += 1
                if count >= samples:
                    return True
        return True
    return True


# ---------------------------------------------------------------------------
# homomorphisms
# ---------------------------------------------------------------------------

class Hom:
    """A partial homomorphism between partial semimodules.

    For a free or presented source the action is given on generators; for a
    finite source it is an explicit element map.  Application computes in the
    ambient of the target and returns None when the result leaves the
    target's defined set or the source element leaves the optional domain.
    """

    def __init__(self, source, target, gen_images=None, elem_map=None,
                 domain=None, name=""):
        self.source = as_partial(source)
        self.target = as_partial(target)
        self.gen_images = list(gen_images) if gen_images is not None else None
        self.elem_map = dict(elem_map) if elem_map is not None else None
        self.domain = domain
        self.name = name

    @classmethod
    def identity(cls, m):
        m = as_partial(m)
        amb = m.ambient
        if isinstance(amb, (FreeSemimodule, PresentedSemimodule, SubSemimodule)):
            gens = amb.generators()
            return cls(m, m, gen_images=gens, name="id")
        return cls(m, m, elem_map={x: x for x in m.elements()}, name="id")

    @classmethod
    def zero_map(cls, source, target):
        source, target = as_partial(source), as_partial(target)
        amb = source.ambient
        if isinstance(amb, (FreeSemimodule, PresentedSemimodule, SubSemimodule)):
            z = target.zero()
            return cls(source, target,
                       gen_images=[z for _ in amb.generators()], name="0")
        return cls(source, target,
                   elem_map={x: target.zero() for x in source.elements()},
                   name="0")

    @classmethod
    def partial_identity(cls, source, target):
        """The partial identity from `source` onto the subobject `target`."""
        source, target = as_partial(source), as_partial(target)

        def dom(x):
            return target.contains(x)

        amb = source.ambient
        if isinstance(amb, (FreeSemimodule, PresentedSemimodule, SubSemimodule)):
            return cls(source, target, gen_images=amb.generators(),
                       domain=DefinedSet(DefinedSet.PRED, pred=dom,
                                         description="into %s" % target.name),
                       name="pid")
        return cls(source, target,
                   elem_map={x: x for x in source.elements()},
                   domain=DefinedSet(DefinedSet.PRED, pred=dom),
                   name="pid")

    def apply(self, x):
        """Image of x, or None when undefined."""
        if self.domain is not None and not self.domain.contains(x):
            return None
        if self.elem_map is not None:
            if x not in self.elem_map:
                return None
            y = self.elem_map[x]
        else:
            tgt = self.target.ambient
            y = tgt.zero()
            for coeff, img in zip(x, self.gen_images):
                if coeff == self.ground_zero():
                    continue
                y = tgt.add(y, tgt.smul(coeff, img))
        if not self.target.contains(y):
            return None
        return y

    def ground_zero(self):
        return self.source.ground.zero

    def compose(self, other):
        """self after other."""
        o = other

        if o.elem_map is not None:
            m = {}
            for x, y in o.elem_map.items():
                z = self.apply(y) if y is not None else None
                if z is not None:
                    m[x] = z
            return Hom(o.source, self.target, elem_map=m,
                       name="%s.%s" % (self.name, o.name))
        # generator images only describe the composite faithfully when no
        # partiality can strike off the generators
        total = o.gen_images is not None and o.domain is None and \
            self.gen_images is not None and self.domain is None and \
            o.target.is_total() and self.target.is_total()
        if total:
            imgs = []
            for g in o.source.ambient.generators():
                y = o.apply(g)
                z = self.apply(y) if y is not None else None
                if z is None:
                    total = False
                    break
                imgs.append(z)
            if total:
                return Hom(o.source, self.target, gen_images=imgs,
                           name="%s.%s" % (self.name, o.name))
        return ComposedHom(o, self, name="%s.%s" % (self.name, o.name))


class ComposedHom(Hom):
    def __init__(self, first, second, name=""):
        self.first = first
        self.second = second
        self.source = first.source
        self.target = second.target
        self.gen_images = None
        self.elem_map = None
        self.domain = None
        self.name = name

    def apply(self, x):
        return _apply_chain(self.first, self.second, x)


def _apply_chain(first, second, x):
    y = first.apply(x)
    if y is None:
        return None
    return second.apply(y)


# ---------------------------------------------------------------------------
# presentation of a partial semimodule
# ---------------------------------------------------------------------------

def present(p, bound=DEFAULT_BOUND):
    """The semimodule presented by a partial semimodule, with the inclusion.

    The free semimodule on the nonzero defined elements, modulo the
    congruence forcing sums that are already defined in `p` to their values.
    Total inputs present themselves.
    """
    p = as_partial(p)
    if p.is_total():
        return p.ambient, Hom.identity(p)
    if not p.defined.is_enumerable() and not p.ambient.is_finite():
        raise UnsupportedRepresentation(
            "present() needs an enumerable defined set")
    els = [x for x in p.elements() if x != p.zero()]
    index = {x: i for i, x in enumerate(els)}
    n = len(els)

    def unit(i):
        return tuple(1 if k == i else 0 for k in range(n))

    zero_vec = tuple(0 for _ in range(n))

    def embed(x):
        return zero_vec if x == p.zero() else unit(index[x])

    relations = []
    for i, a in enumerate(els):
        for j in range(i, len(els)):
            b = els[j]
            c = p.padd(a, b)
            if c is not None:
                lhs = tuple(ai + bi for ai, bi in zip(unit(i), unit(j)))
                relations.append((lhs, embed(c)))
    ground = p.ground
    if ground.is_finite():
        for lam in ground.elements():
            if lam in (ground.zero, ground.one):
                continue
            for i, a in enumerate(els):
                c = p.psmul(lam, a)
                if c is not None:
                    lhs = tuple(lam if k == i else ground.zero for k in range(n))
                    relations.append((lhs, embed(c)))
        names = ["e_%s" % (x,) for x in els]
        pres = PresentedSemimodule(ground, names, relations, bound=bound,
                                   name="present(%s)" % p.name)
        quot = pres.materialize()
        elem_map = {x: quot.class_of(embed(x)) for x in p.elements()}
        target = _quotient_as_finite(pres, quot)
        return target, Hom(p, target, elem_map={x: elem_map[x]
                                                for x in p.elements()})
    if ground.kind in (NAT_KIND, INT_KIND):
        names = ["e%d" % i for i in range(n)]
        pres = PresentedSemimodule(ground, names, relations, bound=bound,
                                   name="present(%s)" % p.name)
        return pres, Hom(p, pres, elem_map={x: embed(x) for x in p.elements()})
    raise UnsupportedRepresentation("present over %s" % ground.name)


def _quotient_as_finite(pres, quot):
    classes = quot.elements()
    free = pres.free
    add = {}
    for a in classes:
        for b in classes:
            add[(a, b)] = quot.class_of(free.add(a, b))
    smul = {}
    scalars = pres.ground.elements()
    for lam in scalars:
        for a in classes:
            smul[(lam, a)] = quot.class_of(free.smul(lam, a))
    return FiniteSemimodule(pres.ground, pres.name, classes, add, smul,
                            quot.class_of(free.zero()), check=False)


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------

def direct_sum(parts):
    """Direct sum of partial semimodules over one ground.

    Returns (sum_partial, embeddings, projections); the underlying ambient is
    free on the concatenated generators when every ambient is free, a
    cartesian-product finite semimodule when every ambient is finite, and a
    presented semimodule when presented parts occur over nat or int.
    """
    parts = [as_partial(x) for x in parts]
    if not parts:
        from .semiring import NAT
        z = FreeSemimodule(NAT(), ())
        return PartialSemimodule(z, name="0"), [], []
    ground = parts[0].ground
    for x in parts[1:]:
        if x.ground != ground:
            raise MixedGround("direct sum over %s and %s" %
                              (ground.name, x.ground.name))
    ambs = [x.ambient for x in parts]
    if all(isinstance(a, (FreeSemimodule, PresentedSemimodule, SubSemimodule))
           for a in ambs):
        return _direct_sum_coordinate(parts, ambs, ground)
    if all(a.is_finite() for a in ambs):
        return _direct_sum_finite(parts, ambs, ground)
    raise UnsupportedRepresentation("mixed direct sum")


def _gens_of(a):
    if isinstance(a, FreeSemimodule):
        return list(a.gens)
    if isinstance(a, PresentedSemimodule):
        return list(a.gens)
    if isinstance(a, SubSemimodule):
        return ["g%d" % i for i in range(len(a.gens))]
    raise UnsupportedRepresentation(repr(a))


def _direct_sum_coordinate(parts, ambs, ground):
    gens = []
    offsets = []
    relations = []
    off = 0
    for k, a in enumerate(ambs):
        local = _gens_of(a)
        offsets.append(off)
        gens.extend("p%d.%s" % (k, g) for g in local)
        if isinstance(a, PresentedSemimodule):
            for u, v in a.relations:
                pad_u = [ground.zero] * len(gens)
                pad_v = [ground.zero] * len(gens)
                for i, c in enumerate(u):
                    pad_u[off + i] = c
                for i, c in enumerate(v):
                    pad_v[off + i] = c
                relations.append((pad_u, pad_v))
        off += len(local)
    total = off
    relations = [(tuple(list(u) + [ground.zero] * (total - len(u))),
                  tuple(list(v) + [ground.zero] * (total - len(v))))
                 for u, v in relations]
    if relations:
        amb = PresentedSemimodule(ground, gens, relations)
    else:
        amb = FreeSemimodule(ground, gens)

    dims = [len(_gens_of(a)) for a in ambs]

    def slot(vec, k):
        return tuple(vec[offsets[k]: offsets[k] + dims[k]])

    def build(k, local_vec):
        out = [ground.zero] * total
        for i, c in enumerate(local_vec):
            out[offsets[k] + i] = c
        return tuple(out)

    if all(p.is_total() for p in parts):
        defined = total_set()
    else:
        def pred(vec):
            return all(parts[k].contains(slot(vec, k))
                       for k in range(len(parts)))
        enum = None
        if all(p.is_total() or p.defined.is_enumerable() for p in parts) and \
                all(p.is_finite() or isinstance(p.ambient, FreeSemimodule)
                    for p in parts):
            enumerables = []
            ok = True
            for p in parts:
                if p.defined.is_enumerable():
                    enumerables.append(p.elements())
                elif p.ambient.is_finite():
                    enumerables.append(p.ambient.elements())
                else:
                    ok = False
                    break
            if ok:
                def enum():
                    for combo in product(*enumerables):
                        out = [ground.zero] * total
                        for k, lv in enumerate(combo):
                            for i, c in enumerate(lv):
                                out[offsets[k] + i] = c
                        yield tuple(out)
        defined = DefinedSet(DefinedSet.PRED, pred=pred,
                             description="product", enumerator=enum)
    result = PartialSemimodule(amb, defined, name="⊕")
    embeddings = []
    projections = []
    for k, p in enumerate(parts):
        a = ambs[k]
        if isinstance(a, SubSemimodule):
            imgs = [build(k, g) for g in
                    [tuple(1 if i == j else 0 for i in range(dims[k]))
                     for j in range(dims[k])]]
        else:
            imgs = [build(k, g) for g in a.generators()]
        embeddings.append(Hom(p, result, gen_images=imgs, name="in%d" % k))
        projections.append(_CoordProjection(result, p, offsets[k], dims[k]))
    return result, embeddings, projections


class _CoordProjection(Hom):
    def __init__(self, source, target, offset, dim):
        self.source = as_partial(source)
        self.target = as_partial(target)
        self.offset = offset
        self.dim = dim
        self.gen_images = None
        self.elem_map = None
        self.domain = None
        self.name = "pr"

    def apply(self, x):
        y = tuple(x[self.offset: self.offset + self.dim])
        return y if self.target.contains(y) else None


def _direct_sum_finite(parts, ambs, ground):
    element_lists = [a.elements() for a in ambs]
    els = list(product(*element_lists))
    add = {}
    for x in els:
        for y in els:
            add[(x, y)] = tuple(a.add(xi, yi)
                                for a, xi, yi in zip(ambs, x, y))
    scalars = ground.elements() if ground.is_finite() else \
        ground.nonzero_scalars() + (ground.zero,)
    smul = {}
    for lam in scalars:
        for x in els:
            smul[(lam, x)] = tuple(a.smul(lam, xi) for a, xi in zip(ambs, x))
    zero = tuple(a.zero() for a in ambs)
    amb = FiniteSemimodule(ground, "⊕", els, add, smul, zero, check=False)
    if all(p.is_total() for p in parts):
        defined = total_set()
    else:
        defined = DefinedSet(
            DefinedSet.FINITE,
            members={x for x in els
                     if all(p.contains(xi) for p, xi in zip(parts, x))})
    result = PartialSemimodule(amb, defined, name="⊕")
    embeddings = []
    projections = []
    for k, p in enumerate(parts):
        emb = {}
        for v in ambs[k].elements():
            vec = list(zero)
            vec[k] = v
            emb[v] = tuple(vec)
        embeddings.append(Hom(p, result, elem_map=emb, name="in%d" % k))
        projections.append(Hom(result, p,
                               elem_map={x: x[k] for x in els}, name="pr%d" % k))
    return result, embeddings, projections


# ---------------------------------------------------------------------------
# equalizers and coequalizers
# ---------------------------------------------------------------------------

class EqualizerResult:
    def __init__(self, module, inclusion, generators, complete=True):
        self.module = module
        self.inclusion = inclusion
        self.generators = generators
        self.complete = complete


class CoequalizerResult:
    def __init__(self, module, projection, complete=True):
        self.module = module
        self.projection = projection
        self.complete = complete

    def class_of(self, x):
        return self.projection(x)

    def eq(self, x, y):
        return self.module.eq(self.class_of(x), self.class_of(y)) \
            if hasattr(self.module, "eq") else self.class_of(x) == self.class_of(y)


def _linear_matrix(f):
    """Rows = target coordinates, columns = source generators."""
    src = f.source.ambient
    tgt = f.target.ambient
    cols = []
    for g in src.generators():
        img = f.apply(g)
        if img is None:
            raise UnsupportedRepresentation(
                "partial map %s is not total on generators" % f.name)
        cols.append(img)
    ncols = len(cols)
    nrows = len(tgt.generators())
    return [[cols[j][i] for j in range(ncols)] for i in range(nrows)]


def equalizer(f, g):
    """The subsemimodule {x : f(x) = g(x)} with its inclusion.

    Backends: Hilbert basis over nat, integer kernel over int, extreme rays
    over the nonnegative rationals, exhaustion when the source is finite.
    """
    src = f.source
    if src.ambient.is_finite() or src.is_finite():
        els = [x for x in src.elements()]
        sel = []
        for x in els:
            fx, gx = f.apply(x), g.apply(x)
            if fx is not None and gx is not None and \
                    f.target.ambient.eq(fx, gx):
                sel.append(x)
        # keep it as a finite partial semimodule of the source
        sub = PartialSemimodule(src.ambient,
                                DefinedSet(DefinedSet.FINITE, members=sel),
                                name="eq")
        incl = Hom.partial_identity(sub, src)
        gens = [x for x in sel if x != src.zero()]
        return EqualizerResult(sub, incl, gens)
    amb = src.ambient
    if isinstance(amb, PresentedSemimodule) and amb.relations:
        raise UnsupportedRepresentation(
            "equalizer with a nontrivially presented source")
    A = _linear_matrix(f)
    B = _linear_matrix(g)
    kind = src.ground.kind
    if not A:
        A = [[0] * len(amb.generators())]
        B = [[0] * len(amb.generators())]
    if kind == NAT_KIND:
        gens = hilbert.hilbert_basis_eq(A, B)
    elif kind == INT_KIND:
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
        gens = intlinalg.kernel_basis(diff)
    elif kind == QPOS_KIND:
        diff = [[Fraction(a) - Fraction(b) for a, b in zip(ra, rb)]
                for ra, rb in zip(A, B)]
        gens = cones.extreme_rays(diff, n=len(amb.generators()))
    else:
        raise UnsupportedRepresentation("equalizer over %s" % src.ground.name)
    sub = SubSemimodule(amb, gens, name="eq")
    incl = Hom(sub, src, gen_images=[tuple(v) for v in gens], name="incl")
    return EqualizerResult(sub, incl, [tuple(v) for v in gens])


def coequalizer(f, g, bound=DEFAULT_BOUND):
    """Target modulo the congruence generated by f(x) = g(x) on generators."""
    tgt = f.target
    src = f.source
    if tgt.ambient.is_finite() or tgt.is_finite():
        return _coequalizer_finite(f, g)
    amb = tgt.ambient
    pairs = []
    sources = src.generators() if not src.ambient.is_finite() else \
        [x for x in src.elements()]
    for x in sources:
        fx, gx = f.apply(x), g.apply(x)
        if fx is not None and gx is not None:
            pairs.append((tuple(fx), tuple(gx)))
    base_relations = amb.relations if isinstance(amb, PresentedSemimodule) else []
    kind = tgt.ground.kind
    if kind in (NAT_KIND, INT_KIND):
        names = list(amb.gens)
        pres = PresentedSemimodule(tgt.ground, names,
                                   list(base_relations) + pairs, bound=bound,
                                   name="coeq")
        proj = Hom(tgt, pres, gen_images=amb.generators(), name="proj")
        complete = True
        if kind == NAT_KIND:
            for x in pres.generators():
                _, c = pres.normal_form(x)
                complete = complete and c
        return CoequalizerResult(pres, proj.apply, complete)
    raise UnsupportedRepresentation("coequalizer over %s" % tgt.ground.name)


def _coequalizer_finite(f, g):
    from .congruence import congruence_closure_finite
    tgt = f.target
    els = list(tgt.elements() if not tgt.is_total()
               else tgt.ambient.elements())
    src_els = f.source.elements() if f.source.is_finite() or \
        f.source.ambient.is_finite() else f.source.generators()
    pairs = []
    for x in src_els:
        fx, gx = f.apply(x), g.apply(x)
        if fx is not None and gx is not None:
            pairs.append((fx, gx))
    rep = congruence_closure_finite(els, pairs,
                                    add=lambda w, a: _padd_in(tgt, w, a))
    classes = sorted(set(rep.values()))
    add = {}
    for a in classes:
        for b in classes:
            s = _padd_in(tgt, a, b)
            add[(a, b)] = rep[s] if s is not None else None
    # partial addition: undefined sums make the quotient partial too; the
    # quotient of a total finite semimodule is total
    if all(v is not None for v in add.values()):
        ground = tgt.ground
        scalars = ground.elements() if ground.is_finite() else \
            ground.nonzero_scalars() + (ground.zero,)
        smul = {}
        for lam in scalars:
            for a in classes:
                smul[(lam, a)] = rep[tgt.ambient.smul(lam, a)]
        quot = FiniteSemimodule(tgt.ground, "coeq", classes, add, smul,
                                rep[tgt.zero()], check=False)
        return CoequalizerResult(quot, lambda x: rep[x], True)
    return CoequalizerResult(_PartialQuotient(tgt, rep, classes),
                             lambda x: rep[x], True)


def _padd_in(p, x, y):
    if p.is_total():
        return p.ambient.add(x, y)
    return p.padd(x, y)


class _PartialQuotient:
    def __init__(self, source, rep, classes):
        self.source = source
        self.ground = source.ground
        self.rep = rep
        self._classes = classes

    def elements(self):
        return self._classes

    def eq(self, x, y):
        return x == y

    def zero(self):
        return self.rep[self.source.zero()]

    def is_finite(self):
        return True


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def tensor(a, b, bound=DEFAULT_BOUND):
    """A (x) B for A a semimodule, B a partial semimodule over one ground.

    Free A of rank n gives the n-fold direct sum of B; S (x) B is B; a
    presented A gives the coequalizer presentation (relations of A paired
    with every generator of B).
    """
    b = as_partial(b)
    if isinstance(a, PartialSemimodule):
        if not a.is_total():
            raise UnsupportedRepresentation("left tensor factor must be total")
        a = a.ambient
    if a.ground != b.ground:
        raise MixedGround("tensor over %s and %s" % (a.ground.name,
                                                     b.ground.name))
    if isinstance(a, FreeSemimodule):
        if a.rank == 1:
            return b
        s, _, _ = direct_sum([b] * a.rank)
        return s
    if isinstance(a, SubSemimodule):
        a = a.presentation()
    if isinstance(a, PresentedSemimodule):
        bamb = b.ambient
        if isinstance(bamb, FreeSemimodule) and b.is_total():
            return _tensor_presented_free(a, bamb, bound)
        if a.ground.is_finite():
            apres = a.materialize()
            afin = _quotient_as_finite(a, apres)
            return _tensor_finite(afin, b)
        raise UnsupportedRepresentation("tensor %r (x) %r" % (a, b))
    if a.is_finite():
        return _tensor_finite(a, b)
    raise UnsupportedRepresentation("tensor %r (x) %r" % (a, b))


def _tensor_presented_free(a, bfree, bound):
    gens = ["%s*%s" % (ga, gb) for ga in a.gens for gb in bfree.gens]
    nb = len(bfree.gens)

    def spread(vec_a, j):
        out = [a.ground.zero] * (len(a.gens) * nb)
        for i, c in enumerate(vec_a):
            out[i * nb + j] = c
        return tuple(out)

    relations = []
    for u, v in a.relations:
        for j in range(nb):
            relations.append((spread(u, j), spread(v, j)))
    pres = PresentedSemimodule(a.ground, gens, relations, bound=bound,
                               name="%s⊗%s" % (a.name, "free"))
    return PartialSemimodule(pres, name=pres.name)


def _tensor_finite(a, b):
    """Tensor of two finite (partial) semimodules by generators and relations."""
    b = as_partial(b)
    ground = a.ground
    if not ground.is_finite():
        # finite semimodule over nat: present it first
        raise UnsupportedRepresentation("finite tensor needs finite ground")
    a_els = [x for x in a.elements() if x != a.zero()]
    b_els = [x for x in b.elements() if x != b.zero()]
    gens = [(x, y) for x in a_els for y in b_els]
    index = {g: i for i, g in enumerate(gens)}
    n = len(gens)

    def unit(i):
        return tuple(ground.one if k == i else ground.zero for k in range(n))

    zero_vec = tuple(ground.zero for _ in range(n))

    def embed(x, y):
        if x == a.zero() or y == b.zero():
            return zero_vec
        return unit(index[(x, y)])

    relations = []
    for (x, y) in gens:
        for (x2, y2) in gens:
            if y == y2:
                s = a.add(x, x2)
                lhs = _vec_add(ground, embed(x, y), embed(x2, y2))
                relations.append((lhs, embed(s, y)))
            if x == x2:
                s = b.padd(y, y2)
                if s is not None:
                    lhs = _vec_add(ground, embed(x, y), embed(x2, y2))
                    relations.append((lhs, embed(x, s)))
        for lam in ground.elements():
            lx = a.smul(lam, x)
            relations.append((tuple(lam if k == index[(x, y)] else ground.zero
                                    for k in range(n)), embed(lx, y)))
    pres = PresentedSemimodule(ground, ["%s⊗%s" % g for g in gens],
                               relations, name="tensor")
    quot = pres.materialize()
    fin = _quotient_as_finite(pres, quot)
    return PartialSemimodule(fin, name="tensor")


def _vec_add(ground, u, v):
    return tuple(ground.add(a, b) for a, b in zip(u, v))


def extend_scalars(a, new_ground):
    """Base change of a nat-presented/free semimodule to the integers."""
    if isinstance(a, SubSemimodule):
        a = a.presentation()
    if isinstance(a, FreeSemimodule):
        return FreeSemimodule(new_ground, a.gens)
    if isinstance(a, PresentedSemimodule) and new_ground.kind == INT_KIND:
        return PresentedSemimodule(new_ground, a.gens, a.relations,
                                   name=a.name + "⊗Z")
    raise UnsupportedRepresentation("extend_scalars(%r)" % a)


# ---------------------------------------------------------------------------
# natural preorder, down-sets
# ---------------------------------------------------------------------------

def natural_preorder_leq(m, x, y, search_bound=8):
    """x <= y iff y = lam*x + z for some lam in S-0, z in M."""
    if isinstance(m, PartialSemimodule):
        m = m.ambient
    kind = m.ground.kind
    if isinstance(m, FreeSemimodule):
        if kind == NAT_KIND:
            return all(a <= b for a, b in zip(x, y))
        if kind == INT_KIND:
            return True
        if kind == QPOS_KIND:
            return all(b > 0 or a == 0 for a, b in zip(x, y))
        if kind == BOOL_KIND:
            return all(b >= a for a, b in zip(x, y))
    if m.is_finite():
        els = list(m.elements())
        for lam in m.ground.nonzero_scalars():
            for z in els:
                if m.eq(m.add(m.smul(lam, x), z), y):
                    return True
        return False
    if isinstance(m, SubSemimodule):
        if kind == NAT_KIND:
            diff = tuple(b - a for a, b in zip(x, y))
            return all(d >= 0 for d in diff) and m.contains(diff)
        if kind == INT_KIND:
            return True
        if kind == QPOS_KIND:
            # lam x + z = y, z in the cone
            gens = [tuple(x)] + [tuple(g) for g in m.gens]
            return cones.in_cone(tuple(y), gens) if any(x) else True
    if isinstance(m, PresentedSemimodule) and kind == NAT_KIND:
        for lam in range(1, search_bound):
            base = m.smul(lam, x)
            for z in m.free.elements_up_to(search_bound):
                if m.eq(m.add(base, z), y):
                    return True
        return False
    if kind == INT_KIND:
        return True
    raise UnsupportedRepresentation("natural preorder on %r" % m)


def down_set(m, b, order="natural"):
    """The partial semimodule {x : x <= b}, a principal natural down-set.

    `order="coordinatewise"` forces the product order on free modules, which
    differs from the natural preorder over the nonnegative rationals (where
    scaling makes the natural order the support order).
    """
    if isinstance(m, PartialSemimodule):
        m = m.ambient

    if order == "coordinatewise" and isinstance(m, FreeSemimodule):
        def pred(x):
            return all(a <= bb for a, bb in zip(x, b))
    else:
        def pred(x):
            return natural_preorder_leq(m, x, b)

    enum = None
    if m.is_finite():
        members = frozenset(x for x in m.elements() if pred(x))
        return PartialSemimodule(m, DefinedSet(DefinedSet.FINITE,
                                               members=members),
                                 name="down(%s)" % (b,))
    if isinstance(m, FreeSemimodule) and m.ground.kind == NAT_KIND:
        box = tuple(int(c) for c in b)

        def enum():
            return product(*[range(c + 1) for c in box])
        members = None
    return PartialSemimodule(
        m, DefinedSet(DefinedSet.PRED, pred=pred,
                      description="≤%s" % (b,), enumerator=enum),
        name="down(%s)" % (b,))


# ---------------------------------------------------------------------------
# flatness certificates
# ---------------------------------------------------------------------------

FLAT = "flat"
NOT_FLAT = "not_flat"
UNKNOWN = "unknown"


def is_certified_flat(m):
    """Probe-free flatness certificate: free modules, every module over a
    ring (flat for the equalizer-preservation notion used here) and finite
    modules isomorphic to S^n.  A partial module qualifies only when total."""
    if isinstance(m, PartialSemimodule):
        if not m.is_total():
            return False
        m = m.ambient
    if isinstance(m, FreeSemimodule) or m.ground.is_ring:
        return True
    return m.is_finite() and _finite_is_free(m)


def check_flat_certificate(m):
    """Tri-state flatness check.

    FLAT exactly when `is_certified_flat` holds.  Otherwise finite
    semimodules are probed against a library of finite equalizer diagrams:
    a preservation failure certifies NOT_FLAT, a full pass leaves the result
    UNKNOWN (the test is sound, not complete).
    """
    if is_certified_flat(m):
        return FLAT
    if isinstance(m, PartialSemimodule):
        if not m.is_total():
            return UNKNOWN
        m = m.ambient
    if isinstance(m, IntAsNatSemimodule):
        return NOT_FLAT
    if m.is_finite() and not _preserves_probe_equalizers(m):
        return NOT_FLAT
    return UNKNOWN


def _finite_is_free(m):
    """Is a finite semimodule isomorphic to S^n for some n?"""
    S = m.ground
    if not S.is_finite():
        return False
    size = len(m.elements())
    base = len(S.elements())
    n = 0
    t = 1
    while t < size:
        t *= base
        n += 1
    if t != size:
        return False
    free = FreeSemimodule(S, tuple("x%d" % i for i in range(n)))
    return _iso_search(free, m) is not None


def _iso_search(a, b):
    """Brute-force semimodule isomorphism between small finite semimodules."""
    ea, eb = list(a.elements()), list(b.elements())
    if len(ea) != len(eb):
        return None
    if len(ea) > 8:
        return None
    from itertools import permutations
    za, zb = a.zero(), b.zero()
    rest_a = [x for x in ea if x != za]
    rest_b = [x for x in eb if x != zb]
    scalars = a.ground.elements() if a.ground.is_finite() else \
        a.ground.nonzero_scalars(2)
    for perm in permutations(rest_b):
        phi = {za: zb}
        phi.update(dict(zip(rest_a, perm)))
        ok = True
        for x in ea:
            for y in ea:
                if phi[a.add(x, y)] != b.add(phi[x], phi[y]):
                    ok = False
                    break
            if not ok:
                break
            for lam in scalars:
                if phi[a.smul(lam, x)] != b.smul(lam, phi[x]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return phi
    return None


def _probe_diagrams(S):
    """Equalizer diagrams f,g : S[k] -> S[1] used as flatness probes.

    Each entry is (k, f_images, g_images) with images rank-1 scalars.  The
    rank-4 conservation probe is the bifurcating-vertex diagram; it is the
    one that separates the two lattices of the flatness example.
    """
    one, zero = S.one, S.zero
    diagrams = [
        (2, [one, one], [zero, zero]),
        (2, [one, zero], [zero, one]),
        (4, [one, one, zero, zero], [zero, zero, one, one]),
    ]
    if S.is_finite():
        for l1 in S.elements():
            for l2 in S.elements():
                diagrams.append((2, [l1, one], [l2, zero]))
    return diagrams


def _preserves_probe_equalizers(m):
    S = m.ground
    if not S.is_finite():
        return True
    for k, f_sc, g_sc in _probe_diagrams(S):
        freek = FreeSemimodule(S, tuple("x%d" % i for i in range(k)))
        free1 = FreeSemimodule(S, ("z",))
        f = Hom(freek, free1, gen_images=[(c,) for c in f_sc])
        g = Hom(freek, free1, gen_images=[(c,) for c in g_sc])
        eq = equalizer(f, g)
        sumk, _, _ = direct_sum([as_partial(m)] * k)

        def tens(scalars, x):
            acc = m.zero()
            for c, xi in zip(scalars, x):
                acc = m.add(acc, m.smul(c, xi))
            return acc

        eq_after = {x for x in sumk.elements()
                    if tens(f_sc, x) == tens(g_sc, x)}
        gens = []
        for v in eq.generators:
            for w in m.elements():
                gens.append(tuple(m.smul(c, w) for c in v))
        span = _finite_span(sumk, gens)
        if span != eq_after:
            return False
    return True


def _finite_span(sumk, gens):
    amb = sumk.ambient
    zero = amb.zero()
    span = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = amb.add(x, g)
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


class IntAsNatSemimodule(Semimodule):
    """Z regarded as an N-semimodule (a standard non-flat example)."""

    def __init__(self, nat_ground):
        self.ground = nat_ground

    def zero(self):
        return 0

    def add(self, x, y):
        return x + y

    def smul(self, lam, x):
        return lam * x

    def __repr__(self):
        return "Z-as-N-semimodule"

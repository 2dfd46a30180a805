"""Ground semirings.

The library computes over a closed family of grounds: the naturals, the
integers, the Boolean semiring, the nonnegative rationals, and finite
semirings given by explicit tables.  Every downstream (co)equalizer backend
dispatches on the `kind` of the ground, so keeping the family closed is what
makes the whole pipeline exactly computable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import SheafflowError

NAT_KIND = "nat"
INT_KIND = "int"
BOOL_KIND = "bool"
QPOS_KIND = "nonneg_rational"
FINITE_KIND = "finite"


class GroundSemiring:
    """A commutative semiring with decidable equality.

    For the built-in kinds the operations are those of Python ints /
    Fractions; for ``finite`` the operations are table lookups and the
    semiring axioms are verified exhaustively at construction time.
    """

    def __init__(self, kind, name, elements=None, add_table=None,
                 mul_table=None, zero=None, one=None,
                 is_ring=False, is_inf_semilattice=False,
                 is_naturally_complete=False):
        self.kind = kind
        self.name = name
        self._elements = tuple(elements) if elements is not None else None
        self._add = add_table
        self._mul = mul_table
        self._zero = zero
        self._one = one
        self.is_ring = is_ring
        self.is_inf_semilattice = is_inf_semilattice
        self.is_naturally_complete = is_naturally_complete

    # -- structure ---------------------------------------------------------

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def add(self, a, b):
        if self.kind == BOOL_KIND:
            return a | b
        if self.kind == FINITE_KIND:
            return self._add[(a, b)]
        return a + b

    def mul(self, a, b):
        if self.kind == BOOL_KIND:
            return a & b
        if self.kind == FINITE_KIND:
            return self._mul[(a, b)]
        return a * b

    def eq(self, a, b):
        return a == b

    def is_finite(self):
        return self.kind in (BOOL_KIND, FINITE_KIND)

    def elements(self):
        """All elements for finite kinds; raises otherwise."""
        if self.kind == BOOL_KIND:
            return (0, 1)
        if self.kind == FINITE_KIND:
            return self._elements
        raise SheafflowError("infinite semiring %s is not enumerable" % self.name)

    def nonzero_scalars(self, bound=3):
        """A finite sample of S - 0 (all of it when S is finite)."""
        if self.is_finite():
            return tuple(x for x in self.elements() if x != self._zero)
        if self.kind == NAT_KIND:
            return tuple(range(1, bound + 1))
        if self.kind == INT_KIND:
            return tuple(x for x in range(-bound, bound + 1) if x != 0)
        return tuple(Fraction(p, q) for p in range(1, bound + 1)
                     for q in range(1, bound + 1))

    def __repr__(self):
        return "GroundSemiring(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, GroundSemiring) and self.name == other.name \
            and self.kind == other.kind

    def __hash__(self):
        return hash((self.kind, self.name))


def NAT():
    return GroundSemiring(NAT_KIND, "nat", zero=0, one=1,
                          is_inf_semilattice=True, is_naturally_complete=True)


def INT():
    return GroundSemiring(INT_KIND, "int", zero=0, one=1, is_ring=True)


def BOOL():
    return GroundSemiring(BOOL_KIND, "bool", zero=0, one=1,
                          is_inf_semilattice=True, is_naturally_complete=True)


def QPOS():
    return GroundSemiring(QPOS_KIND, "nonneg-rational", zero=Fraction(0),
                          one=Fraction(1))


def check_semiring_axioms(elements, add, mul, zero, one):
    """Exhaustively verify the semiring equations on a finite table."""
    for x in elements:
        if add[(zero, x)] != x:
            raise SheafflowError("0 + %r != %r" % (x, x))
        if mul[(one, x)] != x or mul[(x, one)] != x:
            raise SheafflowError("unit law fails at %r" % (x,))
        if mul[(zero, x)] != zero:
            raise SheafflowError("0 * %r != 0" % (x,))
    for x, y in product(elements, repeat=2):
        if add[(x, y)] != add[(y, x)]:
            raise SheafflowError("addition not commutative at (%r, %r)" % (x, y))
        if mul[(x, y)] != mul[(y, x)]:
            raise SheafflowError("multiplication not commutative at (%r, %r)" % (x, y))
    for x, y, z in product(elements, repeat=3):
        if add[(add[(x, y)], z)] != add[(x, add[(y, z)])]:
            raise SheafflowError("addition not associative")
        if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]:
            raise SheafflowError("multiplication not associative")
        if mul[(x, add[(y, z)])] != add[(mul[(x, y)], mul[(x, z)])]:
            raise SheafflowError("distributivity fails")


def finite_semiring(name, elements, add_table, mul_table, zero, one):
    """Build a finite semiring from tables, checking every axiom."""
    elements = tuple(elements)
    check_semiring_axioms(elements, add_table, mul_table, zero, one)
    is_ring = all(any(add_table[(x, y)] == zero for y in elements)
                  for x in elements)
    lattice = _finite_is_inf_semilattice(elements, add_table, mul_table, zero)
    return GroundSemiring(FINITE_KIND, name, elements=elements,
                          add_table=add_table, mul_table=mul_table,
                          zero=zero, one=one, is_ring=is_ring,
                          is_inf_semilattice=lattice,
                          is_naturally_complete=lattice)


def _finite_is_inf_semilattice(elements, add, mul, zero):
    # natural preorder: x <= y iff y = l*x + z for some l != 0, z
    nonzero = [s for s in elements if s != zero]

    def leq(x, y):
        return any(add[(mul[(l, x)], z)] == y for l in nonzero for z in elements)

    for x in elements:
        for y in elements:
            lower = [z for z in elements if leq(z, x) and leq(z, y)]
            greatest = [z for z in lower
                        if all(leq(w, z) for w in lower)]
            # a unique greatest lower bound must exist (up to preorder equality
            # this means exactly the maximal lower elements form one class)
            if not greatest:
                return False
            g0 = greatest[0]
            if not all(leq(g, g0) and leq(g0, g) for g in greatest):
                return False
    return True


def boolean_mod2():
    """Z/2 as a finite table, the smallest finite ring (used in tests)."""
    els = (0, 1)
    add = {(a, b): (a + b) % 2 for a in els for b in els}
    mul = {(a, b): (a * b) % 2 for a in els for b in els}
    return finite_semiring("Z2", els, add, mul, 0, 1)

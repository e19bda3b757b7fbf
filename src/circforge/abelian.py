"""Finite abelian groups Z_{p_1} x ... x Z_{p_r} with duality combinatorics.

Provides the weighted scalar product <j, l> = sum_i (k/p_i) j_i l_i mod k,
orthogonal complements, coset systems with deterministic representatives,
and invariant-factor certificates via Smith normal form.

Subgroups are explicit element sets; group orders here stay small enough
for exhaustive work.
"""

from __future__ import annotations

import itertools
from math import lcm, prod
from operator import mul

from .cyclotomic import Cyclo, root_of_unity
from .record import Record, _immutable
from .smith import cokernel_invariant_factors


class AbelianGroup:
    __slots__ = ("moduli",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, moduli: tuple[int, ...]):
        if any(p < 1 for p in moduli):
            raise ValueError("moduli must be positive")
        object.__setattr__(self, "moduli", tuple(int(p) for p in moduli))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self):
        return hash((self.moduli,))

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def element(self, residues) -> "GroupElement":
        residues = tuple(residues)
        if len(residues) != self.rank:
            raise ValueError(f"{len(residues)} residues for an element of {self}, a group of rank {self.rank}")
        return GroupElement(self, tuple(int(r) % p for r, p in zip(residues, self.moduli)))

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def elements(self):
        for tup in itertools.product(*(range(p) for p in self.moduli)):
            yield GroupElement(self, tup)

    def generator(self, i: int) -> "GroupElement":
        res = [0] * self.rank
        res[i] = 1
        return GroupElement(self, tuple(res))

    def __str__(self):
        return " x ".join(f"Z{p}" for p in self.moduli) if self.moduli else "Z1"


class GroupElement:
    __slots__ = ("group", "residues")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, group: AbelianGroup, residues: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "residues", residues)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.residues) == (other.group, other.residues)

    def __hash__(self):
        return hash((self.group, self.residues))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.group, tuple((a + b) % p for a, b, p in zip(self.residues, other.residues, self.group.moduli)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple((-a) % p for a, p in zip(self.residues, self.group.moduli)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(self.group, tuple((a * n) % p for a, p in zip(self.residues, self.group.moduli)))

    def is_identity(self) -> bool:
        return all(a == 0 for a in self.residues)

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise ValueError("elements of different groups")

    def __str__(self):
        return "(" + ",".join(map(str, self.residues)) + ")"


class Subgroup:
    """A subgroup given by its explicit element set.

    The constructor checks that the set is closed, since the set may come
    from outside (a JSON payload).  The sets that are subgroups by
    construction (a closure, a kernel, the whole group, the identity) are
    built by `_closed`, without that |S|^2 check."""

    __slots__ = ("parent", "elements")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, parent: AbelianGroup, elements):
        elems = frozenset(elements)
        for g in elems:
            if g.group != parent:
                raise ValueError("element outside parent group")
        if parent.identity not in elems:
            raise ValueError("subgroup must contain the identity")
        for a in elems:
            if -a not in elems:
                raise ValueError("subgroup not closed under negation")
            for b in elems:
                if a + b not in elems:
                    raise ValueError("subgroup not closed under addition")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def _closed(cls, parent: AbelianGroup, elements) -> "Subgroup":
        """The subgroup of a set of elements of parent that is one by
        construction."""
        out = object.__new__(cls)
        object.__setattr__(out, "parent", parent)
        object.__setattr__(out, "elements", frozenset(elements))
        return out

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.elements

    def sorted_elements(self) -> list[GroupElement]:
        return sorted(self.elements, key=lambda g: g.residues)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.elements) == (other.parent, other.elements)

    def __hash__(self):
        return hash((self.parent, self.elements))

    def __str__(self):
        return "{" + ", ".join(str(g) for g in self.sorted_elements()) + "}"


def subgroup_from_generators(group: AbelianGroup, gens) -> Subgroup:
    """Smallest subgroup containing gens, by closure under addition."""
    elems = {group.identity}
    frontier = [group.identity]
    gens = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return Subgroup._closed(group, elems)


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup._closed(group, [group.identity])


def full_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup._closed(group, group.elements())


class PairingContext:
    """Carries the common multiple k defining the weighted scalar product."""

    __slots__ = ("group", "k")

    def __init__(self, group: AbelianGroup, k: int):
        if k < 1 or any(k % p for p in group.moduli):
            raise ValueError(f"k={k} is not a positive common multiple of the moduli")
        self.group = group
        self.k = k

    @staticmethod
    def natural(group: AbelianGroup) -> "PairingContext":
        return PairingContext(group, lcm(1, *group.moduli))


def pairing(ctx: PairingContext, j: GroupElement, l: GroupElement) -> int:
    """Weighted scalar product sum_i (k/p_i) j_i l_i, reduced mod k."""
    if j.group != ctx.group or l.group != ctx.group:
        raise ValueError("elements do not belong to the pairing's group")
    k = ctx.k
    total = 0
    for p, a, b in zip(ctx.group.moduli, j.residues, l.residues):
        total += (k // p) * a * b
    return total % k


def perp(ctx: PairingContext, h) -> Subgroup:
    """Orthogonal complement {l : <l, x> = 0 mod k for all x in h}, of a
    Subgroup or of any iterable of elements (the complement of a set is that
    of the subgroup it generates).  Each x becomes the integer vector
    ((k/p_i) x_i mod k)_i, so <l, x> is its dot product with the residues
    of l; zero vectors pair to 0 with everything and are dropped.

    The result is the kernel of a homomorphism, so a subgroup by
    construction.  The pairing is perfect when k is the exponent of the
    group (`PairingContext.natural`): then |perp(H)| = |G| / |H| and
    G / perp(H) is isomorphic to H."""
    g = ctx.group
    k = ctx.k
    vecs = set()
    for x in h.elements if isinstance(h, Subgroup) else h:
        if x.group != g:
            raise ValueError("element of a different group")
        vecs.add(tuple((k // p) * a % k for p, a in zip(g.moduli, x.residues)))
    vecs.discard((0,) * g.rank)
    return Subgroup._closed(
        g,
        (
            GroupElement(g, res)
            for res in itertools.product(*map(range, g.moduli))
            if not any(sum(map(mul, res, v)) % k for v in vecs)
        ),
    )


def xi(ctx: PairingContext, h: Subgroup, l: GroupElement) -> Cyclo:
    """sum_{h in H} e_k^(-<l, h>); equals |H| on the complement, 0 off it."""
    total = Cyclo.zero(ctx.k)
    for x in h.elements:
        total = total + root_of_unity(ctx.k, -pairing(ctx, l, x))
    return total


class CosetSystem(Record):
    __slots__ = ("representatives",)


def quotient(group: AbelianGroup, h: Subgroup) -> CosetSystem:
    """Coset representatives, each the lexicographically least of its coset.

    The identity's coset comes first, since the identity is the least
    element of the group; the rest follow in lexicographic order.
    """
    if h.parent != group:
        raise ValueError("subgroup of a different group")
    seen: set = set()
    reps = []
    for g in sorted(group.elements(), key=lambda e: e.residues):
        if g in seen:
            continue
        reps.append(g)
        for x in h.elements:
            seen.add(g + x)
    reps.sort(key=lambda e: e.residues)
    return CosetSystem(tuple(reps))


def invariant_factors(h: Subgroup) -> list[int]:
    """Invariant factor decomposition d_1 | d_2 | ... of H, via Smith form:
    the natural pairing is perfect, so H is isomorphic to G / perp(H)."""
    return quotient_invariant_factors(h.parent, perp(PairingContext.natural(h.parent), h))


def quotient_invariant_factors(group: AbelianGroup, h: Subgroup) -> list[int]:
    """Invariant factors of G/H (the cokernel of [diag(moduli) | lifts of H])."""
    r = group.rank
    if r == 0:
        return []
    cols = [[group.moduli[i] if j == i else 0 for i in range(r)] for j in range(r)]
    cols += [list(e.residues) for e in h.sorted_elements()]
    return cokernel_invariant_factors(list(zip(*cols)))


def all_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup of the (small) group, by closure of generator sets."""
    found = {trivial_subgroup(group)}
    frontier = [trivial_subgroup(group)]
    while frontier:
        h = frontier.pop()
        for g in group.elements():
            if g in h:
                continue
            bigger = subgroup_from_generators(group, list(h.elements) + [g])
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda s: (s.order, tuple(e.residues for e in s.sorted_elements())))

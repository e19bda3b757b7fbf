"""Resolution invariant sequences and blow-up weights for circulant data.

Everything here is exact rational arithmetic, and every sequence and weight
comes from one computation: the coefficient-ideal recursion `inv_recursion`
on diagonal monomial data (`cpk_ideal`, `product_ideal`).  The two sequence
flavours are related by partial products: seq2[j] = seq1[1] * ... * seq1[j],
and the weight vectors are elementwise reciprocals of the product-form
sequence, rescaled to integers by the lcm of their denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .record import _immutable


class _Sequence:
    """Positive rational entries, each with one contact label.  Sequences
    are values: equal when of one class with equal fields, and immutable."""

    __slots__ = ("entries", "contacts")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, entries: tuple[Fraction, ...], contacts: tuple[str, ...]):
        entries = tuple(Fraction(e) for e in entries)
        if len(entries) != len(contacts):
            raise ValueError("one contact label per entry")
        if any(e <= 0 for e in entries):
            raise ValueError("entries must be positive")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "contacts", contacts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.contacts) == (other.entries, other.contacts)

    def __hash__(self):
        return hash((self.entries, self.contacts))

    def __str__(self):
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


class InvSequence(_Sequence):
    """The invariant sequence; its leading entry is an integer order."""

    __slots__ = ()

    def __init__(self, entries: tuple[Fraction, ...], contacts: tuple[str, ...]):
        super().__init__(entries, contacts)
        if self.entries and self.entries[0].denominator != 1:
            raise ValueError("leading entry must be an integer order")


class ATWSequence(_Sequence):
    """The product-form sequence: partial products of an InvSequence."""

    __slots__ = ()


class WeightVector:
    __slots__ = ("parameters", "rational", "integer", "multiplier")

    def __init__(
        self,
        parameters: tuple[str, ...],
        rational: tuple[Fraction, ...],
        integer: tuple[int, ...],
        multiplier: Fraction,
    ):
        for q, n in zip(rational, integer):
            if q * multiplier != n:
                raise ValueError("integer weights must be the rational ones rescaled")
        if any(q <= 0 for q in rational):
            raise ValueError("weights must be positive")
        self.parameters = parameters
        self.rational = rational
        self.integer = integer
        self.multiplier = multiplier  # integer = rational * multiplier


def inv_cpk(k: int) -> InvSequence:
    """The invariant of cp_k, inv_recursion(cpk_ideal(k)), with contacts
    x0, w, x1, ..., x(k-1)."""
    if k < 2:
        raise ValueError("order must be >= 2")
    return inv_recursion(cpk_ideal(k))


def atwinv_cpk(k: int) -> ATWSequence:
    return inv_to_atw(inv_cpk(k))


def inv_to_atw(seq: InvSequence) -> ATWSequence:
    acc = Fraction(1)
    out = []
    for e in seq.entries:
        acc *= e
        out.append(acc)
    return ATWSequence(tuple(out), seq.contacts)


def atw_to_inv(seq: ATWSequence) -> InvSequence:
    out = []
    prev = Fraction(1)
    for e in seq.entries:
        out.append(e / prev)
        prev = e
    return InvSequence(tuple(out), seq.contacts)


def atwinv_product(parts) -> ATWSequence:
    """Product-form sequence for factors of orders parts (single divisor):
    the partial products of inv_recursion(product_ideal(parts))."""
    parts = [int(p) for p in parts]
    if not parts or any(p < 2 for p in parts):
        raise ValueError("need a nonempty list of parts >= 2")
    return inv_to_atw(inv_recursion(product_ideal(parts)))


def weights(parts) -> WeightVector:
    """Blow-up weights for the product data, listed for the contacts of
    atwinv_product(parts): the rationals are the reciprocals of its
    entries, and the multiplier is the lcm of their denominators.  The
    integers are least: the first rational is 1/k, so only an integer
    multiplier makes them all integral."""
    atw = atwinv_product(parts)
    rational = tuple(1 / e for e in atw.entries)
    multiplier = Fraction(lcm(*(q.denominator for q in rational)))
    return WeightVector(atw.contacts, rational, tuple(int(q * multiplier) for q in rational), multiplier)


class MonomialMarkedIdeal:
    """Pairs (monomial, marked order); monomials are dicts var -> exponent."""

    __slots__ = ("pairs", "divisor")

    def __init__(self, pairs, divisor: str = "w"):
        norm = []
        for mono, d in pairs:
            d = Fraction(d)
            if d <= 0:
                raise ValueError("marked orders must be positive")
            mono = {str(v): Fraction(e) for v, e in dict(mono).items() if e}
            if any(e < 0 for e in mono.values()):
                raise ValueError("exponents must be nonnegative")
            norm.append((mono, d))
        self.pairs = tuple(norm)
        self.divisor = divisor


def cpk_ideal(k: int) -> MonomialMarkedIdeal:
    """(x_0^k, w x_1^k, ..., w^{k-1} x_{k-1}^k), all marked k."""
    pairs = [({f"x{j}": k, "w": j}, k) for j in range(k)]
    return MonomialMarkedIdeal(pairs)


def product_ideal(parts) -> MonomialMarkedIdeal:
    """sum over factors i of (w^j x_{ij}^{k_i}, k_i); one part k gives
    cpk_ideal(k), with its names."""
    parts = list(parts)
    if len(parts) == 1:
        return cpk_ideal(parts[0])
    pairs = []
    for i, ki in enumerate(parts):
        for j in range(ki):
            pairs.append(({f"x{i+1}_{j}": ki, "w": j}, ki))
    return MonomialMarkedIdeal(pairs)


def inv_recursion(ideal: MonomialMarkedIdeal) -> InvSequence:
    """Invariant sequence computed by the coefficient-ideal recursion on
    diagonal monomial data.

    Supported shape: each pair is (w^e * x^c, d) with a single non-divisor
    variable x of exponent c = d, all x's distinct.  Ties take the earliest
    pair in the declared order and are recorded as consecutive equal entries.
    """
    w = ideal.divisor
    gens = []  # (x name, normalized w-exponent e/d, marked order d)
    seen = set()
    for mono, d in ideal.pairs:
        others = {v: e for v, e in mono.items() if v != w}
        if len(others) != 1:
            raise ValueError("each monomial must involve exactly one non-divisor variable")
        (x, c), = others.items()
        if c != d:
            raise ValueError(f"exponent of {x} must equal its marked order")
        if x in seen:
            raise ValueError(f"variable {x} appears twice")
        seen.add(x)
        gens.append((x, Fraction(mono.get(w, 0)) / d, d))

    lead = [(x, d) for x, e, d in gens if e == 0]
    rest = [(x, e) for x, e, d in gens if e > 0]
    if not lead:
        raise ValueError("need at least one pair without the divisor (an x_{i0} slot)")
    entries = [Fraction(int(sum(d for _x, d in lead)))]
    contacts = [lead[0][0]]
    for x, _d in lead[1:]:
        entries.append(Fraction(1))
        contacts.append(x)
    if rest:
        eps_min = min(e for _x, e in rest)
        entries.append(1 + eps_min)
        contacts.append(w)
        # residual exponents 1/rho with rho = (1 + eps_min) - eps
        nu = [(x, 1 / (1 + eps_min - e)) for x, e in rest]
        while nu:
            best = min(v for _x, v in nu)
            pos = next(i for i, (_x, v) in enumerate(nu) if v == best)
            x, v = nu.pop(pos)
            entries.append(v)
            contacts.append(x)
            nu = [(xx, vv / v) for xx, vv in nu]
    return InvSequence(tuple(entries), tuple(contacts))

"""Arithmetic in small finite fields GF(p^n) and their square classes.

Elements are ids 0..p^n-1 encoding coefficient vectors in base p (the id's
i-th base-p digit is the coefficient of x^i).  Construction materializes
total add/mul tables; everything downstream is table lookups.

The tables are built a row at a time, not cell by cell.  Row a of the prime
field's addition is range(p) rotated by a; addition is digitwise mod p, so the
table for n digits is p shifted, rotated blocks of the table for n - 1 digits.
Row a of the prime field's multiplication is every a-th entry of range(p)
repeated p times.  k* is cyclic (Lidl-Niederreiter, Finite Fields, Thm 2.8),
so its least generator g is found by walking each candidate's own row from 1
until one reaches all q - 1 nonzero elements; a modulus is refused as
reducible exactly when none does, which the first walk that does not return
to 1 shows.  An extension's multiplication is linear:
row a = d + x*a' is row d added to row a' read through the x row, which shifts
the digits up and reduces the top one by the modulus.  Those rows are built
only as far as the search reaches; every later row g^i is the powers of g read
from offset i at the logarithms of the columns.  The inverse of g^i is g^-i,
and the negatives are the row of -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import InputError, SizeGuardError, ValidationError

MAX_FIELD = 1024

# Fixed moduli for every extension under the cap keep element encodings
# reproducible across runs (coefficients constant-term first, monic).  Each
# is the least irreducible in id order with a nonzero constant term.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (5, 2): (2, 0, 1),          # x^2 + 2
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (7, 2): (1, 0, 1),          # x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 4): (2, 1, 0, 0, 1),    # x^4 + x + 2
    (11, 2): (1, 0, 1),         # x^2 + 1
    (5, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),  # x^7 + x + 1
    (13, 2): (2, 0, 1),         # x^2 + 2
    (3, 5): (1, 2, 0, 0, 0, 1),  # x^5 + 2x + 1
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x + 1
    (17, 2): (3, 0, 1),         # x^2 + 3
    (7, 3): (2, 0, 0, 1),       # x^3 + 2
    (19, 2): (1, 0, 1),         # x^2 + 1
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),  # x^9 + x + 1
    (23, 2): (1, 0, 1),         # x^2 + 1
    (5, 4): (2, 0, 0, 0, 1),    # x^4 + 2
    (3, 6): (2, 1, 0, 0, 0, 0, 1),  # x^6 + x + 2
    (29, 2): (2, 0, 1),         # x^2 + 2
    (31, 2): (1, 0, 1),         # x^2 + 1
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),  # x^10 + x^3 + 1
}


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


class FiniteField:
    """GF(p^n) as total operation tables on ids 0..p^n-1."""

    def __init__(self, p, n, modulus=None):
        # before any primality test or power: p^n >= 2^n passes the cap once n reaches its bit length
        if p >= 2 and (p > MAX_FIELD or n >= MAX_FIELD.bit_length() or p**n > MAX_FIELD):
            raise SizeGuardError(f"field size {p}^{n} exceeds cap {MAX_FIELD}")
        if not _is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        if n < 1:
            raise InputError(f"extension degree must be >= 1, got {n}")
        q = p**n
        if modulus is not None:
            modulus = tuple(modulus)
            for c in modulus:
                if not 0 <= c < p:
                    raise InputError(f"modulus coefficient {c} is outside 0..{p - 1}")
        elif n == 1:
            modulus = (0, 1)
        else:
            modulus = DEFAULT_MODULI[(p, n)]
        if len(_trim(modulus)) != n + 1 or _trim(modulus)[-1] != 1:
            raise InputError(f"modulus must be monic of degree {n}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = tuple(_trim(modulus))

        self._build_tables()
        # Z_p[x]/(m) is a field iff m is irreducible iff some element has
        # order q - 1, its powers then being every nonzero element
        if self._generator is None:
            raise ValidationError(f"modulus {list(modulus)} is reducible over GF({p})")

    def _build_tables(self):
        p, n, q = self.p, self.n, self.q
        # the prime field: row a of its addition is range(p) rotated by a
        twice = list(range(p)) * 2
        add = [twice[a : a + p] for a in range(p)]
        # a top digit c adds c * m, and addition is digitwise mod p: row
        # lo + m * hi is row lo of the smaller table in p shifted blocks,
        # rotated by hi blocks
        m = p
        while m < q:
            cats = [[x + s for s in range(0, m * p, m) for x in row] for row in add]
            add = [cat[hi * m :] + cat[: hi * m] for hi in range(p) for cat in cats]
            m *= p
        if n == 1:
            # row a is a*b mod p at b = 0..p-1: every a-th entry of range(p) repeated
            ramp = list(range(p)) * p
            mul = [[0] * p] + [ramp[: a * p : a] for a in range(1, p)]
        else:
            # a scalar c < p multiplies digit by digit: c*b = (c-1)*b + b
            mul = [[0] * q]
            for _ in range(1, p):
                mul.append([add[y][b] for b, y in enumerate(mul[-1])])
            # multiplying by x shifts the digits up, and the top digit c
            # wraps round as c*x^n = c*(-m_0 - ... - m_(n-1)*x^(n-1))
            top = q // p
            xn = sum(-c % p * p**i for i, c in enumerate(self.modulus[:n]))
            by_x = [add[e % top * p][mul[e // top][xn]] for e in range(q)]
        # k* is cyclic, so some g has order q - 1: walk each candidate's row
        # from 1 until it returns to 1, reaches 0 or has q - 1 powers.  A
        # unit's order is at most q - 1, so a walk that does not end at 1
        # shows a non-unit, and m is reducible; q - 1 powers ending at 1 are
        # every nonzero element, all units, so m is irreducible.  An
        # extension builds its rows only as far as the search reaches:
        # a = d + x*a' with d = a mod p and a' < a gives a*b = d*b + x*(a'*b)
        for g in range(1, q):
            if g == len(mul):
                mul.append([add[s][by_x[t]] for s, t in zip(mul[g % p], mul[g // p])])
            row = mul[g]
            powers, x = [1], row[1]
            while x > 1 and len(powers) < q - 1:
                powers.append(x)
                x = row[x]
            if x != 1:
                self._generator = None
                return
            if len(powers) == q - 1:
                break
        self._generator = g
        # row g^i holds g^(i + log b), read off the powers from offset i;
        # b = 0 reads the trailing 0 at log -1
        log = [-1] * q
        for i, a in enumerate(powers):
            log[a] = i
        read, cycle = itemgetter(*log), powers * 2 + [0]
        mul += [list(read(cycle[log[a] :])) for a in range(len(mul), q)]
        self._add = add
        self._mul = mul
        self._neg = list(mul[p - 1])  # -b = (-1)*b, and -1 is p - 1
        self._inv = [None] + [powers[-i] for i in log[1:]]  # g^i * g^-i = 1

    def _decode(self, a):
        out = []
        for _ in range(self.n):
            out.append(a % self.p)
            a //= self.p
        return out

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise InputError("0 has no multiplicative inverse")
        return self._inv[a]

    def power(self, a, k):
        out = 1
        base = a
        while k:
            if k & 1:
                out = self._mul[out][base]
            base = self._mul[base][base]
            k >>= 1
        return out

    def generator(self):
        """Smallest id generating the multiplicative group."""
        return self._generator

    def nonzero(self):
        return range(1, self.q)

    def element_name(self, a):
        if self.n == 1:
            return str(a)
        digits = self._decode(a)
        terms = []
        for i in range(self.n - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FiniteField(GF({self.p}^{self.n}))" if self.n > 1 else f"FiniteField(GF({self.p}))"


def ff_make(p, n=1, modulus=None) -> FiniteField:
    return FiniteField(p, n, modulus)


def parse_field_arg(text):
    """Parse a CLI field descriptor: 'p', 'p^n', or a prime-power size q."""
    text = text.strip()
    if "^" in text:
        ps, ns = text.split("^", 1)
        try:
            return int(ps), int(ns)
        except ValueError:
            raise InputError(f"cannot parse field descriptor {text!r}") from None
    try:
        q = int(text)
    except ValueError:
        raise InputError(f"cannot parse field descriptor {text!r}") from None
    if q < 2:
        raise InputError(f"field size must be >= 2, got {q}")
    if q > MAX_FIELD:  # before factoring
        raise SizeGuardError(f"field size {text} exceeds cap {MAX_FIELD}")
    p = next(d for d in range(2, q + 1) if q % d == 0)  # the least factor is prime
    n, m = 0, q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise InputError(f"{q} is not a prime power")
    return p, n


@dataclass(frozen=True)
class SquareClasses:
    """Partition of a field into {0} and the cosets of the nonzero squares."""

    classes: tuple
    class_of: tuple
    zero_class: int

    @property
    def nonzero_count(self):
        return len(self.classes) - 1


def square_classes(k: FiniteField) -> SquareClasses:
    """{0}, the nonzero squares S and, when S is not all of k* (odd q),
    k* minus S: S has index 1 or 2 in the cyclic group k*, so these are
    its cosets."""
    squares = frozenset(k.mul(a, a) for a in k.nonzero())
    rest = frozenset(k.nonzero()) - squares
    classes = (frozenset([0]), squares) + ((rest,) if rest else ())
    class_of = tuple(0 if a == 0 else 1 if a in squares else 2 for a in range(k.q))
    return SquareClasses(classes=classes, class_of=class_of, zero_class=0)

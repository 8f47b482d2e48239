"""Classical symmetric-bilinear-form computations over small finite fields.

This is the validation oracle for the hyperfield pipeline: everything here
is computed at field level (Gram matrices, discriminants of diagonal forms,
value sets) and shares no code with the hyperfield machinery beyond the
finite-field tables and the WittRing/WittClass dataclasses.  Diagonal forms
have one isometry rule, `diagonal_isometric_field`: equal dimension and equal
discriminant class.  By Witt cancellation that rule keys each Witt class by
the parity of its dimension and the square class of its signed discriminant
(`_witt_key`), so `classical_witt_ring` finds every class by a dict lookup.
The oracle builds its class tables alone; WittRing only reads its status off
them.

Sizes: `classical_witt_ring` and `classical_isometric` take every q that
`parse_field_arg` admits, which is every prime power up to `MAX_FIELD`;
`classical_witt_ring` also takes a FiniteField that is already built.
`congruence_classes` enumerates all q^(n(n+1)/2) Gram matrices, so its own
guard stops at dim 3 for q <= 5 and at dim 2 for q <= 9.

Characteristic-2 convention: the oracle works with diagonal non-alternating
forms and stabilizes by <1,1> = <1,-1>, the comparable classical object for
a theory whose forms are tuples of square classes; alternating forms are out
of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .errors import InputError, SizeGuardError, ValidationError
from .finitefield import FiniteField, ff_make, parse_field_arg, square_classes
from .quadratic import Form, WittClass, WittRing


def _field_for(q: int) -> FiniteField:
    p, n = parse_field_arg(str(q))
    return ff_make(p, n)


def _det(k: FiniteField, A) -> int:
    n = len(A)
    total = 0
    for sigma in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term = k.mul(term, A[i][sigma[i]])
        total = k.add(total, term if sign > 0 else k.neg(term))
    return total


@dataclass(frozen=True)
class GramForm:
    """A symmetric Gram matrix over a small finite field."""

    field: FiniteField
    matrix: tuple

    def __post_init__(self):
        A = tuple(tuple(row) for row in self.matrix)
        object.__setattr__(self, "matrix", A)
        n = len(A)
        if any(len(row) != n for row in A):
            raise InputError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if A[i][j] != A[j][i]:
                    raise ValidationError(f"matrix not symmetric at ({i},{j})", witness=(i, j))

    @property
    def dim(self):
        return len(self.matrix)

    @property
    def nondegenerate(self):
        return _det(self.field, self.matrix) != 0

    @classmethod
    def diagonal(cls, k, entries):
        n = len(entries)
        return cls(k, tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))


def _rows(A, n):
    """The flat row-major tuple A as a tuple of its n rows."""
    return tuple(zip(*[iter(A)] * n))


@dataclass
class CongruenceClasses:
    """Orbit partition of nondegenerate symmetric matrices under P^T A P."""

    q: int
    dim: int
    representatives: list
    orbit_index: dict

    @property
    def count(self):
        return len(self.representatives)

    def same_class(self, A, B):
        A = tuple(tuple(row) for row in A)
        B = tuple(tuple(row) for row in B)
        return self.orbit_index[A] == self.orbit_index[B]


def congruence_classes(q: int, dim: int) -> CongruenceClasses:
    """Orbits of nondegenerate symmetric matrices under A -> P^T A P, each
    closed breadth-first under P in the transvections I + E_ij (i != j) and
    diag(g, 1, ..., 1) = I + (g - 1) E_11 for a generator g of F_q*.

    These generate GL_n(F_q): conjugating by diag(g, 1, ..., 1)^m turns
    I + E_1j and I + E_i1 into I + g^(+-m) E_1j and I + g^(+-m) E_i1, whose
    commutators give every I + c E_ij, and those with diag(F_q*, 1, ..., 1)
    generate GL_n.  In a finite group the closure of a generating set under
    products is the whole group, so no inverses are needed.

    The search runs on flat row-major tuples.  Each generator I + c E_ij is a
    fixed list of (target, source) index steps, column j then row j, applied
    in place, each a lookup in its one table T[x][y] = x + c y.  Only a matrix
    no orbit has reached has its determinant taken: congruence keeps
    nondegeneracy, so the seeds are the nondegenerate matrices that start an
    orbit in `product` order, and flattening keeps lexicographic order.
    """
    if dim < 1:
        raise InputError(f"dim must be at least 1, got {dim}")
    if not ((q <= 5 and dim <= 3) or (q <= 9 and dim <= 2)):
        raise SizeGuardError(f"congruence_classes guard exceeded for q={q}, dim={dim}")
    k = _field_for(q)
    n = dim
    gens = [(i, j, 1) for i in range(n) for j in range(n) if i != j] + [(0, 0, k.sub(k.generator(), 1))]
    moves = [  # (steps, T) per generator: column j += c * column i, then row j += c * row i
        ([(r * n + j, r * n + i) for r in range(n)] + [(j * n + x, i * n + x) for x in range(n)],
         [[row[m] for m in k._mul[c]] for row in k._add])
        for i, j, c in gens
    ]
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    sym = [upper.index((min(i, j), max(i, j))) for i in range(n) for j in range(n)]
    orbit_index = {}
    reps = []
    for vals in product(range(q), repeat=len(upper)):
        A = tuple([vals[m] for m in sym])
        if A in orbit_index or _det(k, _rows(A, n)) == 0:
            continue
        idx = len(reps)
        orbit_index[A] = idx
        orbit = [A]
        for B in orbit:  # the list grows while it is read: a breadth-first search
            for steps, T in moves:
                C = list(B)
                for t, s in steps:
                    C[t] = T[C[t]][C[s]]
                C = tuple(C)
                if C not in orbit_index:
                    orbit_index[C] = idx
                    orbit.append(C)
        reps.append(_rows(min(orbit), n))
    orbit_index = {_rows(A, n): idx for A, idx in orbit_index.items()}
    return CongruenceClasses(q=q, dim=dim, representatives=reps, orbit_index=orbit_index)


def same_square_class(k: FiniteField, a: int, b: int) -> bool:
    """Euler's criterion on x = a/b: a nonzero x is a square iff q is even
    (every element is) or x^((q-1)/2) = 1."""
    if a == 0 or b == 0:
        return a == b
    return k.q % 2 == 0 or k.power(k.mul(a, k.inv(b)), (k.q - 1) // 2) == 1


def classical_isometric(q: int, phi, psi) -> bool:
    """Diagonal forms over odd q: same dimension and same discriminant class."""
    p, _ = parse_field_arg(str(q))
    if p == 2:
        raise InputError("classical_isometric needs odd q; use congruence_classes")
    phi = tuple(phi)
    psi = tuple(psi)
    if any(not 0 < e < q for e in phi + psi):
        raise InputError(f"diagonal entries must be nonzero element ids 1..{q - 1}")
    return diagonal_isometric_field(_field_for(q), phi, psi)


def _product(k, entries):
    out = 1
    for e in entries:
        out = k.mul(out, e)
    return out


def diagonal_isometric_field(k: FiniteField, phi, psi) -> bool:
    """Diagonal forms with nonzero entries over k: same dimension and same
    discriminant class.  Over a finite field that is isometry (Lam, Ch. II);
    for even q every element is a square, so equal dimension decides."""
    if len(phi) != len(psi):
        return False
    return same_square_class(k, _product(k, phi), _product(k, psi))


def represents(k: FiniteField, a, b, c) -> bool:
    """Does the binary form <a, b> represent c (nontrivially)?"""
    for s in range(k.q):
        ssa = k.mul(k.mul(s, s), a)
        for t in range(k.q):
            if s == 0 and t == 0:
                continue
            if k.add(ssa, k.mul(k.mul(t, t), b)) == c:
                return True
    return False


def _witt_key(k: FiniteField, entries) -> tuple:
    """The Witt class of <a1, ..., an> over k: n mod 2, and whether the
    signed discriminant (-1)^(n(n-1)/2) a1...an is a square.

    Exact: for odd q, forms are classified by dimension and discriminant
    (Lam, Introduction to Quadratic Forms over Fields, Ch. II), and by Witt
    cancellation (Ch. I) two forms are Witt equivalent iff they are
    isometric once the shorter is padded with planes <1, -1> to the longer
    one's dimension.  Padding with m planes multiplies the discriminant by
    (-1)^m and the sign by (-1)^(m(2n + 2m - 1)) = (-1)^m, so it keeps the
    key; forms with equal keys pad to one dimension and one discriminant.
    For even q every element is a square, and equal dimension decides.
    """
    n = len(entries)
    sign = k.neg(1) if n * (n - 1) // 2 % 2 else 1
    return n % 2, same_square_class(k, _product(k, entries), sign)


def classical_witt_ring(q: int | FiniteField, dmax: int) -> WittRing:
    """Witt classes of diagonal nondegenerate forms modulo stabilization by
    <1, -1>, built from field arithmetic only.

    Candidates are sorted tuples of least members of the square classes,
    dimension first.  A class is represented by the first candidate with its
    `_witt_key`, and every sum and product finds its class by that key.
    Every key occurs by dim 2, so the tables are full and the ring finite.
    A FiniteField is read as it is given; an int q builds GF(q) for any q
    that `parse_field_arg` admits and refuses the others.
    """
    k = q if isinstance(q, FiniteField) else _field_for(q)
    if dmax < 2:
        raise InputError("dmax must be at least 2 (the hyperbolic plane has dim 2)")
    if dmax > 4:
        raise SizeGuardError(f"oracle dmax must be 2..4, got {dmax}")
    sq = square_classes(k)
    least = sorted(min(c) for i, c in enumerate(sq.classes) if i != sq.zero_class)
    first = {_witt_key(k, ()): ()}  # key -> diagonal entries of its class; () is the zero class
    growth = []
    for d in range(1, dmax + 1):
        before = len(first)
        for cand in combinations_with_replacement(least, d):
            first.setdefault(_witt_key(k, cand), cand)
        growth.append(len(first) - before)
    reps = list(first.values())
    index = {key: i for i, key in enumerate(first)}

    n = len(reps)
    add_table = [[None] * n for _ in range(n)]
    mul_table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ei, ej = reps[i], reps[j]
            add_table[i][j] = add_table[j][i] = index[_witt_key(k, ei + ej)]
            prod = tuple(k.mul(a, b) for a in ei for b in ej)
            mul_table[i][j] = mul_table[j][i] = index[_witt_key(k, prod)]
    return WittRing(
        classes=[WittClass(Form(e) if e else None) for e in reps],
        add_table=add_table,
        mul_table=mul_table,
        zero_class=0,
        one_class=index[_witt_key(k, (1,))],
        growth=growth,
    )

"""Explicit presentable rings and fields: powerset constructions, the axiom
ladder, supercompact extraction, and quotient constructions.

A PresentableRing is a pointed poset carrying total addition, negation and
multiplication tables plus an is_field claim.  The carrier order is the
poset's; its minimal elements are the supercompacts.  The heavy verifier is
:func:`check_presentable`, which walks the poset/monoid/group/ring/field
ladder and reports per-axiom witnesses.
"""

from __future__ import annotations

from .errors import InputError, SizeGuardError, ValidationError
from .hyperfields import (
    AxiomReport,
    Hyperfield,
    _associativity_failures,
    _commutativity_failures,
    _distributivity_failures,
    _own_sum_failures,
    _row_failures,
    _quotient_tables,
    check_hyperfield,
    quotient_by_subgroup,
)
from .posets import FinitePointedPoset, _bits, _inclusion_up_masks, check_presentable as check_poset

MAX_HYPERFIELD_BASE = 10   # powerset carrier is 2^|F| - 1

LEVELS = ("none", "poset", "monoid", "group", "ring", "field")


class PresentableRing:
    """Tables of a claimed presentable ring/field over a pointed poset.

    Construction enforces structural invariants (closed tables, 0 != 1,
    0 and 1 supercompact); the algebraic laws are check_presentable's job.
    """

    __slots__ = ("poset", "add", "neg", "mul", "one", "is_field")

    def __init__(self, poset, add, neg, mul, one, is_field):
        n = poset.n
        add = tuple(tuple(row) for row in add)
        mul = tuple(tuple(row) for row in mul)
        neg = tuple(neg)
        for name, table in (("add", add), ("mul", mul)):
            if len(table) != n or any(len(row) != n for row in table):
                raise InputError(f"{name} table shape mismatch")
            if any(min(row) < 0 or max(row) >= n for row in table):
                raise InputError(f"{name} table not closed over the carrier")
        if len(neg) != n or any(not 0 <= x < n for x in neg):
            raise InputError("neg table malformed")
        if not 0 <= one < n:
            raise InputError("one out of range")
        zero = poset.basepoint
        if one == zero:
            raise ValidationError("0 and 1 coincide")
        mins = poset.minimals_mask
        if not mins >> zero & 1:
            raise ValidationError("0 (the basepoint) is not a supercompact")
        if not mins >> one & 1:
            raise ValidationError("1 is not a supercompact")
        self.poset = poset
        self.add = add
        self.neg = neg
        self.mul = mul
        self.one = one
        self.is_field = bool(is_field)

    @property
    def zero(self):
        return self.poset.basepoint

    @property
    def n(self):
        return self.poset.n

    def supercompacts(self):
        return sorted(self.poset.minimals())

    def __repr__(self):
        kind = "field" if self.is_field else "ring"
        return f"PresentableRing(n={self.n}, claimed {kind})"


def powerset_of_hyperfield(F: Hyperfield) -> PresentableRing:
    """The pierced powerset of F with elementwise operations.

    Carrier: nonempty subsets of F's carrier as bitmask-minus-one ids,
    ordered by inclusion; A + B unions the hypersums of members, A * B and
    -A act elementwise; the basepoint is {0} and the identity {1}.
    """
    m = F.size
    if m > MAX_HYPERFIELD_BASE:
        raise SizeGuardError(
            f"powerset of a {m}-element hyperfield has {2**m - 1} elements; cap {MAX_HYPERFIELD_BASE}"
        )
    size = (1 << m) - 1
    names = tuple(
        "{" + ",".join(F.names[i] for i in _bits(mask)) + "}" for mask in range(1, size + 1)
    )
    poset = FinitePointedPoset.from_up_masks(
        _inclusion_up_masks(m), basepoint=(1 << F.zero) - 1, names=names
    )

    def table(cell):
        """Row A, column B holds the id of the union of cell(a, b) over a in
        A and b in B, as one OR of two earlier cells: A's least member and the
        rest of A, or for a singleton A, B's least member and the rest of B."""
        rows = [None] * (size + 1)
        for A in range(1, size + 1):
            low = A & -A
            if A != low:
                rows[A] = [x | y for x, y in zip(rows[low], rows[A ^ low])]
                continue
            a = low.bit_length() - 1
            row = rows[A] = [0] * (size + 1)
            for B in range(1, size + 1):
                b = B & -B
                row[B] = row[B ^ b] | cell(a, b.bit_length() - 1)
        return [[x - 1 for x in row[1:]] for row in rows[1:]]

    add = table(lambda a, b: sum(1 << x for x in F.add(a, b)))
    mul = table(lambda a, b: 1 << F.mul(a, b))
    neg = [sum(1 << F.neg(a) for a in _bits(mask)) - 1 for mask in range(1, size + 1)]
    return PresentableRing(
        poset, add, neg, mul, one=(1 << F.one) - 1, is_field=check_hyperfield(F).passed
    )


EXAMPLE_SQ_NAMES = ("theta", "I", "kappa", "alpha1", "alpha2", "alpha3", "beta")

# the 7-element structure over the Euclidean 3-element hyperfield, shipped
# as literal golden tables (row/column order as in EXAMPLE_SQ_NAMES)
EXAMPLE_SQ_ADD = (
    (0, 1, 2, 3, 4, 5, 6),
    (1, 1, 6, 1, 6, 6, 6),
    (2, 6, 2, 6, 2, 6, 6),
    (3, 1, 6, 3, 6, 6, 6),
    (4, 6, 2, 6, 4, 6, 6),
    (5, 6, 6, 6, 6, 6, 6),
    (6, 6, 6, 6, 6, 6, 6),
)
EXAMPLE_SQ_MUL = (
    (0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6),
    (0, 2, 1, 4, 3, 5, 6),
    (0, 3, 4, 3, 4, 6, 6),
    (0, 4, 3, 4, 3, 6, 6),
    (0, 5, 5, 6, 6, 5, 6),
    (0, 6, 6, 6, 6, 6, 6),
)
EXAMPLE_SQ_NEG = (0, 2, 1, 4, 3, 5, 6)
EXAMPLE_SQ_COVERS = (
    ("theta", "alpha1"),
    ("theta", "alpha2"),
    ("I", "alpha1"),
    ("I", "alpha3"),
    ("kappa", "alpha2"),
    ("kappa", "alpha3"),
    ("alpha1", "beta"),
    ("alpha2", "beta"),
    ("alpha3", "beta"),
)


def example_sq_structure() -> PresentableRing:
    """The 7-element presentable field over {0, 1, -1}, from literal tables."""
    from .posets import explicit_poset

    poset = explicit_poset(EXAMPLE_SQ_NAMES, EXAMPLE_SQ_COVERS, basepoint_name="theta")
    return PresentableRing(
        poset, EXAMPLE_SQ_ADD, EXAMPLE_SQ_NEG, EXAMPLE_SQ_MUL, one=1, is_field=True
    )


def check_presentable(R: PresentableRing) -> AxiomReport:
    """Verify the poset/monoid/group/ring/field ladder with witnesses.

    The report passes iff the ladder reaches the claimed level: field when
    R.is_field, ring otherwise (the field stage runs only for a field).

    Suprema preservation of + is checked (a) by the pairwise supercompact
    decomposition x + y = sup{s + t} over s, t in S_x, S_y, the supercompacts
    below x and y.  The cubic laws run on supercompact triples only, at every
    carrier size.  The poset stage checks weak presentability (WP), which
    gives x = sup S_x and x <= y iff S_x is inside S_y, and compactness of
    the supercompacts, which gives S_(sup X) = union of S_x for a family X.
    The laws left unchecked on the whole carrier follow from the checked ones:

    - + associativity: from supercompact triples, commutativity, (a) and
      compactness, since a + (b + c) = sup{(s + t) + u} over s, t, u in S_a,
      S_b, S_c.
    - * associativity: ring.supercompact_products gives S_ab = {st}, so
      S_a(bc) = {s(tu)}.
    - a(b + c) <= ab + ac: from ring.distributive_supercompact,
      ring.supercompact_products and the monotonicity of + that (a) gives
      under WP.
    - a <= b implies ac <= bc: under WP, a <= b iff S_a is inside S_b, and
      S_ac = {su}.
    - + preserves the supremum of any family X: compactness gives
      S_(sup X) = union of S_x, so (a) expands (sup X) + b and every x + b
      over the same supercompacts.
    """
    poset = R.poset
    report = check_poset(poset)
    if not report.passed:
        failures = [(f"poset.{axiom}", wit) for axiom, wit in report.failures]
        return AxiomReport("none", failures)

    n = R.n
    zero = R.zero
    mins = poset.minimals_mask
    sc = R.supercompacts()
    # after the poset stage x -> S_x is a bijection onto the nonempty sets of
    # supercompacts and S_(sup X) is the union of the S_x, so a supremum is
    # the lookup of a union
    smask = [poset.minimals_below_mask(x) for x in range(n)]
    below = [tuple(_bits(m)) for m in smask]
    sup_of = {m: x for x, m in enumerate(smask)}
    chain = []
    for y in sorted(range(n), key=smask.__getitem__):
        t = smask[y] & -smask[y]
        chain.append((y, sup_of.get(smask[y] ^ t), t.bit_length() - 1))

    def decomposition_failures(table, mask, x):
        """(y, S_z, U) for z = table[x][y] wherever S_z is not the union U of
        mask(table[s][t]) over s in S_x and t in S_y: one union per t over S_x,
        then one per y by masks smallest first, S_y being S_rest plus min S_y."""
        through = dict.fromkeys(sc, 0)
        for s in below[x]:
            for t in sc:
                through[t] |= mask(table[s][t])
        row = [0] * n
        for y, rest, t in chain:
            row[y] = through[t] if rest is None else row[rest] | through[t]
        return _row_failures(tuple(map(smask.__getitem__, table[x])), tuple(row))

    failures = []
    for a in range(n):
        if R.add[a][zero] != a or R.add[zero][a] != a:
            failures.append(("monoid.ii", (a, R.add[a][zero])))
    for a in range(n):
        swapped = _commutativity_failures(R.add, a)
        failures += [("monoid.iii", (a, b)) for b, _, _ in swapped if b > a]
    for a in sc:
        for b in sc:
            for c, _, _ in _associativity_failures(R.add, a, b):
                if mins >> c & 1:
                    failures.append(("monoid.i", (a, b, c)))
    # suprema preservation of +: pairwise supercompact decomposition
    for x in range(n):
        for y, want, got in decomposition_failures(R.add, smask.__getitem__, x):
            if y >= x:
                failures.append(("monoid.suprema", ("+", (x, y), sup_of[want], sup_of[got])))
    if failures:
        return AxiomReport("poset", failures)

    for a in range(n):
        if R.neg[R.neg[a]] != a:
            failures.append(("group.involution", (a,)))
    for x in range(n):
        union = 0
        for s in below[x]:
            union |= smask[R.neg[s]]
        if sup_of[union] != R.neg[x]:
            failures.append(("group.suprema", ("-", (x,), R.neg[x], sup_of[union])))
    for s in sc:
        for t in sc:
            for u in sc:
                if poset.up[s] >> R.add[t][u] & 1 and not poset.up[t] >> R.add[s][R.neg[u]] & 1:
                    failures.append(("group.exchange", (s, t, u)))
    if failures:
        return AxiomReport("monoid", failures)

    one = R.one
    for a in range(n):
        if R.mul[a][one] != a:
            failures.append(("ring.identity", (a,)))
        swapped = _commutativity_failures(R.mul, a)
        failures += [("ring.commutative", (a, b)) for b, _, _ in swapped if b > a]
    for a in sc:
        for b in sc:
            for c, _, _ in _associativity_failures(R.mul, a, b):
                if mins >> c & 1:
                    failures.append(("ring.mul_associative", (a, b, c)))
    # with a supercompact multiplier the two sides agree exactly
    for a in sc:
        for b, c, _, _ in _distributivity_failures(R.add, R.mul[a], R.mul[a].__getitem__):
            failures.append(("ring.distributive_supercompact", (a, b, c)))
    for a in range(n):
        left, right = R.mul[R.neg[a]], tuple(map(R.neg.__getitem__, R.mul[a]))
        found = [(b, "ring.compat_neg", (a, b)) for b, _, _ in _row_failures(left, right)]
        for b, want, got in decomposition_failures(R.mul, lambda z: 1 << z, a):
            sets = (a, b, list(_bits(want)), list(_bits(got)))
            found.append((b, "ring.supercompact_products", sets))
        # sorted by b, and at one b "ring.compat_neg" before "ring.supercompact_products"
        failures += [(law, witness) for _, law, witness in sorted(found)]
    if failures:
        return AxiomReport("group", failures)

    if not R.is_field:
        return AxiomReport("ring", failures)
    nz = [s for s in sc if s != zero]
    for s in nz:
        for t in nz:
            p = R.mul[s][t]
            if p == zero or not mins >> p & 1:
                failures.append(("field.group", ("closure", s, t, p)))
        if not any(R.mul[s][t] == one for t in nz):
            failures.append(("field.group", ("inverse", s)))
    if failures:
        return AxiomReport("ring", failures)
    return AxiomReport("field", [])


def supercompact_hyperfield(R: PresentableRing) -> Hyperfield:
    """Restrict a presentable field to its supercompacts, with a <= b + c as
    the membership rule of the induced multivalued addition."""
    report = check_presentable(R)
    if not report.passed or not R.is_field:
        raise ValidationError(
            f"not a presentable field: level {report.level_passed}, "
            f"first failure {report.first_failure()}"
        )
    sc = R.supercompacts()
    index = {x: i for i, x in enumerate(sc)}
    poset = R.poset
    add = [
        [frozenset(index[a] for a in _bits(poset.minimals_below_mask(R.add[b][c]))) for c in sc]
        for b in sc
    ]
    mul = [[index[R.mul[b][c]] for c in sc] for b in sc]
    neg = [index[R.neg[b]] for b in sc]
    names = [poset.names[x] for x in sc]
    return Hyperfield(
        zero=index[R.zero], one=index[R.one], neg=neg, mul=mul, add=add, names=names
    )


# Quotient of a (supercompact-level) hyperfield by a multiplicative set: in a
# hyperfield a nonempty multiplicatively closed set of nonzero elements is a
# finite group, so this is the subgroup quotient.
quotient_mod_multiplicative_set = quotient_by_subgroup


def quotient_by_congruence(F: Hyperfield, partition) -> Hyperfield:
    """Quotient of a hyperfield by an explicit partition of its carrier.

    The partition must respect multiplication and negation and separate 0
    from 1 (violations raise with the offending tuple).  The induced
    addition is existential: abar lies in bbar + cbar iff a' is in b' + c'
    for some representatives of the three classes.  Sum-compatibility is
    enforced by verifying the hyperfield axioms of the result: partitions
    coming from multiplicative sets do not satisfy per-pair equality of
    summed class images, yet their quotients are exactly the localization
    quotients, so per-pair equality would reject the intended inputs.
    """
    classes = [tuple(sorted(c)) for c in partition]
    if not all(classes):
        raise InputError("partition has an empty class")
    seen = [x for c in classes for x in c]
    if sorted(seen) != list(range(F.size)):
        raise InputError("partition does not cover the carrier exactly once")
    class_of = [0] * F.size
    for i, c in enumerate(classes):
        for x in c:
            class_of[x] = i
    if class_of[F.zero] == class_of[F.one]:
        raise ValidationError("0 ~ 1: the congruence is trivial")
    for ci in classes:
        a0 = ci[0]
        for a in ci:
            if class_of[F.neg(a)] != class_of[F.neg(a0)]:
                raise ValidationError(
                    f"negation not respected on class of {a0}", witness=(a0, a)
                )
            for cj in classes:
                b0 = cj[0]
                for b in cj:
                    if class_of[F.mul(a, b)] != class_of[F.mul(a0, b0)]:
                        raise ValidationError(
                            "multiplication not respected", witness=(a0, a, b0, b)
                        )
    Q = _quotient_tables(F, class_of)
    report = check_hyperfield(Q)
    if not report.passed:
        raise ValidationError(
            f"not a congruence: quotient breaks {report.first_failure()[0]}",
            witness=report.first_failure()[1],
        )
    return Q


def squares_pipeline(F: Hyperfield, literal_squares=False) -> Hyperfield:
    """Quotient by the squares of nonzero elements.

    Requires a in a + b for all nonzero a (apply prime_hyperfield first when
    needed).  With literal_squares=True the set T is read off the powerset
    carrier instead ("below a square of anything nonempty"), which makes T
    all nonzero elements and collapses the quotient; the collapse is the
    caller's to inspect, not hidden.
    """
    for a, b in _own_sum_failures(F):
        raise ValidationError(
            f"precondition a in a + b fails at ({a},{b}); apply the prime addition first",
            witness=(a, b),
        )
    if literal_squares:
        T = set(F.nonzero())
    else:
        T = {F.mul(t, t) for t in F.nonzero()}
    return quotient_mod_multiplicative_set(F, T)

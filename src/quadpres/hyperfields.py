"""Finite hyperfields: multivalued addition tables as first-class data.

A Hyperfield object stores the tables of a *candidate* structure; the
constructor enforces only shape-level invariants (nonempty, commutative
addition cells, involutive negation, commutative multiplication with
identity, 0 != 1).  Whether the tables satisfy the
hypermonoid/hypergroup/hyperring/hyperfield laws is decided by
:func:`check_hyperfield`, which reports witnesses.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import itemgetter

from .errors import AxiomReport, InputError, SizeGuardError, ValidationError
from .finitefield import FiniteField, square_classes

MAX_ISO_SEARCH = 12
TRIPLE_BUDGET = 20_000_000  # cap on the triples an exhaustive law check visits


class Hyperfield:
    """The tables of a candidate hyperfield.  Besides them it keeps its
    nonzero ids once, as the tuple ``nonzero()`` returns and as a frozenset,
    which every IsometryContext over it reads instead of building its own;
    neither takes part in equality or the hash, being a function of size
    and zero."""

    __slots__ = ("size", "zero", "one", "names", "_neg", "_mul", "_add", "_nonzero", "_nonzero_set")

    def __init__(self, zero, one, neg, mul, add, names=None):
        size = len(mul)
        if size < 2:
            raise InputError("carrier must have at least 2 elements")
        if not (0 <= zero < size and 0 <= one < size):
            raise InputError("zero/one out of range")
        if zero == one:
            raise ValidationError("zero and one coincide")
        neg = tuple(neg)
        if len(neg) != size or any(not 0 <= x < size for x in neg):
            raise InputError("negation table malformed")
        for a in range(size):
            if neg[neg[a]] != a:
                raise ValidationError(f"negation is not an involution at {a}", witness=(a,))
        mul = tuple(tuple(row) for row in mul)
        ids = set().union(*mul)  # the range checks read the distinct ids and cells once
        if any(len(row) != size for row in mul) or min(ids) < 0 or max(ids) >= size:
            raise InputError("multiplication table malformed")
        # each check reads a whole row at once; only a row that fails is
        # scanned cell by cell for the first witness in (a, b) order
        columns = tuple(zip(*mul))
        for a in range(size):
            if mul[a][one] != a:
                raise ValidationError(f"one is not a multiplicative identity at {a}", witness=(a,))
            if mul[a] != columns[a]:
                b = next(_commutativity_failures(mul, a))[0]
                raise ValidationError(f"multiplication not commutative at ({a},{b})", witness=(a, b))
        if len(add) != size or any(len(row) != size for row in add):
            raise InputError("addition table malformed")
        add = tuple(map(tuple, add))
        try:  # the failing cells are listed only when the distinct cells fail
            cells = set().union(*add)
        except TypeError:  # unhashable cells, such as sets or lists
            cells = None
        if cells is None or any(type(cell) is not frozenset for cell in cells):
            add = tuple(tuple(map(frozenset, row)) for row in add)
            cells = set().union(*add)
        columns = tuple(zip(*add))
        ids = frozenset().union(*cells)
        ok = all(cells) and 0 <= min(ids) and max(ids) < size
        bad = set() if ok else {cell for cell in cells if not cell or any(not 0 <= x < size for x in cell)}
        for a in range(size):
            row = add[a][a:]
            if row == columns[a][a:] and (not bad or bad.isdisjoint(row)):
                continue
            for b, cell in enumerate(row, start=a):
                if not cell:
                    raise ValidationError(f"addition cell ({a},{b}) is empty", witness=(a, b))
                if cell in bad:
                    raise InputError(f"addition cell ({a},{b}) mentions unknown ids")
                if columns[a][b] != cell:
                    raise ValidationError(f"addition not symmetric at ({a},{b})", witness=(a, b))
        self.size = size
        self.zero = zero
        self.one = one
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(size))
        if len(self.names) != size:
            raise InputError("names length does not match carrier size")
        self._neg = neg
        self._mul = mul
        self._add = add
        self._nonzero = tuple(range(zero)) + tuple(range(zero + 1, size))
        self._nonzero_set = frozenset(self._nonzero)

    # -- operations ------------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add(a, self._neg[b])

    def nonzero(self):
        return self._nonzero

    def add_full_table(self):
        return [[sorted(cell) for cell in row] for row in self._add]

    def mul_table(self):
        return [list(row) for row in self._mul]

    def neg_table(self):
        return list(self._neg)

    def id_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element name {name!r}") from None

    def __eq__(self, other):
        if not isinstance(other, Hyperfield):
            return NotImplemented
        return (
            self.size == other.size
            and self.zero == other.zero
            and self.one == other.one
            and self._neg == other._neg
            and self._mul == other._mul
            and self._add == other._add
        )

    def __hash__(self):
        # addition is commutative, so the cells with a <= b determine the table
        upper = tuple(row[a:] for a, row in enumerate(self._add))
        return hash((self.size, self.zero, self.one, self._neg, self._mul, upper))

    def __repr__(self):
        return f"Hyperfield(size={self.size}, names={list(self.names)})"


def _row_failures(left, right):
    """(c, left[c], right[c]) for each c where two rows of cells differ; a
    row that holds costs one tuple comparison."""
    if left != right:
        for c, (x, y) in enumerate(zip(left, right)):
            if x != y:
                yield c, x, y


def _commutativity_failures(op, a):
    """(b, ab, ba) wherever they differ: row a of the table ``op`` against its column."""
    return _row_failures(op[a], tuple(map(itemgetter(a), op)))


def _associativity_failures(op, a, b):
    """(c, a(bc), (ab)c) wherever they differ in the table ``op``, a row of c's per (a, b)."""
    return _row_failures(tuple(map(op[a].__getitem__, op[b])), op[op[a][b]])


def _distributivity_failures(add, ma, image):
    """(b, c, a(b + c), ab + ac) wherever the two differ, a row b at a time;
    ``ma`` is a's row of the products and ``image`` maps a cell of ``add`` to
    its product with a (a frozenset for set-valued sums)."""
    for b, row in enumerate(add):
        left = tuple(map(image, row))
        right = tuple(map(add[ma[b]].__getitem__, ma))
        for c, lhs, rhs in _row_failures(left, right):
            yield b, c, lhs, rhs


def _multiplicative_failures(F: Hyperfield, scalars):
    """The hyperring laws as (axiom, witness) pairs, lazily, with the scaled
    coordinate of each triple law taken from the sorted ``scalars``: a(bc) =
    (ab)c, 0a = 0 at every a, and a(b + c) = ab + ac.  Each triple law is
    compared a table row at a time, so witnesses come in (a, b, c) order."""
    z, mul, add = F.zero, F._mul, F._add
    for a in scalars:
        for b in range(F.size):
            for c, _, _ in _associativity_failures(mul, a, b):
                yield "mul.associative", (a, b, c)
    yield from (("hyperring.i", (a,)) for a in range(F.size) if mul[z][a] != z)
    cells = set().union(*add)
    for a in scalars:
        image = {cell: frozenset(map(mul[a].__getitem__, cell)) for cell in cells}
        for b, c, lhs, rhs in _distributivity_failures(add, mul[a], image.__getitem__):
            yield "hyperring.ii", (a, b, c, sorted(lhs), sorted(rhs))


def _multiplicative_laws_hold(F: Hyperfield) -> bool:
    """A check in O(g n^2) that proves the hyperring and hyperfield levels.

    It holds when F* is closed and every element has an inverse, -b = b(-1)
    for every b, 0 + 0 = {0}, and :func:`_multiplicative_failures` finds
    nothing with a generating set of g elements of F* as the scalars.
    Light's test: the g with g(xy) = (gx)y for all x, y are closed under
    products, so the generators give associativity, as the middle form
    (xg)y = x(gy) does (the constructor makes * commutative, so this form
    is also (yx)g = y(xg)).  The a with a(b + c) = ab + ac are closed under
    products once * is associative.  At a = 0 that law is one cell: 0 is
    absorbing and no cell is empty, so 0(b + c) = {0} and 0b + 0c = 0 + 0,
    and it holds iff 0 + 0 = {0}.
    The generators come from greedy closure of {1} under right
    multiplication.  In a group a new generator at least doubles the
    subgroup reached (Lagrange), so when one does not, F* is no group and
    the laws fail; this keeps g at most log2(n) + 1.
    """
    z, one, nz, mul = F.zero, F.one, F.nonzero(), F._mul
    if any(mul[x].count(z) != 1 or one not in mul[x] for x in nz):
        return False
    minus = F.neg(one)
    if any(F.neg(b) != mul[b][minus] for b in range(F.size)):
        return False
    if F._add[z][z] != {z}:
        return False
    gens, reached, seen = [], [one], {one}
    for x in nz:
        if x in seen:
            continue
        gens.append(x)
        before = len(reached)
        for r in reached:
            for g in gens:
                y = mul[r][g]
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
        if len(reached) < 2 * before:
            return False
    return next(_multiplicative_failures(F, gens), None) is None


def _additive_levels(F: Hyperfield, scalars) -> AxiomReport:
    """The hypermonoid and hypergroup levels of the ladder, with the scaled
    coordinate of each triple law taken from the sorted ``scalars``.

    Each triple law is checked a table row at a time, and only a row that
    fails is scanned cell by cell, so witnesses come in (a, b, c) order.
    Scalar 0 is skipped where hypermonoid.i makes the law hold.
    """
    z, add, neg = F.zero, F._add, F._neg
    cells = set().union(*add)
    failures = [
        ("hypermonoid.i", (a, sorted(add[a][z]))) for a in range(F.size) if add[a][z] != {a}
    ]
    identity = not failures
    for a in scalars:
        if a == z and identity:
            continue  # 0 + x = {x} makes both sides b + c
        row_a = add[a]
        image = {cell: frozenset().union(*map(row_a.__getitem__, cell)) for cell in cells}
        for b, row in enumerate(add):
            ab = row_a[b]
            if len(ab) == 1:
                (y,) = ab
                right = add[y]
            else:
                right = tuple(map(frozenset().union, *map(add.__getitem__, ab)))
            left = tuple(map(image.__getitem__, row))
            for c, lhs, rhs in _row_failures(left, right):
                failures.append(("hypermonoid.iii", (a, b, c, sorted(lhs), sorted(rhs))))
    if failures:
        return AxiomReport("none", failures)

    failures = [("hypergroup.i", (a,)) for a in range(F.size) if z not in add[a][neg[a]]]
    reversals = []
    for b in scalars:
        if b == z and neg[z] == z:
            continue  # a in 0 + c = {c} means a = c, and c is in c + 0
        nb = neg[b]
        reversals += [
            (a, b, c) for c, cell in enumerate(add[b]) for a in cell if c not in add[a][nb]
        ]
    failures += [("hypergroup.ii", w) for w in sorted(reversals)]
    if failures:
        return AxiomReport("hypermonoid", failures)
    return AxiomReport("hypergroup")


def check_hyperfield(F: Hyperfield) -> AxiomReport:
    """Run the full axiom ladder, stopping at the first failed level.

    Levels, in order: hypermonoid (neutral element, set-valued
    associativity), hypergroup (0 in a-a, reversibility), hyperring
    (multiplicative associativity, distributivity, absorbing zero),
    hyperfield (nonzero multiplicative inverses).  All failures within the
    failing level are reported.  The Hyperfield constructor already enforces
    the remaining laws: commutative addition, commutative multiplication
    with identity one, and 0 != 1.

    When the multiplicative laws hold (:func:`_multiplicative_laws_hold`,
    O(g n^2)), that check has already proved the hyperring and hyperfield
    levels at every triple: multiplicative associativity (Light's test),
    the absorbing zero, distributivity and inverses.  The ladder then stops
    after the hypergroup level, and its two triple laws are checked at
    scalars 0 and 1 only, in O(n^2) triples.  Scaling by a unit u is a
    bijection of the carrier with u(x + y) = ux + uy, so each law at a
    scaled triple holds iff it holds at the scalar triple:

    - + associativity at a != 0: a^-1((a + b) + c) = (1 + a^-1 b) + a^-1 c,
      and likewise for a + (b + c).
    - reversibility at b != 0: scaling by b^-1 maps a in b + c, c in a - b
      onto the case b = 1, because -b = b(-1).

    Scalar 0 needs no check once hypermonoid.i (0 + x = {x}) holds: both
    sides of + associativity at a = 0 are then b + c, and reversibility at
    b = 0 reads c in c + 0 (-0 = 0 here).  So it is checked only when
    hypermonoid.i fails, to report its witnesses there too.

    A failing level then reports its witnesses at the scalar triples only;
    the level passed is the one the full ladder finds.  When the check
    fails, every triple is checked, and a carrier whose n^3 triples
    exceed TRIPLE_BUDGET is refused with SizeGuardError.  Either way each
    triple law is compared a whole table row at a time.
    """
    proved = _multiplicative_laws_hold(F)
    if not proved and F.size**3 > TRIPLE_BUDGET:
        raise SizeGuardError(
            f"{F.size} elements fail the multiplicative laws; the full ladder needs "
            f"{F.size**3} triples, budget {TRIPLE_BUDGET}"
        )
    report = _additive_levels(F, sorted((F.zero, F.one)) if proved else range(F.size))
    if report.failures:
        return report
    if not proved:
        failures = list(_multiplicative_failures(F, range(F.size)))
        if failures:
            return AxiomReport("hypergroup", failures)
        failures = [("hyperfield.inverses", (a,)) for a in F.nonzero() if F.one not in F._mul[a]]
        if failures:
            return AxiomReport("hyperring", failures)
    return AxiomReport("hyperfield")


def from_field(k: FiniteField) -> Hyperfield:
    """The hyperfield with singleton addition a + b = {a+b}."""
    singletons = [frozenset([x]) for x in range(k.q)]
    add = [itemgetter(*row)(singletons) for row in k._add]
    names = [k.element_name(a) for a in range(k.q)]
    return Hyperfield(zero=0, one=1, neg=k._neg, mul=k._mul, add=add, names=names)


def _quotient_tables(F, class_of):
    """The quotient of F whose classes are numbered by ``class_of``.

    abar is in bbar + cbar iff a' is in b' + c' for some members of the three
    classes; every class is represented and named by its least member.
    """
    m = max(class_of) + 1
    reps = [None] * m
    for x in reversed(range(F.size)):
        reps[class_of[x]] = x
    # gather the members of the cells (a, b), a <= b, per class pair; the
    # classes of a union are the union of the classes, so each unordered
    # pair of classes is mapped to classes once
    members = [[set() for _ in range(m)] for _ in range(m)]
    for a, row in enumerate(F._add):
        out = members[class_of[a]]
        for b, cell in enumerate(row[a:], start=a):
            out[class_of[b]] |= cell
    add = [[None] * m for _ in range(m)]
    for i, row in enumerate(members):
        for j in range(i, m):
            add[i][j] = add[j][i] = frozenset(map(class_of.__getitem__, row[j] | members[j][i]))
    neg = [class_of[F.neg(r)] for r in reps]
    mul = [[class_of[F.mul(ra, rb)] for rb in reps] for ra in reps]
    names = [F.names[r] for r in reps]
    return Hyperfield(
        zero=class_of[F.zero], one=class_of[F.one], neg=neg, mul=mul, add=add, names=names
    )


def quotient_by_subgroup(F: Hyperfield, T) -> Hyperfield:
    """Quotient hyperfield of F modulo a subgroup T of its nonzero elements.

    Classes are chains of meeting orbits: x ~ y iff there are x = x_0, x_1,
    ..., x_n = y with each orbit x_i T meeting the next.  In a hyperfield the
    orbits partition the carrier, so this is x ~ y iff xs = yt for some s, t
    in T.  Membership in the induced addition is inherited elementwise from
    the class members.
    """
    T = frozenset(T)
    if not T:
        raise ValidationError("T is empty")
    if F.zero in T:
        raise ValidationError("T contains zero", witness=(F.zero,))
    for s in T:
        if not isinstance(s, int) or not 0 <= s < F.size:
            raise InputError(f"unknown id {s!r} in T")
    # each orbit aT is one row read (T's first id read twice keeps the read a
    # tuple when |T| = 1); only a failing s is rescanned for its witness
    read = itemgetter(*T, next(iter(T)))
    orbits = [frozenset(read(row)) for row in F._mul]
    for s in T:
        if not orbits[s] <= T:
            t = next(t for t in T if F.mul(s, t) not in T)
            raise ValidationError(f"T not multiplicatively closed at ({s},{t})", witness=(s, t))
        if F.one not in orbits[s]:
            raise ValidationError(f"{s} has no inverse inside T", witness=(s,))
    parent = list(range(F.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # elements with equal orbits are one node, led by their least element;
    # join each node to the first node whose orbit reached each of its members
    leader, owner = {}, {}
    for a, orbit in enumerate(orbits):
        leader.setdefault(orbit, a)
    for orbit, a in leader.items():
        for x in orbit:
            first = owner.setdefault(x, a)
            if first != a:
                ra, rf = find(a), find(first)
                parent[max(ra, rf)] = min(ra, rf)
    ids = {}
    class_of = [ids.setdefault(find(leader[orbit]), len(ids)) for orbit in orbits]
    return _quotient_tables(F, class_of)


def prime_hyperfield(F: Hyperfield) -> Hyperfield:
    """Replace addition by the three-case prime addition.

    Sums with 0 are unchanged; for nonzero a != -b the cell gains {a, b};
    for a = -b != 0 the cell becomes the whole carrier.
    """
    report = check_hyperfield(F)
    if not report.passed:
        raise ValidationError(
            f"prime addition needs a hyperfield; first failure {report.first_failure()}"
        )
    full = frozenset(range(F.size))
    singles = [frozenset((b,)) for b in range(F.size)]
    z, neg = F.zero, F._neg
    add = []
    for a, row in enumerate(F._add):
        if a != z:
            # cell (a, b) for b < a is cell (b, a) of a row already built
            cells = [built[a] for built in add]
            cells += map(frozenset.union, row[a:], singles[a:], repeat(singles[a]))
            cells[z], cells[neg[a]] = row[z], full
            row = cells
        add.append(row)
    return Hyperfield(
        zero=F.zero, one=F.one, neg=F.neg_table(), mul=F.mul_table(), add=add, names=F.names
    )


def _own_sum_failures(F: Hyperfield):
    """(a, b), in (a, b) order, wherever a nonzero a is not in a + b: the law
    that the prime addition makes hold, read a table row at a time."""
    for a in F.nonzero():
        yield from ((a, b) for b, cell in enumerate(F._add[a]) if a not in cell)


def quadratic_hyperfield(k: FiniteField) -> Hyperfield:
    """Square-class quotient of k with the prime addition (uniform in char).

    The quotient is built in O(q) from the classes of 1 + y.  By
    homogeneity, bs + ct = b(s + (c/b)t) for nonzero b and squares s, t, so
    the class cell (i, j) is i * one_plus[j/i], where one_plus[c] holds the
    classes of 1 + y for y in class c; cells with 0 are singletons.  Classes
    are those of :func:`square_classes` (0, the squares, then, for odd q
    where the squares have index 2, the class of the least non-square),
    numbered as :func:`quotient_by_subgroup` numbers them and named by their
    least members, so the result equals
    ``prime_hyperfield(quotient_by_subgroup(from_field(k), squares))``;
    ``cli pipeline`` compares the two paths table for table.
    """
    sq = square_classes(k)
    reps = [min(c) for c in sq.classes]
    class_of = sq.class_of
    m = len(reps)
    mul = [[class_of[k.mul(r, s)] for s in reps] for r in reps]
    one_plus = [set() for _ in range(m)]
    for y in range(k.q):
        one_plus[class_of[y]].add(class_of[k.add(1, y)])
    inv = [0] + [class_of[k.inv(r)] for r in reps[1:]]
    add = [[{j} for j in range(m)]]
    add += [[{mul[i][c] for c in one_plus[mul[j][inv[i]]]} for j in range(m)] for i in range(1, m)]
    pre = Hyperfield(
        zero=0,
        one=1,
        neg=[class_of[k.neg(r)] for r in reps],
        mul=mul,
        add=add,
        names=[k.element_name(r) for r in reps],
    )
    return prime_hyperfield(pre)


def euclidean_hyperfield() -> Hyperfield:
    """The 3-element hyperfield {0, 1, -1} of a field with two square classes.

    1 + 1 = {1}, -1 + -1 = {-1}, and 1 + (-1) is the whole carrier.
    """
    full = frozenset({0, 1, 2})
    add = [
        [frozenset({0}), frozenset({1}), frozenset({2})],
        [frozenset({1}), frozenset({1}), full],
        [frozenset({2}), full, frozenset({2})],
    ]
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    return Hyperfield(zero=0, one=1, neg=(0, 2, 1), mul=mul, add=add, names=("0", "1", "-1"))


def _mul_order(F, a):
    x, k = a, 1
    while x != F.one:
        x = F.mul(x, a)
        k += 1
        if k > F.size:
            return None  # not a unit; profiles still comparable
    return k


def _profile(F, a):
    row_sizes = tuple(sorted(len(F.add(a, b)) for b in range(F.size)))
    return (
        a == F.zero,
        a == F.one,
        F.neg(a) == a,
        _mul_order(F, a) if a != F.zero else 0,
        len(F.add(a, a)),
        a in F.add(a, a),
        row_sizes,
    )


def _isomorphism_search(n, fixed, prof1, prof2, ops):
    """A bijection of range(n) preserving profiles and operations, or None.

    ``fixed`` holds forced images (0 -> 0, 1 -> 1); every other element is
    tried against the same-profile candidates in id order.  ``ops`` lists
    (arity, op1, op2) triples whose values are ids or frozensets of ids; a
    partial map is pruned as soon as an operation on mapped arguments with a
    mapped value disagrees, so a complete map that survives is an isomorphism.
    """
    if sorted(prof1) != sorted(prof2):
        return None
    if any(prof1[a] != prof2[fa] for a, fa in fixed.items()):
        return None
    mapping = dict(fixed)
    domain = [a for a in range(n) if a not in mapping]

    def consistent():
        for arity, op1, op2 in ops:
            for args in product(mapping, repeat=arity):
                value = op1(*args)
                if isinstance(value, frozenset):
                    if not value <= mapping.keys():
                        continue
                    image = frozenset(mapping[x] for x in value)
                elif value in mapping:
                    image = mapping[value]
                else:
                    continue
                if image != op2(*(mapping[x] for x in args)):
                    return False
        return True

    def backtrack(i):
        if i == len(domain):
            return True
        a = domain[i]
        for fa in range(n):
            if fa in mapping.values() or prof2[fa] != prof1[a]:
                continue
            mapping[a] = fa
            if consistent() and backtrack(i + 1):
                return True
            del mapping[a]
        return False

    return dict(mapping) if consistent() and backtrack(0) else None


def hyperfield_isomorphic(F1: Hyperfield, F2: Hyperfield):
    """A bijection preserving 0, 1, neg, mul and hyperaddition, or None.

    Backtracking with 0 -> 0, 1 -> 1 fixed and candidate images restricted
    to elements with the same invariant profile.
    """
    if F1.size > MAX_ISO_SEARCH or F2.size > MAX_ISO_SEARCH:
        raise SizeGuardError(f"isomorphism search capped at carrier {MAX_ISO_SEARCH}")
    for F in (F1, F2):
        rep = check_hyperfield(F)
        if not rep.passed:
            raise ValidationError(f"input is not a hyperfield: {rep.first_failure()}")
    if F1.size != F2.size:
        return None
    return _isomorphism_search(
        F1.size,
        {F1.zero: F2.zero, F1.one: F2.one},
        [_profile(F1, a) for a in range(F1.size)],
        [_profile(F2, a) for a in range(F2.size)],
        [(1, F1.neg, F2.neg), (2, F1.mul, F2.mul), (2, F1.add, F2.add)],
    )

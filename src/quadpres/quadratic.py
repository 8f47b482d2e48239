"""Forms over quadratically presentable fields, at supercompact level.

Forms are tuples of nonzero elements of a hyperfield F (the supercompacts of
the powerset field P*(F) are its singletons, so working in F directly loses
nothing).

Every public form question is decided by one engine, a fold over value sets:
<a1, ..., an> is isotropic iff 0 is in the iterated hypersum a1 + ... + an,
and the hyperbolic split is read off the fold's provenance (n * m^2 cell
lookups for m elements).  Stripping planes until none splits gives the
anisotropic part.  phi and psi are Witt equivalent iff phi + (-psi) strips to
the zero class, and isometric iff they also have equal dimensions (Witt
cancellation).  These criteria assume a quadratically presentable field;
`cli witt` checks the field first, and `cli isom` refuses tables that are not
pre-quadratic hyperfields.

The paper's inductive isometry is _inductive_isometry: unary forms by
equality, binary forms by _binary_isometry (equal products plus membership of
the head in the hypersum), higher dimensions by the three-clause existential
recursion, on raw (unsorted) entry tuples.  It is the engine of
check_quadratic and check_special_group, which must not assume the laws they
check, and the reference the tests compare the fold against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import comb
from typing import Optional

from .errors import InputError, SizeGuardError, ValidationError
from .hyperfields import (
    TRIPLE_BUDGET,
    AxiomReport,
    Hyperfield,
    _associativity_failures,
    _commutativity_failures,
    _isomorphism_search,
    _own_sum_failures,
)

CANDIDATE_BUDGET = 200_000     # cap on witt_ring's class enumeration (multisets up to dmax)
RING_ISO_MAX = 16


@dataclass(frozen=True)
class Form:
    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise InputError("forms must have dimension >= 1")

    @property
    def dim(self):
        return len(self.entries)

    def __repr__(self):
        return "<" + ",".join(str(e) for e in self.entries) + ">"


def orthogonal_sum(phi: Form, psi: Form) -> Form:
    return Form(phi.entries + psi.entries)


def tensor_product(F: Hyperfield, phi: Form, psi: Form) -> Form:
    return Form(tuple(F.mul(a, b) for a in phi.entries for b in psi.entries))


def form_product(F: Hyperfield, entries) -> int:
    out = F.one
    for a in entries:
        out = F.mul(out, a)
    return out


def check_prequadratic(F: Hyperfield) -> AxiomReport:
    """The three axioms: a in a+b for nonzero a; the 1-b product rule;
    squares of nonzero elements are 1.  The product rule is one set
    inclusion (1 - b) & (1 - c) <= 1 - bc per pair (b, c)."""
    failures = [("prequadratic.i", w) for w in _own_sum_failures(F)]
    one_minus = [F.sub(F.one, b) for b in range(F.size)]
    for b, row in enumerate(F._mul):
        for c, bc in enumerate(row):
            missing = (one_minus[b] & one_minus[c]) - one_minus[bc]
            failures += [("prequadratic.ii", (a, b, c)) for a in sorted(missing)]
    for a in F.nonzero():
        if F.mul(a, a) != F.one:
            failures.append(("prequadratic.iii", (a,)))
    return AxiomReport("prequadratic" if not failures else "none", failures)


def _binary_isometry(mul, add):
    """<a1, a2> ~ <b1, b2> iff a1*a2 = b1*b2 and b1 is in a1 + a2, read off a
    multiplication table and a table of sets."""
    return lambda a1, a2, b1, b2: mul[a1][a2] == mul[b1][b2] and b1 in add[a1][a2]


def _inductive_isometry(elements, binary):
    """The memoized extension of ``binary`` to raw entry tuples of equal
    length: <a1..an> ~ <b1..bn> iff <a2..an> ~ <x, cs>, <a1, x> ~ <b1, y> and
    <b2..bn> ~ <y, cs> for some x, y, cs over ``elements``.  Candidates are
    all tuples, not multisets, so the recursion does not rely on permutation
    invariance, which is one of the laws the checkers check."""
    memo = {}

    def iso(a, b):
        if len(a) == 1:
            return a[0] == b[0]
        if len(a) == 2:
            return binary(a[0], a[1], b[0], b[1])
        key = (a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tail_a = a[1:]
        tail_b = b[1:]
        found = False
        for cs in product(elements, repeat=len(a) - 2):
            for x in elements:
                if not iso(tail_a, (x,) + cs):
                    continue
                for y in elements:
                    if not binary(a[0], x, b[0], y):
                        continue
                    if iso(tail_b, (y,) + cs):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        memo[key] = found
        return found

    return iso


class IsometryContext:
    """Memoized value-set fold over a fixed hyperfield.

    The context assumes a quadratically presentable field: on other tables
    its verdicts need not agree with _inductive_isometry.  Each public
    method validates its input once, then works on entry-sorted tuples.

    A context is single-owner while a computation runs; share the hyperfield,
    not the context.
    """

    def __init__(self, F: Hyperfield):
        self.F = F
        self.nonzero = F.nonzero()
        self._nonzero_set = frozenset(self.nonzero)
        self._neg = F.neg_table()
        self._splits = {}
        self._stripped = {}

    # -- plumbing --------------------------------------------------------

    def _norm(self, entries):
        return tuple(sorted(entries))

    def _entries_of(self, phi):
        entries = phi.entries if isinstance(phi, Form) else tuple(phi)
        if not entries:
            raise InputError("empty form")
        if not self._nonzero_set.issuperset(entries):  # name the first bad entry
            for e in entries:
                if not 0 <= e < self.F.size:
                    raise InputError(f"unknown element id {e}")
                if e == self.F.zero:
                    raise InputError("form entries must be nonzero")
        return entries

    def hyperbolic(self):
        return self._norm((self.F.one, self.F.neg(self.F.one)))

    # -- isometry ----------------------------------------------------------

    def isometric(self, phi, psi) -> bool:
        a = self._entries_of(phi)
        b = self._entries_of(psi)
        if len(a) != len(b):
            raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
        return self._cancels(a, b)

    # -- isotropy and Witt reduction --------------------------------------

    def split_hyperbolic(self, entries) -> Optional[tuple]:
        """The tail psi with entries ~ H + psi, or None if anisotropic."""
        return self._split(self._norm(self._entries_of(entries)))

    def _split(self, entries):
        """split_hyperbolic on validated, sorted entries.

        One value-set fold: prov[k] maps each b in the hypersum of
        entries[k:] to one x in the hypersum of entries[k+1:] (that of no
        entries is {0}) with b in entries[k] + x.  The form is isotropic iff
        0 is in the hypersum of all its entries, and the tail is read off
        the provenance.
        """
        if entries in self._splits:
            return self._splits[entries]
        F, zero = self.F, self.F.zero
        n = len(entries)
        prov = [None] * n + [{zero: None}]
        for k in range(n - 1, -1, -1):
            row = {}
            for x in prov[k + 1]:
                for b in F.add(entries[k], x):
                    row.setdefault(b, x)
            prov[k] = row
        tail = None
        if zero in prov[0]:
            # keep heads while the rest is isotropic; entries[n-1:] never is
            k = 0
            while zero in prov[k + 1]:
                k += 1
            tail = list(entries[:k])
            # entries[k+1:] is anisotropic and represents b = -entries[k]:
            # walk b's provenance, using <a, x> ~ <b, a*x*b> when b in a + x
            b = prov[k][zero]
            for j in range(k + 1, n):
                x = prov[j][b]
                if x == zero:
                    tail += entries[j + 1:]
                    break
                tail.append(F.mul(F.mul(entries[j], x), b))
                b = x
            tail = self._norm(tail)
        self._splits[entries] = tail
        return tail

    def is_isotropic(self, phi) -> bool:
        return self.split_hyperbolic(phi) is not None

    def anisotropic_entries(self, entries) -> tuple:
        """Strip hyperbolic planes until nothing splits; () is the zero class."""
        return self._strip(self._norm(self._entries_of(entries)))

    def _strip(self, entries):
        """anisotropic_entries on validated, sorted entries."""
        hit = self._stripped.get(entries)
        if hit is not None:
            return hit
        tail = self._split(entries)
        if tail is None:
            result = entries
        elif not tail:
            result = ()
        else:
            result = self._strip(tail)
        self._stripped[entries] = result
        return result

    def anisotropic_part(self, phi) -> Optional[Form]:
        part = self.anisotropic_entries(phi)
        return Form(part) if part else None

    def witt_equivalent(self, phi, psi) -> bool:
        return self._cancels(self._entries_of(phi), self._entries_of(psi))

    def _cancels(self, a, b):
        """Whether a + (-b) strips to the zero class; a and b are validated."""
        minus_b = tuple(map(self._neg.__getitem__, b))
        if self.F.zero in minus_b:
            raise InputError("negation sends a nonzero form entry to zero")
        return not self._strip(self._norm(a + minus_b))

    def _canonical(self, entries):
        """The lexicographically least sorted form isometric to phi, given as
        validated, sorted ``entries``.

        The head is the least c for which entries + <-c> splits, that is, the
        least value c of phi.  The split's tail phi' has
        phi + <-c> ~ <c, -c> + phi', so phi ~ <c> + phi' by Witt cancellation,
        and the head of phi' comes next.

        Least: every entry b of a sorted form psi ~ phi is a value of psi (b
        is in b + x by the axiom a in a + b), hence of phi, since isometric
        forms have the same values.  So psi[0] >= c, and when psi[0] = c,
        Witt cancellation gives psi[1:] ~ phi'; induct.  Sorted: the values
        of phi' are values of <c> + phi' by the same axiom, so no head is
        less than the one before.
        """
        out = []
        while entries:
            for c in self.nonzero:
                tail = self._split(self._norm(entries + (self._neg[c],)))
                if tail is not None:
                    break
            out.append(c)
            entries = tail
        return tuple(out)


def isometric(F, phi, psi) -> bool:
    return IsometryContext(F).isometric(phi, psi)


def _equivalence_failures(items, related, name):
    """Reflexivity, symmetry and transitivity witnesses of a relation.

    The relation is tabulated once over ``items``; failures are named
    ``name.format(law)`` and carry (s,), (s, t) or (s, t, u).
    """
    table = {(s, t): related(s, t) for s in items for t in items}
    failures = [(name.format("reflexive"), (s,)) for s in items if not table[(s, s)]]
    for s in items:
        for t in items:
            if table[(s, t)] and not table[(t, s)]:
                failures.append((name.format("symmetric"), (s, t)))
    nbrs = {s: [t for t in items if table[(s, t)]] for s in items}
    for s in items:
        for t in nbrs[s]:
            for u in nbrs[t]:
                if not table[(s, u)]:
                    failures.append((name.format("transitive"), (s, t, u)))
    return failures


def check_quadratic(F: Hyperfield, dmax: int) -> AxiomReport:
    """Equivalence of the isometry relation up to dimension dmax.

    Runs the pre-quadratic axioms first (the report names the first broken
    layer), then reflexivity/symmetry/transitivity exhaustively per dimension
    on raw (unsorted) decisions.  notes["low_dims"] records dims 1-2
    separately: those are guaranteed for any pre-quadratic field.
    """
    pre = check_prequadratic(F)
    if not pre.passed:
        return AxiomReport("none", pre.failures, notes={"layer": "prequadratic"})
    nz = F.nonzero()
    m = len(nz)
    if (m**dmax) ** 3 > TRIPLE_BUDGET:
        raise SizeGuardError(
            f"{m} classes at dmax {dmax} give {(m**dmax)**3} triples; "
            f"budget {TRIPLE_BUDGET}"
        )
    iso = _inductive_isometry(nz, _binary_isometry(F._mul, F._add))
    failures = []
    notes = {"dims_checked": dmax, "low_dims": None}
    for d in range(1, dmax + 1):
        forms = list(product(nz, repeat=d))
        failures += _equivalence_failures(forms, iso, f"equivalence.{{}}.dim{d}")
        if d == 2:
            notes["low_dims"] = not failures
    level = "quadratic" if not failures else "prequadratic"
    return AxiomReport(level, failures, notes=notes)


# -- Witt rings ------------------------------------------------------------


@dataclass(frozen=True)
class WittClass:
    """An anisotropic representative, or None for the zero class."""

    representative: Optional[Form]

    @property
    def normalized(self):
        if self.representative is None:
            return ()
        return tuple(sorted(self.representative.entries))

    @property
    def dim(self):
        return 0 if self.representative is None else self.representative.dim

    def __repr__(self):
        return "WittClass(0)" if self.representative is None else f"WittClass({self.representative})"


@dataclass
class WittRing:
    """Witt classes with their sum and product tables.

    A table entry is None when the class of a sum or product was not among
    the found classes.  The ring is finite iff no entry is None: every form
    is a sum of unary forms and every unary class is found at dim 1, so
    closed tables hold the whole ring.
    """

    classes: list
    add_table: list
    mul_table: list
    zero_class: int
    one_class: int
    growth: list  # new anisotropic classes found per dimension 1..dmax

    @property
    def size(self):
        return len(self.classes)

    @property
    def status(self):
        tables = (self.add_table, self.mul_table)
        closed = all(x is not None for table in tables for row in table for x in row)
        return "finite" if closed else "truncated"

    def summary(self):
        if self.status == "finite":
            return f"W: finite, {self.size} classes"
        dmax = len(self.growth)
        if len(set(self.growth)) == 1:
            return f"W: truncated at dim {dmax}, growth {self.growth[0]} per dim"
        return f"W: truncated at dim {dmax}, growth {self.growth}"


def witt_ring(F: Hyperfield, dmax: int) -> WittRing:
    """Enumerate anisotropic classes up to dmax and build the class tables.

    Each class is represented by its least isometric sorted form
    (IsometryContext._canonical), so classes are looked up by that form.
    Addition concatenates then strips hyperbolic planes; multiplication
    tensors then strips.  A sum or product whose anisotropic part is not
    among the found classes stays None, and the ring reads as "finite"
    exactly when no entry is None.
    """
    if dmax < 2:
        raise InputError("dmax must be at least 2 (the hyperbolic plane has dim 2)")
    ctx = IsometryContext(F)
    nz = ctx.nonzero
    if comb(dmax + len(nz) - 1, len(nz) - 1) > CANDIDATE_BUDGET:
        raise SizeGuardError(
            f"{len(nz)} classes at dmax {dmax} exceed the enumeration budget {CANDIDATE_BUDGET}"
        )
    reps = [()]  # anisotropic entries per class; () is the zero class
    growth = []
    for d in range(1, dmax + 1):
        before = len(reps)
        for cand in combinations_with_replacement(nz, d):
            if not ctx.is_isotropic(cand) and ctx._canonical(cand) == cand:
                reps.append(cand)
        growth.append(len(reps) - before)
    index = {rep: i for i, rep in enumerate(reps)}

    def class_index(entries):
        part = ctx.anisotropic_entries(entries) if entries else ()
        if len(part) > dmax:
            return None
        if part not in index:
            part = ctx._canonical(part)
        return index.get(part)

    one_class = class_index((F.one,))
    n = len(reps)
    add_table = [[None] * n for _ in range(n)]
    mul_table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ei, ej = reps[i], reps[j]
            add_table[i][j] = add_table[j][i] = class_index(ei + ej)
            prod = tuple(F.mul(a, b) for a in ei for b in ej)
            mul_table[i][j] = mul_table[j][i] = class_index(prod)
    return WittRing(
        classes=[WittClass(Form(e) if e else None) for e in reps],
        add_table=add_table,
        mul_table=mul_table,
        zero_class=0,
        one_class=one_class,
        growth=growth,
    )


def _additive_order(W, i):
    x = i
    for k in range(1, W.size + 1):
        if x == W.zero_class:
            return k
        x = W.add_table[x][i]
    return 0  # zero not reached within size (tables inconsistent); real orders are >= 1


def ring_isomorphic(W1: WittRing, W2: WittRing):
    """A table bijection preserving 0, 1, + and x between finite Witt rings."""
    for W in (W1, W2):
        if W.status != "finite":
            raise InputError("ring_isomorphic needs finite Witt rings; got truncated input")
        if W.size > RING_ISO_MAX:
            raise SizeGuardError(f"ring isomorphism search capped at {RING_ISO_MAX} classes")
    if W1.size != W2.size:
        return None
    return _isomorphism_search(
        W1.size,
        {W1.zero_class: W2.zero_class, W1.one_class: W2.one_class},
        [_additive_order(W1, i) for i in range(W1.size)],
        [_additive_order(W2, i) for i in range(W2.size)],
        [
            (2, lambda a, b: W1.add_table[a][b], lambda a, b: W2.add_table[a][b]),
            (2, lambda a, b: W1.mul_table[a][b], lambda a, b: W2.mul_table[a][b]),
        ],
    )


# -- special groups ---------------------------------------------------------


@dataclass(frozen=True)
class SpecialGroupTable:
    """An exponent-2 group with a distinguished -1 and a binary isometry
    relation on pairs, all at table level."""

    mul: tuple
    identity: int
    minus_one: int
    binary_isometry: frozenset
    names: tuple

    @property
    def size(self):
        return len(self.mul)

    def related(self, pair1, pair2):
        return (pair1, pair2) in self.binary_isometry


def special_group_of(F: Hyperfield) -> SpecialGroupTable:
    """Extract (nonzero elements, binary isometry, -1) from a quadratically
    presentable hyperfield; refuses if squares are not 1."""
    pre = check_prequadratic(F)
    if not pre.passed:
        raise ValidationError(
            f"extraction needs a pre-quadratic field; first failure {pre.first_failure()}"
        )
    nz = sorted(F.nonzero())
    index = {x: i for i, x in enumerate(nz)}
    mul = tuple(tuple(index[F.mul(a, b)] for b in nz) for a in nz)
    binary = _binary_isometry(F._mul, F._add)
    rel = frozenset(
        ((index[a], index[b]), (index[c], index[d]))
        for a, b, c, d in product(nz, repeat=4) if binary(a, b, c, d)
    )
    return SpecialGroupTable(
        mul=mul,
        identity=index[F.one],
        minus_one=index[F.neg(F.one)],
        binary_isometry=rel,
        names=tuple(F.names[x] for x in nz),
    )


def check_special_group(S: SpecialGroupTable, nmax: int = 4) -> AxiomReport:
    """Verify the six pre-special axioms and that the inductive n-ary
    extension stays an equivalence up to nmax."""
    g = range(S.size)
    if any(len(row) != S.size or any(x not in g for x in row) for row in S.mul):
        raise InputError(f"special group: mul must be a {S.size}x{S.size} table of ids in {g}")
    for name in ("identity", "minus_one"):
        if getattr(S, name) not in g:
            raise InputError(f"special group: {name} {getattr(S, name)!r} is not an id in {g}")
    for pairs in S.binary_isometry:
        if any(x not in g for pair in pairs for x in pair):
            raise InputError(f"special group: binary_isometry entry {pairs} has an id outside {g}")
    if (S.size**nmax) ** 3 > TRIPLE_BUDGET:
        raise SizeGuardError(
            f"{S.size}^{nmax} tuples give {(S.size**nmax)**3} triples; budget {TRIPLE_BUDGET}"
        )
    failures = []
    e = S.identity
    for a in g:
        if S.mul[a][e] != a:
            failures.append(("group.identity", (a,)))
        if S.mul[a][a] != e:
            failures.append(("group.exponent2", (a,)))
        swapped = {b for b, _, _ in _commutativity_failures(S.mul, a)}
        for b in g:
            if b in swapped:
                failures.append(("group.commutative", (a, b)))
            for c, _, _ in _associativity_failures(S.mul, a, b):
                failures.append(("group.associative", (a, b, c)))
    if failures:
        return AxiomReport("none", failures)

    rel = S.binary_isometry
    pairs = [(a, b) for a in g for b in g]
    # dm.i reports a reflexivity failure by the bare pair
    failures += [
        (law, wit[0] if law == "dm.i.reflexive" else wit)
        for law, wit in _equivalence_failures(pairs, S.related, "dm.i.{}")
    ]
    for a in g:
        for b in g:
            if (((a, b), (b, a))) not in rel:
                failures.append(("dm.ii", (a, b)))
    minus = lambda x: S.mul[S.minus_one][x]
    for a in g:
        if (((a, minus(a)), (e, S.minus_one))) not in rel:
            failures.append(("dm.iii", (a,)))
    for (a, b), (c, d) in rel:
        if S.mul[a][b] != S.mul[c][d]:
            failures.append(("dm.iv", ((a, b), (c, d))))
        if (((a, minus(c)), (minus(b), d))) not in rel:
            failures.append(("dm.v", ((a, b), (c, d))))
        for x in g:
            if (((S.mul[x][a], S.mul[x][b]), (S.mul[x][c], S.mul[x][d]))) not in rel:
                failures.append(("dm.vi", ((a, b), (c, d), x)))
    if failures:
        return AxiomReport("group", failures)

    # dm.iv holds, so _binary_isometry on these heads is membership in rel
    heads = [[set() for _ in g] for _ in g]
    for (a, b), (c, _) in rel:
        heads[a][b].add(c)
    iso = _inductive_isometry(g, _binary_isometry(S.mul, heads))
    for n in range(3, nmax + 1):
        failures += _equivalence_failures(list(product(g, repeat=n)), iso, f"iso_{n}.{{}}")
    return AxiomReport("special" if not failures else "prespecial", failures)

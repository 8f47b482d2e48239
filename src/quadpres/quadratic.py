"""Forms over quadratically presentable fields, at supercompact level.

Forms are tuples of nonzero elements of a hyperfield F (the supercompacts of
the powerset field P*(F) are its singletons, so working in F directly loses
nothing).

Every public form question is decided by one fold over value sets:
<a1, ..., an> is isotropic iff 0 is in the iterated hypersum a1 + ... + an.
The fold builds the hypersums of the suffixes from the right and stops at
the first that holds 0, since a form with an isotropic subform is isotropic.
is_isotropic reads only where it stopped; the hyperbolic split walks back
over the rows after the stop (n * m cell lookups each way for m elements).
Stripping planes until none splits gives the anisotropic part, a function of
the form alone: each form on the way loses every visible plane <a, -a> at
once, found by bisection over its runs, and only what is left is folded.
phi and psi are Witt equivalent iff phi + (-psi) strips to the zero class,
and isometric iff they also have equal dimensions (Witt cancellation).
An IsometryContext memoizes each verdict and part by the query as asked, and
probes the memo with the query as passed, so a repeated tuple query is one
dict read: it converts, validates, sorts, negates and folds nothing, since a
tuple hashes and compares as its entries and only a validated query is ever
stored.  isometric checks the dimensions before it probes.
These criteria assume a quadratically presentable field; `cli witt` checks
the field first, and `cli isom` refuses tables that are not pre-quadratic
hyperfields.  On a sorted form, a row that repeats inside a run of equal
entries is every earlier row of the run: O(runs) rows.
witt_ring walks the classes as the sums rep + <a> that do not split, by value
sets alone (rep + <a> splits iff -a is a value of rep), and represents each
class as (c,) + rep_t for a class t found a dimension earlier, so every sum,
scaling and product entry is one lookup in rows filled before it, with no
fold.  An entry past dmax is named by value sets, since phi + psi splits iff
a value of phi is minus one of psi; only a product whose summands a.rep are
not all one class is built, and stripped once per pair-free form it cancels to.

The paper's inductive isometry (unary forms by equality, binary forms by
equal products plus membership of the head in the hypersum, higher
dimensions by the three-clause existential recursion on raw entry tuples) is
decided a dimension at a time, as rows of bits over all tuples, by
_binary_rows and _isometry_rows.  They are the engine of check_quadratic and
check_special_group, which must not assume the laws they check.  The tests
keep the recursion pair by pair as the reference for the rows and the fold.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, product
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
from .posets import _bits

WITT_BUDGET = 100_000_000      # cap on witt_ring's classes^2 * dmax^2 (the entries of every product)
RING_ISO_MAX = 16
_UNSEEN = object()  # a product not yet in witt_ring's memo, whose class may be None


@dataclass(frozen=True)
class Form:
    entries: tuple

    def __post_init__(self):
        entries = self.entries
        if type(entries) is not tuple:
            entries = tuple(entries)
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


def _binary_rows(nz, mul, add):
    """Binary isometry as rows: bit j*m + k of row i*m + l says <nz[i], nz[l]>
    ~ <nz[j], nz[k]>, that is, equal products and nz[j] in nz[i] + nz[l]."""
    m = len(nz)
    return [sum(1 << j * m + k for j, b0 in enumerate(nz) if b0 in add[a0][a1]
                for k, b1 in enumerate(nz) if mul[b0][b1] == mul[a0][a1])
            for a0 in nz for a1 in nz]


def _isometry_rows(binary, m, dmax):
    """Yield the n-ary isometry relation on m elements as rows, d = 2..dmax:
    bit j of rows[d][i] says d-tuple i ~ d-tuple j in ``product`` order, and
    rows[2] is ``binary``.  The paper's recursion, a ~ b iff <a2..an> ~ <x, cs>,
    <a1, x> ~ <b1, y> and <b2..bn> ~ <y, cs> for some tuples x, y, cs (no
    permutation invariance assumed), reads: a ~ b iff block x of a's tail row,
    the cs with tail ~ <x, cs>, meets block y of b's for some <a1, x> ~ <b1, y>."""
    rows = binary
    yield rows
    # pairs[a1][b1]: the (x, y) with <a1, x> ~ <b1, y>
    pairs = [[[(x, y) for x in range(m) for y in range(m) if binary[a1 * m + x] >> b1 * m + y & 1]
              for b1 in range(m)] for a1 in range(m)]
    for d in range(3, dmax + 1):
        width, tails = m ** (d - 2), m ** (d - 1)
        members = {}  # each distinct row of rows[d-1]: the mask of the tails that have it
        for t, r in enumerate(rows):
            members[r] = members.get(r, 0) | 1 << t
        new = {}
        for a1, r in product(range(m), members):
            blocks = [r >> x * width & (1 << width) - 1 for x in range(m)]
            out = 0
            for b1 in range(m):
                reach = 0  # the <y, cs> with tail ~ <x, cs> and <a1, x> ~ <b1, y>
                for x, y in pairs[a1][b1]:
                    reach |= blocks[x] << y * width
                out |= sum(mask for r2, mask in members.items() if r2 & reach) << b1 * tails
            new[a1, r] = out
        rows = [new[a1, r] for a1 in range(m) for r in rows]
        yield rows


class IsometryContext:
    """The value-set fold over a fixed hyperfield, with three memos keyed
    by the validated query exactly as asked, so each holds one entry per
    distinct query: _isotropic maps a form passed to is_isotropic to a
    bool, _cancelled a pair (phi, psi) passed to isometric or
    witt_equivalent to a bool, and _stripped a form passed to
    anisotropic_entries or anisotropic_part to its part.  As with
    functools.lru_cache, a form asked in two entry orders takes two
    entries.  split_hyperbolic is not memoized.

    A memoized method probes its memo with the query as passed, and
    converts and validates only on a miss.  A tuple needs no conversion:
    its hash and equality are those of its entries.  A Form or a list
    misses, and probes again once converted to a new tuple.  That is exact:
    every key passed validation when it was stored, and a dict hit means
    the query equals the key entry by entry with equal hashes, which is the
    set membership validation tests, so a hit would pass it too, and () is
    never stored.  A query that cannot be hashed or sized takes the miss
    path, so every refusal is the validating path's, in the same order.
    isometric probes only when len(phi) == len(psi), since witt_equivalent
    stores pairs of unequal dimension in the same memo.

    The context assumes a quadratically presentable field: on other tables
    its verdicts need not agree with the paper's recursion.  On a miss each
    public method validates its input once, then works on entry-sorted
    tuples.  The nonzero ids and the negation are F's own tables, read,
    not copied, so a fresh context builds nothing but its memos.

    A context is single-owner while a computation runs; share the hyperfield,
    not the context.
    """

    def __init__(self, F: Hyperfield):
        self.F = F
        self.nonzero = F._nonzero
        self._nonzero_set = F._nonzero_set
        self._neg = F._neg
        self._isotropic = {}
        self._cancelled = {}
        self._stripped = {}

    # -- plumbing --------------------------------------------------------

    def _norm(self, entries):
        return tuple(sorted(entries))

    def _entries_of(self, phi):
        entries = phi.entries if isinstance(phi, Form) else tuple(phi)
        if not entries:
            raise InputError("empty form")
        if not self._nonzero_set.issuperset(entries):
            raise self._refusal(entries)
        return entries

    def _refusal(self, entries):
        """The InputError that names the first entry that is not a nonzero id."""
        for e in entries:
            if not isinstance(e, int) or not 0 <= e < self.F.size:
                return InputError(f"unknown element id {e!r}")
            if e == self.F.zero:
                return InputError("form entries must be nonzero")

    def _ints(self, entries):
        """Validated ``entries`` once none is a float or the like equal to an
        id, which the set test of _entries_of lets through.  Only a query
        that misses the memo reads this, after _entries_of, so a warm one
        reads the entry of the equal ids and validates nothing."""
        if type(sum(entries)) is not int:  # a float among ints sums to a float
            raise self._refusal(entries)
        return entries

    def hyperbolic(self):
        return self._norm((self.F.one, self.F.neg(self.F.one)))

    # -- isometry ----------------------------------------------------------

    def isometric(self, phi, psi) -> bool:
        try:
            cancelled = self._cancelled.get((phi, psi)) if len(phi) == len(psi) else None
        except Exception:  # a query that cannot be sized or hashed: converted below
            cancelled = None
        return self._cancels(phi, psi, True) if cancelled is None else cancelled

    # -- isotropy and Witt reduction --------------------------------------

    def split_hyperbolic(self, entries) -> Optional[tuple]:
        """The tail psi with entries ~ H + psi, or None if anisotropic."""
        return self._tail(self._ints(self._norm(self._entries_of(entries))))

    def is_isotropic(self, phi) -> bool:
        """Whether phi splits a hyperbolic plane, that is, whether 0 is in
        its hypersum: whether _fold finds an isotropic suffix."""
        try:
            isotropic = self._isotropic.get(phi)
        except Exception:  # a query that cannot be hashed: converted below
            isotropic = None
        if isotropic is None:
            key = phi.entries if isinstance(phi, Form) else tuple(phi)
            if key is not phi:  # a new tuple, as for a Form or a list
                isotropic = _memo_get(self._isotropic, key)
            if isotropic is None:
                key = self._ints(self._entries_of(key))
                isotropic = self._isotropic[key] = self._fold(self._norm(key))[0] >= 0
        return isotropic

    def _fold(self, entries):
        """The value-set fold of validated, sorted ``entries``: (k, rows),
        where k is the first suffix entries[k:] met from the right whose
        hypersum holds 0, or -1 if none does, and rows[i] is the hypersum
        of the last i entries (that of none is {0}) for each suffix after
        it.  A form with an isotropic subform is isotropic, so k >= 0 iff
        the form is.  A row is a function of its entry and the row after
        it, so once an entry maps the row after it to itself, every earlier
        row of that entry's run is the same row: a form over m classes
        folds in O(runs) rows.  The one-entry suffix holds 0 only on a
        table where a + 0 is not {a}, which is refused here."""
        add, zero = self.F._add, self.F.zero
        k = len(entries) - 1
        row = add[entries[k]][zero]
        if zero in row:
            raise _hypermonoid_i(self.F, entries[k])
        rows = [{zero}, row]
        while k:
            e = entries[k - 1]
            new = set().union(*map(add[e].__getitem__, row))
            k -= 1
            if zero in new:
                return k, rows
            if new == row:
                start = bisect_left(entries, e, 0, k)
                rows += [row] * (k - start)
                k = start
            rows.append(new)
            row = new
        return -1, rows

    def _tail(self, entries):
        """split_hyperbolic on validated, sorted entries.  From the isotropic
        suffix entries[k:] of _fold, entries[:k] stay, and entries[k+1:],
        anisotropic, represents b = -entries[k]: walk the rows, taking for
        each entry a the first x of the row after it with b in a + x, and
        use <a, x> ~ <b, a*x*b> to move b down the form."""
        k, rows = self._fold(entries)
        if k < 0:
            return None
        add, mul, zero = self.F._add, self.F._mul, self.F.zero
        tail, b = list(entries[:k]), zero
        for a, after in zip(entries[k:-1], reversed(rows)):
            for x in after:
                if b in add[a][x]:
                    break
            if b != zero:
                tail.append(mul[mul[a][x]][b])
            b = x
        return self._norm(tail)

    def anisotropic_entries(self, entries) -> tuple:
        """Strip hyperbolic planes until nothing splits; () is the zero class.
        The representative is _strip's, the same on every context: each form
        loses its pairs <a, -a> first, and what is left is split by _tail.
        Memoized for the form as asked, and for none met on the way."""
        try:
            part = self._stripped.get(entries)
        except Exception:  # a query that cannot be hashed: converted below
            part = None
        if part is None:
            key = entries.entries if isinstance(entries, Form) else tuple(entries)
            if key is not entries:  # a new tuple, as for a Form or a list
                part = _memo_get(self._stripped, key)
            if part is None:
                key = self._ints(self._entries_of(key))
                part = self._stripped[key] = self._strip(self._norm(key))
        return part

    def _strip(self, entries):
        """The anisotropic part of validated, sorted entries, as a loop.

        Which representative: the last form of a chain that starts at
        entries and ends at a form that does not split.  Each form of the
        chain first loses every pair <a, -a>, and <a, a> where a = -a, each
        a hyperbolic plane (_unpaired); what is left goes on to _tail, one
        fold and one plane a form.  The chain is a function of entries alone,
        and the result is isometric, by Witt cancellation, to the part a
        fold-only strip gives, but not always the same sorted form.  A form
        whose pairs cancel to () is the zero class, with no fold.  The loop
        reads and writes no memo.
        """
        while entries:
            entries = self._unpaired(entries)
            tail = self._tail(entries) if entries else None
            if tail is None:
                return entries
            entries = tail
        return entries

    def _unpaired(self, entries):
        """Sorted ``entries`` less every pair <a, -a>, and <a, a> where a = -a;
        ``entries`` itself when it has none.  The runs of equal entries are
        found by bisection, O(m log n) for m distinct entries of n, and each
        run cancels against the run of its negative."""
        neg, runs, i, n = self._neg, {}, 0, len(entries)
        paired = False
        while i < n:
            a = entries[i]
            j = bisect_right(entries, a, i)
            k, i = j - i, j
            b = neg[a]
            if b == a and k > 1:
                k, paired = k % 2, True
            elif runs.get(b):  # -a came first
                c = min(k, runs[b])
                runs[b] -= c
                k -= c
                paired = True
            runs[a] = k
        if not paired:
            return entries
        rest = ()
        for a, k in runs.items():
            rest += (a,) * k
        return rest

    def anisotropic_part(self, phi) -> Optional[Form]:
        """The anisotropic form anisotropic_entries gives, None for the zero
        class.  Isometric forms can get different representatives; compare
        them with isometric, or use witt_ring's least sorted forms."""
        part = self.anisotropic_entries(phi)
        return Form(part) if part else None

    def witt_equivalent(self, phi, psi) -> bool:
        try:
            cancelled = self._cancelled.get((phi, psi))
        except Exception:  # a query that cannot be hashed: converted below
            cancelled = None
        return self._cancels(phi, psi, False) if cancelled is None else cancelled

    def _cancels(self, phi, psi, same_dim):
        """The miss of isometric (same_dim) and witt_equivalent on phi and
        psi as passed.  Convert them, refusing phi before psi is read, and
        for isometric refuse unequal dimensions once both are validated.
        Read the memo again only if conversion built a new tuple; else
        validate a, then b, and store under the pair (a, b), not as a form,
        whether a + (-b) strips to the zero class."""
        a = phi.entries if isinstance(phi, Form) else tuple(phi)
        try:
            b = psi.entries if isinstance(psi, Form) else tuple(psi)
        except Exception:
            self._entries_of(a)
            raise
        if same_dim and len(a) != len(b):
            self._entries_of(a)
            self._entries_of(b)
            raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")
        if a is not phi or b is not psi:  # a new tuple, as for a Form or a list
            cancelled = _memo_get(self._cancelled, (a, b))
            if cancelled is not None:
                return cancelled
        a, b = self._entries_of(a), self._entries_of(b)
        minus_b = tuple(map(self._neg.__getitem__, self._ints(b)))
        if self.F.zero in minus_b:
            raise InputError("negation sends a nonzero form entry to zero")
        cancelled = self._cancelled[a, b] = not self._strip(self._norm(self._ints(a) + minus_b))
        return cancelled


def _memo_get(memo, key):
    """memo.get(key), or None for a key with an entry that cannot be hashed,
    which validation then refuses in order."""
    try:
        return memo.get(key)
    except TypeError:
        return None


def _hypermonoid_i(F, a):
    """The refusal of a table where a + 0 is not {a}."""
    cell = sorted(F._add[a][F.zero])
    return ValidationError(f"hypermonoid.i fails: {a} + 0 = {cell}", witness=(a, cell))


def isometric(F, phi, psi) -> bool:
    return IsometryContext(F).isometric(phi, psi)


def _equivalence_failures(rows, items, name):
    """Reflexivity, symmetry and transitivity witnesses (s,), (s, t) and
    (s, t, u) of a relation given as rows, bit t of rows[s] for items[s] ~
    items[t], named name.format(law) and listed law by law, s, t, u ascending.
    The rows are an equivalence iff each distinct row is the mask of the
    indices that have it; only when that one pass fails is ``items`` read.
    More than TRIPLE_BUDGET transitivity witnesses are refused."""
    members = {}
    for s, r in enumerate(rows):
        members[r] = members.get(r, 0) | 1 << s
    if all(mask == r for r, mask in members.items()):
        return []
    items = list(items)
    reflexive, symmetric, transitive = map(name.format, ("reflexive", "symmetric", "transitive"))
    # the t ~ s are taken a row value r2 at a time: s is not ~ t when r2
    # misses s, and (s, t, u) fails for each u in r2 - r
    triples = sum(mask.bit_count() * (r & mask2).bit_count() * (r2 & ~r).bit_count()
                  for r, mask in members.items() for r2, mask2 in members.items())
    if triples > TRIPLE_BUDGET:
        raise SizeGuardError(f"{transitive}: {triples} witnesses; budget {TRIPLE_BUDGET}")
    failures = [(reflexive, (items[s],)) for s, r in enumerate(rows) if not r >> s & 1]
    for s, r in enumerate(rows):
        lone = sum(r & mask for r2, mask in members.items() if not r2 >> s & 1)
        failures += [(symmetric, (items[s], items[t])) for t in _bits(lone)]
    for s, r in enumerate(rows):
        for t in _bits(sum(r & mask for r2, mask in members.items() if r2 & ~r)):
            failures += [(transitive, (items[s], items[t], items[u])) for u in _bits(rows[t] & ~r)]
    return failures


def check_quadratic(F: Hyperfield, dmax: int) -> AxiomReport:
    """Equivalence of the isometry relation up to dimension dmax.

    Runs the pre-quadratic axioms first (the report names the first broken
    layer), then reflexivity/symmetry/transitivity exhaustively per dimension
    on raw (unsorted) decisions, the rows of _isometry_rows; dim 1 is
    equality.  notes["low_dims"] records dims 1-2 separately: those are
    guaranteed for any pre-quadratic field.
    """
    if dmax < 1:
        raise InputError("dmax must be at least 1")
    pre = check_prequadratic(F)
    if not pre.passed:
        return AxiomReport("none", pre.failures, notes={"layer": "prequadratic"})
    nz = F.nonzero()
    m = len(nz)
    if (m**dmax) ** 2 > TRIPLE_BUDGET:
        raise SizeGuardError(
            f"{m} classes at dmax {dmax} give {(m**dmax)**2} pairs; budget {TRIPLE_BUDGET}"
        )
    failures, notes = [], {"dims_checked": dmax, "low_dims": None}
    levels = _isometry_rows(_binary_rows(nz, F._mul, F._add), m, dmax) if dmax > 1 else ()
    for d, rows in enumerate(levels, 2):
        failures += _equivalence_failures(rows, product(nz, repeat=d), f"equivalence.{{}}.dim{d}")
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
    """Enumerate anisotropic classes up to dmax and build the class tables
    by recurrence, one lookup per entry in rows filled before it.

    Assumes a quadratically presentable field and reads two facts of one:
    phi + <a> splits iff -a is a value of phi (0 is in v + a iff v = -a),
    and a value b of phi gives phi ~ <b> + psi, by Witt cancellation.

    The walk: subforms of anisotropic forms are anisotropic, so the classes
    of dim d + 1 are the sums rep_x + <a>, dim rep_x = d, that do not split,
    appended in sorted order; it stops at the first dimension that adds no
    class, since none can follow.  Each class keeps its value set V_x, the
    hypersum of its representative: V_0 = {0}, and rep_x + <a> has the
    union of a + v over v in V_x.  step[x][a] is the class of rep_x + <a>
    (None past dmax), and inv[k][a] = x where rep_x + <a> does not split and
    is class k.  A sum that splits, -a in V_x, is rep_k + <-a, a> with
    k = inv[x][-a], so it is class k.  One that does not is represented by
    its least isometric sorted form (c,) + rep_y, c = min V: y = x when
    c = a, else y = step[inv[x][v]][c.v.a] for a v in V_x with c in a + v,
    since <v, a> ~ <c, cva>.  Least: each entry of a sorted form isometric
    to phi is a value of phi (b is in b + x), so no head is less than c,
    and Witt cancellation leaves a form of class y to follow it.

    The tables: rep_i = (c_i,) + rep_t with t = suffix[i] < i.  Rows are
    filled in class order and mirrored, so row t is complete when row i is
    filled: add[i][j] = add[t][step[j][c_i]], scale[a][j] =
    step[scale[a][t_j]][a.c_j], the class of a.rep_j, and mul[i][j] =
    add[scale[c_i][j]][mul[t][j]], since (<c> + psi).phi = c.phi + psi.phi.
    Each entry is exact, None iff its class is not found, so an entry that
    reads None is None.  Only where step[j][c_i] or mul[t][j] is None, past
    dmax, does an entry fall back to value sets, since phi + psi, both
    anisotropic, splits iff a value v of phi is minus one of psi: a sum is
    None when V_i and -V_j are disjoint, else add[k][l] for
    rep_i ~ <v> + rep_k and rep_j ~ <-v> + rep_l, where k < i; a product
    whose summands a.rep_j are all of one class k is None while its copies
    of rep_k do not split.  Any other product is built once per multiset
    of summand classes and stripped once per pair-free form it cancels to,
    and a part of dim <= dmax is named by folding step from class 0 over
    it (its partial sums are anisotropic, hence found).  A lookup the
    recurrence needs that is missing means the table breaks the
    representation rule, and is refused.  The ring reads as "finite"
    exactly when no entry is None.  More than WITT_BUDGET product entries,
    classes^2 * dmax^2, are refused as classes are found.
    """
    if dmax < 2:
        raise InputError("dmax must be at least 2 (the hyperbolic plane has dim 2)")
    ctx = IsometryContext(F)
    nz, neg, add, mul, zero = ctx.nonzero, ctx._neg, F._add, F._mul, F.zero
    reps, suffix = [()], [None]  # reps[i] = (reps[i][0],) + reps[suffix[i]]; () is the zero class
    values, minus, inv = [{zero}], [{zero}], [[None] * F.size]  # V_i, -V_i, inv[i][b]
    copies = {}  # read past dmax: the value sets of m copies of rep_k, m = 1, 2, ..., None once they split

    def guard(n):
        if n * n * dmax * dmax > WITT_BUDGET:
            raise SizeGuardError(
                f"{n} classes at dmax {dmax} give {n * n * dmax * dmax} product entries; budget {WITT_BUDGET}"
            )

    def unfound(x, a):
        return ValidationError(
            f"the table breaks the representation rule: rep_{x} + <{a}> = {reps[x] + (a,)} has no class",
            witness=(x, a),
        )

    def below(x, b):
        """inv[x][b], the class of rep_x + <-b> for a value b of rep_x."""
        k = inv[x][b]
        if k is None:
            raise unfound(x, neg[b])
        return k

    def after(x, a):
        """step[x][a] where the recurrence needs it found."""
        k = step[x][a]
        if k is None:
            raise unfound(x, a)
        return k

    step, growth, level = [], [], range(1)
    for d in range(1, dmax + 2):
        found, walked = {}, []  # (c, y) of each new class -> its value set; (x, a, (c, y)) per sum
        for x in level:
            Vx, row = values[x], [None] * F.size
            for a in nz:
                if neg[a] in Vx:
                    row[a] = below(x, neg[a])
                elif d <= dmax:
                    V = set().union(*map(add[a].__getitem__, Vx))
                    if x == 0 and V != {a}:
                        raise _hypermonoid_i(F, a)
                    if zero in V:  # 0 in a + v with v not -a
                        raise unfound(x, a)
                    c, y = min(V), x
                    if c != a:  # <v, a> ~ <c, cva> for a v in V_x with c in a + v
                        v = next(v for v in Vx if c in add[a][v])
                        y = after(below(x, v), mul[mul[c][v]][a])
                    if (c, y) not in found:
                        found[c, y] = V
                        guard(len(reps) + len(found))
                    walked.append((x, a, (c, y)))
            step.append(row)
        if d > dmax:
            break
        # the reps of y's dimension are in sorted order, so (c, y) order is form order
        new = sorted(found)
        ids = {key: i for i, key in enumerate(new, len(reps))}
        for c, y in new:
            reps.append((c,) + reps[y])
            suffix.append(y)
            values.append(found[c, y])
            minus.append({neg[v] for v in found[c, y]})
            inv.append([None] * F.size)
        for x, a, key in walked:
            step[x][a] = k = ids[key]
            inv[k][a] = x
        growth.append(len(new))
        level = range(len(reps) - len(new), len(reps))
        if not new:  # no class of dim d, so none of a larger dim
            growth += [0] * (dmax - d)
            break

    def class_of(entries):
        """The class of sorted ``entries``: None when its stripped part has
        dim > dmax, else the fold of step over the part from class 0.  A
        strip first cancels pairs, so forms that cancel to the same
        pair-free form share one strip, in ``parts``."""
        rest = ctx._unpaired(entries)
        x = parts.get(rest, _UNSEEN)
        if x is _UNSEEN:
            part = ctx._strip(entries)
            x = parts[rest] = None if len(part) > dmax else reduce(after, part, 0)
        return x

    def copies_split(k, n):
        """Whether n copies of rep_k split.  m + 1 copies split iff a value
        of m copies is in -V_k; else their values are the set sum of those
        of m copies and V_k."""
        sums = copies.setdefault(k, [values[k]])
        while len(sums) < n and sums[-1] is not None:
            last = sums[-1]
            split = not last.isdisjoint(minus[k])
            sums.append(None if split else set().union(*(add[v][w] for v in last for w in values[k])))
        return len(sums) < n or sums[n - 1] is None

    n = len(reps)
    add_table = [list(range(n))] + [[j] + [None] * (n - 1) for j in range(1, n)]
    for i in range(1, n):
        c, sums, row = reps[i][0], add_table[suffix[i]], add_table[i]
        for j in range(i, n):
            s = step[j][c]
            if s is not None:
                x = sums[s]
            elif values[i].isdisjoint(minus[j]):
                x = None
            else:  # rep_i ~ <v> + rep_k and rep_j ~ <-v> + rep_l for a v in V_i and -V_j
                v = next(v for v in values[i] if v in minus[j])
                x = add_table[below(i, v)][below(j, neg[v])]
            row[j] = add_table[j][i] = x
    scale = {}  # scale[a][j]: the class of a.rep_j
    for a in nz:
        row = scale[a] = [0] * n
        for j in range(1, n):
            row[j] = after(row[suffix[j]], mul[a][reps[j][0]])
    mul_table = [[0] * n] + [[0] + [None] * (n - 1) for _ in range(1, n)]
    products = {}  # each multiset of summand classes past dmax -> its class
    parts = {}  # each pair-free form such a product cancels to -> its class
    for i in range(1, n):
        scaled, prods, row = scale[reps[i][0]], mul_table[suffix[i]], mul_table[i]
        one = reps[i][0] == reps[i][-1]  # rep_i is copies of <c_i>, so a.rep_j is one class
        columns = None if one else list(zip(*[scale[a] for a in reps[i]]))  # columns[j]: the class of each a.rep_j
        for j in range(i, n):
            p = prods[j]
            if p is not None:
                x = add_table[scaled[j]][p]
            else:
                keys = (scaled[j],) * len(reps[i]) if one else tuple(sorted(columns[j]))
                x = products.get(keys, _UNSEEN)
                if x is _UNSEEN:
                    if keys[0] == keys[-1] and not copies_split(keys[0], len(keys)):
                        x = None
                    else:
                        x = class_of(ctx._norm(chain.from_iterable(map(reps.__getitem__, keys))))
                    products[keys] = x
            row[j] = mul_table[j][i] = x
    return WittRing(
        classes=[WittClass(Form(e) if e else None) for e in reps],
        add_table=add_table,
        mul_table=mul_table,
        zero_class=0,
        one_class=step[0][F.one],
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


def special_group_of(F: Hyperfield) -> SpecialGroupTable:
    """Extract (nonzero elements, binary isometry, -1) from a quadratically
    presentable hyperfield; refuses if squares are not 1."""
    pre = check_prequadratic(F)
    if not pre.passed:
        raise ValidationError(
            f"extraction needs a pre-quadratic field; first failure {pre.first_failure()}"
        )
    nz = F.nonzero()
    index = {x: i for i, x in enumerate(nz)}
    mul = tuple(tuple(index[F.mul(a, b)] for b in nz) for a in nz)
    rel = frozenset(
        (divmod(s, len(nz)), divmod(t, len(nz)))
        for s, row in enumerate(_binary_rows(nz, F._mul, F._add)) for t in _bits(row)
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
    extension stays an equivalence up to nmax >= 2."""
    if nmax < 2:
        raise InputError("nmax must be at least 2 (dm.i is the relation on pairs)")
    g = range(S.size)
    if any(len(row) != S.size or any(x not in g for x in row) for row in S.mul):
        raise InputError(f"special group: mul must be a {S.size}x{S.size} table of ids in {g}")
    for name in ("identity", "minus_one"):
        if getattr(S, name) not in g:
            raise InputError(f"special group: {name} {getattr(S, name)!r} is not an id in {g}")
    for pairs in S.binary_isometry:
        if any(x not in g for pair in pairs for x in pair):
            raise InputError(f"special group: binary_isometry entry {pairs} has an id outside {g}")
    if S.size ** (2 * nmax) > TRIPLE_BUDGET:
        raise SizeGuardError(
            f"{S.size}^{nmax} tuples give {S.size ** (2 * nmax)} pairs; budget {TRIPLE_BUDGET}"
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

    rel, n = S.binary_isometry, S.size
    rows = [0] * (n * n)  # bit c*n + d of row a*n + b: ((a, b), (c, d)) in rel
    for (a, b), (c, d) in rel:
        rows[a * n + b] |= 1 << (c * n + d)
    # dm.i reports a reflexivity failure by the bare pair
    failures += [
        (law, wit[0] if law == "dm.i.reflexive" else wit)
        for law, wit in _equivalence_failures(rows, product(g, repeat=2), "dm.i.{}")
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

    # S is a group and dm.iv holds, so rel is the binary isometry to extend
    for k, rows in enumerate(islice(_isometry_rows(rows, n, nmax), 1, None), 3):
        failures += _equivalence_failures(rows, product(g, repeat=k), f"iso_{k}.{{}}")
    return AxiomReport("special" if not failures else "prespecial", failures)

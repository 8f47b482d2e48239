"""Forms over quadratically presentable fields, at supercompact level.

Forms are tuples of nonzero elements of a hyperfield F (the supercompacts of
the powerset field P*(F) are its singletons, so working in F directly loses
nothing).

Isotropy is decided by one fold over value sets: <a1, ..., an> is isotropic
iff 0 is in the iterated hypersum a1 + ... + an.  The fold builds the
hypersums of the suffixes from the right and stops at the first that holds
0, since a form with an isotropic subform is isotropic; on a sorted form a
row that repeats inside a run of equal entries is every earlier row of the
run, so it folds O(runs) rows.  The other questions strip: a form's
anisotropic part is what its pairs <a, -a> cancel to when the fold finds
that anisotropic, else its least isometric sorted form, named by one class
table, _ClassTable.  Its step[x][a] is the class of rep_x + <a>, by value
sets alone (rep + <a> splits iff -a is a value of rep), and each class is
represented as (c,) + rep_t for a class t a dimension lower.  phi and psi
are Witt equivalent iff phi + (-psi) strips to the zero class, and
isometric iff they also have equal dimensions (Witt cancellation).
witt_ring fills the table to dmax, so every sum, scaling and product entry
is one lookup in rows filled before it.  These criteria assume a
quadratically presentable field; `cli witt` checks the field first, and
`cli isom` refuses tables that are not pre-quadratic hyperfields.

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
    """Form questions over a fixed hyperfield, with three memos keyed by
    the validated query exactly as asked, one entry per distinct query: a
    form passed to is_isotropic maps to a bool in _isotropic, a pair passed
    to isometric or witt_equivalent to a bool in _cancelled, and a form
    passed to anisotropic_entries or anisotropic_part to its part in
    _stripped.  split_hyperbolic is not memoized.

    A memoized method probes its memo with the query as passed, and
    converts and validates only on a miss: a tuple hashes and compares as
    its entries, and a Form or a list probes again once converted to a new
    tuple.  That is exact, since every key passed validation when stored,
    a hit equals its key entry by entry, which is what validation tests,
    and () is never stored.  A query that cannot be hashed or sized takes
    the miss path, so every refusal is the validating path's, in order.
    isometric probes only at equal dimensions, since witt_equivalent stores
    pairs of unequal dimension in the same memo.

    A miss folds (_fold) for isotropy and strips (_strip) for the rest; the
    class table a strip may read is made at the first isotropic pair-free
    form, so a fresh context builds nothing but its memos.  The verdicts
    assume a quadratically presentable field.  A context is single-owner
    while a computation runs; share the hyperfield, not the context.
    """

    _table = None  # the class table, set by _least at the first isotropic pair-free form

    def __init__(self, F: Hyperfield):
        self.F, self.nonzero, self._neg = F, F._nonzero, F._neg
        self._nonzero_set = F._nonzero_set
        self._isotropic, self._cancelled, self._stripped = {}, {}, {}

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
        id, which the set test of _entries_of lets through; read on a miss."""
        if type(sum(entries)) is not int:  # a float among ints sums to a float
            raise self._refusal(entries)
        return entries

    def hyperbolic(self):
        return self._norm((self.F.one, self.F.neg(self.F.one)))

    def isometric(self, phi, psi) -> bool:
        try:
            cancelled = self._cancelled.get((phi, psi)) if len(phi) == len(psi) else None
        except Exception:  # a query that cannot be sized or hashed: converted below
            cancelled = None
        return self._cancels(phi, psi, True) if cancelled is None else cancelled

    def split_hyperbolic(self, entries) -> Optional[tuple]:
        """A tail psi with entries ~ H + psi, or None if _fold finds the
        form anisotropic: its part (_strip's) padded with hyperbolic planes
        to dimension n - 2, sorted."""
        entries = self._ints(self._norm(self._entries_of(entries)))
        if self._fold(entries)[0] < 0:
            return None
        part = self._strip(entries)
        return self._norm(part + self.hyperbolic() * ((len(entries) - len(part)) // 2 - 1))

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
        hypersum holds 0, or -1 if none does (k >= 0 iff the form is
        isotropic), and rows[i] is the hypersum of the last i entries (that
        of none is {0}) for each suffix after it.  Once an entry maps the row
        after it to itself, every earlier row of its run is the same row, so
        a form folds in O(runs) rows.  The one-entry suffix holds 0 only on a
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

    def anisotropic_entries(self, entries) -> tuple:
        """The anisotropic part, sorted; () is the zero class.  Which
        representative: the form less its pairs <a, -a> if that is
        anisotropic, else its least isometric sorted form (_strip).
        Memoized for the form as asked."""
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
        """The anisotropic part of validated, sorted entries: what is left
        once every pair <a, -a>, and <a, a> where a = -a, cancels
        (_unpaired) if that is () or _fold finds it anisotropic, else its
        least isometric sorted form (_least)."""
        rest = self._unpaired(entries)
        if not rest or self._fold(rest)[0] < 0:
            return rest
        return self._least(rest)

    def _least(self, entries):
        """The least sorted form isometric to validated, sorted entries:
        the class table's step folded over them from class 0, read off as
        the class's representative.  The table is made at the first call."""
        table = self._table
        if table is None:
            table = self._table = _ClassTable(self.F)
        return table.rep(reduce(table.step, entries, 0))

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
        """The Form of anisotropic_entries, None for the zero class.  A form
        whose pairs cancel to an anisotropic rest keeps that rest, so compare
        parts with isometric, or use witt_ring's least sorted forms."""
        part = self.anisotropic_entries(phi)
        return Form(part) if part else None

    def witt_equivalent(self, phi, psi) -> bool:
        try:
            cancelled = self._cancelled.get((phi, psi))
        except Exception:  # a query that cannot be hashed: converted below
            cancelled = None
        return self._cancels(phi, psi, False) if cancelled is None else cancelled

    def _cancels(self, phi, psi, same_dim):
        """The miss of isometric (same_dim) and witt_equivalent on phi and psi
        as passed: convert them, refusing phi before psi is read, and refuse
        unequal dimensions for isometric once both are validated.  Probe again
        if conversion built a new tuple; else store whether a + (-b) strips to ()."""
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


class _ClassTable:
    """Witt classes of anisotropic forms over F, by value sets alone: class
    0 is the zero class, rep_0 = (), and class k > 0 has its least isometric
    sorted form rep_k = (heads[k],) + rep_t, t = suffix[k], and V_k =
    values[k], the hypersum of rep_k (V_0 = {0}).  step(x, a), the class of
    rep_x + <a>: if -a is in V_x the sum splits and is below(x, -a) (split).
    Else c = min V, V the union of a + v over v in V_x, and the sum is
    (c,) + rep_y (least): y = x when c = a, else y = step[below(x, v)][cva]
    for a v in V_x with c in a + v, as <v, a> ~ <c, cva>.  Least: each entry
    of a sorted form isometric to phi is a value of phi (b is in b + x), so
    no head is less than c, and Witt cancellation leaves a form of class y
    to follow it.  below(x, b), for a value b of rep_x, is the class k with
    rep_k + <b> ~ rep_x: the suffix t when b is the head c, else
    step[below(t, w)][cwb] for a w in V_t with b in c + w, as
    <c, w> ~ <b, cwb>.  Both recur on dimension, memoized a row per class
    (steps, downs); step makes a class, keyed (c, y) in ids, at its first
    use.  A table where a + 0 is not {a}, an unsplit sum has the value 0, or
    below(x, b) finds no k with step[k][b] = x is refused.
    """

    def __init__(self, F):
        self.F, self.neg = F, F._neg
        self.add, self.mul = F._add, F._mul
        self.heads, self.suffix, self.values = [None], [None], [{F.zero}]
        self.steps, self.downs = [[None] * F.size], [[None] * F.size]
        self.ids = {}  # (c, y) -> the class of (c,) + rep_y

    def new(self, key, V):
        """Append the class (c,) + rep_y, key = (c, y), with value set V."""
        k = self.ids[key] = len(self.heads)
        self.heads.append(key[0])
        self.suffix.append(key[1])
        self.values.append(V)
        self.steps.append([None] * self.F.size)
        self.downs.append([None] * self.F.size)
        return k

    def rep(self, x):
        out = []
        while x:
            out.append(self.heads[x])
            x = self.suffix[x]
        return tuple(out)

    def unfound(self, x, a):
        message = f"the table breaks the representation rule: rep_{x} + <{a}> = {self.rep(x) + (a,)} has no class"
        return ValidationError(message, witness=(x, a))

    def step(self, x, a):
        k = self.steps[x][a]
        if k is None:
            k = self.split(x, a)
            if k is None:
                key, V = self.least(x, a)
                k = self.ids.get(key) or self.new(key, V)  # no key names class 0
            self.steps[x][a] = k
        return k

    def split(self, x, a):
        """below(x, -a) if rep_x + <a> splits, else None."""
        b = self.neg[a]
        return self.below(x, b) if b in self.values[x] else None

    def least(self, x, a):
        """((c, y), V) for rep_x + <a> ~ (c,) + rep_y that does not split."""
        add, mul, Vx = self.add, self.mul, self.values[x]
        V = set().union(*map(add[a].__getitem__, Vx))
        if x == 0 and V != {a}:
            raise _hypermonoid_i(self.F, a)
        if self.F.zero in V:  # 0 in a + v with v not -a
            raise self.unfound(x, a)
        c, y = min(V), x
        if c != a:
            v = next(v for v in Vx if c in add[a][v])
            y = self.step(self.below(x, v), mul[mul[c][v]][a])
        return (c, y), V

    def below(self, x, b):
        k = self.downs[x][b]
        if k is None:
            c, t = self.heads[x], self.suffix[x]
            if b == c:
                k = t
            elif x:
                w = next((w for w in self.values[t] if b in self.add[c][w]), None)
                if w is not None:
                    k = self.step(self.below(t, w), self.mul[self.mul[c][w]][b])
            if k is None or self.step(k, b) != x:
                raise self.unfound(x, self.neg[b])
            self.downs[x][b] = k
        return k


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
    by recurrence, one lookup per entry in rows filled before it.  Assumes
    a quadratically presentable field.

    The walk fills a _ClassTable a dimension at a time: subforms of
    anisotropic forms are anisotropic, so the classes of dim d + 1 are the
    sums rep_x + <a>, dim rep_x = d, that do not split, numbered in form
    order; it stops at the first dimension that adds no class, since none
    can follow.  step[x][a] is None past dmax.

    The tables: rep_i = (c_i,) + rep_t with t = suffix[i] < i.  Rows are
    filled in class order and mirrored, so row t is complete when row i is
    filled: add[i][j] = add[t][step[j][c_i]], scale[a][j] =
    step[scale[a][t_j]][a.c_j], the class of a.rep_j, and mul[i][j] =
    add[scale[c_i][j]][mul[t][j]], since (<c> + psi).phi = c.phi + psi.phi.
    An entry is None iff its class is not found.  Only where step[j][c_i]
    or mul[t][j] is None, past dmax, does an entry fall back to value sets,
    since phi + psi, both anisotropic, splits iff a value v of phi is minus
    one of psi: a sum is None when V_i and -V_j are disjoint, else
    add[k][l] for rep_i ~ <v> + rep_k and rep_j ~ <-v> + rep_l; a product
    whose summands a.rep_j are all of one class k is None while its copies
    of rep_k do not split.  Any other product is built once per multiset of
    summand classes, stripped once per pair-free form it cancels to, and a
    part of dim <= dmax is named by folding step over it from class 0.  A
    lookup the recurrence needs that is missing breaks the representation
    rule, and is refused.  More than WITT_BUDGET product entries,
    classes^2 * dmax^2, are refused as classes are found.
    """
    if dmax < 2:
        raise InputError("dmax must be at least 2 (the hyperbolic plane has dim 2)")
    ctx, table = IsometryContext(F), _ClassTable(F)
    nz, neg, add, mul = ctx.nonzero, ctx._neg, F._add, F._mul
    step, suffix, values, below = table.steps, table.suffix, table.values, table.below
    copies = {}  # read past dmax: the value sets of m copies of rep_k, m = 1, 2, ..., None once they split

    def guard(n):
        if n * n * dmax * dmax > WITT_BUDGET:
            message = f"{n} classes at dmax {dmax} give {n * n * dmax * dmax} product entries; budget {WITT_BUDGET}"
            raise SizeGuardError(message)

    def after(x, a):
        """step[x][a] where the recurrence needs it found."""
        k = step[x][a]
        if k is None:
            raise table.unfound(x, a)
        return k

    reps, growth, level = [()], [], range(1)
    for d in range(1, dmax + 2):
        found, walked = {}, []  # (c, y) of each new class -> its value set; (x, a, (c, y)) per sum
        for x in level:
            for a in nz:
                k = table.split(x, a)
                if k is not None:
                    step[x][a] = k
                elif d <= dmax:
                    key, V = table.least(x, a)
                    if key not in found:
                        found[key] = V
                        guard(len(values) + len(found))
                    walked.append((x, a, key))
        if d > dmax:
            break
        # the reps of y's dimension are in sorted order, so (c, y) order is form order
        new = sorted(found)
        for key in new:
            table.new(key, found[key])
            reps.append((key[0],) + reps[key[1]])
        for x, a, key in walked:
            step[x][a] = table.ids[key]
        growth.append(len(new))
        level = range(len(values) - len(new), len(values))
        if not new:  # no class of dim d, so none of a larger dim
            growth += [0] * (dmax - d)
            break
    minus = [{neg[v] for v in V} for V in values]

    def class_of(entries):
        """The class of sorted ``entries``: None if its part has dim > dmax, else step
        folded over the part; forms that cancel to one pair-free form share a strip."""
        rest = ctx._unpaired(entries)
        x = parts.get(rest, _UNSEEN)
        if x is _UNSEEN:
            part = ctx._strip(entries)
            x = parts[rest] = None if len(part) > dmax else reduce(after, part, 0)
        return x

    def copies_split(k, n):
        """Whether n copies of rep_k split.  m + 1 copies split iff a value of
        m copies is in -V_k; else their values are those of m copies + V_k."""
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

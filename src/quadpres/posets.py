"""Finite pointed posets with suprema, minimal elements and presentability checks.

Elements are dense ids 0..n-1.  The order relation is kept as packed bitmask
rows: ``up[x]`` is the int whose bit y is set iff x <= y, and ``down[x]`` the
transpose.  All subset quantifiers below run over int submasks.

The presentability ladder returns the AxiomReport of every other ladder,
with its verdicts in ``notes``; this module imports nothing above
``errors``.
"""

from __future__ import annotations

from typing import Optional

from .errors import AxiomReport, InputError, SizeGuardError, ValidationError

# Dense relation tables get quadratic in memory and worse in validation time;
# refuse carriers beyond this rather than degrade silently.
MAX_CARRIER = 4095

# Exhaustive quantifiers over subsets of minimals stop here.
MAX_MINIMALS = 16


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _submasks_smallest_first(full):
    """Nonempty submasks of ``full``, ordered by popcount then value.

    The ordering makes reported witnesses deterministic and minimal.
    """
    subs = []
    sub = full
    while sub:
        subs.append(sub)
        sub = (sub - 1) & full
    subs.sort(key=lambda m: (m.bit_count(), m))
    return subs


class FinitePointedPoset:
    """A validated finite poset with a basepoint.

    ``leq`` may be given as an n x n table of booleans/ints; construction
    verifies reflexivity, antisymmetry and transitivity and raises
    ValidationError naming the violated law and a witness pair.
    """

    __slots__ = ("n", "up", "down", "basepoint", "names", "_minimals_mask")

    def __init__(self, leq, basepoint, names=None):
        n = len(leq)
        if n == 0:
            raise InputError("poset must be nonempty")
        if n > MAX_CARRIER:
            raise SizeGuardError(f"carrier size {n} exceeds table cap {MAX_CARRIER}")
        up = []
        for x, row in enumerate(leq):
            if len(row) != n:
                raise InputError(f"leq row {x} has length {len(row)}, expected {n}")
            m = 0
            for y, v in enumerate(row):
                if v:
                    m |= 1 << y
            up.append(m)
        self._init_from_up(n, up, basepoint, names)

    @classmethod
    def from_up_masks(cls, up, basepoint, names=None):
        """Build from packed rows directly (still fully validated)."""
        self = object.__new__(cls)
        self._init_from_up(len(up), list(up), basepoint, names)
        return self

    def _init_from_up(self, n, up, basepoint, names):
        if not 0 <= basepoint < n:
            raise InputError(f"basepoint {basepoint} not an element id")
        down = [0] * n
        for x in range(n):
            for y in _bits(up[x]):
                if y >= n:
                    raise InputError(f"relation row {x} mentions id {y} >= {n}")
                down[y] |= 1 << x
        for x in range(n):
            if not up[x] >> x & 1:
                raise ValidationError(f"reflexivity fails at {x}", witness=(x,))
        for x in range(n):
            both = up[x] & down[x] & ~(1 << x)
            if both:
                y = next(_bits(both))
                raise ValidationError(
                    f"antisymmetry fails: {x} <= {y} and {y} <= {x}", witness=(x, y)
                )
        for x in range(n):
            for y in _bits(up[x]):
                if up[y] & ~up[x]:
                    z = next(_bits(up[y] & ~up[x]))
                    raise ValidationError(
                        f"transitivity fails: {x} <= {y} <= {z} but not {x} <= {z}",
                        witness=(x, y, z),
                    )
        self.n = n
        self.up = tuple(up)
        self.down = tuple(down)
        self.basepoint = basepoint
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(n))
        if len(self.names) != n:
            raise InputError("names length does not match carrier size")
        mask = 0
        for x in range(n):
            if down[x] == 1 << x:
                mask |= 1 << x
        self._minimals_mask = mask

    # -- basic queries -------------------------------------------------

    def leq(self, x, y):
        self._check_id(x)
        self._check_id(y)
        return bool(self.up[x] >> y & 1)

    def minimals(self):
        return frozenset(_bits(self._minimals_mask))

    @property
    def minimals_mask(self):
        return self._minimals_mask

    def minimals_below(self, x):
        """All minimal elements s with s <= x."""
        self._check_id(x)
        return frozenset(_bits(self.down[x] & self._minimals_mask))

    def minimals_below_mask(self, x):
        return self.down[x] & self._minimals_mask

    def supremum(self, xs) -> Optional[int]:
        """Least upper bound of a nonempty set of ids, or None if there is none."""
        xs = list(xs)
        if not xs:
            raise InputError("supremum of the empty set is not defined here")
        ub = (1 << self.n) - 1
        for x in xs:
            self._check_id(x)
            ub &= self.up[x]
        return self._least_of_mask(ub)

    def sup_of_mask(self, mask) -> Optional[int]:
        ub = (1 << self.n) - 1
        for x in _bits(mask):
            ub &= self.up[x]
        return self._least_of_mask(ub)

    def _least_of_mask(self, ub):
        if not ub:
            return None
        for u in _bits(ub):
            if not ub & ~self.up[u]:
                return u
        return None

    def _check_id(self, x):
        if not isinstance(x, int) or not 0 <= x < self.n:
            raise InputError(f"unknown element id {x!r}")

    def id_of(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown element name {name!r}") from None

    def cover_pairs(self):
        """The Hasse covers (x, y): x < y with nothing strictly between."""
        out = []
        for x in range(self.n):
            strict = self.up[x] & ~(1 << x)
            for y in _bits(strict):
                between = strict & self.down[y] & ~(1 << y)
                if not between:
                    out.append((x, y))
        return out

    def __repr__(self):
        return f"FinitePointedPoset(n={self.n}, basepoint={self.names[self.basepoint]})"


def check_presentable(P: FinitePointedPoset) -> AxiomReport:
    """Verify weak presentability, basepoint minimality and compactness.

    One smallest-first walk takes the supremum of each nonempty set S of
    minimals once.  It decides weak presentability (i) and, on a weakly
    presentable poset, compactness with Y ranging over sets of minimals,
    which is exact: let S be the minimals below members of Y.  Each y in Y is
    the supremum of its minimals, so sup(S) = sup(Y), and a minimal is below
    a member of Y iff it is in S.  So Y fails for a iff S does, iff a is a
    minimal outside S below sup(S).  Any other poset already fails, and its
    compactness is None, with no ``compactness`` witness.

    Unique representation says sup(S) = x only for S = S_x, the minimals
    below x.  Under weak presentability S -> sup(S) maps the 2^k - 1 sets of
    the k minimals onto the carrier, so it holds iff n = 2^k - 1;
    ``tests_agree`` compares that count with the walk's compactness verdict.

    The report's level is "poset" when it lists no failure and "none"
    otherwise.  Its notes hold the four verdicts: ``weakly_presentable``,
    ``basepoint_minimal``, ``all_minimals_compact`` and ``tests_agree``; the
    last two are None exactly when the poset is not weakly presentable.
    """
    mins = P.minimals_mask
    k = mins.bit_count()
    if k > MAX_MINIMALS:
        raise SizeGuardError(f"{k} minimal elements exceed the subset guard {MAX_MINIMALS}")
    failures = []

    # weak presentability (i): every nonempty set of minimals has a supremum;
    # sup(S) is the supremum of S's least member and sup(S minus it), and S
    # fails compactness when a minimal outside S lies below sup(S)
    wp_i = True
    sups = {}
    compact_wit = None
    for sub in _submasks_smallest_first(mins):
        low = sub & -sub
        rest = sub ^ low
        v = P.sup_of_mask(low | 1 << sups[rest]) if rest else low.bit_length() - 1
        if v is None:
            wp_i = False
            failures.append(("weak_presentability.i", tuple(_bits(sub))))
            break
        sups[sub] = v
        outside = P.down[v] & mins & ~sub
        if outside and compact_wit is None:
            compact_wit = (next(_bits(outside)), tuple(_bits(sub)))

    # weak presentability (ii): x is the supremum of its minimals
    wp_ii = True
    for x in range(P.n):
        sx = P.minimals_below_mask(x)
        if sx == 0 or (sups[sx] if wp_i else P.sup_of_mask(sx)) != x:
            wp_ii = False
            failures.append(("weak_presentability.ii", (x, tuple(_bits(sx)))))
            break
    weakly = wp_i and wp_ii

    bp_min = bool(mins >> P.basepoint & 1)
    if not bp_min:
        failures.append(("basepoint_minimal", (P.basepoint,)))

    compact_ok = tests_agree = None
    if weakly:
        compact_ok = compact_wit is None
        tests_agree = compact_ok == (P.n == (1 << k) - 1)
        if not compact_ok:
            failures.append(("compactness", compact_wit))

    notes = {
        "weakly_presentable": weakly,
        "basepoint_minimal": bp_min,
        "all_minimals_compact": compact_ok,
        "tests_agree": tests_agree,
    }
    return AxiomReport("none" if failures else "poset", failures, notes)


# -- builders ----------------------------------------------------------


def walking_supremum() -> FinitePointedPoset:
    """Three elements: minimals p, q and their join x; basepoint p."""
    up = [0b101, 0b110, 0b100]
    return FinitePointedPoset.from_up_masks(up, basepoint=0, names=("p", "q", "x"))


def pierced_powerset(n: int, basepoint_index: int = 0) -> FinitePointedPoset:
    """All nonempty subsets of an n-element set, ordered by inclusion.

    Element id of a subset is its bitmask minus one; the basepoint is the
    singleton of ``basepoint_index``.
    """
    if not 1 <= n <= 16:
        raise InputError(f"pierced powerset carrier must have 1..16 points, got {n}")
    size = (1 << n) - 1
    if size > MAX_CARRIER:
        raise SizeGuardError(f"pierced powerset of {n} points has {size} elements, cap {MAX_CARRIER}")
    if not 0 <= basepoint_index < n:
        raise InputError(f"basepoint index {basepoint_index} out of range")
    names = tuple("{" + ",".join(str(i) for i in _bits(m)) + "}" for m in range(1, size + 1))
    return FinitePointedPoset.from_up_masks(
        _inclusion_up_masks(n), basepoint=(1 << basepoint_index) - 1, names=names
    )


def _inclusion_up_masks(n):
    """Up-rows of the nonempty subsets of n points under inclusion, ids mask - 1."""
    size = (1 << n) - 1
    up = [0] * size
    for mask in range(1, size + 1):
        free = size & ~mask
        row = 0
        s = free
        while True:
            row |= 1 << ((mask | s) - 1)
            if s == 0:
                break
            s = (s - 1) & free
        up[mask - 1] = row
    return up


def squarefree_divisors(N: int) -> FinitePointedPoset:
    """Square-free divisors of N ordered by division, with an adjoined top.

    The full product of N's primes is left out and the synthetic top stands
    in for it, so that the top really is the join of the primes; keeping both
    would break weak presentability at the top.  Basepoint: smallest prime.
    """
    if not 2 <= N <= 10**6:
        raise InputError(f"N must be in 2..10^6, got {N}")
    primes = []
    m = N
    d = 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    if len(primes) < 2:
        raise InputError(f"N={N} has fewer than 2 distinct primes; the poset degenerates")
    k = len(primes)
    divisors = []
    for mask in range(1, (1 << k) - 1):  # proper nonempty subsets of the primes
        d = 1
        for i in _bits(mask):
            d *= primes[i]
        divisors.append(d)
    divisors.sort()
    names = [str(d) for d in divisors] + ["top"]
    n = len(divisors) + 1
    top = n - 1
    up = [0] * n
    for i, a in enumerate(divisors):
        row = 1 << top
        for j, b in enumerate(divisors):
            if b % a == 0:
                row |= 1 << j
        up[i] = row
    up[top] = 1 << top
    return FinitePointedPoset.from_up_masks(up, basepoint=divisors.index(primes[0]), names=names)


def explicit_poset(names, leq_pairs, basepoint_name) -> FinitePointedPoset:
    """Build a poset from element names and generating (smaller, larger) pairs.

    The reflexive-transitive closure of the pairs is taken first; closure
    output is then validated, so cyclic input fails antisymmetry with a
    witness pair.
    """
    names = list(names)
    if len(set(names)) != len(names):
        raise InputError("duplicate element names")
    index = {s: i for i, s in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        if a not in index or b not in index:
            raise InputError(f"pair ({a!r}, {b!r}) mentions an unknown element")
        up[index[a]] |= 1 << index[b]
    for k in range(n):  # Warshall: every row that reaches k takes in k's row
        bit, through = 1 << k, up[k]
        for x in range(n):
            if up[x] & bit:
                up[x] |= through
    if basepoint_name not in index:
        raise InputError(f"unknown basepoint {basepoint_name!r}")
    return FinitePointedPoset.from_up_masks(up, basepoint=index[basepoint_name], names=names)


def random_pointed_poset(rng, max_n: int = 8) -> FinitePointedPoset:
    """A random pointed poset for fleet testing; seeded via ``rng``.

    Mixes two shapes: closures of random DAGs (arbitrary posets) and posets
    of intersection-closed set families (always weakly presentable, with and
    without compact minimals).
    """
    if rng.random() < 0.5:
        n = rng.randint(2, max_n)
        up = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    up[i] |= 1 << j
        for i in range(n - 1, -1, -1):
            row = up[i]
            for j in _bits(row):
                row |= up[j]
            up[i] = row
        return FinitePointedPoset.from_up_masks(up, basepoint=rng.randrange(n))
    k = rng.randint(2, 3)
    full = (1 << k) - 1
    family = {1 << i for i in range(k)} | {full}
    for _ in range(rng.randint(0, 3)):
        family.add(rng.randint(1, full))
    grew = True
    while grew:
        grew = False
        for a in list(family):
            for b in list(family):
                c = a & b
                if c and c not in family:
                    family.add(c)
                    grew = True
    members = sorted(family)
    if len(members) > max_n:
        members = members[:max_n]  # keep singletons and small sets; may lose joins
    pos = {m: i for i, m in enumerate(members)}
    up = [0] * len(members)
    for a in members:
        row = 0
        for b in members:
            if a & ~b == 0:
                row |= 1 << pos[b]
        up[pos[a]] = row
    return FinitePointedPoset.from_up_masks(up, basepoint=rng.randrange(len(members)))

"""The structures, fleets, mutant generators and subprocess runner that the
tests share, each defined once.

Every test module imports them from here and no test module imports
another, so a structure added here reaches every test that reads its
fleet.  GF(q) is built by ``gf``, through the library's one size rule.  A
structure has the id its parametrized tests print: E for the Euclidean
hyperfield, Qq for Q(GF(q)), and (t) or (s) for each Laurent step.
"""

import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations, combinations_with_replacement

import quadpres
from quadpres.errors import ValidationError
from quadpres.finitefield import DEFAULT_MODULI, _is_prime, ff_make, parse_field_arg
from quadpres.hyperfields import Hyperfield, euclidean_hyperfield, from_field, prime_hyperfield, quadratic_hyperfield
from quadpres.presentable import PresentableRing, powerset_of_hyperfield
from quadpres.quadratic import IsometryContext

# -- subprocesses ----------------------------------------------------------


def run_python(*args, timeout):
    """``python *args`` in a fresh interpreter that imports quadpres from
    this checkout's src and this module from tests, bounded by ``timeout``
    seconds: the CompletedProcess, its output as text.  A child that hangs
    must not hang the suite, so None is refused."""
    if timeout is None:
        raise ValueError("run_python needs a timeout in seconds")
    src = os.path.dirname(os.path.dirname(quadpres.__file__))
    path = os.pathsep.join((src, os.path.dirname(os.path.abspath(__file__))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


# -- structures ------------------------------------------------------------


def gf(q):
    """GF(q) for a prime power q, read as the CLI reads --field."""
    return ff_make(*parse_field_arg(str(q)))


def q_ctx(q):
    F = quadratic_hyperfield(gf(q))
    return F, IsometryContext(F)


def laurent_extension(F, var="t"):
    """The table of F((t)) from that of F = Q(K), the hyperfield of K((t)).

    Nonzero classes are (a, i) with a in F* and i in {0, 1} (a*t^i), named
    by appending var when i = 1, and the product adds parities mod 2.  The
    cell of (a, i) + (b, j) is {(a, i), (b, j)} when i != j; when i == j it
    is {(c, i) : c in a + b, c != 0}, or the whole carrier when 0 is in
    a + b.
    """
    elems = [None] + [(a, i) for i in (0, 1) for a in F.nonzero()]
    index = {e: k for k, e in enumerate(elems)}
    n = len(elems)

    def mul(x, y):
        if x == 0 or y == 0:
            return 0
        (a, i), (b, j) = elems[x], elems[y]
        return index[(F.mul(a, b), (i + j) % 2)]

    def add(x, y):
        if x == 0 or y == 0:
            return {x + y}
        (a, i), (b, j) = elems[x], elems[y]
        if i != j:
            return {x, y}
        cell = F.add(a, b)
        if F.zero in cell:
            return set(range(n))
        return {index[(c, i)] for c in cell}

    neg = [0] + [index[(F.neg(a), i)] for a, i in elems[1:]]
    names = ["0"] + [F.names[a] + var * i for a, i in elems[1:]]
    return Hyperfield(
        zero=0,
        one=index[(F.one, 0)],
        neg=neg,
        mul=[[mul(x, y) for y in range(n)] for x in range(n)],
        add=[[add(x, y) for y in range(n)] for x in range(n)],
        names=names,
    )


def two_step_laurent(F=None):
    """E((t))((s)), or F((t))((s)) for a given F."""
    return laurent_extension(laurent_extension(euclidean_hyperfield() if F is None else F), "s")


def four_class_fleet():
    """E((t)), Q(GF(3))((t)) and Q(GF(5))((t)): 4 nonzero classes each."""
    return [laurent_extension(F) for F in (euclidean_hyperfield(), q_ctx(3)[0], q_ctx(5)[0])]


def modular_ring(n):
    """Z/n with singleton addition: the tables of a field only for prime n."""
    return Hyperfield(
        zero=0,
        one=1,
        neg=[(-a) % n for a in range(n)],
        mul=[[(a * b) % n for b in range(n)] for a in range(n)],
        add=[[frozenset([(a + b) % n]) for b in range(n)] for a in range(n)],
        names=[str(a) for a in range(n)],
    )


def q_ids(qs):
    return " ".join(f"Q{q}" for q in qs)


QS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
FOUR_CLASS = "E(t) Q3(t) Q5(t)"
WITT_QS = q_ids(QS)
# every structure a fleet below names, by its id
STRUCTURES = {"E": euclidean_hyperfield(), **{f"Q{q}": q_ctx(q)[0] for q in QS}}
STRUCTURES.update(zip(FOUR_CLASS.split(), four_class_fleet()))
STRUCTURES.update({"E(t)(s)": two_step_laurent(), "Q3(t)(s)": two_step_laurent(STRUCTURES["Q3"])})


def structures(ids):
    """The structures of a string of space-separated ids."""
    return [STRUCTURES[i] for i in ids.split()]


def cases(*groups):
    """The (structure, size) cases of (ids, size) groups, and their ids."""
    named = [(i, size) for ids, size in groups for i in ids.split()]
    return [(STRUCTURES[i], size) for i, size in named], [i for i, _ in named]


# -- fleets ----------------------------------------------------------------

# the fields on which the slow references finish in a second or so
ORACLE_SIZES = (2, 3, 4, 5, 7, 9)
# the Q(GF(q)) of the pre-quadratic ladder and canonical-form tests
PRE_QUADRATIC_FLEET = ORACLE_SIZES

# GF(q) and Q(GF(q)) beside E, for the ladders and the quotients
FLEET_FIELDS = (2, 3, 4, 5, 7, 9, 13)
# the prime fields to 127 and the extensions to GF(169), on which the table
# builders are compared with their references
TABLE_FIELDS = [(p, 1) for p in range(2, 129) if _is_prime(p)]
TABLE_FIELDS += [(p, n) for p, n in DEFAULT_MODULI if p**n <= 169]
# every GF(q) with q < 32
REFERENCE_FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)
# the hyperfields that round-trip through documents
HYPERFIELDS = [STRUCTURES["E"], from_field(gf(4)), STRUCTURES["Q3"], STRUCTURES["Q7"]]
# the bases of the powerset ladders' mutants
POWERSET_BASES = [STRUCTURES["E"], *(from_field(gf(q)) for q in (2, 3, 4, 5)), STRUCTURES["Q3"],
                  prime_hyperfield(from_field(gf(3)))]


def fleet():
    out = [("euclidean3", euclidean_hyperfield())]
    for q in FLEET_FIELDS:
        k = gf(q)
        out.append((f"GF({q})", from_field(k)))
        out.append((f"Q(GF({q}))", quadratic_hyperfield(k)))
    return out


def quadratic_fleet():
    """Q(GF(q)) by q, for each q of FLEET_FIELDS."""
    return {q: quadratic_hyperfield(gf(q)) for q in FLEET_FIELDS}


def ladder_bases():
    bases = [euclidean_hyperfield()]
    for q in (2, 3, 4, 5, 7, 8, 9):
        k = gf(q)
        bases += [from_field(k), prime_hyperfield(from_field(k)), quadratic_hyperfield(k)]
    # ids reversed, so that one < zero
    bases += [relabel(F, range(F.size)[::-1]) for F in bases[:5]]
    return bases


# E((t)), Q(GF(3))((t)) and Q(GF(5))((t)) to dim 4, E((t))((s)) to dim 3
LAURENT_FLEET, LAURENT_FLEET_IDS = cases((FOUR_CLASS, 4), ("E(t)(s)", 3))
# the isometry rows against the recursion, to dim 4
ROWS_FLEET, ROWS_FLEET_IDS = cases(("E Q3 Q5 Q7 Q9 " + FOUR_CLASS, 4))
# witt_ring against the linear scan
LINEAR_SCAN_FLEET, LINEAR_SCAN_FLEET_IDS = cases(
    ("E", range(2, 9)), (WITT_QS, range(2, 6)), (FOUR_CLASS, range(2, 5)), ("E(t)(s)", range(2, 4))
)
# witt_ring against the strip-every-cell reference: E to dmax 12, Q(GF(q))
# to 6, the four-class fleet to 5, E((t))((s)) to 4 and Q(GF(3))((t))((s))
# to 5, where products of copies of one class split past dmax
STRIPPED_FLEET, STRIPPED_FLEET_IDS = cases(
    ("E", range(2, 13)), (WITT_QS, range(2, 7)), (FOUR_CLASS, range(2, 6)),
    ("E(t)(s)", range(2, 5)), ("Q3(t)(s)", range(2, 6)),
)
# E and Q(GF(q)), whose Witt tables need no fold: E to dmax 12 and 64,
# Q(GF(q)) to 6
WITT_FIELDS, WITT_FIELD_IDS = cases(("E", [*range(2, 13), 64]), (WITT_QS, range(2, 7)))
# E, Q(GF(q)) for q = 3, 4, 5, 7, 9 and the four-class fleet to dim 6,
# E((t))((s)) to dim 4: 1,262 sorted forms
STRIP_FLEET, STRIP_FLEET_IDS = cases(("E Q3 Q4 Q5 Q7 Q9 " + FOUR_CLASS, 6), ("E(t)(s)", 4))
# STRIP_FLEET capped at dim 5, for tests that build fresh contexts per query
MARKER_FLEET = [(F, min(dmax, 5)) for F, dmax in STRIP_FLEET]
# witt_ring's walked sums, none of them stripped
WALKED_FLEET, WALKED_FLEET_IDS = cases(("E", 5), ("Q3 " + FOUR_CLASS, 4))
# the least isometric sorted form, against isometry on every pair
CANONICAL_FLEET, CANONICAL_FLEET_IDS = cases(
    ("E", 6), (q_ids(PRE_QUADRATIC_FLEET), 5), (FOUR_CLASS, 4), ("E(t)(s)", 3)
)

# -- mutants ---------------------------------------------------------------


def mutate_add(F, a, b, new_cell):
    add = [[set(F.add(x, y)) for y in range(F.size)] for x in range(F.size)]
    add[a][b] = set(new_cell)
    add[b][a] = set(new_cell)
    return Hyperfield(F.zero, F.one, F.neg_table(), F.mul_table(), add, names=F.names)


def add_cell_mutants(F):
    """Every copy of F with one add cell and its mirror redrawn to another
    subset of the carrier, less the copies the constructor refuses."""
    for a, b in combinations_with_replacement(range(F.size), 2):
        for r in range(F.size + 1):
            for cell in combinations(range(F.size), r):
                if set(cell) != set(F.add(a, b)):
                    try:
                        yield mutate_add(F, a, b, cell)
                    except ValidationError:
                        pass


def mul_cell_mutants(F):
    """Every copy of F with one product a * b = b * a redrawn that the
    constructor accepts (a redrawn product with one is refused)."""
    for a in range(F.size):
        for b in range(a, F.size):
            for v in range(F.size):
                if v == F.mul(a, b):
                    continue
                mul = F.mul_table()
                mul[a][b] = mul[b][a] = v
                try:
                    yield Hyperfield(F.zero, F.one, F.neg_table(), mul, F.add_full_table())
                except ValidationError:
                    continue


def cell_mutants(F, rng, count):
    """``count`` copies of F with one or two add, mul or neg entries redrawn:
    add cells and products symmetrically, neg conjugated by a transposition
    so that it stays an involution.  Copies the constructor refuses (a
    redrawn product with one) are skipped."""
    n = F.size
    made = 0
    while made < count:
        add, mul, neg = F.add_full_table(), F.mul_table(), F.neg_table()
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(("add", "mul", "neg"))
            a, b = rng.randrange(n), rng.randrange(n)
            if kind == "add":
                add[a][b] = add[b][a] = rng.sample(range(n), rng.randint(1, n))
            elif kind == "mul":
                mul[a][b] = mul[b][a] = rng.randrange(n)
            else:
                swap = {a: b, b: a}
                neg = [swap.get(x, x) for x in (neg[swap.get(y, y)] for y in range(n))]
        try:
            G = Hyperfield(F.zero, F.one, neg, mul, add)
        except ValidationError:
            continue
        made += 1
        yield G


def zero_column_mutants(F):
    """Copies of F with x + 0 = xS for every x, for each S other than {1}
    of at most two elements: hypermonoid.i fails, while the multiplicative
    laws, which see these cells only through a(x + 0) = ax + 0, still hold."""
    for r in (1, 2):
        for S in combinations(range(F.size), r):
            if S == (F.one,):
                continue
            add = F.add_full_table()
            for x in range(F.size):
                add[x][F.zero] = add[F.zero][x] = sorted({F.mul(x, s) for s in S})
            yield Hyperfield(F.zero, F.one, F.neg_table(), F.mul_table(), add)


def relabel(F, perm):
    """F with each element x renamed perm[x]."""
    n = F.size
    back = sorted(range(n), key=perm.__getitem__)
    add = [[[perm[v] for v in F.add(back[i], back[j])] for j in range(n)] for i in range(n)]
    mul = [[perm[F.mul(back[i], back[j])] for j in range(n)] for i in range(n)]
    neg = [perm[F.neg(back[i])] for i in range(n)]
    return Hyperfield(perm[F.zero], perm[F.one], neg, mul, add)


def one_add_cell_changed(W):
    """The Witt ring W with add_table[1][1] moved to the next class: 1 + 1 is wrong."""
    add = [list(row) for row in W.add_table]
    add[1][1] = (add[1][1] + 1) % W.size
    return replace(W, add_table=add)


def mutants(R, rng, count):
    """``count`` copies of the presentable ring R with one or two add, mul or
    neg entries redrawn; most add and mul changes are made symmetrically."""
    n = R.n
    for _ in range(count):
        add = [list(r) for r in R.add]
        mul = [list(r) for r in R.mul]
        neg = list(R.neg)
        for _ in range(rng.randint(1, 2)):
            kind = rng.choice(("add", "mul", "neg"))
            v = rng.randrange(n)
            if kind == "neg":
                neg[rng.randrange(n)] = v
                continue
            table = add if kind == "add" else mul
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = v
            if rng.random() < 0.7:
                table[j][i] = v
        yield PresentableRing(R.poset, add, neg, mul, R.one, R.is_field)


def lifted_mutants(F, rng, count):
    """Powersets of ``count`` copies of F with one mul entry or one addition
    cell redrawn symmetrically: the decomposition identities hold by
    construction, so only the laws on supercompacts can fail."""
    m = F.size
    made = 0
    while made < count:
        mul, add = F.mul_table(), F.add_full_table()
        a, b = rng.randrange(m), rng.randrange(m)
        if rng.random() < 0.5:
            mul[a][b] = mul[b][a] = rng.randrange(m)
        else:
            add[a][b] = add[b][a] = rng.sample(range(m), rng.randint(1, m))
        try:
            G = Hyperfield(F.zero, F.one, F.neg_table(), mul, add)
        except ValidationError:
            continue  # a redrawn product with one; the constructor refuses it
        made += 1
        yield powerset_of_hyperfield(G)

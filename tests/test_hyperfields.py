import random
import re
from itertools import combinations

import pytest

from quadpres import hyperfields, presentable
from quadpres.errors import InputError, SizeGuardError, ValidationError
from quadpres.finitefield import ff_make
from quadpres.hyperfields import (
    AxiomReport,
    Hyperfield,
    _additive_levels,
    _multiplicative_failures,
    _multiplicative_laws_hold,
    check_hyperfield,
    euclidean_hyperfield,
    from_field,
    hyperfield_isomorphic,
    prime_hyperfield,
    quadratic_hyperfield,
    quotient_by_subgroup,
)
from quadpres.presentable import (
    quotient_by_congruence,
    quotient_mod_multiplicative_set,
    squares_pipeline,
)

from fleet import (
    REFERENCE_FIELDS, TABLE_FIELDS, cell_mutants, fleet, gf, ladder_bases, mul_cell_mutants,
    mutate_add, relabel, run_python, zero_column_mutants,
)


def test_euclidean_hyperfield_matches_printed_table():
    E = euclidean_hyperfield()
    one, minus = E.id_of("1"), E.id_of("-1")
    assert E.add(one, one) == {one}
    assert E.add(minus, minus) == {minus}
    assert E.add(one, minus) == {E.zero, one, minus}
    assert check_hyperfield(E).level_passed == "hyperfield"


def test_from_field_gives_hyperfields():
    for q in (2, 3, 4):
        assert check_hyperfield(from_field(gf(q))).passed
    k2 = ff_make(2)
    assert from_field(k2).add(1, 1) == {0}
    k3 = ff_make(3)
    assert from_field(k3).add(1, 1) == {2}
    k4 = ff_make(2, 2)
    F4 = from_field(k4)
    x = k4.q and 2  # id of x
    assert F4.add(x, x) == {0}


def test_mutated_euclidean_fails_with_witness():
    E = euclidean_hyperfield()
    bad = mutate_add(E, 1, 2, {0})  # force 1 + (-1) = {0}
    report = check_hyperfield(bad)
    assert not report.passed
    assert report.level_passed == "none"
    axioms = {name for name, _ in report.failures}
    assert "hypermonoid.iii" in axioms
    # every failure carries a witness tuple
    assert all(len(w) > 0 for _, w in report.failures)


def test_quotient_gf5_by_squares():
    # both quotient names against classes and cells read straight off field
    # arithmetic, for every subgroup T of GF(q)* (the d-th roots of unity for
    # each d | q - 1); GF(5) by its squares {1, 4} is one of the inputs
    for q in REFERENCE_FIELDS:
        k = gf(q)
        F = from_field(k)
        order = k.q - 1
        for d in (d for d in range(1, order + 1) if order % d == 0):
            T = {x for x in k.nonzero() if k.power(x, d) == 1}
            # x ~ y iff x * y^-1 is in T; zero is alone
            cls = [frozenset([0])] + [
                frozenset(y for y in k.nonzero() if k.mul(x, k.inv(y)) in T)
                for x in k.nonzero()
            ]
            for quotient in (quotient_by_subgroup, quotient_mod_multiplicative_set):
                Q = quotient(F, T)
                ref = [cls[F.id_of(name)] for name in Q.names]
                assert len(ref) == len(set(cls)) == len(set(ref)), (k.q, T)
                assert ref[Q.zero] == cls[0] and ref[Q.one] == cls[1]
                for i in range(Q.size):
                    for j in range(Q.size):
                        cell = {cls[k.add(x, y)] for x in ref[i] for y in ref[j]}
                        assert {ref[c] for c in Q.add(i, j)} == cell, (k.q, T, i, j)
                        assert ref[Q.mul(i, j)] == cls[k.mul(min(ref[i]), min(ref[j]))]


def test_quotient_by_trivial_subgroup_is_isomorphic():
    F = from_field(ff_make(5))
    Q = quotient_by_subgroup(F, {1})
    assert Q.size == F.size
    assert hyperfield_isomorphic(F, Q) is not None


def test_quotient_by_all_nonzero_collapses():
    F = from_field(ff_make(3))
    Q = quotient_by_subgroup(F, {1, 2})
    assert Q.size == 2
    one = Q.one
    assert Q.add(one, one) == {Q.zero, one}
    assert check_hyperfield(Q).passed


def test_quotient_rejects_bad_subsets():
    F = from_field(ff_make(5))
    with pytest.raises(ValidationError):
        quotient_by_subgroup(F, {0, 1})  # contains zero
    with pytest.raises(ValidationError):
        quotient_by_subgroup(F, {1, 2})  # 2*2=4 not in T
    with pytest.raises(ValidationError):
        quotient_by_subgroup(F, set())
    with pytest.raises(InputError):
        quotient_by_subgroup(F, {1, 99})  # no such id
    with pytest.raises(InputError):
        quotient_by_subgroup(F, {1, -1})  # not an id; a table read takes the last row


def test_quotient_refuses_entries_that_are_not_ids():
    # every entry that is not one of the carrier's ids takes the path of an
    # int outside the carrier, whose message is unchanged
    F = from_field(ff_make(5))
    cases = (({7}, "unknown id 7 in T"), ({1.5}, "unknown id 1.5 in T"), ({"1"}, "unknown id '1' in T"))
    for T, message in cases:
        with pytest.raises(InputError) as err:
            quotient_by_subgroup(F, T)
        assert str(err.value) == message, T


def test_prime_hyperfield_on_gf3():
    F = from_field(ff_make(3))
    P = prime_hyperfield(F)
    assert P.add(1, 1) == {1, 2}
    assert P.add(1, 2) == {0, 1, 2}
    assert check_hyperfield(P).passed
    for a in range(P.size):
        assert P.add(a, 0) == {a}


def test_prime_hyperfield_fixed_point():
    E = euclidean_hyperfield()
    assert prime_hyperfield(E) == E


def test_prime_hyperfield_requires_hyperfield():
    E = euclidean_hyperfield()
    bad = mutate_add(E, 1, 2, {0})
    with pytest.raises(ValidationError):
        prime_hyperfield(bad)


def three_case_prime(F):
    """The prime addition cell by cell: the reference for the rows that
    prime_hyperfield builds."""
    full = frozenset(range(F.size))
    add = []
    for a in range(F.size):
        row = []
        for b in range(F.size):
            if a == F.zero or b == F.zero:
                row.append(F.add(a, b))
            elif a == F.neg(b):
                row.append(full)
            else:
                row.append(F.add(a, b) | {a, b})
        add.append(row)
    return Hyperfield(
        zero=F.zero, one=F.one, neg=F.neg_table(), mul=F.mul_table(), add=add, names=F.names
    )


def test_prime_hyperfield_matches_the_three_case_definition():
    rng = random.Random(15)
    bases = ladder_bases()
    for q in (11, 13, 31, 61):
        bases += [from_field(ff_make(q)), quadratic_hyperfield(ff_make(q))]
    # zero and one away from 0 and 1
    bases += [relabel(F, rng.sample(range(F.size), F.size)) for F in bases[-4:] for _ in range(2)]
    for F in bases:
        P = prime_hyperfield(F)
        assert P == three_case_prime(F)
        assert P.names == F.names


def test_quadratic_hyperfield_gf2():
    Q = quadratic_hyperfield(ff_make(2))
    assert Q.size == 2
    assert Q.add(Q.one, Q.one) == {Q.zero, Q.one}
    assert check_hyperfield(Q).passed


def test_quadratic_hyperfield_gf7_addition_from_representations():
    k = ff_make(7)
    Q = quadratic_hyperfield(k)
    assert Q.size == 3
    squares = {pow(s, 2, 7) for s in range(1, 7)}
    # independent oracle: s^2*y + t^2*z over GF(7), (s,t) != (0,0)
    def value_classes(y, z):
        vals = set()
        for s in range(7):
            for t in range(7):
                if s == 0 and t == 0:
                    continue
                vals.add((s * s * y + t * t * z) % 7)
        return vals
    one = Q.id_of("1")
    nsq = Q.id_of("3")
    rep = {Q.id_of("0"): 0, one: 1, nsq: 3}
    vals = value_classes(1, 1)
    expected = set()
    for cid, r in rep.items():
        members = {0} if r == 0 else {(r * s) % 7 for s in squares}
        if members & vals:
            expected.add(cid)
    # q = 7 is odd and not 3 or 5, so the prime addition changes nothing
    assert Q.add(one, one) == expected


def test_quadratic_hyperfield_matches_the_quotient_path():
    # the reference: the square-class quotient of the q x q singleton table
    for p, n in TABLE_FIELDS:
        k = ff_make(p, n)
        squares = {k.mul(a, a) for a in k.nonzero()}
        Q = quadratic_hyperfield(k)
        ref = prime_hyperfield(quotient_by_subgroup(from_field(k), squares))
        assert Q == ref and Q.names == ref.names, (p, n)


def test_prime_addition_membership_property():
    # a is always in a +' b for nonzero a
    for name, F in fleet():
        if not check_hyperfield(F).passed:
            continue
        P = prime_hyperfield(F)
        for a in P.nonzero():
            for b in range(P.size):
                assert a in P.add(a, b), (name, a, b)


def test_pre_prime_vs_prime_coincidence():
    # odd q not in {3,5}: the square-class quotient already equals its prime
    # addition.  GF(4) coincides too: every nonzero element is a square, so
    # the quotient is already the 2-element structure with full 1+1.
    for q in (7, 9, 11, 13, 4):
        k = gf(q)
        pre = quotient_by_subgroup(from_field(k), {k.mul(a, a) for a in k.nonzero()})
        assert prime_hyperfield(pre) == pre
    # q in {2,3,5}: the prime step genuinely changes the table
    witnesses = {}
    for q in (2, 3, 5):
        k = gf(q)
        pre = quotient_by_subgroup(from_field(k), {k.mul(a, a) for a in k.nonzero()})
        post = prime_hyperfield(pre)
        diffs = [
            (a, b)
            for a in range(pre.size)
            for b in range(pre.size)
            if pre.add(a, b) != post.add(a, b)
        ]
        assert diffs, f"expected a coincidence failure for GF({q})"
        witnesses[q] = diffs[0]
    assert witnesses


def subgroups(F):
    """Every subset of F* that is closed and holds an inverse of each member."""
    nz = F.nonzero()
    for r in range(1, len(nz) + 1):
        for cand in combinations(nz, r):
            s = set(cand)
            if F.one not in s:
                continue
            if any(F.mul(a, b) not in s for a in s for b in s):
                continue
            if any(all(F.mul(a, b) != F.one for b in s) for a in s):
                continue
            yield s


def test_all_subgroup_quotients_pass(subtests=None):
    # exhaustive over subgroups of every tested hyperfield of size <= 9
    for name, F in fleet():
        if F.size > 9 or not check_hyperfield(F).passed:
            continue
        for s in subgroups(F):
            Q = quotient_by_subgroup(F, s)
            assert check_hyperfield(Q).passed, (name, s)


def test_neg_involution_and_zero_addition():
    for name, F in fleet():
        for a in range(F.size):
            assert F.neg(F.neg(a)) == a
            assert F.add(a, F.zero) == {a}


def test_isomorphic_to_itself():
    E = euclidean_hyperfield()
    iso = hyperfield_isomorphic(E, E)
    assert iso == {0: 0, 1: 1, 2: 2}


def test_q3_isomorphic_to_q7():
    Q3 = quadratic_hyperfield(ff_make(3))
    Q7 = quadratic_hyperfield(ff_make(7))
    assert Q3.size == Q7.size == 3
    iso = hyperfield_isomorphic(Q3, Q7)
    assert iso is not None


def test_isomorphic_cardinality_mismatch():
    Q2 = quadratic_hyperfield(ff_make(2))
    E = euclidean_hyperfield()
    assert hyperfield_isomorphic(Q2, E) is None


def test_euclidean_not_isomorphic_to_q3():
    # both 3 elements, but 1 + 1 differs ({1} vs both nonzero classes)
    Q3 = quadratic_hyperfield(ff_make(3))
    assert hyperfield_isomorphic(euclidean_hyperfield(), Q3) is None


def test_isomorphic_guard():
    F = from_field(ff_make(13))
    with pytest.raises(SizeGuardError):
        hyperfield_isomorphic(F, F)


def rejection(F, add_edits=(), mul_edits=()):
    """The exception type, message and witness with which the constructor
    refuses F's tables after the given ((a, b), value) edits."""
    add, mul = F.add_full_table(), F.mul_table()
    for (a, b), cell in add_edits:
        add[a][b] = cell
    for (a, b), value in mul_edits:
        mul[a][b] = value
    with pytest.raises((InputError, ValidationError)) as info:
        Hyperfield(F.zero, F.one, F.neg_table(), mul, add)
    return type(info.value), str(info.value), getattr(info.value, "witness", None)


def test_constructor_rejects_malformed_tables():
    E = euclidean_hyperfield()
    with pytest.raises(ValidationError):
        Hyperfield(0, 1, (0, 1, 1), E.mul_table(), E.add_full_table())  # bad involution
    with pytest.raises(ValidationError):
        Hyperfield(0, 0, E.neg_table(), E.mul_table(), E.add_full_table())  # zero == one
    V = ValidationError
    assert rejection(E, add_edits=[((1, 2), []), ((2, 1), [])]) == (
        V, "addition cell (1,2) is empty", (1, 2))
    assert rejection(E, add_edits=[((1, 2), [1, 5]), ((2, 1), [1, 5])]) == (
        InputError, "addition cell (1,2) mentions unknown ids", None)
    assert rejection(E, add_edits=[((1, 2), [0])]) == (V, "addition not symmetric at (1,2)", (1, 2))
    assert rejection(E, add_edits=[((2, 1), [0])]) == (V, "addition not symmetric at (1,2)", (1, 2))
    assert rejection(E, mul_edits=[((1, 2), 3)]) == (
        InputError, "multiplication table malformed", None)
    assert rejection(E, mul_edits=[((1, 2), -1), ((2, 1), -1)]) == (
        InputError, "multiplication table malformed", None)
    assert rejection(E, mul_edits=[((1, 2), 1)]) == (
        V, "multiplication not commutative at (1,2)", (1, 2))
    assert rejection(E, mul_edits=[((2, 1), 1), ((1, 2), 1)]) == (
        V, "one is not a multiplicative identity at 2", (2,))
    # two faults: the first in (a, b) order is reported, whatever its kind
    F = from_field(ff_make(5))
    assert rejection(F, add_edits=[((3, 4), []), ((4, 3), []), ((3, 1), [0])]) == (
        V, "addition not symmetric at (1,3)", (1, 3))
    assert rejection(F, add_edits=[((2, 4), []), ((4, 2), []), ((2, 2), [7]), ((3, 3), [])]) == (
        InputError, "addition cell (2,2) mentions unknown ids", None)
    assert rejection(F, mul_edits=[((2, 1), 3), ((1, 2), 3), ((0, 2), 1)]) == (
        V, "multiplication not commutative at (0,2)", (0, 2))
    assert rejection(F, mul_edits=[((3, 4), 1), ((4, 1), 2), ((1, 4), 2)]) == (
        V, "multiplication not commutative at (3,4)", (3, 4))


def row_by_row_table_check(one, mul, add):
    """The constructor's table checks a row at a time, each row's ids in
    range by the union of its cells: the reference for the constructor,
    which reads the distinct ids and cells once and scans rows only when
    that fails."""
    size = len(mul)
    mul = tuple(tuple(row) for row in mul)
    if any(len(row) != size for row in mul) or any(
        min(row) < 0 or max(row) >= size for row in mul
    ):
        raise InputError("multiplication table malformed")
    columns = tuple(zip(*mul))
    for a in range(size):
        if mul[a][one] != a:
            raise ValidationError(f"one is not a multiplicative identity at {a}", witness=(a,))
        if mul[a] != columns[a]:
            b = next(b for b in range(size) if mul[a][b] != mul[b][a])
            raise ValidationError(f"multiplication not commutative at ({a},{b})", witness=(a, b))
    if len(add) != size or any(len(row) != size for row in add):
        raise InputError("addition table malformed")
    add = tuple(tuple(map(frozenset, row)) for row in add)
    columns = tuple(zip(*add))
    for a in range(size):
        row = add[a][a:]
        ids = frozenset().union(*row)
        if all(row) and 0 <= min(ids) and max(ids) < size and row == columns[a][a:]:
            continue
        for b, cell in enumerate(row, start=a):
            if not cell:
                raise ValidationError(f"addition cell ({a},{b}) is empty", witness=(a, b))
            if any(not 0 <= x < size for x in cell):
                raise InputError(f"addition cell ({a},{b}) mentions unknown ids")
            if columns[a][b] != cell:
                raise ValidationError(f"addition not symmetric at ({a},{b})", witness=(a, b))


def refusal(check, *args):
    """None when ``check`` accepts, else the type, message and witness of its refusal."""
    try:
        check(*args)
    except (InputError, ValidationError) as err:
        return type(err), str(err), getattr(err, "witness", None)
    return None


# seeded faults in GF(31)'s tables: each edits a cell (a, b), and all but
# the one-sided kinds edit (b, a) the same way
TABLE_FAULTS = {
    "empty cell": ("add", True, lambda rng, F, a, b: []),
    "unknown id": ("add", True, lambda rng, F, a, b: [F.size if rng.random() < 0.5 else -1]),
    "asymmetric cell": ("add", False, lambda rng, F, a, b: sorted(F.add(a, b) ^ {F.one})),
    "product -1": ("mul", True, lambda rng, F, a, b: -1),
    "product size": ("mul", True, lambda rng, F, a, b: F.size),
    "non-commutative product": ("mul", False, lambda rng, F, a, b: (F.mul(a, b) + 1) % F.size),
}


def test_constructor_refusals_match_the_row_by_row_check():
    F = from_field(ff_make(31))
    rng = random.Random(31)
    early, late = range(0, 4), range(F.size - 4, F.size)
    seen = set()
    for _ in range(400):
        add, mul = F.add_full_table(), F.mul_table()
        faults = rng.sample(sorted(TABLE_FAULTS), rng.choice((1, 2)))
        for kind in faults:
            table, both, value = TABLE_FAULTS[kind]
            a, b = rng.choice(early if rng.random() < 0.5 else late), rng.randrange(F.size)
            if not both and a == b:
                b = (a + 1) % F.size
            table = add if table == "add" else mul
            table[a][b] = value(rng, F, a, b)
            if both:
                table[b][a] = table[a][b]
        expected = refusal(row_by_row_table_check, F.one, mul, add)
        assert expected is not None, faults
        assert refusal(Hyperfield, F.zero, F.one, F.neg_table(), mul, add) == expected, faults
        seen.add(re.sub(r"\d+", "", expected[1]))
    assert len(seen) >= 5, seen
    # an id that is no integer but lies in range passes both checks
    mul = F.mul_table()
    mul[2][3] = mul[3][2] = 2.5
    assert refusal(row_by_row_table_check, F.one, mul, F.add_full_table()) is None
    assert refusal(Hyperfield, F.zero, F.one, F.neg_table(), mul, F.add_full_table()) is None


def test_constructor_keeps_frozen_cells_and_wraps_others():
    # frozenset cells are kept as given; tuple, list and set cells, hashable
    # or not, are wrapped, so every table reads frozenset cells
    E = euclidean_hyperfield()
    cells = [list(map(frozenset, row)) for row in E.add_full_table()]
    kept = Hyperfield(E.zero, E.one, E.neg_table(), E.mul_table(), cells)
    assert all(kept.add(a, b) is cells[a][b] for a in range(E.size) for b in range(E.size))
    for kind in (tuple, list, set):
        for mixed in (False, True):
            add = [[kind(cell) for cell in row] for row in cells]
            if mixed:
                add[0] = cells[0]
            G = Hyperfield(E.zero, E.one, E.neg_table(), E.mul_table(), add)
            assert G == E, (kind, mixed)
            assert {type(cell) for row in G._add for cell in row} == {frozenset}, (kind, mixed)


def test_from_field_matches_the_per_cell_build():
    for p, n in ((2, 1), (2, 2), (127, 1), (1021, 1), (2, 10)):
        k = ff_make(p, n)
        elems = range(k.q)
        add = [[frozenset([k.add(a, b)]) for b in elems] for a in elems]
        names = [k.element_name(a) for a in elems]
        F = from_field(k)
        assert F == Hyperfield(0, 1, k._neg, k._mul, add, names=names), k.q
        assert F.names == tuple(names), k.q


# the quotient builder with a class-image memo per distinct cell: the
# reference for _quotient_tables, which maps each class pair's members once
def memo_quotient_tables(F, class_of):
    """The quotient of F whose classes are numbered by ``class_of``.

    abar is in bbar + cbar iff a' is in b' + c' for some members of the three
    classes; every class is represented and named by its least member.
    """
    m = max(class_of) + 1
    reps = [None] * m
    for x in reversed(range(F.size)):
        reps[class_of[x]] = x
    cells = [[set() for _ in range(m)] for _ in range(m)]
    image = {}
    for a, row in enumerate(F._add):
        out = cells[class_of[a]]
        for b, cell in enumerate(row[a:], start=a):
            classes = image.get(cell)
            if classes is None:
                classes = image[cell] = {class_of[x] for x in cell}
            out[class_of[b]] |= classes
    add = [[cells[i][j] | cells[j][i] for j in range(m)] for i in range(m)]
    neg = [class_of[F.neg(r)] for r in reps]
    mul = [[class_of[F.mul(ra, rb)] for rb in reps] for ra in reps]
    names = [F.names[r] for r in reps]
    return Hyperfield(
        zero=class_of[F.zero], one=class_of[F.one], neg=neg, mul=mul, add=add, names=names
    )


def test_quotient_tables_match_the_memo_reference(monkeypatch):
    # every quotient path goes through _quotient_tables; each call is
    # checked against the reference on the same classes
    built = hyperfields._quotient_tables
    calls = []

    def checked(F, class_of):
        Q, ref = built(F, class_of), memo_quotient_tables(F, class_of)
        assert Q == ref and Q.names == ref.names, (F, class_of)
        calls.append(Q.size)
        return Q

    monkeypatch.setattr(hyperfields, "_quotient_tables", checked)
    monkeypatch.setattr(presentable, "_quotient_tables", checked)
    for p, n in TABLE_FIELDS:
        k = ff_make(p, n)
        g, order = k.generator(), k.q - 1
        P = prime_hyperfield(from_field(k))
        for F in (from_field(k), P):
            # F* is cyclic: one subgroup of each index d dividing q - 1
            for d in range(1, 7):
                if order % d == 0:
                    quotient_by_subgroup(F, {k.power(g, d * i) for i in range(order // d)})
        squares_pipeline(P)
    E = euclidean_hyperfield()
    quotient_mod_multiplicative_set(E, {1})
    quotient_mod_multiplicative_set(E, {1, 2})
    squares_pipeline(E)
    quotient_by_congruence(E, [[0], [1], [2]])
    quotient_by_congruence(from_field(ff_make(5)), [[0], [1, 4], [2, 3]])
    for p in (5, 7):
        k = ff_make(p)
        squares = {k.mul(a, a) for a in k.nonzero()}
        cosets = {frozenset(k.mul(x, s) for s in squares) for x in k.nonzero()}
        quotient_by_congruence(from_field(k), [[0]] + sorted(sorted(c) for c in cosets))
    # classes not numbered by their least members, and tables that are not
    # distributive, where cell (a, b) of a class pair is not the image of a
    # cell (at, bt) for a unit t: the lower triangle of class pairs counts
    classes = [[0], [4, 9], [3, 10], [2, 11], [5, 8], [1, 12], [6, 7]]  # x ~ -x in GF(13)
    quotient_by_congruence(prime_hyperfield(from_field(ff_make(13))), classes)
    rng = random.Random(3)
    for F in (from_field(ff_make(7)), prime_hyperfield(from_field(ff_make(11)))):
        for _ in range(40):
            a, b = rng.randrange(F.size), rng.randrange(F.size)
            G = mutate_add(F, a, b, rng.sample(range(F.size), rng.randint(1, 3)))
            quotient_by_subgroup(G, {1, F.size - 1})
    assert len(calls) > 380


# the subgroup test pair by pair, in T's iteration order: the reference for
# the exception type, message and witness with which quotient_by_subgroup
# refuses T
def pairwise_subgroup_check(F, T):
    T = frozenset(T)
    if not T:
        raise ValidationError("T is empty")
    if F.zero in T:
        raise ValidationError("T contains zero", witness=(F.zero,))
    for s in T:
        if not 0 <= s < F.size:
            raise InputError(f"unknown id {s} in T")
    for s in T:
        for t in T:
            if F.mul(s, t) not in T:
                raise ValidationError(
                    f"T not multiplicatively closed at ({s},{t})", witness=(s, t)
                )
        if not any(F.mul(s, t) == F.one for t in T):
            raise ValidationError(f"{s} has no inverse inside T", witness=(s,))


# the classes by a union-find over every pair (a, s) in F x T: each a is
# joined to the first element whose orbit reached each member of aT, so the
# classes are the chains of orbits that meet; the reference for the classes
# of quotient_by_subgroup, which joins distinct orbits only
def pairwise_orbit_classes(F, T):
    parent = list(range(F.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {}
    for a in range(F.size):
        for s in T:
            first = owner.setdefault(F.mul(a, s), a)
            ra, rf = find(a), find(first)
            if ra != rf:
                parent[max(ra, rf)] = min(ra, rf)
    ids = {}
    return [ids.setdefault(find(x), len(ids)) for x in range(F.size)]


def reference_quotient(F, T):
    pairwise_subgroup_check(F, T)
    return hyperfields._quotient_tables(F, pairwise_orbit_classes(F, T))


def outcome(quotient, F, T):
    """quotient(F, T) as its tables and names, or as the type, message and
    witness of the error it raises."""
    try:
        Q = quotient(F, T)
    except (InputError, ValidationError) as err:
        return type(err), str(err), getattr(err, "witness", None)
    return Q, Q.names


def test_quotient_classes_match_the_pairwise_union():
    for _, F in fleet():
        if F.size <= 9:
            for T in subgroups(F):
                assert outcome(quotient_by_subgroup, F, T) == outcome(reference_quotient, F, T)
    # tables whose products are not associative can have orbits that meet
    # without being equal; the classes then join the chain of such orbits
    chains = 0
    for q in (5, 7, 8, 9, 11, 13):
        F = from_field(gf(q))
        T = {F.one, F.neg(F.one)}
        for G in mul_cell_mutants(F):
            expected = outcome(reference_quotient, G, T)
            assert outcome(quotient_by_subgroup, G, T) == expected, (q, G.mul_table())
            orbits = {frozenset(G.mul(x, t) for t in T) for x in range(G.size)}
            meet = sum(map(len, orbits)) > len(frozenset().union(*orbits))
            chains += meet and isinstance(expected[0], Hyperfield)
    assert chains > 0


def test_quotient_refusals_match_the_pairwise_check():
    rng = random.Random(23)
    refused = 0
    for q in (7, 8, 9):
        F = from_field(gf(q))
        nz = F.nonzero()
        subsets = [set(c) for r in (1, 2, 3) for c in combinations(nz, r)]
        subsets += [set(rng.sample(nz, rng.randint(1, len(nz)))) for _ in range(40)]
        subsets += [set(), {F.zero, F.one}, {F.one, 99}, {F.one, -1}]
        for G in [F, *rng.sample(list(mul_cell_mutants(F)), 6)]:
            for T in subsets:
                expected = outcome(reference_quotient, G, T)
                assert outcome(quotient_by_subgroup, G, T) == expected, (G.mul_table(), T)
                refused += not isinstance(expected[0], Hyperfield)
    assert refused > 1000, refused


def test_quotient_class_names_use_min_member():
    k = ff_make(7)
    Q = quotient_by_subgroup(from_field(k), {1, 2, 4})
    assert set(Q.names) == {"0", "1", "3"}


# the cell-by-cell ladder: the reference that the row passes of
# check_hyperfield and its stages must match report for report
def cell_by_cell_ladder(F: Hyperfield, scalars) -> AxiomReport:
    """The axiom ladder with the scaled coordinate of each triple law taken
    from ``scalars``; with the whole carrier it checks every triple."""
    carrier = range(F.size)
    z = F.zero

    failures = []
    for a in carrier:
        if F.add(a, z) != frozenset([a]):
            failures.append(("hypermonoid.i", (a, sorted(F.add(a, z)))))
    for a in scalars:
        for b in carrier:
            for c in carrier:
                left = frozenset().union(*(F.add(a, x) for x in F.add(b, c)))
                right = frozenset().union(*(F.add(y, c) for y in F.add(a, b)))
                if left != right:
                    failures.append(("hypermonoid.iii", (a, b, c, sorted(left), sorted(right))))
    if failures:
        return AxiomReport("none", failures)

    for a in carrier:
        if z not in F.add(a, F.neg(a)):
            failures.append(("hypergroup.i", (a,)))
    for a in carrier:
        for b in scalars:
            for c in carrier:
                if a in F.add(b, c) and c not in F.add(a, F.neg(b)):
                    failures.append(("hypergroup.ii", (a, b, c)))
    if failures:
        return AxiomReport("hypermonoid", failures)

    failures = cell_by_cell_multiplicative(F, scalars)
    if failures:
        return AxiomReport("hypergroup", failures)

    for a in carrier:
        if a == z:
            continue
        if not any(F.mul(a, b) == F.one for b in carrier):
            failures.append(("hyperfield.inverses", (a,)))
    if failures:
        return AxiomReport("hyperring", failures)
    return AxiomReport("hyperfield", [])


def cell_by_cell_multiplicative(F: Hyperfield, scalars):
    """The hyperring-level failures, cell by cell, with the scaled
    coordinate of each triple law taken from ``scalars``."""
    carrier = range(F.size)
    z = F.zero
    failures = []
    for a in scalars:
        for b in carrier:
            for c in carrier:
                if F.mul(a, F.mul(b, c)) != F.mul(F.mul(a, b), c):
                    failures.append(("mul.associative", (a, b, c)))
    for a in carrier:
        if F.mul(z, a) != z:
            failures.append(("hyperring.i", (a,)))
    for a in scalars:
        for b in carrier:
            for c in carrier:
                left = frozenset(F.mul(a, x) for x in F.add(b, c))
                right = F.add(F.mul(a, b), F.mul(a, c))
                if left != right:
                    failures.append(("hyperring.ii", (a, b, c, sorted(left), sorted(right))))
    return failures


# the coordinate of each triple law that the reduced ladder scales to 0 or 1
SCALED = {"hypermonoid.iii": 0, "hypergroup.ii": 1, "mul.associative": 0, "hyperring.ii": 0}


def test_reduced_ladder_matches_full_ladder_on_mutants():
    # the cell-by-cell full-carrier ladder is the reference: the row passes
    # give its report exactly on the full path; on the reduced path they give
    # the same level and exactly its witnesses at the scalar triples (so a
    # subset of them, non-empty exactly when they are), as the cell-by-cell
    # ladder at those scalars does
    rng = random.Random(6)
    paths = {True: 0, False: 0}
    for F in ladder_bases():
        for G in cell_mutants(F, rng, 40):
            carrier = range(G.size)
            reduced, full = check_hyperfield(G), cell_by_cell_ladder(G, carrier)
            # the full-carrier stages, on every mutant whichever path it takes
            additive = _additive_levels(G, carrier)
            if full.level_passed in ("none", "hypermonoid"):
                assert additive == full
            else:
                assert additive == AxiomReport("hypergroup")
            multiplicative = list(_multiplicative_failures(G, carrier))
            assert multiplicative == cell_by_cell_multiplicative(G, carrier)
            reduced_path = _multiplicative_laws_hold(G)
            paths[reduced_path] += 1
            expected = full.failures
            if reduced_path:
                scalars = sorted((G.zero, G.one))
                assert reduced == cell_by_cell_ladder(G, scalars)
                expected = [f for f in expected if f[0] not in SCALED or f[1][SCALED[f[0]]] in scalars]
            assert reduced.level_passed == full.level_passed
            assert reduced.failures == expected
            assert bool(reduced.failures) == bool(full.failures)
    assert min(paths.values()) >= 100, paths


def test_scalar_zero_is_checked_when_hypermonoid_i_fails():
    mutants, scaled_by_zero = 0, 0
    for F in ladder_bases():
        for G in zero_column_mutants(F):
            assert _multiplicative_laws_hold(G)
            report = check_hyperfield(G)
            assert report == cell_by_cell_ladder(G, sorted((G.zero, G.one)))
            assert report.level_passed == "none"
            assert report.failures[0][0] == "hypermonoid.i"
            mutants += 1
            scaled_by_zero += any(
                axiom == "hypermonoid.iii" and wit[0] == G.zero for axiom, wit in report.failures
            )
    assert mutants > 0
    assert scaled_by_zero > 0


def test_distributivity_at_zero_is_the_cell_zero_plus_zero():
    # _multiplicative_laws_hold reads the law at a = 0 off 0 + 0 alone;
    # every redrawn 0 + 0 other than {0} must fail it, and the ladder must
    # still give the cell-by-cell report
    mutants = 0
    for F in ladder_bases():
        z = F.zero
        for r in (1, 2):
            for S in combinations(range(F.size), r):
                add = F.add_full_table()
                add[z][z] = list(S)
                G = Hyperfield(F.zero, F.one, F.neg_table(), F.mul_table(), add)
                reduced_path = _multiplicative_laws_hold(G)
                assert reduced_path == (S == (z,) and _multiplicative_laws_hold(F))
                scalars = sorted((z, G.one)) if reduced_path else range(G.size)
                assert check_hyperfield(G) == cell_by_cell_ladder(G, scalars)
                mutants += 1
    assert mutants > 300


def test_ladder_guard_refuses_large_tables_before_any_triple(monkeypatch):
    F = from_field(ff_make(277))  # 277^3 > 20,000,000 >= 271^3
    mul = F.mul_table()
    mul[2][3] = mul[3][2] = 5
    G = Hyperfield(F.zero, F.one, F.neg_table(), mul, F.add_full_table())

    def triple_loop(*args):
        raise AssertionError("the triple loop ran")

    monkeypatch.setattr(hyperfields, "_additive_levels", triple_loop)
    with pytest.raises(SizeGuardError):
        check_hyperfield(G)


def test_ladder_guard_edge_in_a_subprocess():
    # 271 elements, the most TRIPLE_BUDGET admits (271^3 = 19,902,511), with
    # one product redrawn, so the whole carrier is checked.  Bound 60 s; on a
    # shared 2-core x86 container it took 7-13 s
    code = (
        "from quadpres.finitefield import ff_make\n"
        "from quadpres.hyperfields import Hyperfield, check_hyperfield, from_field\n"
        "F = from_field(ff_make(271))\n"
        "mul = F.mul_table()\n"
        "mul[2][3] = mul[3][2] = 5\n"
        "G = Hyperfield(F.zero, F.one, F.neg_table(), mul, F.add_full_table())\n"
        "r = check_hyperfield(G)\n"
        "print(r.level_passed, len(r.failures), r.first_failure())\n"
    )
    done = run_python("-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "hypergroup 3756 ('mul.associative', (2, 2, 3))\n"


def multiplicative_preconditions(F):
    """What _multiplicative_laws_hold checks besides the hyperring laws, cell
    by cell: F* closed with inverses, -b = b(-1), and 0 + 0 = {0}."""
    z, nz = F.zero, F.nonzero()
    closed = all(F.mul(x, y) != z for x in nz for y in nz)
    inverses = all(any(F.mul(x, y) == F.one for y in nz) for x in nz)
    minus = all(F.neg(b) == F.mul(b, F.neg(F.one)) for b in range(F.size))
    return closed and inverses and minus and F.add(z, z) == {z}


def test_reduced_check_is_exact_on_mutants():
    # Light's generator argument: the laws at the generators of F* hold iff
    # they hold at every scalar, given the preconditions
    rng = random.Random(22)
    tables = [G for F in ladder_bases() for G in [*cell_mutants(F, rng, 40), *zero_column_mutants(F)]]
    # {0, 1, e} with ee = e and x + y = {max(x, y)}: the laws hold, and only
    # the precondition on inverses refuses it
    add = [[{0}, {1}, {2}], [{1}, {1}, {2}], [{2}, {2}, {2}]]
    tables.append(Hyperfield(0, 1, (0, 1, 2), [[0, 0, 0], [0, 1, 2], [0, 2, 2]], add))
    verdicts = {True: 0, False: 0}
    for G in tables:
        failures = _multiplicative_failures(G, range(G.size))
        exact = multiplicative_preconditions(G) and next(failures, None) is None
        assert _multiplicative_laws_hold(G) == exact
        verdicts[exact] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_ladder_passes_gf127():
    assert check_hyperfield(from_field(ff_make(127))).level_passed == "hyperfield"

import random
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

import pytest

from quadpres import quadratic
from quadpres.errors import InputError, SizeGuardError, ValidationError
from quadpres.finitefield import ff_make, square_classes
from quadpres.hyperfields import (
    AxiomReport,
    Hyperfield,
    _multiplicative_failures,
    _multiplicative_laws_hold,
    check_hyperfield,
    euclidean_hyperfield,
    from_field,
    prime_hyperfield,
    quadratic_hyperfield,
)
from quadpres.oracle import classical_witt_ring
from quadpres.quadratic import (
    Form,
    IsometryContext,
    WittClass,
    WittRing,
    _binary_rows,
    _equivalence_failures,
    _isometry_rows,
    check_prequadratic,
    check_quadratic,
    check_special_group,
    form_product,
    isometric,
    orthogonal_sum,
    ring_isomorphic,
    special_group_of,
    tensor_product,
    witt_ring,
)

from fleet import (
    CANONICAL_FLEET, CANONICAL_FLEET_IDS, FOUR_CLASS, LAURENT_FLEET, LAURENT_FLEET_IDS, LINEAR_SCAN_FLEET,
    LINEAR_SCAN_FLEET_IDS, MARKER_FLEET, ORACLE_SIZES, PRE_QUADRATIC_FLEET, ROWS_FLEET, ROWS_FLEET_IDS,
    STRIP_FLEET, STRIP_FLEET_IDS, STRIPPED_FLEET, STRIPPED_FLEET_IDS, STRUCTURES, TABLE_FIELDS, WALKED_FLEET,
    WALKED_FLEET_IDS, WITT_FIELD_IDS, WITT_FIELDS, add_cell_mutants, cases, cell_mutants, four_class_fleet,
    gf, ladder_bases, laurent_extension, mutate_add, one_add_cell_changed, q_ctx, relabel, run_python,
    structures, two_step_laurent,
)


def euclid_ctx():
    return IsometryContext(euclidean_hyperfield())


# the paper's recursion, pair by pair: the reference for the rows of
# quadratic._isometry_rows, which check_quadratic and check_special_group read
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


def inductive_isometry(F):
    return _inductive_isometry(F.nonzero(), _binary_isometry(F._mul, F._add))


def test_prequadratic_euclidean_passes():
    assert check_prequadratic(euclidean_hyperfield()).passed


def test_prequadratic_plain_field_fails_axiom_i():
    report = check_prequadratic(from_field(ff_make(5)))
    assert not report.passed
    assert report.first_failure()[0] == "prequadratic.i"


def test_prequadratic_quadratic_hyperfields_pass():
    for q in PRE_QUADRATIC_FLEET:
        F, _ = q_ctx(q)
        assert check_prequadratic(F).passed, q


# the triple loop: the reference for check_prequadratic, which checks the
# product rule as one set inclusion per pair (b, c)
def loop_check_prequadratic(F: Hyperfield) -> AxiomReport:
    """The three axioms: a in a+b for nonzero a; the 1-b product rule;
    squares of nonzero elements are 1."""
    failures = []
    nz = F.nonzero()
    for a in nz:
        for b in range(F.size):
            if a not in F.add(a, b):
                failures.append(("prequadratic.i", (a, b)))
    for b in range(F.size):
        for c in range(F.size):
            one_minus_b = F.sub(F.one, b)
            one_minus_c = F.sub(F.one, c)
            one_minus_bc = F.sub(F.one, F.mul(b, c))
            for a in range(F.size):
                if a in one_minus_b and a in one_minus_c and a not in one_minus_bc:
                    failures.append(("prequadratic.ii", (a, b, c)))
    for a in nz:
        if F.mul(a, a) != F.one:
            failures.append(("prequadratic.iii", (a,)))
    return AxiomReport("prequadratic" if not failures else "none", failures)


def test_prequadratic_matches_the_triple_loop():
    tables = [euclidean_hyperfield()]
    for k in (ff_make(p, n) for p, n in TABLE_FIELDS if p**n <= 127):
        tables += [from_field(k), prime_hyperfield(from_field(k)), quadratic_hyperfield(k)]
    rng = random.Random(18)
    tables += [G for F in ladder_bases() for G in cell_mutants(F, rng, 40)]
    kinds = set()
    for F in tables:
        report = check_prequadratic(F)
        assert report == loop_check_prequadratic(F), F
        kinds.update(axiom for axiom, _ in report.failures)
    assert kinds == {"prequadratic.i", "prequadratic.ii", "prequadratic.iii"}


def test_unary_isometry_is_equality():
    ctx = euclid_ctx()
    assert ctx.isometric(Form((1,)), Form((1,)))
    assert not ctx.isometric(Form((1,)), Form((2,)))
    assert isometric(euclidean_hyperfield(), Form((2,)), Form((2,)))


def test_euclidean_binary_isometries():
    ctx = euclid_ctx()
    one, minus = 1, 2
    assert ctx.isometric(Form((one, minus)), Form((minus, one)))
    # products agree but -1 is not in 1 + 1 = {1}
    assert not ctx.isometric(Form((one, one)), Form((minus, minus)))


def test_dimension_mismatch_is_an_error():
    ctx = euclid_ctx()
    with pytest.raises(InputError):
        ctx.isometric(Form((1,)), Form((1, 1)))
    with pytest.raises(InputError):
        ctx.isometric(Form((0, 1)), Form((1, 1)))  # zero entry


def test_binary_isometry_matches_field_criterion_odd_q():
    # same discriminant class and head representation, derived from field
    # arithmetic directly
    for q in (7, 9, 11, 13):
        k = gf(q)
        F = quadratic_hyperfield(k)
        ctx = IsometryContext(F)
        sq = square_classes(k)
        reps = {i: min(c) for i, c in enumerate(sq.classes)}
        # map square-class index -> hyperfield id via names
        to_f = {i: F.id_of(k.element_name(reps[i])) for i in range(len(sq.classes)) if i != sq.zero_class}
        squares_set = {k.mul(s, s) for s in k.nonzero()}
        def represented(c, a, b):
            for s in range(k.q):
                for t in range(k.q):
                    if (s, t) == (0, 0):
                        continue
                    if k.add(k.mul(k.mul(s, s), a), k.mul(k.mul(t, t), b)) == c:
                        return True
            return False
        nz_classes = [i for i in range(len(sq.classes)) if i != sq.zero_class]
        for a, b, c, d in product(nz_classes, repeat=4):
            ra, rb, rc, rd = reps[a], reps[b], reps[c], reps[d]
            same_disc = sq.class_of[k.mul(ra, rb)] == sq.class_of[k.mul(rc, rd)]
            field_iso = same_disc and represented(rc, ra, rb)
            hyper_iso = ctx.isometric(
                Form((to_f[a], to_f[b])), Form((to_f[c], to_f[d]))
            )
            assert field_iso == hyper_iso, (q, a, b, c, d)


def test_check_quadratic_q3():
    F, _ = q_ctx(3)
    report = check_quadratic(F, 4)
    assert report.passed
    assert report.notes["low_dims"] is True


def test_check_quadratic_euclidean():
    report = check_quadratic(euclidean_hyperfield(), 5)
    assert report.passed


def test_check_quadratic_corrupted_table_names_first_layer():
    F, _ = q_ctx(2)
    bad = mutate_add(F, F.one, F.one, {F.zero})  # drop 1 from 1 + 1
    report = check_quadratic(bad, 3)
    assert not report.passed
    assert report.notes.get("layer") == "prequadratic"
    assert report.first_failure()[0] == "prequadratic.i"


def test_quadratic_budget_guard():
    with pytest.raises(SizeGuardError):
        check_quadratic(quadratic_hyperfield(ff_make(7)), 20)
    for dmax in (0, -3):  # nothing to check, so no verdict
        with pytest.raises(InputError, match="dmax must be at least 1"):
            check_quadratic(euclidean_hyperfield(), dmax)


def test_orthogonal_sum_and_tensor():
    E = euclidean_hyperfield()
    assert orthogonal_sum(Form((1,)), Form((2,))).entries == (1, 2)
    psi = Form((1, 2, 2))
    assert tensor_product(E, Form((1,)), psi).entries == psi.entries
    got = tensor_product(E, Form((1, 2)), Form((1, 1)))
    assert got.entries == (1, 1, 2, 2)


def test_hyperbolic_plane_is_isotropic():
    ctx = euclid_ctx()
    assert ctx.is_isotropic(Form((1, 2)))
    assert ctx.anisotropic_part(Form((1, 2))) is None


def test_euclidean_one_one_is_anisotropic():
    ctx = euclid_ctx()
    assert not ctx.is_isotropic(Form((1, 1)))
    part = ctx.anisotropic_part(Form((1, 1)))
    assert part is not None and part.entries == (1, 1)


def test_entries_that_are_not_ids_are_refused_as_unknown_ids():
    # every entry that is not one of the carrier's ids takes the path of an
    # int outside the carrier, whose message is unchanged
    ctx = euclid_ctx()
    cases = (
        ((5,), "unknown element id 5"),
        ((1.5,), "unknown element id 1.5"),
        ((1, "2"), "unknown element id '2'"),
        ((None,), "unknown element id None"),
        ((1.0,), "unknown element id 1.0"),
        ((1.0, 2), "unknown element id 1.0"),
    )
    for entries, message in cases:
        with pytest.raises(InputError) as err:
            ctx.is_isotropic(entries)
        assert str(err.value) == message, entries


def test_a_float_equal_to_an_id_is_refused_on_a_memo_miss():
    # 1.0 == 1 with an equal hash passes the set test, so each public method
    # checks for ints where it misses the memo; the float can hide inside a
    # run of equal entries, where no table is indexed by it
    calls = (
        lambda ctx: ctx.is_isotropic((1.0,)),
        lambda ctx: ctx.split_hyperbolic((1, 1.0, 1, 1, 1)),
        lambda ctx: ctx.anisotropic_part((1, 1.0, 1, 1, 1)),
        lambda ctx: ctx.anisotropic_part((1.0, 2)),
        lambda ctx: ctx.isometric((1, 2), (1.0, 2)),
        lambda ctx: ctx.isometric((1.0, 2), (1, 2)),
        lambda ctx: ctx.witt_equivalent((1, 1, 1), (1.0,)),
    )
    for call in calls:
        with pytest.raises(InputError, match=r"^unknown element id 1\.0$"):
            call(euclid_ctx())


def test_a_float_equal_to_an_id_reads_a_warm_pair_in_either_place():
    # a warm pair query reads the entry of the equal ids, whichever form of
    # the pair holds the float; negating psi on every call refused it in psi
    ctx = euclid_ctx()
    assert ctx.isometric((1, 2), (1, 2)) and ctx.witt_equivalent((1, 1, 2), (1,))
    assert ctx.isometric((1.0, 2), (1, 2))
    assert ctx.isometric((1, 2), (1.0, 2))
    assert ctx.witt_equivalent((1.0, 1, 2), (1,))
    assert ctx.witt_equivalent((1, 1, 2), (1.0,))


def test_q3_four_ones_reduce_to_zero_class():
    # over GF(3) the Witt ring is cyclic of order 4, so 4x<1> is the zero class
    F, ctx = q_ctx(3)
    one = F.one
    phi = Form((one, one, one, one))
    assert ctx.is_isotropic(phi)
    assert ctx.anisotropic_part(phi) is None
    # and 3x<1> reduces to <-1>
    part = ctx.anisotropic_part(Form((one, one, one)))
    assert part is not None and part.entries == (F.neg(one),)


def test_witt_equivalent_padding():
    F, ctx = q_ctx(3)
    one = F.one
    phi = Form((one, one))
    padded = orthogonal_sum(phi, Form((one, F.neg(one))))
    assert ctx.witt_equivalent(phi, padded)


def test_witt_equivalent_dim_mismatch_false():
    ctx = euclid_ctx()
    assert not ctx.witt_equivalent(Form((1, 1)), Form((1,)))


def test_laurent_fleet_passes_the_ladders():
    for F in four_class_fleet():
        assert len(F.nonzero()) == 4
        assert check_hyperfield(F).passed, F.names
        assert check_quadratic(F, 3).passed, F.names
    EE = two_step_laurent()
    assert len(EE.nonzero()) == 8
    assert check_hyperfield(EE).passed


def test_reduced_check_reads_every_generator():
    # E((t))* = {1, -1, t, -t} is not cyclic, so greedy closure takes two
    # generators, -1 and then t.  A redrawn sum can keep the hyperring laws
    # at -1 and break them at t: a check that read only the first generator
    # would pass these tables.  A redrawn 0 + 0 fails its own precondition
    F = laurent_extension(euclidean_hyperfield())
    gens = [F.id_of("-1"), F.id_of("1t")]
    later = []
    for a, b in combinations_with_replacement(range(F.size), 2):
        if a == b == F.zero:
            continue
        for r in range(1, F.size + 1):
            for cell in combinations(range(F.size), r):
                G = mutate_add(F, a, b, cell)
                if next(_multiplicative_failures(G, gens[:1]), None) is not None:
                    continue
                first = next(_multiplicative_failures(G, gens), None)
                if first is not None:
                    assert not _multiplicative_laws_hold(G), (a, b, cell)
                    axiom, witness = first
                    later.append(((a, b, cell), axiom, witness[:3]))
    assert len(later) == 12
    assert ((1, 2, (0,)), "hyperring.ii", (3, 1, 2)) in later


@pytest.mark.parametrize("F, dmax", LAURENT_FLEET, ids=LAURENT_FLEET_IDS)
def test_fold_agrees_with_inductive_isometry_past_two_classes(F, dmax):
    ctx = IsometryContext(F)
    iso = inductive_isometry(F)
    for d in range(1, dmax + 1):
        forms = list(combinations_with_replacement(ctx.nonzero, d))
        for a in forms:
            for b in forms:
                assert ctx.isometric(a, b) == iso(a, b), (F.names, a, b)


def recursion_rows(F, d, iso):
    """The d-dimensional relation decided pair by pair by ``iso``, as rows
    over ``product`` order."""
    forms = list(product(F.nonzero(), repeat=d))
    return [sum(1 << j for j, b in enumerate(forms) if iso(a, b)) for a in forms]


@pytest.mark.parametrize("F, dmax", ROWS_FLEET, ids=ROWS_FLEET_IDS)
def test_isometry_rows_match_the_recursion(F, dmax):
    nz = F.nonzero()
    iso = inductive_isometry(F)
    levels = list(_isometry_rows(_binary_rows(nz, F._mul, F._add), len(nz), dmax))
    assert len(levels) == dmax - 1
    for d, rows in enumerate(levels, 2):
        assert rows == recursion_rows(F, d, iso), (F.names, d)


def recursion_check_quadratic(F: Hyperfield, dmax: int) -> AxiomReport:
    """The reference for check_quadratic: the relation decided pair by pair
    by the recursion and tabulated, and the three laws checked pair by pair
    and triple by triple, in report order."""
    pre = check_prequadratic(F)
    if not pre.passed:
        return AxiomReport("none", pre.failures, notes={"layer": "prequadratic"})
    iso = inductive_isometry(F)
    failures = []
    notes = {"dims_checked": dmax, "low_dims": None}
    for d in range(1, dmax + 1):
        forms = list(product(F.nonzero(), repeat=d))
        table = {(s, t): iso(s, t) for s in forms for t in forms}
        law = f"equivalence.{{}}.dim{d}".format
        failures += [(law("reflexive"), (s,)) for s in forms if not table[s, s]]
        failures += [
            (law("symmetric"), (s, t)) for s in forms for t in forms if table[s, t] and not table[t, s]
        ]
        failures += [
            (law("transitive"), (s, t, u))
            for s in forms for t in forms if table[s, t]
            for u in forms if table[t, u] and not table[s, u]
        ]
        if d == 2:
            notes["low_dims"] = not failures
    return AxiomReport("quadratic" if not failures else "prequadratic", failures, notes=notes)


def test_check_quadratic_matches_the_recursion_on_add_cell_mutants():
    # 525 tables; 207 pass the pre-quadratic axioms, and 74 of those fail an
    # equivalence law (no reflexivity failure: a in a + b makes it hold)
    reached, failed, laws = 0, 0, set()
    for F in structures("E Q3 E(t)"):
        for G in [F, *add_cell_mutants(F)]:
            report = check_quadratic(G, 3)
            assert report == recursion_check_quadratic(G, 3), G.names
            if "layer" not in report.notes:
                reached += 1
                failed += not report.passed
                laws |= {law for law, _ in report.failures}
    assert (reached, failed) == (207, 74)
    assert laws == {f"equivalence.{law}.dim{d}" for law in ("symmetric", "transitive") for d in (2, 3)}


def triple_loop_equivalence_failures(rows, items, name):
    """The reference for _equivalence_failures: each law pair by pair and
    triple by triple, in report order."""
    n, law = len(rows), name.format
    rel = [[bool(rows[s] >> t & 1) for t in range(n)] for s in range(n)]
    return (
        [(law("reflexive"), (items[s],)) for s in range(n) if not rel[s][s]]
        + [(law("symmetric"), (items[s], items[t]))
           for s in range(n) for t in range(n) if rel[s][t] and not rel[t][s]]
        + [(law("transitive"), (items[s], items[t], items[u]))
           for s in range(n) for t in range(n) if rel[s][t]
           for u in range(n) if rel[t][u] and not rel[s][u]]
    )


def test_equivalence_failures_match_the_triple_loop(monkeypatch):
    # random relations, and partitions with one bit flipped
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 10)
        if rng.random() < 0.5:
            rows = [rng.getrandbits(n) for _ in range(n)]
        else:
            block = [rng.randrange(3) for _ in range(n)]
            rows = [sum(1 << t for t in range(n) if block[t] == block[s]) for s in range(n)]
            rows[rng.randrange(n)] ^= 1 << rng.randrange(n)
        items = [f"x{s}" for s in range(n)]
        expected = triple_loop_equivalence_failures(rows, items, "eq.{}")
        assert _equivalence_failures(rows, items, "eq.{}") == expected, rows
    # s ~ t iff s + t is odd: (s, t, u) fails for every t of the other
    # parity and every u of the same, 32 * 16 * 16 witnesses on 2 rows
    n = 32
    parity = [sum(1 << t for t in range(p, n, 2)) for p in (0, 1)]
    rows = [parity[1 - s % 2] for s in range(n)]
    monkeypatch.setattr(quadratic, "TRIPLE_BUDGET", 8192)
    expected = triple_loop_equivalence_failures(rows, range(n), "eq.{}")
    assert _equivalence_failures(rows, range(n), "eq.{}") == expected
    monkeypatch.setattr(quadratic, "TRIPLE_BUDGET", 8191)
    with pytest.raises(SizeGuardError, match="eq.transitive: 8192 witnesses; budget 8191"):
        _equivalence_failures(rows, range(n), "eq.{}")


def test_checkers_read_every_dimension_of_the_rows(monkeypatch):
    # rows whose dim-3 relation loses <1, 1, 1> ~ <1, 1, 1>, and only that
    def spy(binary, m, dmax):
        for d, rows in enumerate(_isometry_rows(binary, m, dmax), 2):
            yield [rows[0] & ~1, *rows[1:]] if d == 3 else rows

    monkeypatch.setattr(quadratic, "_isometry_rows", spy)
    E = euclidean_hyperfield()
    lost = ((E.one,) * 3,)
    report = check_quadratic(E, 4)
    assert report.failures == [("equivalence.reflexive.dim3", lost)]
    assert report.notes == {"dims_checked": 4, "low_dims": True}
    lost = ((0,) * 3,)
    assert check_special_group(special_group_of(E), 4) == AxiomReport("prespecial", [("iso_3.reflexive", lost)])


CANDIDATE_BUDGET = 200_000  # the references' cap on candidate multisets up to dmax


def linear_scan_witt_ring(F: Hyperfield, dmax: int) -> WittRing:
    """The slow reference for witt_ring: ``find`` compares each anisotropic
    part by witt_equivalent with every stored representative of its
    dimension, so the cost grows with the square of the class count.

    Enumerate anisotropic classes up to dmax and build the class tables.

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

    def find(part):
        for i, rep in enumerate(reps):
            if len(rep) == len(part) and (rep == part or ctx.witt_equivalent(part, rep)):
                return i
        return None

    growth = []
    for d in range(1, dmax + 1):
        before = len(reps)
        for cand in combinations_with_replacement(nz, d):
            if not ctx.is_isotropic(cand) and find(cand) is None:
                reps.append(cand)
        growth.append(len(reps) - before)

    def class_index(entries):
        return find(ctx.anisotropic_entries(entries) if entries else ())

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


def plane_tail(ctx, entries):
    """The plane-per-fold split of validated, sorted ``entries`` on ``ctx``:
    the reference for the class table.  From the isotropic suffix
    entries[k:] of _fold, entries[:k] stay, and entries[k+1:], anisotropic,
    represents b = -entries[k]: walk the rows, taking for each entry a the
    first x of the row after it with b in a + x, and use <a, x> ~ <b, a*x*b>
    to move b down the form.  None if the form is anisotropic."""
    k, rows = ctx._fold(entries)
    if k < 0:
        return None
    add, mul, zero = ctx.F._add, ctx.F._mul, ctx.F.zero
    tail, b = list(entries[:k]), zero
    for a, after in zip(entries[k:-1], reversed(rows)):
        for x in after:
            if b in add[a][x]:
                break
        if b != zero:
            tail.append(mul[mul[a][x]][b])
        b = x
    return ctx._norm(tail)


def canonical_form(ctx, entries):
    """The lexicographically least sorted form isometric to sorted
    ``entries``, by folds alone: the least c for which entries + <-c>
    splits, that is, its least value, then the canonical form of the
    split's tail.  The reference for witt_ring's representatives
    (c,) + rep_t, read there off value sets (see witt_ring for why it is
    least)."""
    out = []
    while entries:
        for c in ctx.nonzero:
            tail = plane_tail(ctx, ctx._norm(entries + (ctx._neg[c],)))
            if tail is not None:
                break
        out.append(c)
        entries = tail
    return tuple(out)


def stripped_witt_ring(F: Hyperfield, dmax: int, context=IsometryContext) -> WittRing:
    """The reference for witt_ring's walk and tables: every anisotropic
    candidate multiset up to dmax is a class when it is its own canonical
    form, and every sum and tensor product is stripped cell by cell, on a
    ``context``, and looked up by its canonical form.
    """
    if dmax < 2:
        raise InputError("dmax must be at least 2 (the hyperbolic plane has dim 2)")
    ctx = context(F)
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
            if not ctx.is_isotropic(cand) and canonical_form(ctx, cand) == cand:
                reps.append(cand)
        growth.append(len(reps) - before)
    index = {rep: i for i, rep in enumerate(reps)}

    def class_index(entries):
        part = ctx.anisotropic_entries(entries) if entries else ()
        if len(part) > dmax:
            return None
        if part not in index:
            part = canonical_form(ctx, part)
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


@pytest.mark.parametrize("F, dmaxes", LINEAR_SCAN_FLEET, ids=LINEAR_SCAN_FLEET_IDS)
def test_witt_ring_matches_the_linear_scan(F, dmaxes):
    for dmax in dmaxes:
        W = witt_ring(F, dmax)
        ref = linear_scan_witt_ring(F, dmax)
        # dataclass equality: classes in order, both tables, zero, one, growth
        assert W == ref, dmax
        assert W.status == ref.status, dmax


@pytest.mark.parametrize("F, dmaxes", STRIPPED_FLEET, ids=STRIPPED_FLEET_IDS)
def test_witt_ring_matches_the_stripped_tables(F, dmaxes):
    for dmax in dmaxes:
        # dataclass equality: classes in order, both tables, zero, one, growth
        assert witt_ring(F, dmax) == stripped_witt_ring(F, dmax), dmax


class FoldOnlyContext(IsometryContext):
    """_strip a plane per fold by plane_tail, with no pair pass and no
    class table: the reference for _strip, the way RowByRowContext is for
    the fold's fixed point."""

    def _strip(self, entries):
        hit = self._stripped.get(entries)
        if hit is not None:
            return hit
        tail = plane_tail(self, entries) if entries else None
        result = entries if tail is None else self._strip(tail)
        self._stripped[entries] = result
        return result


@pytest.mark.parametrize("F, dmaxes", STRIPPED_FLEET, ids=STRIPPED_FLEET_IDS)
def test_witt_ring_matches_the_fold_only_stripped_tables(F, dmaxes):
    for dmax in dmaxes:
        assert witt_ring(F, dmax) == stripped_witt_ring(F, dmax, FoldOnlyContext), dmax


@pytest.mark.parametrize("F, dmax", STRIP_FLEET, ids=STRIP_FLEET_IDS)
def test_strip_is_isometric_to_the_fold_only_strip(F, dmax):
    # a context that split the form before strips it as one that did not.
    # The part has the reference's dimension, does not split, and cancels
    # against the reference's part on the fold alone (two zero classes ()
    # trivially, since a query validates the forms it cancels)
    ref, cold, warm = FoldOnlyContext(F), IsometryContext(F), IsometryContext(F)
    for d in range(1, dmax + 1):
        for entries in combinations_with_replacement(ref.nonzero, d):
            want = ref.anisotropic_entries(entries)
            warm.split_hyperbolic(entries)
            part = cold.anisotropic_entries(entries)
            assert warm.anisotropic_entries(entries) == part, (F.names, entries)
            assert len(part) == len(want), (F.names, entries)
            assert not part or ref.split_hyperbolic(part) is None, (F.names, entries)
            assert not part or ref.witt_equivalent(part, want), (F.names, entries)


@pytest.mark.parametrize("F, dmax", STRIP_FLEET, ids=STRIP_FLEET_IDS)
def test_the_class_table_names_least_parts_and_tails(F, dmax):
    # where the form less its pairs <a, -a> is isotropic, its part is the
    # least sorted form isometric to the reference's part, read off the
    # class table (over the real tower E, E((t)), E((t))((s)) no such form
    # exists); the tail psi of split_hyperbolic has H + psi isometric to the
    # form by the plane-per-fold reference, and is None exactly for
    # anisotropic forms.  Each query is asked on a fresh context
    ref = FoldOnlyContext(F)
    H = ref.hyperbolic()
    for d in range(1, dmax + 1):
        for entries in combinations_with_replacement(ref.nonzero, d):
            part = IsometryContext(F).anisotropic_entries(entries)
            rest = ref._unpaired(entries)
            if rest and IsometryContext(F).is_isotropic(rest):
                assert part == canonical_form(ref, ref.anisotropic_entries(entries)), (F.names, entries)
            tail = IsometryContext(F).split_hyperbolic(entries)
            assert (tail is None) == (not IsometryContext(F).is_isotropic(entries)), (F.names, entries)
            assert tail is None or ref.isometric(ref._norm(H + tail), entries), (F.names, entries, tail)


def test_form_queries_answer_or_refuse_on_add_cell_mutants():
    # every add-cell mutant of a STRIP_FLEET structure with at most 5
    # elements, 1,536 tables.  On every sorted form to dim 5, each query on a
    # fresh context answers or refuses the table with an InputError or a
    # ValidationError; no other exception escapes the fold or the class table
    tables, outcomes = 0, {"answered": 0, "refused": 0}
    for F, _ in STRIP_FLEET:
        if F.size > 5:
            continue
        for G in add_cell_mutants(F):
            tables += 1
            for d in range(1, 6):
                for e in combinations_with_replacement(G.nonzero(), d):
                    for call in (lambda: IsometryContext(G).is_isotropic(e),
                                 lambda: IsometryContext(G).anisotropic_entries(e),
                                 lambda: IsometryContext(G).split_hyperbolic(e),
                                 lambda: IsometryContext(G).witt_equivalent(e, e[::-1])):
                        try:
                            call()
                            outcomes["answered"] += 1
                        except (InputError, ValidationError):
                            outcomes["refused"] += 1
    assert tables == 1536
    assert sum(outcomes.values()) == 689_520 and min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize("F, dmax", STRIP_FLEET, ids=STRIP_FLEET_IDS)
def test_a_long_lived_context_strips_as_a_fresh_one(F, dmax):
    # the part is a function of the form: after splitting and testing every
    # form before it, and the form itself, a context strips it to a fresh
    # context's part.  Over Q(GF(3)), <1, -1, -1, -1> split first went on
    # to its tail <1, 1> where a fresh context cancels a pair to <-1, -1>
    warm = IsometryContext(F)
    for d in range(1, dmax + 1):
        for entries in combinations_with_replacement(warm.nonzero, d):
            warm.split_hyperbolic(entries)
            warm.is_isotropic(entries)
            want = IsometryContext(F).anisotropic_entries(entries)
            assert warm.anisotropic_entries(entries) == want, (F.names, entries)


def spy_on(monkeypatch, *names):
    """The list of (name, entries) of every call of the named methods of
    IsometryContext."""
    calls = []
    for name in names:
        def spy(self, entries, name=name, method=getattr(IsometryContext, name)):
            calls.append((name, entries))
            return method(self, entries)
        monkeypatch.setattr(IsometryContext, name, spy)
    return calls


def test_a_pair_rich_form_strips_in_one_fold(monkeypatch):
    # <1^32, -1^16> loses its 16 planes at once and folds <1^16> once, where
    # a fold a plane took 17 folds; <1^16> is anisotropic, so no class table
    # is read.  <1^2000, -1^1999> is <1>
    forms = spy_on(monkeypatch, "_fold", "_least")
    ctx = euclid_ctx()
    assert ctx.anisotropic_part((1,) * 32 + (2,) * 16) == Form((1,) * 16)
    assert forms == [("_fold", (1,) * 16)]
    assert ctx.anisotropic_part((1,) * 2000 + (2,) * 1999) == Form((1,))


@pytest.mark.parametrize("F, dmax", WALKED_FLEET, ids=WALKED_FLEET_IDS)
def test_witt_ring_strips_no_walked_sum(F, dmax, monkeypatch):
    # a walked sum rep + <a> that does not split is named by the walk, and
    # one that splits is the class below it, by Witt cancellation
    ctx = IsometryContext(F)
    walked = {ctx._norm(c.normalized + (a,)) for c in witt_ring(F, dmax).classes if c.dim < dmax for a in ctx.nonzero}
    assert any(ctx.split_hyperbolic(form) is not None for form in walked)
    stripped = spy_on(monkeypatch, "_strip")
    witt_ring(F, dmax)
    assert walked.isdisjoint(form for _, form in stripped), F.names


def test_a_long_chain_of_planes_strips_in_a_loop(monkeypatch):
    # <1^n> over Q(GF(3)) has no pair <a, -a>: it is folded once, found
    # isotropic, and named by the class table's step, one entry at a time
    # with no fold, where splitting a plane per fold took 1,101 folds for
    # <1^4401>.  Only the queried form is memoized.  <1^2401> and E's
    # <1^1100, -1^1099> raised RecursionError when _strip called itself once
    # a plane
    forms = spy_on(monkeypatch, "_fold", "_least")
    F, ctx = q_ctx(3)
    ones = (F.one,) * 4401
    assert ctx.anisotropic_part(ones) == Form((F.one,))
    assert forms == [("_fold", ones), ("_least", ones)]
    assert ctx._stripped == {(F.one,) * 4401: (F.one,)}
    assert q_ctx(3)[1].anisotropic_part((F.one,) * 2401) == Form((F.one,))
    assert euclid_ctx().anisotropic_part((1,) * 1100 + (2,) * 1099) == Form((1,))


@pytest.mark.parametrize("F, dmax", MARKER_FLEET, ids=STRIP_FLEET_IDS)
def test_the_strip_memo_holds_only_the_forms_asked(F, dmax):
    # each memo holds one entry per distinct query, keyed as asked, entry
    # order and all: a form for isotropy and for strips, a pair for
    # isometry and Witt equivalence, whose verdicts are bools.  Splits, and
    # the forms a strip meets on its way, store nothing
    ctx, isotropic, stripped, pairs = IsometryContext(F), set(), set(), set()
    for phi in combinations_with_replacement(ctx.nonzero, dmax):
        rev, psi = phi[::-1], phi[::2]
        ctx.is_isotropic(rev)
        ctx.split_hyperbolic(phi)
        ctx.anisotropic_part(phi)
        ctx.anisotropic_entries(rev)
        ctx.witt_equivalent(phi, psi)
        ctx.isometric(phi, rev)
        isotropic.add(rev)
        stripped |= {phi, rev}
        pairs |= {(phi, psi), (phi, rev)}
    assert set(ctx._isotropic) == isotropic, F.names
    assert set(ctx._stripped) == stripped, F.names
    assert set(ctx._cancelled) == pairs, F.names
    for memo in (ctx._isotropic, ctx._cancelled):
        assert {type(v) for v in memo.values()} == {bool}, F.names


def warm_queries(F, dmax):
    """(method name, *args) of every memoized query on the sorted forms of
    F to dim dmax, each form asked reversed; witt_equivalent pairs a form
    with every other entry of it, of unequal dimension past dim 2.  Each
    query is asked with tuples, then with Forms, then with lists."""
    queries = []
    for d in range(1, dmax + 1):
        for phi in combinations_with_replacement(F.nonzero(), d):
            rev = phi[::-1]
            asked = [("is_isotropic", rev), ("anisotropic_entries", rev),
                     ("isometric", phi, rev), ("witt_equivalent", rev, phi[::2])]
            queries += [(name, *map(kind, args)) for kind in (tuple, Form, list) for name, *args in asked]
    return queries


def dim(phi):
    return len(phi.entries if isinstance(phi, Form) else phi)


def outcome(call, *args):
    """call(*args), or ("raised", type, message) if it raised."""
    try:
        return call(*args)
    except Exception as err:
        return ("raised", type(err), str(err))


def validation_refusal(ctx, forms):
    """What validating ``forms`` in order raises, as outcome gives it, or
    None if each passes."""
    for phi in forms:
        err = outcome(ctx._entries_of, phi)
        if err[:1] == ("raised",):
            return err
    return None


@pytest.mark.parametrize("F, dmax", MARKER_FLEET, ids=STRIP_FLEET_IDS)
def test_a_warm_repeat_is_one_memo_read(F, dmax, monkeypatch):
    # a query asked before is read off its memo: a tuple as passed, a Form
    # or a list once converted.  It validates, sorts, pairs, folds, walks and
    # strips nothing, and answers as a fresh context does
    queries = warm_queries(F, dmax)
    want = [getattr(IsometryContext(F), name)(*args) for name, *args in queries]
    warm = IsometryContext(F)
    for name, *args in queries:
        getattr(warm, name)(*args)
    calls = spy_on(monkeypatch, "_entries_of", "_ints", "_norm", "_unpaired", "_fold", "_least", "_strip")
    for (name, *args), verdict in zip(queries, want):
        assert getattr(warm, name)(*args) == verdict, (F.names, name, args)
        assert calls == [], (F.names, name, args)


@pytest.mark.parametrize("F, dmax", MARKER_FLEET, ids=STRIP_FLEET_IDS)
def test_a_warm_context_refuses_as_a_fresh_one(F, dmax):
    # a warm context reads its memo before it validates, and still refuses
    # each bad query with a fresh context's exception, in the same order:
    # phi before psi, validation before a dimension mismatch, and a zero
    # entry before an unhashable one after it.  A hashable query that is not
    # a tuple misses the memo as passed and is refused once converted
    warm = IsometryContext(F)
    queries = warm_queries(F, dmax)
    for name, *args in queries:
        getattr(warm, name)(*args)
    one = F.nonzero()[0]
    bad = [
        (one, F.zero), (F.size,), (-1,), (one, "2"), (None,), (1.5,),
        (float(one),) * (dmax + 1),  # equal to a form of ids no query asked
        (), [], ([1],), (F.zero, [1]), 5,
        Form((F.zero,)), frozenset({F.zero}), "12",
        [F.zero, [1]],  # converted to a new tuple that cannot be hashed
    ]
    others = [(one,), (one, one), (one,) * (dmax + 1), 5]
    calls = [("is_isotropic", b) for b in bad] + [("anisotropic_part", b) for b in bad]
    calls += [(name, *pair) for name in ("isometric", "witt_equivalent")
              for b in bad for other in others for pair in ((b, other), (other, b))]
    for name, *args in calls:
        fresh = IsometryContext(F)
        want = outcome(getattr(fresh, name), *args)
        assert want[0] == "raised", (F.names, name, args)
        refused = validation_refusal(fresh, args)  # the first form validation refuses
        assert refused is None or want == refused, (F.names, name, args)
        assert outcome(getattr(warm, name), *args) == want, (F.names, name, args)
    # isometric on a pair of unequal dimensions that witt_equivalent cached
    for name, *args in queries:
        if name == "witt_equivalent" and dim(args[0]) != dim(args[1]):
            want = ("raised", InputError, "dimension mismatch: {} vs {}".format(*map(dim, args)))
            assert outcome(IsometryContext(F).isometric, *args) == want, (F.names, args)
            assert outcome(warm.isometric, *args) == want, (F.names, args)


@pytest.mark.parametrize("name", list(STRUCTURES) + ["E zero last", "Q3 zero last"])
def test_the_stored_nonzero_ids_skip_zero_wherever_it_sits(name):
    # the tuple a hyperfield keeps is its ids less zero, whichever id zero
    # is, and a context over a relabelled table answers as over the table
    base, _, relabelled = name.partition(" ")
    F = STRUCTURES[base]
    perm = [(x - F.zero - 1) % F.size for x in range(F.size)]  # zero to the last id
    G = relabel(F, perm) if relabelled else F
    assert G.nonzero() == tuple(x for x in range(G.size) if x != G.zero), name
    assert G.nonzero() == G.nonzero(), name
    if not relabelled:
        return
    assert G.zero == G.size - 1
    ctx, ref = IsometryContext(G), IsometryContext(F)
    forms = [phi for d in range(1, 4) for phi in combinations_with_replacement(F.nonzero(), d)]
    image = {phi: tuple(perm[x] for x in phi) for phi in forms}
    for phi in forms:
        assert ctx.is_isotropic(image[phi]) == ref.is_isotropic(phi), (name, phi)
        part, want = ctx.anisotropic_entries(image[phi]), tuple(perm[x] for x in ref.anisotropic_entries(phi))
        assert len(part) == len(want) and (not part or ctx.isometric(part, want)), (name, phi)
        for psi in forms:
            assert ctx.witt_equivalent(image[phi], image[psi]) == ref.witt_equivalent(phi, psi), (name, phi, psi)
            if len(phi) == len(psi):
                assert ctx.isometric(image[phi], image[psi]) == ref.isometric(phi, psi), (name, phi, psi)


def test_tables_strip_only_past_the_found_classes(monkeypatch):
    # each entry is one lookup in rows filled before it; only a product past
    # dmax whose summands a.rep are not all one class is stripped: never on
    # a finite ring, and not on every truncated one
    stripped = spy_on(monkeypatch, "_strip")
    statuses = set()
    for F, dmaxes in STRIPPED_FLEET:
        for dmax in dmaxes:
            del stripped[:]
            status = witt_ring(F, dmax).status
            statuses.add((status, bool(stripped)))
            assert not (status == "finite" and stripped), (F.names, dmax)
    assert statuses == {("finite", False), ("truncated", False), ("truncated", True)}


@pytest.mark.parametrize("F, dmaxes", WITT_FIELDS, ids=WITT_FIELD_IDS)
def test_witt_ring_folds_nothing_on_E_and_finite_fields(F, dmaxes, monkeypatch):
    # the walk reads value sets and the tables read rows: on E, whose
    # entries past dmax are all named None by value sets, and on the finite
    # rings of Q(GF(q)), no form is folded, split or stripped
    def folded(self, entries):
        raise AssertionError(f"folded {entries}")

    for name in ("_fold", "_least", "_strip"):
        monkeypatch.setattr(IsometryContext, name, folded)
    for dmax in dmaxes:
        witt_ring(F, dmax)


@pytest.mark.parametrize("F, dmaxes", STRIPPED_FLEET, ids=STRIPPED_FLEET_IDS)
def test_every_representative_less_its_head_is_an_earlier_one(F, dmaxes):
    # rep_i = (c_i,) + rep_t for a class t < i: the shape the recurrence reads
    for dmax in dmaxes:
        index = {c.normalized: i for i, c in enumerate(witt_ring(F, dmax).classes)}
        for rep, i in index.items():
            assert not rep or index.get(rep[1:], i) < i, (F.names, dmax, rep)


def test_witt_ring_refuses_a_table_that_breaks_the_representation_rule():
    # E with 1 + 1 = {1, -1}: <1, 1> has the value -1, so <1, 1, 1> splits,
    # but no class k has rep_k + <-1> ~ <1, 1>.  With 1 + 1 = {0, 1}, <1, 1>
    # has the value 0 though -1 is no value of <1>.  Neither is a hyperfield
    E = euclidean_hyperfield()
    for cell, failure, message, witness in (
        ({1, 2}, (2, 1, 1), r"rep_3 \+ <1> = \(1, 1, 1\) has no class", (3, 1)),
        ({0, 1}, (0, 1, 1), r"rep_1 \+ <1> = \(1, 1\) has no class", (1, 1)),
    ):
        F = mutate_add(E, 1, 1, cell)
        assert check_hyperfield(F).first_failure() == ("hypergroup.ii", failure)
        with pytest.raises(ValidationError, match="the table breaks the representation rule: " + message) as err:
            witt_ring(F, 3)
        assert err.value.witness == witness


def hypersums(F, entries):
    """The hypersum of every suffix of ``entries``, a row at a time from the
    right: rows[j] for entries[j:], rows[len(entries)] = {0}.  The reference
    for the rows of _fold and for the values of a form, rows[0]."""
    rows = [{F.zero}]
    for e in reversed(entries):
        rows.insert(0, set().union(*(F.add(e, x) for x in rows[0])))
    return rows


class RowByRowContext(IsometryContext):
    """_fold built a row at a time, every row of a run again, with the same
    stop rule: the reference for the fold's fixed point."""

    def _fold(self, entries):
        F, rows = self.F, hypersums(self.F, entries)
        k = max((j for j, row in enumerate(rows[:-1]) if F.zero in row), default=-1)
        if k == len(entries) - 1:
            cell = sorted(F.add(entries[k], F.zero))
            raise ValidationError(f"hypermonoid.i fails: {entries[k]} + 0 = {cell}", witness=(entries[k], cell))
        return k, rows[k + 1:][::-1]


def fold_outcomes(ctx, entries):
    """_fold, plane_tail and _strip of sorted ``entries``, an exception as
    "raised" with its type, message and witness."""
    out = []
    for method in (ctx._fold, lambda e: plane_tail(ctx, e), ctx._strip):
        try:
            out.append(method(entries))
        except Exception as err:
            out.append(("raised", type(err), str(err), getattr(err, "witness", None)))
    return out


def test_fold_fixed_point_matches_the_row_by_row_fold():
    # 44 tables: E, Q(GF(3)), (5), (8), (9) and E's add-cell mutants to dim
    # 12, the four-class fleet to dim 5
    mutants = list(add_cell_mutants(euclidean_hyperfield()))
    tables = [(F, 12) for F in structures("E Q3 Q5 Q8 Q9") + mutants]
    tables += [(F, 5) for F in structures(FOUR_CLASS)]
    forms, raised = 0, 0
    for F, dmax in tables:
        ctx, ref = IsometryContext(F), RowByRowContext(F)
        for d in range(1, dmax + 1):
            for entries in combinations_with_replacement(ctx.nonzero, d):
                got = fold_outcomes(ctx, entries)
                assert got == fold_outcomes(ref, entries), (F.names, entries)
                forms += 1
                raised += any(x[:1] == ("raised",) for x in got if isinstance(x, tuple))
    assert (len(mutants), len(tables), forms) == (36, 44, 3987)
    assert raised > 0


def test_fold_fixed_point_reads_key_order():
    # on this redrawn E((t)), not a hyperfield, a fixed point read from
    # rows of (value, provenance) pairs depended on their key order in the
    # run of 2s of <1, 2, 2, 2, 2, 4>; the value-set fold and the walk to a
    # tail answer as the row-by-row reference on every form to dim 6
    F = laurent_extension(euclidean_hyperfield())
    for a, b, cell in ((0, 2, {3}), (0, 4, range(5)), (1, 2, {3}), (1, 3, {0, 1, 3, 4}),
                       (2, 2, {3}), (2, 3, {1, 4}), (2, 4, {2, 3})):
        F = mutate_add(F, a, b, cell)
    ctx, ref = IsometryContext(F), RowByRowContext(F)
    for d in range(1, 7):
        for entries in combinations_with_replacement(ctx.nonzero, d):
            assert fold_outcomes(ctx, entries) == fold_outcomes(ref, entries), entries


def test_split_refuses_zero_in_a_plus_zero():
    # the fold read past its last row on such a table; the ladder's
    # hypermonoid.i names the same cell.  With -1 + 0 = {0}, 0 is not in the
    # hypersum 1 + (-1 + 0) = {1} of <1, -1>, but the fold meets the
    # one-entry suffix <-1> first, and refuses
    E = euclidean_hyperfield()
    minus = E.neg(E.one)
    for a, cell, form in (((E.one, [E.zero, E.one], (E.one,))), (minus, [E.zero], (E.one, minus))):
        F = mutate_add(E, a, E.zero, cell)
        assert check_hyperfield(F).failures[0] == ("hypermonoid.i", (a, cell))
        for run in (lambda: IsometryContext(F).split_hyperbolic(form),
                    lambda: IsometryContext(F).is_isotropic(form), lambda: witt_ring(F, 3)):
            with pytest.raises(ValidationError, match=rf"hypermonoid.i fails: {a} \+ 0 = \{cell}") as err:
                run()
            assert err.value.witness == (a, cell)


def test_a_negation_onto_zero_is_refused_below_the_zero_class():
    # E with its negation swapping 0 and 1, not a hyperfield: <1, -1> has no
    # pair to cancel and 0 in its hypersum, and the class table's first step,
    # rep_0 + <1>, splits, since the negative of 1 is 0, the value of rep_0;
    # no class lies below the zero class
    E = euclidean_hyperfield()
    F = Hyperfield(E.zero, E.one, (1, 0, 2), E.mul_table(), E.add_full_table(), names=E.names)
    message = r"the table breaks the representation rule: rep_0 \+ <1> = \(1,\) has no class"
    for run in (lambda: IsometryContext(F).anisotropic_entries((1, 2)),
                lambda: IsometryContext(F).split_hyperbolic((1, 2)), lambda: witt_ring(F, 3)):
        with pytest.raises(ValidationError, match=message) as err:
            run()
        assert err.value.witness == (0, 1)


@pytest.mark.parametrize("F, dmax", MARKER_FLEET, ids=STRIP_FLEET_IDS)
def test_is_isotropic_leaves_no_tail_behind(F, dmax, monkeypatch):
    # a cold is_isotropic is one fold, with no class table and no strip;
    # a warm one folds nothing; and each query that then reads the form on
    # the same context answers as on a fresh one
    calls = spy_on(monkeypatch, "_fold", "_least", "_strip")
    neg = F.neg_table()
    for d in range(1, dmax + 1):
        for phi in combinations_with_replacement(IsometryContext(F).nonzero, d):
            k = (d + 1) // 2
            psi = tuple(neg[e] for e in phi[k:])  # phi[:k] + (-psi) is phi
            queries = [("split_hyperbolic", phi), ("anisotropic_entries", phi), ("is_isotropic", phi)]
            queries += [("witt_equivalent", phi[:k], psi)] if psi else []
            queries += [("isometric", phi[:k], psi)] if 2 * k == d else []
            for name, *args in queries:
                ctx = IsometryContext(F)
                del calls[:]
                isotropic = ctx.is_isotropic(phi)
                assert calls == [("_fold", phi)] and ctx._table is None, phi
                del calls[:]
                assert ctx.is_isotropic(phi) == isotropic and calls == [], phi
                want = getattr(IsometryContext(F), name)(*args)
                assert getattr(ctx, name)(*args) == want, (F.names, name, args)
            assert isotropic == (IsometryContext(F).split_hyperbolic(phi) is not None), phi


@pytest.mark.parametrize("F, dmax", STRIP_FLEET, ids=STRIP_FLEET_IDS)
def test_is_isotropic_is_zero_in_the_whole_hypersum(F, dmax):
    # the fold stops at the first isotropic suffix; on a quadratically
    # presentable field that answers as the hypersum of the whole form
    ctx = IsometryContext(F)
    for d in range(1, dmax + 1):
        for phi in combinations_with_replacement(ctx.nonzero, d):
            assert ctx.is_isotropic(phi) == (F.zero in hypersums(F, phi)[0]), (F.names, phi)


@pytest.mark.parametrize("F, dmax", LAURENT_FLEET, ids=LAURENT_FLEET_IDS)
def test_values_decide_whether_a_sum_of_classes_splits(F, dmax):
    # b is a value of an anisotropic phi iff phi + <-b> splits, and phi + psi,
    # both anisotropic, splits iff a value of phi is minus a value of psi:
    # the rule witt_ring reads past the found classes
    ctx, ref = IsometryContext(F), IsometryContext(F)
    neg = F.neg_table()
    reps = [c.representative.entries for c in witt_ring(F, dmax).classes[1:]]
    values = {}
    for rep in reps:
        values[rep] = hypersums(F, rep)[0]
        assert values[rep] == {b for b in ref.nonzero if ref.split_hyperbolic(rep + (neg[b],)) is not None}, rep
    for phi in reps:
        for psi in reps:
            disjoint = values[phi].isdisjoint(neg[v] for v in values[psi])
            assert disjoint == (not ctx.is_isotropic(phi + psi)), (F.names, phi, psi)
            assert disjoint == (ref.split_hyperbolic(phi + psi) is None), (F.names, phi, psi)


def run_witt_cli(dmax):
    return run_python("-m", "quadpres.cli", "witt", "--builtin", "euclidean3", "--max-dim", str(dmax), timeout=60)


def test_witt_ring_guard_edge_in_a_subprocess():
    # E at dmax 70: 141 classes and 141^2 * 70^2 = 97,416,900 product
    # entries, the most WITT_BUDGET admits on E.  Bound 60 s; it takes
    # about 0.2 s.  At dmax 71 the walk stops at the 141st class
    done = run_witt_cli(70)
    assert done.returncode == 0, done.stderr
    assert "witt: pass" in done.stdout
    assert "W: truncated at dim 70, growth 2 per dim" in done.stdout
    done = run_witt_cli(71)
    assert done.returncode == 2
    assert "error: 141 classes at dmax 71 give 100220121 product entries; budget 100000000" in done.stderr


@pytest.mark.parametrize("F, dmax", CANONICAL_FLEET, ids=CANONICAL_FLEET_IDS)
def test_canonical_is_the_least_isometric_sorted_form(F, dmax):
    ctx = IsometryContext(F)
    for d in range(1, dmax + 1):
        forms = list(combinations_with_replacement(ctx.nonzero, d))
        key = {phi: canonical_form(ctx, phi) for phi in forms}
        for phi in forms:
            assert key[phi] == tuple(sorted(key[phi])), phi
            assert key[phi] <= phi and ctx.isometric(key[phi], phi), phi
        for a in forms:
            for b in forms:
                assert (key[a] == key[b]) == ctx.isometric(a, b), (F.names, a, b)


def test_witt_ring_q3_is_finite_with_4_classes():
    F, _ = q_ctx(3)
    W = witt_ring(F, 4)
    assert W.status == "finite"
    assert W.size == 4
    assert W.summary() == "W: finite, 4 classes"
    # cyclic of order 4: 1+1+1+1 = 0
    one = W.one_class
    x = W.add_table[one][one]
    x = W.add_table[x][one]
    x = W.add_table[x][one]
    assert x == W.zero_class
    assert ring_isomorphic(W, W) is not None


def test_witt_ring_q2_is_finite_with_2_classes():
    F, _ = q_ctx(2)
    W = witt_ring(F, 4)
    assert W.status == "finite"
    assert W.size == 2
    assert W.add_table[W.one_class][W.one_class] == W.zero_class


def test_witt_ring_q5_is_klein_four():
    F, _ = q_ctx(5)
    W = witt_ring(F, 4)
    assert W.status == "finite"
    assert W.size == 4
    for i in range(W.size):
        assert W.add_table[i][i] == W.zero_class  # exponent 2


def assert_signature_ring(W, dmax):
    """W is witt_ring(E, dmax), table for table: its classes are k x <1> and
    k x <-1> for |k| <= dmax, read off the representatives as signatures,
    and each sum or product entry is the class of the sum or product of the
    signatures, None outside [-dmax, dmax]."""
    def signature(cls):
        if cls.representative is None:
            return 0
        entries = cls.representative.entries
        assert len(set(entries)) == 1, entries
        return sum(1 if e == 1 else -1 for e in entries)
    sigs = [signature(c) for c in W.classes]
    assert sorted(sigs) == sorted([0] + [s for k in range(1, dmax + 1) for s in (k, -k)])
    assert (W.zero_class, sigs[W.one_class]) == (0, 1)
    cls = {s: i for i, s in enumerate(sigs)}
    for i, si in enumerate(sigs):
        for j, sj in enumerate(sigs):
            assert W.add_table[i][j] == cls.get(si + sj), (si, sj)
            assert W.mul_table[i][j] == cls.get(si * sj), (si, sj)


def test_witt_ring_euclidean_truncated_signature():
    E = euclidean_hyperfield()
    W = witt_ring(E, 6)
    assert W.status == "truncated"
    assert W.growth == [2, 2, 2, 2, 2, 2]
    assert W.summary() == "W: truncated at dim 6, growth 2 per dim"
    assert_signature_ring(W, 6)
    # past the tier-1 references' reach: a sum or product past dmax is
    # named None by value sets, with no form built
    for dmax in (16, 32, 64):
        W = witt_ring(E, dmax)
        assert (W.size, W.status, W.growth) == (2 * dmax + 1, "truncated", [2] * dmax)
        assert_signature_ring(W, dmax)


def test_value_set_engine_scales_past_the_search():
    # the candidate search took about 45 s for these; no timing is asserted
    E = euclidean_hyperfield()
    W = witt_ring(E, 8)
    assert W.status == "truncated"
    assert W.growth == [2] * 8
    assert W.size == 17
    assert_signature_ring(W, 8)
    one, minus = E.one, E.neg(E.one)
    ctx = IsometryContext(E)
    assert not ctx.is_isotropic((one,) * 64)
    assert ctx.anisotropic_part((one,) * 32 + (minus,)) == Form((one,) * 31)


def reference_split(ctx, iso, entries):
    """The candidate search the value-set fold replaced: the first multiset
    cs with entries ~ H + cs under the inductive recursion, or None."""
    if len(entries) == 1:
        return None
    H = ctx.hyperbolic()
    for cs in combinations_with_replacement(ctx.nonzero, len(entries) - 2):
        if iso(entries, ctx._norm(H + cs)):
            return cs
    return None


def assert_split_matches_reference(ctx, iso, entries):
    tail = ctx.split_hyperbolic(entries)
    ref = reference_split(ctx, iso, entries)
    assert (tail is None) == (ref is None), entries
    if tail is not None:
        assert len(tail) == len(entries) - 2, entries
        assert iso(entries, ctx._norm(ctx.hyperbolic() + tail)), (entries, tail)
        assert not tail or iso(ctx._norm(tail), ctx._norm(ref)), (entries, tail, ref)


@pytest.mark.parametrize("q", (None,) + ORACLE_SIZES)
def test_split_hyperbolic_agrees_with_candidate_search(q):
    F = euclidean_hyperfield() if q is None else q_ctx(q)[0]
    ctx = IsometryContext(F)
    iso = inductive_isometry(F)
    for d in range(1, 8):
        for entries in combinations_with_replacement(ctx.nonzero, d):
            assert_split_matches_reference(ctx, iso, entries)
    for d in range(1, 6):
        for entries in product(ctx.nonzero, repeat=d):
            assert_split_matches_reference(ctx, iso, entries)


@pytest.mark.parametrize("dmax", [2, 3, 4])
@pytest.mark.parametrize("q", ORACLE_SIZES)
def test_witt_ring_agrees_with_classical_oracle(q, dmax):
    F, _ = q_ctx(q)
    W = witt_ring(F, dmax)
    WO = classical_witt_ring(q, dmax)
    assert W.status == WO.status == "finite"
    assert W.size == WO.size
    assert ring_isomorphic(W, WO) is not None


def group_ring_c2(W):
    """W[C2] for a finite Witt ring W: pairs (x, y) standing for x + y*t with
    t^2 = 1, added componentwise."""
    pairs = list(product(range(W.size), repeat=2))
    index = {pair: i for i, pair in enumerate(pairs)}
    add, mul = W.add_table, W.mul_table

    def times(u, v):
        (x1, y1), (x2, y2) = u, v
        return index[(add[mul[x1][x2]][mul[y1][y2]], add[mul[x1][y2]][mul[y1][x2]])]

    return WittRing(
        classes=pairs,
        add_table=[[index[(add[u[0]][v[0]], add[u[1]][v[1]])] for v in pairs] for u in pairs],
        mul_table=[[times(u, v) for v in pairs] for u in pairs],
        zero_class=index[(W.zero_class, W.zero_class)],
        one_class=index[(W.one_class, W.zero_class)],
        growth=[],
    )


def test_springer_laurent_witt_ring_is_the_group_ring():
    # Springer's theorem: W(K((t))) is W(K)[C2]
    laurent = {q: witt_ring(laurent_extension(q_ctx(q)[0]), 4) for q in (3, 5)}
    group_rings = {q: group_ring_c2(classical_witt_ring(q, 4)) for q in (3, 5)}
    for q, W in laurent.items():
        assert W.status == "finite" and W.size == 16, q
        for r, G in group_rings.items():
            assert (ring_isomorphic(W, G) is not None) == (q == r), (q, r)


def test_ring_isomorphic_rejects_truncated():
    E = euclidean_hyperfield()
    W = witt_ring(E, 4)
    with pytest.raises(InputError):
        ring_isomorphic(W, W)


def test_ring_isomorphic_rejects_incomplete_mul_table():
    F3, _ = q_ctx(3)
    W = witt_ring(F3, 4)
    mul = [list(row) for row in W.mul_table]
    mul[1][1] = None
    with pytest.raises(InputError):
        ring_isomorphic(replace(W, mul_table=mul), W)


def test_ring_isomorphic_on_a_class_with_no_additive_order():
    # add_table[1][1] moved to the next class: in some of these rings 1 + 1 + ...
    # never reaches zero, which the additive-order profile must survive
    for q in (2, 3, 5):
        F, _ = q_ctx(q)
        W = witt_ring(F, 4)
        M = one_add_cell_changed(W)
        assert M.status == "finite"
        for pair in ((M, W), (W, M)):
            found = ring_isomorphic(*pair)
            assert found is None or isinstance(found, dict), q
        assert ring_isomorphic(W, W) is not None


def test_ring_isomorphic_distinguishes_z4_from_klein():
    F3, _ = q_ctx(3)
    F5, _ = q_ctx(5)
    W3 = witt_ring(F3, 4)
    W5 = witt_ring(F5, 4)
    assert W3.size == W5.size == 4
    assert ring_isomorphic(W3, W5) is None


def test_ring_isomorphic_size_mismatch():
    F3, _ = q_ctx(3)
    F2, _ = q_ctx(2)
    assert ring_isomorphic(witt_ring(F3, 4), witt_ring(F2, 4)) is None


def test_permutation_invariance_raw_mode():
    for F in structures("E Q3 Q5"):
        iso = inductive_isometry(F)
        nz = F.nonzero()
        for d in range(1, 5):
            for entries in combinations_with_replacement(nz, d):
                for sigma in set(permutations(entries)):
                    assert iso(entries, sigma), (entries, sigma)


def test_inductive_isometry_agrees_with_fold_on_unsorted_pairs():
    for F in structures("E Q3"):
        ctx = IsometryContext(F)
        iso = inductive_isometry(F)
        nz = F.nonzero()
        for d in range(1, 4):
            for a in product(nz, repeat=d):
                for b in product(nz, repeat=d):
                    assert iso(a, b) == ctx.isometric(Form(a), Form(b)), (a, b)


def test_fold_decides_isometry_where_the_recursion_cannot_finish():
    # the inductive recursion cannot finish at dim 32; no timing is asserted
    E = euclidean_hyperfield()
    ctx = IsometryContext(E)
    one, minus = E.one, E.neg(E.one)
    forms = {k: (one,) * (32 - k) + (minus,) * k for k in range(33)}
    for i, a in forms.items():
        for j, b in forms.items():
            assert ctx.isometric(a, b) == (i == j), (i, j)
    for k in range(32):
        phi = (one,) * (31 - k) + (minus,) * k
        for unary in (one, minus):
            same_signature = 31 - 2 * k == (1 if unary == one else -1)
            assert ctx.witt_equivalent(phi, (unary,)) == same_signature, (k, unary)


def test_negation_to_zero_is_an_input_error():
    # an involutive negation that swaps 0 with a nonzero element
    E = euclidean_hyperfield()
    bad = Hyperfield(E.zero, E.one, [2, 1, 0], E.mul_table(), E.add_full_table(), names=E.names)
    ctx = IsometryContext(bad)
    with pytest.raises(InputError):
        ctx.isometric((1, 2), (1, 2))
    with pytest.raises(InputError):
        ctx.witt_equivalent((1,), (2,))


def test_isometry_preserves_products():
    for F in structures("E Q3 Q5"):
        ctx = IsometryContext(F)
        nz = F.nonzero()
        for d in range(1, 5):
            for a in combinations_with_replacement(nz, d):
                for b in combinations_with_replacement(nz, d):
                    if ctx.isometric(Form(a), Form(b)):
                        assert form_product(F, a) == form_product(F, b)


def test_sum_and_tensor_congruence():
    for F in structures("E Q3 Q5"):
        ctx = IsometryContext(F)
        nz = F.nonzero()
        d1, d2 = 3, 2
        forms1 = list(combinations_with_replacement(nz, d1))
        forms2 = list(combinations_with_replacement(nz, d2))
        for a1 in forms1:
            for b1 in forms1:
                if not ctx.isometric(Form(a1), Form(b1)):
                    continue
                for a2 in forms2:
                    for b2 in forms2:
                        if not ctx.isometric(Form(a2), Form(b2)):
                            continue
                        assert ctx.isometric(
                            orthogonal_sum(Form(a1), Form(a2)),
                            orthogonal_sum(Form(b1), Form(b2)),
                        )
                        assert ctx.isometric(
                            tensor_product(F, Form(a1), Form(a2)),
                            tensor_product(F, Form(b1), Form(b2)),
                        )


def test_witt_cancellation():
    for F in structures("E Q3 Q5 Q2"):
        ctx = IsometryContext(F)
        nz = F.nonzero()
        small = [c for d in (1, 2) for c in combinations_with_replacement(nz, d)]
        for phi1 in small:
            for phi2 in small:
                if len(phi1) != len(phi2):
                    continue
                for psi in small:
                    lhs = phi1 + psi
                    rhs = phi2 + psi
                    if ctx.isometric(Form(lhs), Form(rhs)):
                        assert ctx.isometric(Form(phi1), Form(phi2)), (phi1, phi2, psi)


def test_special_group_euclidean():
    S = special_group_of(euclidean_hyperfield())
    assert S.size == 2
    report = check_special_group(S, nmax=4)
    assert report.passed
    assert report.level_passed == "special"


def refuse_to_build_rows(monkeypatch):
    def built(*args):
        raise AssertionError("isometry rows were built")

    monkeypatch.setattr(quadratic, "_binary_rows", built)
    monkeypatch.setattr(quadratic, "_isometry_rows", built)


def test_special_group_size_guard(monkeypatch):
    # the guard prices the (2^n)^2 pairs of the top dimension: nmax 12 is
    # admitted on 2 elements, 13 is the first nmax refused.  An nmax below 2
    # is refused too: dm.i is the relation on pairs
    S = special_group_of(euclidean_hyperfield())
    assert check_special_group(S, nmax=12).level_passed == "special"
    refuse_to_build_rows(monkeypatch)
    with pytest.raises(SizeGuardError, match="2\\^13 tuples give 67108864 pairs; budget 20000000"):
        check_special_group(S, nmax=13)
    for nmax in (1, 0, -2):
        with pytest.raises(InputError, match="nmax must be at least 2"):
            check_special_group(S, nmax=nmax)


def run_in_subprocess(code):
    """Run ``code`` in a fresh interpreter that imports quadpres and the
    test fleet, with a 60 s bound; its stdout."""
    done = run_python("-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_check_quadratic_guard_edge_in_a_subprocess(monkeypatch):
    # E at dmax 12: 4,096 forms and 2^24 = 16,777,216 pairs, the most
    # TRIPLE_BUDGET admits at 2 classes.  Bound 60 s; it takes well under 1 s
    out = run_in_subprocess(
        "from quadpres.hyperfields import euclidean_hyperfield\n"
        "from quadpres.quadratic import check_quadratic\n"
        "r = check_quadratic(euclidean_hyperfield(), 12)\n"
        "print(r.level_passed, len(r.failures), r.notes)\n"
    )
    assert out == "quadratic 0 {'dims_checked': 12, 'low_dims': True}\n"
    refuse_to_build_rows(monkeypatch)
    with pytest.raises(SizeGuardError, match="2 classes at dmax 13 give 67108864 pairs; budget 20000000"):
        check_quadratic(euclidean_hyperfield(), 13)


def test_special_group_guard_edge_in_a_subprocess(monkeypatch):
    # the 8-element special group of E((t))((s)) at nmax 4: 8^8 = 16,777,216
    # pairs, the most TRIPLE_BUDGET admits at 8 elements.  Bound 60 s
    out = run_in_subprocess(
        "from quadpres.quadratic import check_special_group, special_group_of\n"
        "from fleet import two_step_laurent\n"
        "r = check_special_group(special_group_of(two_step_laurent()), 4)\n"
        "print(r.level_passed, len(r.failures))\n"
    )
    assert out == "special 0\n"
    S = special_group_of(two_step_laurent())
    refuse_to_build_rows(monkeypatch)
    with pytest.raises(SizeGuardError, match="8\\^5 tuples give 1073741824 pairs; budget 20000000"):
        check_special_group(S, 5)


def test_special_group_of_quadratic_hyperfields():
    for q in (3, 5, 7):
        F, _ = q_ctx(q)
        S = special_group_of(F)
        assert S.size == 2
        assert check_special_group(S, nmax=4).passed


@pytest.mark.parametrize("F", structures(FOUR_CLASS), ids=FOUR_CLASS.split())
def test_special_groups_past_two_classes(F, monkeypatch):
    S = special_group_of(F)
    assert S.size == 4
    built = []  # the rows check_special_group builds on S, dims 2 and 3

    def spy(binary, m, dmax):
        for rows in _isometry_rows(binary, m, dmax):
            built.append(rows)
            yield rows

    monkeypatch.setattr(quadratic, "_isometry_rows", spy)
    report = check_special_group(S, nmax=3)
    assert report.passed and report.level_passed == "special", report.failures[:3]
    assert len(built) == 2
    for pair in S.binary_isometry:
        dropped = replace(S, binary_isometry=S.binary_isometry - {pair})
        assert not check_special_group(dropped, nmax=3).passed, pair
    # those rows are F's inductive isometry through the index map
    index = {x: i for i, x in enumerate(F.nonzero())}
    iso_F = inductive_isometry(F)
    for d, rows in zip((2, 3), built):
        position = {t: i for i, t in enumerate(product(range(S.size), repeat=d))}
        forms = list(product(F.nonzero(), repeat=d))
        for a in forms:
            row = rows[position[tuple(map(index.get, a))]]
            for b in forms:
                assert (row >> position[tuple(map(index.get, b))] & 1) == iso_F(a, b), (a, b)


def test_eight_element_special_group_at_nmax_3():
    S = special_group_of(two_step_laurent())
    assert S.size == 8
    assert check_special_group(S, nmax=3).level_passed == "special"
    for pair in random.Random(8).sample(sorted(S.binary_isometry), 16):
        dropped = replace(S, binary_isometry=S.binary_isometry - {pair})
        assert not check_special_group(dropped, nmax=3).passed, pair


def test_special_group_check_names_bad_ids():
    S = special_group_of(euclidean_hyperfield())
    bad_pair = ((0, 5), (0, 0))
    cases = (
        ("mul", replace(S, mul=S.mul[:1])),
        ("mul", replace(S, mul=((0, 1), (1, 7)))),
        ("identity", replace(S, identity=7)),
        ("minus_one", replace(S, minus_one=-1)),
        ("binary_isometry", replace(S, binary_isometry=S.binary_isometry | {bad_pair})),
    )
    for field, table in cases:
        with pytest.raises(InputError, match=field):
            check_special_group(table, nmax=3)


def test_special_group_extraction_refuses_non_exponent_two():
    F = from_field(ff_make(5))
    with pytest.raises(ValidationError):
        special_group_of(F)


def test_corrupted_special_group_fails_axiom_iii():
    S = special_group_of(euclidean_hyperfield())
    dropped = frozenset(
        p for p in S.binary_isometry
        if p != ((0, S.mul[S.minus_one][0]), (S.identity, S.minus_one))
    )
    from quadpres.quadratic import SpecialGroupTable

    bad = SpecialGroupTable(S.mul, S.identity, S.minus_one, dropped, S.names)
    report = check_special_group(bad, nmax=3)
    assert not report.passed
    axioms = {name for name, _ in report.failures}
    assert any(a.startswith("dm.i") or a == "dm.iii" for a in axioms)


def cell_by_cell_group_stage(S):
    """The identity, exponent-2, commutativity and associativity stage of
    check_special_group, one cell at a time: its failures in report order."""
    failures = []
    g, e = range(S.size), S.identity
    for a in g:
        if S.mul[a][e] != a:
            failures.append(("group.identity", (a,)))
        if S.mul[a][a] != e:
            failures.append(("group.exponent2", (a,)))
        for b in g:
            if S.mul[a][b] != S.mul[b][a]:
                failures.append(("group.commutative", (a, b)))
            for c in g:
                if S.mul[a][S.mul[b][c]] != S.mul[S.mul[a][b]][c]:
                    failures.append(("group.associative", (a, b, c)))
    return failures


def test_group_stage_matches_the_cell_by_cell_reference():
    # every copy with one mul cell redrawn, and with a cell and its mirror
    # redrawn, so that some copies stay commutative and fail associativity only
    fields, _ = cases(("E Q3 Q5 " + FOUR_CLASS, 3), ("E(t)(s)", 2))
    mutants, laws = 0, set()
    for F, nmax in fields:
        S = special_group_of(F)
        assert cell_by_cell_group_stage(S) == []
        assert check_special_group(S, nmax).level_passed == "special"
        m = S.size
        for a, b, v in product(range(m), range(m), range(m)):
            if v == S.mul[a][b]:
                continue
            for mirrored in (False, True):
                mul = [list(row) for row in S.mul]
                mul[a][b] = v
                if mirrored:
                    mul[b][a] = v
                M = replace(S, mul=tuple(map(tuple, mul)))
                expected = cell_by_cell_group_stage(M)
                assert check_special_group(M, nmax) == AxiomReport("none", expected), (F.names, a, b, v)
                laws |= {law for law, _ in expected}
                mutants += 1
    assert mutants > 1000
    assert laws == {"group.identity", "group.exponent2", "group.commutative", "group.associative"}


def test_witt_class_normalization():
    c = WittClass(Form((2, 1)))
    assert c.normalized == (1, 2)
    assert WittClass(None).normalized == ()
    assert WittClass(None).dim == 0


def test_witt_equivalence_is_a_congruence():
    for F in structures("E Q3"):
        ctx = IsometryContext(F)
        nz = F.nonzero()
        forms = [c for d in (1, 2, 3) for c in combinations_with_replacement(nz, d)]
        # equivalence
        for a in forms:
            assert ctx.witt_equivalent(Form(a), Form(a))
        for a in forms:
            for b in forms:
                if ctx.witt_equivalent(Form(a), Form(b)):
                    assert ctx.witt_equivalent(Form(b), Form(a))
                    for c in forms:
                        if ctx.witt_equivalent(Form(b), Form(c)):
                            assert ctx.witt_equivalent(Form(a), Form(c))
        # congruence for sum and tensor (sampled small dims, exhaustive)
        small = [c for d in (1, 2) for c in combinations_with_replacement(nz, d)]
        for a in small:
            for b in small:
                if not ctx.witt_equivalent(Form(a), Form(b)):
                    continue
                for c in small:
                    assert ctx.witt_equivalent(
                        orthogonal_sum(Form(a), Form(c)), orthogonal_sum(Form(b), Form(c))
                    )
                    assert ctx.witt_equivalent(
                        tensor_product(F, Form(a), Form(c)),
                        tensor_product(F, Form(b), Form(c)),
                    )


def test_witt_ring_neutral_zero_and_unary_squares():
    for F in structures("E Q3 Q5"):
        W = witt_ring(F, 4)
        for i in range(W.size):
            assert W.add_table[i][W.zero_class] == i
        for i, cls in enumerate(W.classes):
            if cls.dim == 1:
                assert W.mul_table[i][i] == W.one_class


def test_witt_equivalence_agrees_with_classical_oracle_gf3():
    # all pairs of forms of dim <= 4 over Q(GF(3)), against padding plus the
    # classical discriminant criterion on field representatives
    from quadpres.oracle import classical_isometric

    k = ff_make(3)
    F = quadratic_hyperfield(k)
    ctx = IsometryContext(F)
    to_field = {F.id_of("1"): 1, F.id_of("2"): 2}
    nz = F.nonzero()
    forms = [c for d in range(1, 5) for c in combinations_with_replacement(nz, d)]
    def oracle_witt_equivalent(a, b):
        fa = tuple(to_field[e] for e in a)
        fb = tuple(to_field[e] for e in b)
        H = (1, 2)  # <1, -1> over GF(3)
        for target in range(max(len(fa), len(fb)), 13, 2):
            if (target - len(fa)) % 2 or (target - len(fb)) % 2:
                continue
            pa = fa + H * ((target - len(fa)) // 2)
            pb = fb + H * ((target - len(fb)) // 2)
            if classical_isometric(3, pa, pb):
                return True
        return False
    for a in forms:
        for b in forms:
            assert ctx.witt_equivalent(Form(a), Form(b)) == oracle_witt_equivalent(a, b), (a, b)

import random
from itertools import combinations

import pytest

from quadpres.errors import InputError, SizeGuardError, ValidationError
from quadpres.finitefield import ff_make
from quadpres.hyperfields import (
    AxiomReport,
    Hyperfield,
    check_hyperfield,
    euclidean_hyperfield,
    from_field,
    hyperfield_isomorphic,
    quotient_by_subgroup,
    prime_hyperfield,
    quadratic_hyperfield,
)
from quadpres.posets import FinitePointedPoset, _bits, check_presentable as check_poset
from quadpres.presentable import (
    EXAMPLE_SQ_ADD,
    EXAMPLE_SQ_MUL,
    EXAMPLE_SQ_NAMES,
    LEVELS,
    PresentableRing,
    check_presentable,
    example_sq_structure,
    powerset_of_hyperfield,
    quotient_by_congruence,
    quotient_mod_multiplicative_set,
    squares_pipeline,
    supercompact_hyperfield,
)

from fleet import POWERSET_BASES, gf, lifted_mutants, modular_ring, mutants, mutate_add, run_python


def test_powerset_of_gf2():
    F = from_field(ff_make(2))
    R = powerset_of_hyperfield(F)
    assert R.n == 3
    assert set(R.poset.names) == {"{0}", "{1}", "{0,1}"}
    assert R.is_field


def test_powerset_sup_is_union():
    R = powerset_of_hyperfield(euclidean_hyperfield())
    P = R.poset
    for x in range(P.n):
        for y in range(P.n):
            assert P.supremum([x, y]) == ((x + 1) | (y + 1)) - 1


def test_powerset_of_euclidean_matches_example_sq_tables():
    E = euclidean_hyperfield()
    R = powerset_of_hyperfield(E)
    S = example_sq_structure()
    # map the literal table's ids to powerset mask ids via member sets
    mask_of = {
        "theta": 1 << E.id_of("0"),
        "I": 1 << E.id_of("1"),
        "kappa": 1 << E.id_of("-1"),
        "alpha1": (1 << E.id_of("0")) | (1 << E.id_of("1")),
        "alpha2": (1 << E.id_of("0")) | (1 << E.id_of("-1")),
        "alpha3": (1 << E.id_of("1")) | (1 << E.id_of("-1")),
        "beta": 0b111,
    }
    to_r = [mask_of[name] - 1 for name in EXAMPLE_SQ_NAMES]
    for i in range(7):
        for j in range(7):
            assert R.add[to_r[i]][to_r[j]] == to_r[EXAMPLE_SQ_ADD[i][j]]
            assert R.mul[to_r[i]][to_r[j]] == to_r[EXAMPLE_SQ_MUL[i][j]]
    assert check_presentable(S).passed


def test_example_sq_spot_values():
    S = example_sq_structure()
    name = {n: i for i, n in enumerate(EXAMPLE_SQ_NAMES)}
    assert S.add[name["I"]][name["kappa"]] == name["beta"]
    assert S.add[name["alpha1"]][name["alpha2"]] == name["beta"]
    assert S.mul[name["kappa"]][name["alpha1"]] == name["alpha2"]
    assert S.mul[name["alpha3"]][name["alpha3"]] == name["alpha3"]


def test_check_presentable_field_level_on_powersets():
    for F in (euclidean_hyperfield(), from_field(ff_make(5))):
        R = powerset_of_hyperfield(F)
        report = check_presentable(R)
        assert report.level_passed == "field"
        assert report.passed


def test_exchange_law_counterexample_on_modular_powerset():
    # P*(Z/8): {1,3} <= {0,1} + {0,2} but {0,1} is not <= {1,3} - {0,2}
    R = powerset_of_hyperfield(modular_ring(8))
    assert not R.is_field  # Z/8 has noninvertible nonzero elements
    def pid(*members):
        m = 0
        for x in members:
            m |= 1 << x
        return m - 1
    lhs = R.add[pid(0, 1)][pid(0, 2)]
    assert R.poset.leq(pid(1, 3), lhs)
    rhs = R.add[pid(1, 3)][R.neg[pid(0, 2)]]
    assert not R.poset.leq(pid(0, 1), rhs)


def test_mutated_example_sq_fails_neutrality():
    add = [list(row) for row in EXAMPLE_SQ_ADD]
    add[5][0] = add[0][5] = 6  # alpha3 + theta = beta
    S = example_sq_structure()
    bad = PresentableRing(S.poset, add, list(S.neg), [list(r) for r in S.mul], S.one, True)
    report = check_presentable(bad)
    assert not report.passed
    failing = [w for name, w in report.failures if name == "monoid.ii"]
    assert failing and failing[0][0] == 5


def test_supercompact_round_trip():
    for F in [*POWERSET_BASES, quadratic_hyperfield(gf(4))]:
        R = powerset_of_hyperfield(F)
        G = supercompact_hyperfield(R)
        assert hyperfield_isomorphic(F, G) is not None


def test_supercompact_of_example_sq_is_euclidean():
    G = supercompact_hyperfield(example_sq_structure())
    assert hyperfield_isomorphic(G, euclidean_hyperfield()) is not None
    assert G.add(G.one, G.zero) == {G.one}


def test_supercompact_requires_field_level():
    F = from_field(ff_make(3))
    R = powerset_of_hyperfield(F)
    bad = PresentableRing(R.poset, R.add, R.neg, R.mul, R.one, is_field=True)
    # sabotage: claim field on a structure whose mul table we break
    mul = [list(row) for row in R.mul]
    mul[R.one][R.one] = R.zero
    worse = PresentableRing(R.poset, R.add, R.neg, mul, R.one, is_field=True)
    with pytest.raises(ValidationError):
        supercompact_hyperfield(worse)
    assert supercompact_hyperfield(bad) is not None


def test_quotient_mod_trivial_set():
    E = euclidean_hyperfield()
    Q = quotient_mod_multiplicative_set(E, {E.one})
    assert Q == E


def test_quotient_mod_full_group_of_euclidean():
    E = euclidean_hyperfield()
    Q = quotient_mod_multiplicative_set(E, {1, 2})
    assert Q.size == 2
    assert Q.zero in Q.add(Q.one, Q.one)
    assert check_hyperfield(Q).passed


def test_quotient_mod_agrees_with_subgroup_quotient():
    for k in (ff_make(5), ff_make(7)):
        F = from_field(k)
        squares = {k.mul(a, a) for a in k.nonzero()}
        Q = quotient_mod_multiplicative_set(F, squares)
        assert Q == quotient_by_subgroup(F, squares)
        # the cosets of the squares, fed in as an explicit partition
        cosets = {frozenset(k.mul(x, s) for s in squares) for x in k.nonzero()}
        assert Q == quotient_by_congruence(F, [[0]] + sorted(sorted(c) for c in cosets))


def test_quotient_mod_on_supercompacts_of_powerset_gf7():
    k = ff_make(7)
    R = powerset_of_hyperfield(from_field(k))
    G = supercompact_hyperfield(R)
    # supercompact names are singleton sets
    squares = set()
    for a in k.nonzero():
        s = k.mul(a, a)
        squares.add(G.id_of("{" + k.element_name(s) + "}"))
    Q = quotient_mod_multiplicative_set(G, squares)
    expected = quotient_by_subgroup(from_field(k), {k.mul(a, a) for a in k.nonzero()})
    assert hyperfield_isomorphic(Q, expected) is not None


def test_quotient_mod_rejects_bad_sets():
    E = euclidean_hyperfield()
    with pytest.raises(ValidationError):
        quotient_mod_multiplicative_set(E, set())
    with pytest.raises(ValidationError):
        quotient_mod_multiplicative_set(E, {E.zero, E.one})
    F = from_field(ff_make(5))
    with pytest.raises(ValidationError):
        quotient_mod_multiplicative_set(F, {2})  # 2*2=4 not in T
    # closed but not a group: 2 is an idempotent non-unit of these tables
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    add = [[{0}, {1}, {2}], [{1}, {0, 1, 2}, {2}], [{2}, {2}, {0, 2}]]
    G = Hyperfield(0, 1, (0, 1, 2), mul, add)
    with pytest.raises(ValidationError, match="no inverse inside T"):
        quotient_mod_multiplicative_set(G, {2})


def test_congruence_singleton_partition():
    E = euclidean_hyperfield()
    Q = quotient_by_congruence(E, [[0], [1], [2]])
    assert Q == E


def test_congruence_matches_multiplicative_quotient():
    # the localization relation, fed back in as an explicit partition
    F = from_field(ff_make(5))
    squares = {1, 4}
    Q1 = quotient_mod_multiplicative_set(F, squares)
    Q2 = quotient_by_congruence(F, [[0], [1, 4], [2, 3]])
    assert Q1 == Q2


def test_congruence_rejects_zero_one_merge():
    E = euclidean_hyperfield()
    with pytest.raises(ValidationError) as err:
        quotient_by_congruence(E, [[0, 1], [2]])
    assert "0 ~ 1" in str(err.value)


def test_congruence_rejects_empty_class():
    E = euclidean_hyperfield()
    with pytest.raises(InputError, match="empty class"):
        quotient_by_congruence(E, [[0], [1], [2], []])


def test_congruence_rejects_incompatible_partition():
    F = from_field(ff_make(5))
    with pytest.raises(ValidationError):
        quotient_by_congruence(F, [[0], [1, 2], [3, 4]])


def test_squares_pipeline_chain_matches_quadratic_hyperfield():
    for q in (3, 5, 7, 9):
        k = gf(q)
        lhs = squares_pipeline(prime_hyperfield(from_field(k)))
        rhs = quadratic_hyperfield(k)
        assert hyperfield_isomorphic(lhs, rhs) is not None


def test_squares_pipeline_identity_on_exponent_two():
    E = euclidean_hyperfield()
    out = squares_pipeline(E)
    assert hyperfield_isomorphic(out, E) is not None


def test_squares_pipeline_precondition():
    F = from_field(ff_make(5))
    with pytest.raises(ValidationError) as err:
        squares_pipeline(F)
    assert err.value.witness is not None


def test_squares_pipeline_literal_reading_collapses():
    P = prime_hyperfield(from_field(ff_make(7)))
    out = squares_pipeline(P, literal_squares=True)
    assert out.size == 2  # T = all nonzero elements collapses the quotient


def test_all_multiplicative_set_quotients_are_hyperfields():
    # every multiplicative subset of nonzero supercompacts, small fleet
    fleet = [
        euclidean_hyperfield(),
        quadratic_hyperfield(ff_make(3)),
        from_field(ff_make(5)),
        from_field(ff_make(7)),
    ]
    for F in fleet:
        nz = F.nonzero()
        for r in range(1, len(nz) + 1):
            for cand in combinations(nz, r):
                s = set(cand)
                if any(F.mul(a, b) not in s for a in s for b in s):
                    continue
                Q = quotient_mod_multiplicative_set(F, s)
                assert check_hyperfield(Q).passed, (F, s)


def test_powerset_guard():
    with pytest.raises(SizeGuardError):
        k = ff_make(11)
        powerset_of_hyperfield(from_field(k))


def test_powerset_guard_edge_in_a_subprocess():
    # a 10-element base, the most MAX_HYPERFIELD_BASE admits: 1,023 elements.
    # Bound 60 s; on a shared 2-core x86 container the powerset took 0.5 s
    # (1.6-1.9 s with a pair loop per cell) and check_presentable 1.9-2.1 s
    code = (
        "from quadpres.finitefield import ff_make\n"
        "from quadpres.hyperfields import from_field, quotient_by_subgroup\n"
        "from quadpres.presentable import check_presentable, powerset_of_hyperfield\n"
        "F = quotient_by_subgroup(from_field(ff_make(19)), {1, 18})\n"
        "R = powerset_of_hyperfield(F)\n"
        "print(F.size, R.n, check_presentable(R).level_passed)\n"
    )
    done = run_python("-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "10 1023 field\n"


def pair_loop_powerset_tables(F):
    """Reference for powerset_of_hyperfield's tables: each cell of A + B and
    A * B ORs the member cells of every pair a in A, b in B."""
    m = F.size
    size = (1 << m) - 1
    members = [tuple(_bits(mask)) for mask in range(1, size + 1)]
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    neg = [0] * size
    for i in range(size):
        nm = 0
        for a in members[i]:
            nm |= 1 << F.neg(a)
        neg[i] = nm - 1
        for j in range(i, size):
            sm = pm = 0
            for a in members[i]:
                for b in members[j]:
                    for x in F.add(a, b):
                        sm |= 1 << x
                    pm |= 1 << F.mul(a, b)
            add[i][j] = add[j][i] = sm - 1
            mul[i][j] = mul[j][i] = pm - 1
    return add, mul, neg


def test_powerset_tables_match_the_pair_loop():
    rng = random.Random(31)
    k7, k11, k16 = from_field(ff_make(7)), from_field(ff_make(11)), from_field(ff_make(2, 4))
    bases = [
        euclidean_hyperfield(),
        *(from_field(gf(q)) for q in (2, 3, 4, 5)),
        *(quadratic_hyperfield(ff_make(q)) for q in (3, 5, 7)),
        *(prime_hyperfield(from_field(gf(q))) for q in (2, 3, 4, 5)),
        quotient_by_subgroup(k7, {1, 6}),
        quotient_by_subgroup(k11, {1, 10}),
        quotient_by_subgroup(k16, {x for x in k16.nonzero() if k16.mul(k16.mul(x, x), x) == 1}),
    ]
    assert {F.size for F in bases} == {2, 3, 4, 5, 6}
    fleet = list(bases)
    for F in bases:
        made = 0
        while made < 8:
            a, b = rng.randrange(F.size), rng.randrange(F.size)
            try:
                G = mutate_add(F, a, b, rng.sample(range(F.size), rng.randint(1, F.size)))
            except ValidationError:
                continue
            if not check_hyperfield(G).passed:
                fleet.append(G)
                made += 1
    for F in fleet:
        R = powerset_of_hyperfield(F)
        add, mul, neg = pair_loop_powerset_tables(F)
        assert R.add == tuple(map(tuple, add)) and R.mul == tuple(map(tuple, mul)), F
        assert R.neg == tuple(neg), F
        assert R.is_field == check_hyperfield(F).passed


def test_presentable_ring_structural_validation():
    S = example_sq_structure()
    with pytest.raises(InputError):
        PresentableRing(S.poset, [[0]], S.neg, S.mul, S.one, True)
    with pytest.raises(ValidationError):
        PresentableRing(S.poset, S.add, S.neg, S.mul, one=6, is_field=True)  # beta not minimal


def family_failures(R, rng, count):
    """Seeded families X of one to three carrier elements, each with an
    element b, for which add(sup X, b) != sup{add(x, b) : x in X}."""
    P = R.poset
    failures = []
    for _ in range(count):
        X = [rng.randrange(R.n) for _ in range(rng.randint(1, 3))]
        b = rng.randrange(R.n)
        top = P.supremum(X)
        if top is None or R.add[top][b] != P.supremum([R.add[x][b] for x in X]):
            failures.append((X, b))
    return failures


def test_family_suprema_preservation_sampled_thousand():
    # powerset-built structures preserve suprema on arbitrary families, not
    # only on the families of supercompacts that the ladder check runs
    rng = random.Random(7)
    for F in (euclidean_hyperfield(), from_field(ff_make(5))):
        R = powerset_of_hyperfield(F)
        assert family_failures(R, rng, 1000) == []


def _associative(table):
    """a(bc) = (ab)c on all triples, compared a row of c's at a time."""
    return all(
        tuple(map(row.__getitem__, table[b])) == table[row[b]]
        for row in table
        for b in range(len(table))
    )


def whole_carrier_law_fails(R, stage, rng):
    """Reference for the laws check_presentable derives from its supercompact
    checks instead of running: does one fail anywhere on the carrier?

    Stage "monoid": + associativity on all triples and 200 seeded families.
    Stage "ring": * associativity and a(b + c) <= ab + ac on all triples, and
    a <= b implying ac <= bc.
    """
    add, mul, up = R.add, R.mul, R.poset.up
    if stage == "monoid":
        return not _associative(add) or bool(family_failures(R, rng, 200))
    if not _associative(mul):
        return True
    for a in range(R.n):
        ma = mul[a]
        for b in range(R.n):
            lhs = map(ma.__getitem__, add[b])
            rhs = map(add[ma[b]].__getitem__, ma)
            if not all(up[x] >> y & 1 for x, y in zip(lhs, rhs)):
                return True
        for b in _bits(up[a]):
            if not all(up[x] >> y & 1 for x, y in zip(ma, mul[b])):
                return True
    return False


def test_supercompact_laws_decide_the_level_of_mutants():
    # the laws checked on the whole carrier can only fail in a stage that
    # check_presentable's supercompact checks already fail
    rng = random.Random(2024)
    S = example_sq_structure()
    fleet = [S, *mutants(S, rng, 30)]
    for F in POWERSET_BASES:
        R = powerset_of_hyperfield(F)
        fleet += [R, *mutants(R, rng, 30), *lifted_mutants(F, rng, 10)]
    R = powerset_of_hyperfield(from_field(ff_make(7)))
    fleet += [R, *mutants(R, rng, 4)]
    reached = set()
    for R in fleet:
        report = check_presentable(R)
        claimed = "field" if R.is_field else "ring"
        assert report.passed == (report.level_passed == claimed), R
        level = LEVELS.index(report.level_passed)
        reached.add(LEVELS[level])
        for stage in ("monoid", "ring"):
            if level >= LEVELS.index(stage):
                assert not whole_carrier_law_fails(R, stage, rng), (R, stage)
    assert reached == {"poset", "monoid", "group", "field"}


def cached_sup(poset, cache, xs):
    key = 0
    for x in xs:
        key |= 1 << x
    v = cache.get(key)
    if v is None and key not in cache:
        v = poset.sup_of_mask(key)
        cache[key] = v
    return v


def cached_sup_ladder(R):
    """The ladder with each supremum taken by ``poset.sup_of_mask`` and
    cached by its mask of members: the reference for the lookups of
    ``check_presentable``."""
    poset = R.poset
    report = check_poset(poset)
    if not report.passed:
        failures = [(f"poset.{axiom}", wit) for axiom, wit in report.failures]
        return AxiomReport("none", failures)

    n = R.n
    zero = R.zero
    mins = poset.minimals_mask
    sc = R.supercompacts()
    sup_cache = {}
    smask = [poset.minimals_below_mask(x) for x in range(n)]

    failures = []
    for a in range(n):
        if R.add[a][zero] != a or R.add[zero][a] != a:
            failures.append(("monoid.ii", (a, R.add[a][zero])))
    for a in range(n):
        for b in range(a + 1, n):
            if R.add[a][b] != R.add[b][a]:
                failures.append(("monoid.iii", (a, b)))
    for a in sc:
        for b in sc:
            for c in sc:
                if R.add[a][R.add[b][c]] != R.add[R.add[a][b]][c]:
                    failures.append(("monoid.i", (a, b, c)))
    # suprema preservation of +: pairwise supercompact decomposition
    for x in range(n):
        for y in range(x, n):
            parts = {R.add[s][t] for s in _bits(smask[x]) for t in _bits(smask[y])}
            got = cached_sup(poset, sup_cache, parts)
            if got != R.add[x][y]:
                failures.append(("monoid.suprema", ("+", (x, y), R.add[x][y], got)))
    if failures:
        return AxiomReport("poset", failures)

    for a in range(n):
        if R.neg[R.neg[a]] != a:
            failures.append(("group.involution", (a,)))
    for x in range(n):
        got = cached_sup(poset, sup_cache, {R.neg[s] for s in _bits(smask[x])})
        if got != R.neg[x]:
            failures.append(("group.suprema", ("-", (x,), R.neg[x], got)))
    for s in sc:
        for t in sc:
            for u in sc:
                if poset.leq(s, R.add[t][u]) and not poset.leq(t, R.add[s][R.neg[u]]):
                    failures.append(("group.exchange", (s, t, u)))
    if failures:
        return AxiomReport("monoid", failures)

    one = R.one
    for a in range(n):
        if R.mul[a][one] != a:
            failures.append(("ring.identity", (a,)))
        for b in range(a + 1, n):
            if R.mul[a][b] != R.mul[b][a]:
                failures.append(("ring.commutative", (a, b)))
    for a in sc:
        for b in sc:
            for c in sc:
                if R.mul[a][R.mul[b][c]] != R.mul[R.mul[a][b]][c]:
                    failures.append(("ring.mul_associative", (a, b, c)))
    # with a supercompact multiplier the two sides agree exactly
    for a in sc:
        for b in range(n):
            for c in range(n):
                if R.mul[a][R.add[b][c]] != R.add[R.mul[a][b]][R.mul[a][c]]:
                    failures.append(("ring.distributive_supercompact", (a, b, c)))
    for a in range(n):
        for b in range(n):
            if R.mul[R.neg[a]][b] != R.neg[R.mul[a][b]]:
                failures.append(("ring.compat_neg", (a, b)))
            expected = {R.mul[s][t] for s in _bits(smask[a]) for t in _bits(smask[b])}
            if set(_bits(smask[R.mul[a][b]])) != expected:
                failures.append(
                    ("ring.supercompact_products", (a, b, sorted(_bits(smask[R.mul[a][b]])), sorted(expected)))
                )
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


def test_check_presentable_matches_the_cached_sup_ladder():
    rng = random.Random(2027)
    S = example_sq_structure()
    bases = [(None, S)] + [(F, powerset_of_hyperfield(F)) for F in POWERSET_BASES]
    # GF(2) over two incomparable points: {0, 1} has no supremum
    discrete = FinitePointedPoset([[1, 0], [0, 1]], basepoint=0)
    fleet = [PresentableRing(discrete, [[0, 1], [1, 0]], [0, 1], [[0, 0], [0, 1]], 1, True)]
    mutated = 0
    for F, R in bases:
        ring = PresentableRing(R.poset, R.add, R.neg, R.mul, R.one, is_field=False)
        batch = [*mutants(R, rng, 150), *mutants(ring, rng, 50)]
        if F is not None:
            batch += lifted_mutants(F, rng, 60)
        fleet += [R, ring, *batch]
        mutated += len(batch)
    assert mutated >= 2000
    levels = set()
    for R in fleet:
        report = check_presentable(R)
        assert report == cached_sup_ladder(R), R
        levels.add(report.level_passed)
    assert levels == set(LEVELS)


def test_squares_pipeline_outputs_are_prequadratic():
    from quadpres.quadratic import check_prequadratic

    for q in (2, 3, 4, 5, 7, 9):
        P = prime_hyperfield(from_field(gf(q)))
        out = squares_pipeline(P)
        assert check_prequadratic(out).passed, q
    E = euclidean_hyperfield()
    assert check_prequadratic(squares_pipeline(E)).passed

import random
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from quadpres.errors import InputError, SizeGuardError, ValidationError
from quadpres.finitefield import ff_make
from quadpres.hyperfields import from_field
from quadpres.posets import (
    MAX_MINIMALS,
    FinitePointedPoset,
    _bits,
    _submasks_smallest_first,
    check_presentable,
    explicit_poset,
    pierced_powerset,
    random_pointed_poset,
    squarefree_divisors,
    walking_supremum,
)
from quadpres.presentable import powerset_of_hyperfield

from fleet import run_python


def nonempty_subsets(xs):
    xs = list(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(1, len(xs) + 1))


def test_walking_supremum_shape():
    W = walking_supremum()
    assert W.n == 3
    assert W.minimals() == {0, 1}
    assert W.minimals_below(2) == {0, 1}
    assert W.supremum([0, 1]) == 2
    assert check_presentable(W).passed


def test_minimals_below_of_a_minimal_is_itself():
    for P in (walking_supremum(), pierced_powerset(3), squarefree_divisors(30)):
        for m in P.minimals():
            assert P.minimals_below(m) == {m}


def test_pierced_powerset_basics():
    P = pierced_powerset(2)
    # element ids are mask-1: {0}->0, {1}->1, {0,1}->2
    assert P.minimals_below(2) == {0, 1}
    P3 = pierced_powerset(3)
    # sup of {{0}},{{1}} is {0,1}: masks 1,2 -> ids 0,1; union mask 3 -> id 2
    assert P3.supremum([0, 1]) == 2
    assert check_presentable(P3).passed
    P1 = pierced_powerset(1, 0)
    assert P1.n == 1
    assert check_presentable(P1).passed


def test_antichain_has_no_supremum():
    P = FinitePointedPoset([[1, 0], [0, 1]], basepoint=0)
    assert P.supremum([0, 1]) is None


def test_supremum_rejects_empty_set():
    with pytest.raises(InputError):
        walking_supremum().supremum([])


def test_supremum_rejects_unknown_id():
    with pytest.raises(InputError):
        walking_supremum().supremum([7])
    with pytest.raises(InputError):
        walking_supremum().minimals_below(9)


def test_squarefree_divisors_30():
    P = squarefree_divisors(30)
    assert set(P.names) == {"2", "3", "5", "6", "10", "15", "top"}
    assert {P.names[m] for m in P.minimals()} == {"2", "3", "5"}
    assert P.names[P.basepoint] == "2"
    assert check_presentable(P).passed
    # order really is divisibility
    for i, a in enumerate(P.names[:-1]):
        for j, b in enumerate(P.names[:-1]):
            assert P.leq(i, j) == (int(b) % int(a) == 0)


def test_squarefree_divisors_6():
    # All square-free divisors 2 <= d of 6 except the full product 6 itself,
    # whose role is played by the adjoined top.
    P = squarefree_divisors(6)
    assert set(P.names) == {"2", "3", "top"}
    assert {P.names[m] for m in P.minimals()} == {"2", "3"}
    assert P.supremum([P.id_of("2"), P.id_of("3")]) == P.id_of("top")
    assert check_presentable(P).passed


def test_squarefree_divisors_rejects_prime_powers():
    with pytest.raises(InputError):
        squarefree_divisors(8)


def test_diamond_with_extra_minimal_fails_compactness():
    # 0 < a,b < 1 and c < 1 only: c <= sup{a,b} but c is below neither.
    P = explicit_poset(
        ["0", "a", "b", "1", "c"],
        [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"), ("c", "1")],
        basepoint_name="0",
    )
    ok, (a, subset) = _whole_carrier_compactness(P)
    assert not ok
    assert P.names[a] == "c"
    assert {P.names[y] for y in subset} == {"a", "b"}
    # the diamond is not even weakly presentable (a is not the sup of its
    # minimals), so it already fails and compactness is left unevaluated
    report = check_presentable(P)
    assert not report.passed
    assert not report.notes["weakly_presentable"]
    assert report.notes["all_minimals_compact"] is None
    assert report.failures == [("weak_presentability.ii", (P.id_of("a"), (P.id_of("0"),)))]
    # three minimals under one top are weakly presentable and not compact
    Q = FinitePointedPoset.from_up_masks([0b1001, 0b1010, 0b1100, 0b1000], basepoint=0)
    report = check_presentable(Q)
    assert report.notes["weakly_presentable"] and report.notes["all_minimals_compact"] is False
    assert report.failures == [("compactness", (2, (0, 1)))]
    assert _whole_carrier_compactness(Q) == (False, (2, (0, 1)))


def test_explicit_poset_rejects_cycles_with_witness():
    with pytest.raises(ValidationError) as err:
        explicit_poset(["a", "b"], [("a", "b"), ("b", "a")], basepoint_name="a")
    assert "antisymmetry" in str(err.value)
    assert err.value.witness is not None


def fixpoint_explicit_poset(names, leq_pairs, basepoint_name):
    """Reference for explicit_poset: the closure as repeated sweeps, each
    row taking in the rows above it, until a sweep changes nothing."""
    index = {s: i for i, s in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for a, b in leq_pairs:
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            row = up[x]
            for y in _bits(row):
                if up[y] & ~row:
                    row |= up[y]
            if row != up[x]:
                up[x] = row
                changed = True
    return FinitePointedPoset.from_up_masks(up, basepoint=index[basepoint_name], names=names)


def _built_or_refused(build, *args):
    try:
        P = build(*args)
    except ValidationError as err:
        return str(err), err.witness
    return P.up, P.down, P.names


def test_explicit_poset_closure_matches_the_fixpoint_sweeps():
    rng = random.Random(21)
    refused = 0
    for _ in range(600):
        n = rng.randint(1, 12)
        names = [f"e{i}" for i in rng.sample(range(40), n)]
        pairs = [
            (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * n))
        ]
        bp = rng.choice(names)
        got = _built_or_refused(explicit_poset, names, pairs, bp)
        assert got == _built_or_refused(fixpoint_explicit_poset, names, pairs, bp), pairs
        refused += isinstance(got[0], str)
    assert 100 < refused < 500
    # a long chain of covers, which the reference closes in many sweeps
    names = [f"c{i}" for i in range(300)]
    pairs = list(zip(names, names[1:]))
    assert explicit_poset(names, pairs, "c0").up == fixpoint_explicit_poset(names, pairs, "c0").up


def test_constructor_rejects_broken_tables():
    with pytest.raises(ValidationError):
        FinitePointedPoset([[0, 0], [0, 1]], basepoint=0)  # not reflexive
    with pytest.raises(ValidationError):
        # 0<=1, 1<=2 but not 0<=2
        FinitePointedPoset([[1, 1, 0], [0, 1, 1], [0, 0, 1]], basepoint=0)
    with pytest.raises(InputError):
        FinitePointedPoset([[1]], basepoint=3)


def test_pierced_powerset_guards():
    with pytest.raises(SizeGuardError):
        pierced_powerset(13)
    with pytest.raises(InputError):
        pierced_powerset(0)
    with pytest.raises(InputError):
        pierced_powerset(17)


def test_pierced_powersets_minimals_and_sups_exhaustive():
    # carriers up to size 5: minimals are exactly the singletons and
    # supremum is set union, checked on every pair of elements
    for n in range(1, 6):
        P = pierced_powerset(n)
        singles = {(1 << i) - 1 for i in range(n)}
        assert set(P.minimals()) == singles
        for x in range(P.n):
            for y in range(P.n):
                got = P.supremum([x, y])
                assert got == (((x + 1) | (y + 1)) - 1)


def test_singleton_supremum_is_identity():
    fleet = [walking_supremum(), pierced_powerset(3), pierced_powerset(4), squarefree_divisors(30)]
    for P in fleet:
        for x in range(P.n):
            assert P.supremum([x]) == x


def test_cross_check_agreement_on_random_fleet():
    rng = random.Random(20260808)
    seen = 0
    attempts = 0
    while seen < 60 and attempts < 4000:
        attempts += 1
        P = random_pointed_poset(rng, max_n=8)
        report = check_presentable(P)
        if report.notes["weakly_presentable"]:
            seen += 1
            assert report.notes["tests_agree"] is True
    assert seen == 60


@given(st.integers(min_value=1, max_value=5), st.data())
def test_pierced_powerset_sup_matches_union_on_families(n, data):
    P = pierced_powerset(n)
    fam = data.draw(st.lists(st.integers(min_value=0, max_value=P.n - 1), min_size=1, max_size=4))
    expected_mask = 0
    for x in fam:
        expected_mask |= x + 1
    assert P.supremum(fam) == expected_mask - 1


def test_minimals_guard():
    # 17 incomparable points exceed the subset guard for the minimals quantifier
    n = 17
    leq = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    P = FinitePointedPoset(leq, basepoint=0)
    with pytest.raises(SizeGuardError):
        check_presentable(P)


def test_cover_pairs_of_walking_supremum():
    W = walking_supremum()
    assert set(W.cover_pairs()) == {(0, 2), (1, 2)}


def _whole_carrier_compactness(P):
    """Reference: Y ranges over every nonempty subset of the carrier, smallest first."""
    mins = P.minimals_mask
    for Y in sorted(range(1, 1 << P.n), key=lambda m: (m.bit_count(), m)):
        s = P.sup_of_mask(Y)
        if s is None:
            continue
        below = 0
        for y in range(P.n):
            if Y >> y & 1:
                below |= P.down[y]
        missing = P.down[s] & mins & ~below
        if missing:
            a = (missing & -missing).bit_length() - 1
            return False, (a, tuple(y for y in range(P.n) if Y >> y & 1))
    return True, None


def _unique_representation(P):
    """If x = sup(S) for S a subset of minimals, then S is exactly S_x."""
    mins = P.minimals_mask
    for sub in _submasks_smallest_first(mins):
        x = P.sup_of_mask(sub)
        if x is not None and P.minimals_below_mask(x) != sub:
            return False, (x, tuple(_bits(sub)))
    return True, None


def _weak_presentability_witnesses(P):
    """Reference: the least set of minimals with no supremum, then the least
    element that is not the supremum of the minimals below it."""
    out = []
    for sub in _submasks_smallest_first(P.minimals_mask):
        if P.sup_of_mask(sub) is None:
            out.append(("weak_presentability.i", tuple(_bits(sub))))
            break
    for x in range(P.n):
        sx = P.minimals_below_mask(x)
        if P.sup_of_mask(sx) != x:
            out.append(("weak_presentability.ii", (x, tuple(_bits(sx)))))
            break
    return out


@pytest.fixture(scope="module")
def weak_fleet():
    """The weakly presentable posets of a seeded fleet, with their reports."""
    rng = random.Random(2026)
    fleet = [random_pointed_poset(rng, max_n=12) for _ in range(4000)]
    rng = random.Random(20260808)
    fleet += [random_pointed_poset(rng, max_n=8) for _ in range(400)]
    fleet += [walking_supremum(), squarefree_divisors(6), squarefree_divisors(30)]
    fleet += [pierced_powerset(n) for n in range(1, 5)]
    fleet += [powerset_of_hyperfield(from_field(ff_make(p, n))).poset for p, n in ((3, 1), (2, 2))]
    fleet += [
        FinitePointedPoset([[1, 0], [0, 1]], basepoint=0),
        explicit_poset(
            ["0", "a", "b", "1", "c"],
            [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"), ("c", "1")],
            basepoint_name="0",
        ),
    ]
    weak = []
    for P in fleet:
        assert P.n <= MAX_MINIMALS
        report = check_presentable(P)
        if report.notes["weakly_presentable"]:
            weak.append((P, report))
    return weak


def test_compactness_over_minimals_matches_the_whole_carrier(weak_fleet):
    # only weakly presentable posets take the walk over sets of minimals;
    # the others already range over the whole carrier
    for P, report in weak_fleet:
        ok, wit = _whole_carrier_compactness(P)
        assert report.notes["all_minimals_compact"] == ok, P.up
        assert dict(report.failures).get("compactness") == wit, P.up
    assert len(weak_fleet) > 1900
    assert sum(not r.notes["all_minimals_compact"] for _, r in weak_fleet) > 900


def test_posets_not_weakly_presentable_leave_compactness_unevaluated():
    # such a poset already fails; it reports only its weak presentability
    # and basepoint witnesses, and no compactness verdict
    rng = random.Random(2026)
    checked = 0
    for _ in range(4000):
        P = random_pointed_poset(rng, max_n=12)
        report = check_presentable(P)
        if report.notes["weakly_presentable"]:
            continue
        assert report.notes["all_minimals_compact"] is None, P.up
        assert report.notes["tests_agree"] is None and not report.passed, P.up
        expected = _weak_presentability_witnesses(P)
        if not report.notes["basepoint_minimal"]:
            expected.append(("basepoint_minimal", (P.basepoint,)))
        assert expected[0][0].startswith("weak_presentability."), P.up
        assert report.failures == expected, P.up
        checked += 1
    assert checked > 2000


def test_unique_representation_walk_matches_the_count(weak_fleet):
    # under weak presentability S -> sup(S) is onto the carrier, so it is
    # one-to-one iff the carrier has 2^k - 1 elements for k minimals
    unique = 0
    for P, report in weak_fleet:
        walk_ok, _ = _unique_representation(P)
        counted = P.n == 2 ** P.minimals_mask.bit_count() - 1
        assert walk_ok == counted == report.notes["all_minimals_compact"], P.up
        assert report.notes["tests_agree"] is True, P.up
        unique += walk_ok
    assert 900 < unique < len(weak_fleet) - 900


def test_poset_ladder_reports_like_every_ladder():
    # the AxiomReport of every ladder: it passes iff it lists no failure,
    # which is the conjunction of its three verdicts, and its level is
    # "poset" exactly then; notes hold the four verdicts and nothing else
    rng = random.Random(2026)
    fleet = [random_pointed_poset(rng, max_n=12) for _ in range(4000)]
    fleet += [walking_supremum(), *map(squarefree_divisors, (6, 30, 210)), *map(pierced_powerset, range(1, 5))]
    verdicts = {"weakly_presentable", "basepoint_minimal", "all_minimals_compact", "tests_agree"}
    passed = 0
    for P in fleet:
        report = check_presentable(P)
        notes = report.notes
        assert set(notes) == verdicts, P.up
        assert report.passed == (not report.failures), P.up
        conjunction = notes["weakly_presentable"] and notes["basepoint_minimal"] and notes["all_minimals_compact"]
        assert report.passed == bool(conjunction), P.up
        assert report.level_passed == ("poset" if report.passed else "none"), P.up
        passed += report.passed
    assert len(fleet) == 4008
    assert 0 < passed < len(fleet) - 2000, passed


def test_compactness_can_fail_first_at_three_minimals():
    # the nonempty subsets of four points but {0, 1, 2}, by inclusion: every
    # pair of points is compact, and sup{0, 1, 2} is the whole set, above 3
    family = [m for m in range(1, 16) if m != 0b0111]
    up = [sum(1 << j for j, b in enumerate(family) if a & ~b == 0) for a in family]
    P = FinitePointedPoset.from_up_masks(up, basepoint=0)
    report = check_presentable(P)
    assert report.notes["weakly_presentable"] and report.notes["tests_agree"] is True
    assert report.failures == [("compactness", (6, (0, 1, 3)))]
    # the whole carrier fails first at Y = {{0, 1}, {2}}, the same verdict
    assert _whole_carrier_compactness(P) == (False, (6, (2, 3)))
    assert _unique_representation(P)[0] is False

def test_subset_guard_edge_in_a_subprocess():
    # 16 minimals under one top: 65,535 sets of minimals, the most the guard admits
    code = (
        "from quadpres.posets import FinitePointedPoset, check_presentable\n"
        "up = [1 << i | 1 << 16 for i in range(16)] + [1 << 16]\n"
        "r = check_presentable(FinitePointedPoset.from_up_masks(up, basepoint=0))\n"
        "n = r.notes\n"
        "print(n['weakly_presentable'], n['all_minimals_compact'], r.failures, n['tests_agree'])\n"
    )
    done = run_python("-c", code, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True False [('compactness', (2, (0, 1)))] True\n"

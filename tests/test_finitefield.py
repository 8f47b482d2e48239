import re
from itertools import product

import pytest

from quadpres.errors import InputError, SizeGuardError, ValidationError
from quadpres.finitefield import (
    DEFAULT_MODULI,
    MAX_FIELD,
    FiniteField,
    _is_prime,
    _trim,
    ff_make,
    parse_field_arg,
    square_classes,
)

from fleet import run_python

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


# polynomial arithmetic over GF(p), coefficients constant term first: the
# per-cell reference for the tables FiniteField builds a row at a time
def _poly_mod(a, m, p):
    a = _trim([x % p for x in a])
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        k = len(a) - 1 - dm
        f = a[-1]  # m is monic
        for i, c in enumerate(m):
            a[i + k] = (a[i + k] - f * c) % p
        a = _trim(a)
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _encode(digits, p):
    a = 0
    for c in reversed(list(digits)):
        a = a * p + c
    return a


# trial division: the reference for the generator search by which FiniteField
# refuses a reducible modulus
def _monic_polys(p, d):
    coeffs = [0] * d + [1]
    while True:
        yield list(coeffs)
        i = 0
        while i < d:
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return


def poly_is_irreducible(modulus, p):
    """Exhaustive trial division by all monic polys of degree <= deg/2."""
    m = _trim([c % p for c in modulus])
    n = len(m) - 1
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for f in _monic_polys(p, d):
            if not _poly_mod(list(m), f, p):
                return False
    return True


# every monic modulus of these degrees is tried: each irreducible one builds
# its field, each reducible one is refused
MODULUS_FAMILIES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                    (7, 2), (11, 2)]


def test_gf3_arithmetic():
    k = ff_make(3)
    assert k.add(1, 2) == 0
    assert k.mul(2, 2) == 1
    assert k.neg(1) == 2


def test_gf4_cubes_are_one():
    k = ff_make(2, 2)
    for a in k.nonzero():
        assert k.power(a, 3) == 1


def test_gf9_multiplicative_group_cyclic_of_order_8():
    k = ff_make(3, 2)
    g = k.generator()
    assert sorted(k.power(g, i) for i in range(8)) == list(range(1, 9))


def multiplicative_order(k, a):
    """The order of a in k*, by walking its powers: the reference for the
    walk by which the least generator is found.  0 when the powers do not
    return to 1 within q - 1 steps, as on a table that is not a field's."""
    x = a
    for n in range(1, k.q):
        if x == 1:
            return n
        x = k.mul(x, a)
    return 0


def test_generator_is_the_least_element_of_full_order():
    sizes = [(p, n) for p in range(2, MAX_FIELD + 1) if _is_prime(p)
             for n in range(1, MAX_FIELD.bit_length()) if p**n <= MAX_FIELD]
    assert len(sizes) == 198
    for p, n in sizes:
        k = ff_make(p, n)
        g = k.generator()
        assert multiplicative_order(k, g) == k.q - 1, k
        assert all(multiplicative_order(k, a) < k.q - 1 for a in range(1, g)), k


def test_field_axioms_exhaustive_small():
    # exhaustive associativity, distributivity and inverses up to size 49
    for p, n in SMALL_FIELDS + [(7, 2)]:
        k = ff_make(p, n)
        if k.q > 49:
            continue
        elems = range(k.q)
        for a, b, c in product(elems, repeat=3):
            assert k.add(a, k.add(b, c)) == k.add(k.add(a, b), c)
            assert k.mul(a, k.mul(b, c)) == k.mul(k.mul(a, b), c)
            assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
        for a in elems:
            assert k.add(a, k.neg(a)) == 0
            assert k.add(a, 0) == a
            assert k.mul(a, 1) == a
            if a:
                assert k.mul(a, k.inv(a)) == 1


def test_tables_match_per_cell_arithmetic():
    # the reference is arithmetic cell by cell: addition digit by digit,
    # multiplication of polynomials reduced by the modulus
    fields = [(p, 1) for p in range(2, 129) if _is_prime(p)]
    fields += [(p, n) for p, n in DEFAULT_MODULI if p**n <= 169]
    for p, n in fields:
        k = ff_make(p, n)
        elems = range(k.q)
        digits = [k._decode(a) for a in elems]
        polys = [_trim(d) for d in digits]
        add = [[_encode([(x + y) % p for x, y in zip(digits[a], digits[b])], p) for b in elems]
               for a in elems]
        mul = [[_encode(_poly_mod(_poly_mul(polys[a], polys[b], p), k.modulus, p), p) for b in elems]
               for a in elems]
        assert [[k.add(a, b) for b in elems] for a in elems] == add, (p, n)
        assert [[k.mul(a, b) for b in elems] for a in elems] == mul, (p, n)
        assert [k.neg(a) for a in elems] == [_encode([-x % p for x in d], p) for d in digits], (p, n)
        assert [k.inv(a) for a in k.nonzero()] == [mul[a].index(1) for a in k.nonzero()], (p, n)


def linear_tables(p, n, modulus):
    """GF(p^n)'s add, mul, neg and inv tables built row by row by linearity:
    the reference for the tables an extension reads off its generator's
    powers.  Addition recurses on the low digit, a + b = (a mod p + b mod p)
    mod p + p * (a div p + b div p); row a = d + x*a' of the multiplication
    is row d plus row a' read through the x row; negatives and inverses are
    the positions of 0 and 1 in each row."""
    q = p**n
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    while len(add) < q:
        m = len(add) * p
        add = [[(a % p + b % p) % p + p * add[a // p][b // p] for b in range(m)] for a in range(m)]
    mul = [[0] * q]
    for _ in range(1, p):
        mul.append([add[y][b] for b, y in enumerate(mul[-1])])
    top = q // p
    xn = sum(-c % p * p**i for i, c in enumerate(modulus[:n]))
    by_x = [add[e % top * p][mul[e // top][xn]] for e in range(q)]
    for a in range(p, q):
        mul.append([add[s][by_x[t]] for s, t in zip(mul[a % p], mul[a // p])])
    neg = [row.index(0) for row in add]
    inv = [None] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv


def test_extension_tables_match_the_linear_rows():
    # every default modulus up to GF(2^10), then every irreducible modulus
    # of small degree, x a generator or not
    for (p, n), modulus in DEFAULT_MODULI.items():
        k = ff_make(p, n, modulus)
        assert (k._add, k._mul, k._neg, k._inv) == linear_tables(p, n, modulus), k
    x_not_a_generator = 0
    for p, n in MODULUS_FAMILIES:
        for modulus in _monic_polys(p, n):
            if poly_is_irreducible(modulus, p):
                k = ff_make(p, n, modulus)
                assert (k._add, k._mul, k._neg, k._inv) == linear_tables(p, n, modulus), k
                x_not_a_generator += multiplicative_order(k, p) < k.q - 1
    # irreducible but not primitive: I(p, n) - phi(p^n - 1)/n in each family
    assert x_not_a_generator == 97


def test_prime_tables_match_modular_arithmetic_up_to_the_cap():
    # every prime field the cap admits, a row at a time: the multiplication
    # rows are read off the powers of a generator, the reference is a*b mod p
    primes = [p for p in range(2, MAX_FIELD + 1) if _is_prime(p)]
    assert len(primes) == 172
    for p in primes:
        k = ff_make(p)
        assert k._mul == [[a * b % p for b in range(p)] for a in range(p)], p
        assert k._neg == [-a % p for a in range(p)], p
        assert k._inv == [None] + [pow(a, p - 2, p) for a in range(1, p)], p


def test_default_moduli_are_irreducible():
    # each is also the least irreducible in id order with a nonzero constant term
    for (p, n), m in DEFAULT_MODULI.items():
        assert poly_is_irreducible(m, p)
        assert len(m) == n + 1 and m[-1] == 1
        for candidate in _monic_polys(p, n):
            if candidate == list(m):
                break
            assert not candidate[0] or not poly_is_irreducible(candidate, p), (p, n, candidate)


def test_reducible_modulus_rejected():
    with pytest.raises(ValidationError):
        ff_make(2, 2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(ValidationError):
        ff_make(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2) over GF(3)


def test_modulus_accepted_iff_trial_division_finds_it_irreducible():
    checked = 0
    for p, n in MODULUS_FAMILIES:
        for modulus in _monic_polys(p, n):
            if poly_is_irreducible(modulus, p):
                assert ff_make(p, n, modulus).modulus == tuple(modulus), (p, modulus)
            else:
                message = f"modulus {modulus} is reducible over GF({p})"
                with pytest.raises(ValidationError, match=re.escape(message)):
                    ff_make(p, n, modulus)
            checked += 1
    assert checked == 561
    # the message shows the modulus as typed, trailing zeros included
    with pytest.raises(ValidationError) as err:
        ff_make(3, 2, modulus=[2, 0, 1, 0])
    assert str(err.value) == "modulus [2, 0, 1, 0] is reducible over GF(3)"


def test_reducible_modulus_at_the_cap_refused_in_bounded_time():
    # a reducible modulus builds the addition table, then walks candidate
    # rows, each built by linearity, up to the first non-unit: 0.01-0.05 s
    # each here, against 0.07-0.18 s when every inverse was scanned for
    probe = """
from quadpres.errors import ValidationError
from quadpres.finitefield import ff_make
for p, n, modulus in [(2, 10, [1] + [0] * 9 + [1]), (2, 10, [1] + [0] * 9 + [1, 0]),
                      (31, 2, [30, 0, 1]), (3, 6, [2, 0, 0, 0, 0, 0, 1])]:
    try:
        ff_make(p, n, modulus)
    except ValidationError as err:
        print(err)
"""
    done = run_python("-c", probe, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "modulus [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1] is reducible over GF(2)",  # x^10 + 1
        "modulus [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0] is reducible over GF(2)",  # as typed
        "modulus [30, 0, 1] is reducible over GF(31)",  # x^2 - 1
        "modulus [2, 0, 0, 0, 0, 0, 1] is reducible over GF(3)",  # x^6 + 2 = x^6 - 1
    ]


def test_modulus_coefficients_outside_the_prime_field_refused():
    for p, n, modulus, bad in [(3, 2, (1, 5, 1), 5), (3, 2, (1, -2, 1), -2), (5, 1, (7, 1), 7)]:
        with pytest.raises(InputError, match=f"coefficient {bad} "):
            ff_make(p, n, modulus=modulus)


def test_every_extension_under_the_cap_has_a_default_modulus():
    extensions = {(p, n) for p in range(2, MAX_FIELD) if _is_prime(p)
                  for n in range(2, MAX_FIELD.bit_length()) if p**n <= MAX_FIELD}
    assert set(DEFAULT_MODULI) == extensions
    assert len(extensions) == 26
    # each builds from its size, as the CLI builds it; the generator search
    # would refuse a reducible modulus
    for p, n in extensions:
        k = ff_make(*parse_field_arg(str(p**n)))
        assert (k.p, k.n, k.modulus) == (p, n, DEFAULT_MODULI[p, n])


def test_guards():
    with pytest.raises(SizeGuardError):
        ff_make(2, 13)
    with pytest.raises(InputError):
        ff_make(4, 1)
    with pytest.raises(InputError):
        ff_make(3, 0)


def test_field_size_guard_refuses_before_building_tables(monkeypatch):
    def build_tables(self):
        raise AssertionError("tables built")

    monkeypatch.setattr(FiniteField, "_build_tables", build_tables)
    with pytest.raises(SizeGuardError):
        ff_make(2039)
    with pytest.raises(AssertionError):  # 1021 passes the guard
        ff_make(1021)


def test_size_guard_builds_no_power_past_the_cap(monkeypatch):
    def build_tables(self):
        raise AssertionError("tables built")

    monkeypatch.setattr(FiniteField, "_build_tables", build_tables)
    for p, n in product([p for p in range(2, 1100) if _is_prime(p)], range(1, 13)):
        # an admitted field reaches its tables
        with pytest.raises((SizeGuardError, AssertionError)) as err:
            ff_make(p, n)
        assert (err.type is SizeGuardError) == (p**n > MAX_FIELD), (p, n)
    # each of these would factor q, test a large p for primality or build p^n
    with pytest.raises(SizeGuardError, match="field size 1000000007 exceeds cap 1024"):
        parse_field_arg("1000000007")
    with pytest.raises(SizeGuardError, match=r"field size 3\^10000000 exceeds cap 1024"):
        ff_make(*parse_field_arg("3^10000000"))
    with pytest.raises(SizeGuardError):
        ff_make(10**20 + 39)  # a prime: trial division would take hours
    assert parse_field_arg("1024") == (2, 10)
    with pytest.raises(InputError, match="characteristic 1 is not prime"):
        ff_make(*parse_field_arg("1^1000000000"))


def test_square_classes_gf3():
    sq = square_classes(ff_make(3))
    assert set(sq.classes) == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert sq.zero_class == 0
    assert sq.nonzero_count == 2


def test_square_classes_gf5():
    sq = square_classes(ff_make(5))
    assert frozenset({1, 4}) in sq.classes
    assert frozenset({2, 3}) in sq.classes
    assert sq.nonzero_count == 2


def test_square_classes_gf4_single_nonzero_class():
    k = ff_make(2, 2)
    sq = square_classes(k)
    assert sq.nonzero_count == 1
    assert sq.classes[1] == frozenset({1, 2, 3})


def test_square_class_counts():
    # odd q: exactly 2 nonzero classes; characteristic 2: exactly 1
    for p, n in SMALL_FIELDS + [(3, 3), (7, 2)]:
        k = ff_make(p, n)
        expect = 1 if p == 2 else 2
        assert square_classes(k).nonzero_count == expect


def test_square_class_of_product_well_defined():
    for p, n in SMALL_FIELDS:
        k = ff_make(p, n)
        sq = square_classes(k)
        for a in k.nonzero():
            for b in k.nonzero():
                # the class of a product depends only on the classes
                ca, cb = sq.class_of[a], sq.class_of[b]
                a2 = min(sq.classes[ca])
                b2 = min(sq.classes[cb])
                assert sq.class_of[k.mul(a, b)] == sq.class_of[k.mul(a2, b2)]


def test_element_names():
    k = ff_make(2, 2)
    assert [k.element_name(a) for a in range(4)] == ["0", "1", "x", "x+1"]
    assert ff_make(5).element_name(3) == "3"


def test_parse_field_arg():
    assert parse_field_arg("3") == (3, 1)
    assert parse_field_arg("3^2") == (3, 2)
    assert parse_field_arg("9") == (3, 2)
    assert parse_field_arg("8") == (2, 3)
    with pytest.raises(InputError):
        parse_field_arg("6")
    with pytest.raises(InputError):
        parse_field_arg("abc")

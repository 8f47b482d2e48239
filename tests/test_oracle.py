from itertools import combinations_with_replacement, product

import pytest

from quadpres import oracle
from quadpres.errors import InputError, SizeGuardError, ValidationError
from quadpres.finitefield import ff_make, square_classes
from quadpres.oracle import (
    GramForm,
    _det,
    _field_for,
    _witt_key,
    classical_isometric,
    classical_witt_ring,
    congruence_classes,
    diagonal_isometric_field,
    represents,
    same_square_class,
)
from quadpres.quadratic import Form, WittClass, WittRing

from fleet import ORACLE_SIZES, run_python


def test_gram_form_validation():
    k = ff_make(3)
    g = GramForm(k, ((1, 0), (0, 2)))
    assert g.nondegenerate
    assert GramForm(k, ((1, 0), (0, 0))).nondegenerate is False
    with pytest.raises(ValidationError):
        GramForm(k, ((1, 2), (0, 1)))
    with pytest.raises(InputError):
        GramForm(k, ((1, 0),))


def test_gf3_dim1_two_classes():
    cc = congruence_classes(3, 1)
    assert cc.count == 2


def test_gf2_dim1_single_class():
    cc = congruence_classes(2, 1)
    assert cc.count == 1


def test_gf3_dim2_orbit_count_matches_disc_criterion():
    cc = congruence_classes(3, 2)
    # over an odd field, nondegenerate symmetric binary forms are classified
    # by discriminant square class: two classes
    k = ff_make(3)
    disc_classes = set()
    for a, b in product((1, 2), repeat=2):
        disc_classes.add(same_square_class(k, k.mul(a, b), 1))
    assert cc.count == len(disc_classes)


def _mat_mul(k, A, B):
    n = len(A)
    return tuple(
        tuple(
            _dot(k, A[i], tuple(B[x][j] for x in range(n)))
            for j in range(n)
        )
        for i in range(n)
    )


def _dot(k, row, col):
    out = 0
    for a, b in zip(row, col):
        out = k.add(out, k.mul(a, b))
    return out


def _transpose(A):
    n = len(A)
    return tuple(tuple(A[j][i] for j in range(n)) for i in range(n))


def _general_linear(k, n):
    out = []
    for vals in product(range(k.q), repeat=n * n):
        P = tuple(tuple(vals[i * n + j] for j in range(n)) for i in range(n))
        if _det(k, P) != 0:
            out.append(P)
    return out


def _symmetric_nondegenerate(k, n):
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    out = []
    for vals in product(range(k.q), repeat=len(idx)):
        A = [[0] * n for _ in range(n)]
        for (i, j), v in zip(idx, vals):
            A[i][j] = A[j][i] = v
        A = tuple(tuple(row) for row in A)
        if _det(k, A) != 0:
            out.append(A)
    return out


def _elementary_congruence(k, A, i, j, c):
    """P^T A P for P = I + c*E_ij: column j += c * column i, then row j += c * row i."""
    B = [list(row) for row in A]
    for row in B:
        row[j] = k.add(row[j], k.mul(c, row[i]))
    B[j] = [k.add(x, k.mul(c, y)) for x, y in zip(B[j], B[i])]
    return tuple(map(tuple, B))


def _nested_orbit_classes(q, dim):
    """Reference: the orbit search on nested tuples and field calls, each
    nondegenerate matrix closed breadth-first under the same generators."""
    k = _field_for(q)
    moves = [(i, j, 1) for i in range(dim) for j in range(dim) if i != j]
    moves.append((0, 0, k.sub(k.generator(), 1)))
    orbit_index = {}
    reps = []
    for A in _symmetric_nondegenerate(k, dim):
        if A in orbit_index:
            continue
        idx = len(reps)
        orbit_index[A] = idx
        orbit = [A]
        for B in orbit:
            for move in moves:
                C = _elementary_congruence(k, B, *move)
                if C not in orbit_index:
                    orbit_index[C] = idx
                    orbit.append(C)
        reps.append(min(orbit))
    return reps, orbit_index


def _brute_force_classes(q, dim):
    """Reference: apply every P in GL_n(F_q) to the first matrix of each orbit."""
    k = _field_for(q)
    gl = _general_linear(k, dim)
    orbit_index = {}
    reps = []
    for A in _symmetric_nondegenerate(k, dim):
        if A in orbit_index:
            continue
        orbit = {_mat_mul(k, _mat_mul(k, _transpose(P), A), P) for P in gl}
        for B in orbit:
            orbit_index[B] = len(reps)
        reps.append(min(orbit))
    return reps, orbit_index


@pytest.mark.parametrize(
    "q, dim",
    [(q, dim) for q in (2, 3, 4, 5, 7, 8, 9) for dim in (1, 2)] + [(2, 3), (3, 3)],
)
def test_congruence_classes_match_brute_force(q, dim):
    cc = congruence_classes(q, dim)
    reps, orbit_index = _brute_force_classes(q, dim)
    assert cc.representatives == reps
    assert cc.orbit_index == orbit_index


@pytest.mark.parametrize("q", ORACLE_SIZES + (11, 13))
def test_same_square_class_agrees_with_square_classes(q):
    k = _field_for(q)
    class_of = square_classes(k).class_of
    for a in range(q):
        for b in range(q):
            assert same_square_class(k, a, b) == (class_of[a] == class_of[b]), (q, a, b)


def test_congruence_guard(monkeypatch):
    def enumerate_matrices(*args, **kwargs):
        raise AssertionError("matrices enumerated")

    monkeypatch.setattr(oracle, "product", enumerate_matrices)
    for q, dim in ((7, 3), (9, 3), (2, 4), (11, 2)):
        with pytest.raises(SizeGuardError):
            congruence_classes(q, dim)
    # a dimension below 1 is a bad argument, not a size
    for dim in (0, -1):
        with pytest.raises(InputError, match=f"dim must be at least 1, got {dim}"):
            congruence_classes(3, dim)
    # an admitted size enumerates through the patched name, so the refusals above enumerated nothing
    with pytest.raises(AssertionError, match="matrices enumerated"):
        congruence_classes(3, 1)


def test_congruence_classes_at_the_guard_edge():
    # (5, 3), the largest size the guard admits, in a subprocess with a timeout
    probe = "from quadpres.oracle import congruence_classes; print(congruence_classes(5, 3).count)"
    done = run_python("-c", probe, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "2"


def test_classical_isometric_examples():
    assert classical_isometric(3, (1, 1), (2, 2))  # discs 1 and 4 = 1
    assert not classical_isometric(3, (1,), (2,))
    assert classical_isometric(3, (1, 2), (1, 2))
    with pytest.raises(InputError):
        classical_isometric(2, (1,), (1,))
    with pytest.raises(InputError):
        classical_isometric(3, (0,), (1,))


def test_classical_isometric_refuses_ids_outside_the_field():
    for q, bad in ((3, 5), (3, 3), (9, -1), (9, 9)):
        with pytest.raises(InputError):
            classical_isometric(q, (1, bad), (1, 1))
        with pytest.raises(InputError):
            classical_isometric(q, (1, 1), (bad, 1))
    # over GF(9) the element -1 is id 2, and <-1> and <2x+2> differ
    assert not classical_isometric(9, (2,), (8,))


# every (q, dim) the congruence guard admits
CONGRUENCE_DIMS = {2: (1, 2, 3), 3: (1, 2, 3), 4: (1, 2, 3), 5: (1, 2, 3), 7: (1, 2), 8: (1, 2), 9: (1, 2)}


def test_congruence_classes_match_the_nested_search():
    # (4, 3) and (5, 3) too, where the GL_n brute force above is too slow
    for q, dims in CONGRUENCE_DIMS.items():
        for dim in dims:
            cc = congruence_classes(q, dim)
            reps, orbit_index = _nested_orbit_classes(q, dim)
            assert cc.representatives == reps, (q, dim)
            assert cc.orbit_index == orbit_index, (q, dim)


def test_classical_isometric_agrees_with_congruence_orbits():
    for q, dims in CONGRUENCE_DIMS.items():
        k = _field_for(q)
        for dim in dims:
            cc = congruence_classes(q, dim)
            gram = {phi: GramForm.diagonal(k, phi).matrix for phi in product(k.nonzero(), repeat=dim)}
            for phi, a in gram.items():
                for psi, b in gram.items():
                    assert cc.same_class(a, b) == diagonal_isometric_field(k, phi, psi), (
                        q,
                        dim,
                        phi,
                        psi,
                    )
                    # even q: every element is a square, so equal dimension is congruence
                    assert q % 2 or cc.same_class(a, b), (q, dim, phi, psi)
            if q % 2 and dim == 2:
                # classical_isometric builds its own field: one pair per odd q keeps it covered
                g = k.generator()
                assert not cc.same_class(gram[1, 1], gram[1, g])
                assert not classical_isometric(q, (1, 1), (1, g))


def test_represents_value_sets():
    k = ff_make(7)
    # <1,1> over GF(7): s^2 + t^2 hits every nonzero value but not 0
    hits = {c for c in k.nonzero() if represents(k, 1, 1, c)}
    assert hits == set(k.nonzero())
    assert not represents(k, 1, 1, 0)
    k3 = ff_make(3)
    assert represents(k3, 1, 1, 0) is False  # -1 not a square mod 3


def test_binary_isometric_field_basics():
    k = ff_make(3)
    assert binary_isometric_field(k, 1, 1, 2, 2)
    assert not binary_isometric_field(k, 1, 1, 1, 2)


def test_witt_ring_counts():
    for q, expected in [(3, 4), (5, 4), (2, 2), (4, 2), (7, 4), (9, 4)]:
        W = classical_witt_ring(q, 4)
        assert W.status == "finite"
        assert W.size == expected, q


def test_witt_ring_structures():
    W3 = classical_witt_ring(3, 4)
    one = W3.one_class
    x = one
    for _ in range(3):
        x = W3.add_table[x][one]
    assert x == W3.zero_class  # additive order 4
    W5 = classical_witt_ring(5, 4)
    for i in range(W5.size):
        assert W5.add_table[i][i] == W5.zero_class  # exponent 2


def test_witt_ring_saturation():
    for q in (2, 3, 5, 7, 9):
        assert classical_witt_ring(q, 3).size == classical_witt_ring(q, 4).size


def test_witt_ring_guards():
    # the field's size is refused by parse_field_arg, and only there
    with pytest.raises(InputError, match="6 is not a prime power"):
        classical_witt_ring(6, 4)
    with pytest.raises(SizeGuardError, match="field size 2048 exceeds cap 1024"):
        classical_witt_ring(2048, 4)
    with pytest.raises(SizeGuardError):
        classical_witt_ring(3, 5)
    for dmax in (1, 0):
        with pytest.raises(InputError, match="dmax must be at least 2"):
            classical_witt_ring(3, dmax)


def binary_isometric_field(k, a, b, c, d) -> bool:
    """Value-set criterion: <a,b> ~ <c,d> iff ab = cd mod squares and
    c = a s^2 + b t^2 has a nontrivial solution."""
    if not same_square_class(k, k.mul(a, b), k.mul(c, d)):
        return False
    return represents(k, a, b, c)


class _DiagonalWitt:
    """Canonical diagonal forms and hyperbolic stabilization, entirely at
    field level."""

    def __init__(self, k):
        self.k = k
        sq = square_classes(k)
        least = [min(c) for c in sq.classes]
        self.reps = tuple(sorted(r for i, r in enumerate(least) if i != sq.zero_class))
        self.rep_of = {x: least[sq.class_of[x]] for x in k.nonzero()}
        self.hyperbolic = tuple(sorted((1, self.rep_of[k.neg(1)])))

    def canon(self, entries):
        return tuple(sorted(self.rep_of[e] for e in entries))

    def witt_equivalent(self, s, t):
        """Equal-parity dimensions, and isometric once the shorter form is
        padded with hyperbolic planes to the longer one's dimension.

        One comparison by `diagonal_isometric_field` is exact.  For odd q,
        diagonal forms are classified by dimension and discriminant (Lam,
        Introduction to Quadratic Forms over Fields, Ch. II), and Witt
        cancellation (Ch. I) turns s + mH ~ t + m'H, m' >= m, into
        s ~ t + (m' - m)H.  For even q every element is a square, so
        `same_square_class` always holds and equal dimension decides.
        """
        s, t = self.canon(s), self.canon(t)
        if (len(s) - len(t)) % 2:
            return False
        if len(s) < len(t):
            s, t = t, s
        padded = t + self.hyperbolic * ((len(s) - len(t)) // 2)
        return diagonal_isometric_field(self.k, s, padded)


class ChainWitt(_DiagonalWitt):
    """The reference isometry: breadth-first closure of canonical diagonal
    forms under binary chain steps, each step the value-set criterion."""

    def __init__(self, k):
        super().__init__(k)
        self._partitions = {}

    def _dim_partition(self, d):
        """Chain-equivalence classes of canonical diagonal forms of dim d."""
        if d in self._partitions:
            return self._partitions[d]
        states = list(combinations_with_replacement(self.reps, d))
        label = {}
        binary = {}
        k, rep_of = self.k, self.rep_of
        for a, b, c, e in product(self.reps, repeat=4):
            # binary_isometric_field, reading the square classes off rep_of
            binary[(a, b, c, e)] = rep_of[k.mul(a, b)] == rep_of[k.mul(c, e)] and represents(k, a, b, c)
        for s in states:
            if s in label:
                continue
            idx = max(label.values(), default=-1) + 1
            frontier = [s]
            label[s] = idx
            while frontier:
                cur = frontier.pop()
                for i in range(d):
                    for j in range(i + 1, d):
                        for c, e in product(self.reps, repeat=2):
                            if not binary[(cur[i], cur[j], c, e)]:
                                continue
                            nxt = list(cur)
                            nxt[i], nxt[j] = c, e
                            nxt = tuple(sorted(nxt))
                            if nxt not in label:
                                label[nxt] = idx
                                frontier.append(nxt)
        self._partitions[d] = label
        return label

    def chain_isometric(self, s, t):
        s, t = self.canon(s), self.canon(t)
        if len(s) != len(t):
            return False
        label = self._dim_partition(len(s))
        return label[s] == label[t]


MAX_ORACLE_DIM = 16  # a product of two dim-4 classes in classical_witt_ring(q, 4)


def test_chain_reference_matches_the_discriminant_rule():
    for q in ORACLE_SIZES:
        calc = ChainWitt(_field_for(q))
        for d in range(1, MAX_ORACLE_DIM + 1):
            forms = list(combinations_with_replacement(calc.reps, d))
            for phi, psi in product(forms, repeat=2):
                assert calc.chain_isometric(phi, psi) == diagonal_isometric_field(calc.k, phi, psi), (q, phi, psi)
    # unsorted entries over GF(3), through classical_isometric
    calc = ChainWitt(ff_make(3))
    for phi in product((1, 2), repeat=3):
        for psi in product((1, 2), repeat=3):
            assert calc.chain_isometric(phi, psi) == classical_isometric(3, phi, psi)


PAD_DIMS = 6  # dimensions of hyperbolic padding witt_equivalent tries past the larger form


def padded_witt_equivalent(self, s, t):
    """The reference: every hyperbolic padding up to PAD_DIMS past the larger
    form, each compared by the chain steps of ChainWitt."""
    s, t = self.canon(s), self.canon(t)
    cap = max(len(s), len(t)) + PAD_DIMS
    for ds in range(len(s), cap + 1, 2):
        dt = ds  # compare at equal padded dimension
        if dt < len(t) or (dt - len(t)) % 2 != 0:
            continue
        ms = (ds - len(s)) // 2
        mt = (dt - len(t)) // 2
        padded_s = tuple(sorted(s + self.hyperbolic * ms))
        padded_t = tuple(sorted(t + self.hyperbolic * mt))
        if self.chain_isometric(padded_s, padded_t):
            return True
    return False


@pytest.mark.parametrize("q", ORACLE_SIZES)
def test_one_padded_comparison_matches_every_padding(q):
    calc = ChainWitt(_field_for(q))
    forms = [s for d in range(9) for s in combinations_with_replacement(calc.reps, d)]
    for s, t in product(forms, repeat=2):
        assert calc.witt_equivalent(s, t) == padded_witt_equivalent(calc, s, t), (q, s, t)


@pytest.mark.parametrize("q", ORACLE_SIZES)
def test_witt_key_matches_the_padded_comparison(q):
    # the oracle's key against the one padded comparison it replaced, which
    # the test above checks against every padding on the chain rule
    calc = _DiagonalWitt(_field_for(q))
    forms = [s for d in range(9) for s in combinations_with_replacement(calc.reps, d)]
    for s, t in product(forms, repeat=2):
        assert (_witt_key(calc.k, s) == _witt_key(calc.k, t)) == calc.witt_equivalent(s, t), (q, s, t)


def padded_reference_witt_ring(q, dmax):
    """classical_witt_ring as a linear scan of padded chain-step comparisons:
    the oracle's construction before its classes were keyed."""
    k = _field_for(q)
    calc = ChainWitt(k)
    reps = [()]  # diagonal entries per class; () is the zero class

    def index_of(entries):
        for i, e in enumerate(reps):
            if padded_witt_equivalent(calc, entries, e):
                return i
        return None

    growth = []
    for d in range(1, dmax + 1):
        before = len(reps)
        for cand in combinations_with_replacement(calc.reps, d):
            if index_of(cand) is None:
                reps.append(cand)
        growth.append(len(reps) - before)

    n = len(reps)
    add_table = [[None] * n for _ in range(n)]
    mul_table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ei, ej = reps[i], reps[j]
            add_table[i][j] = add_table[j][i] = index_of(ei + ej)
            prod = tuple(k.mul(a, b) for a in ei for b in ej)
            mul_table[i][j] = mul_table[j][i] = index_of(prod)
    return WittRing(
        classes=[WittClass(Form(e) if e else None) for e in reps],
        add_table=add_table,
        mul_table=mul_table,
        zero_class=0,
        one_class=index_of((1,)),
        growth=growth,
    )


@pytest.mark.parametrize("q", ORACLE_SIZES)
def test_classical_witt_ring_matches_the_padded_reference(q):
    for d in (2, 3, 4):
        W = classical_witt_ring(q, d)
        assert W == padded_reference_witt_ring(q, d), (q, d)
        assert W.status == "finite", (q, d)

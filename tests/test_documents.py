import pytest

from quadpres.cli import main
from quadpres.documents import (
    emit_hyperfield,
    emit_poset,
    emit_presentable,
    parse_document,
    parse_hyperfield,
    parse_poset,
    parse_presentable,
)
from quadpres.errors import InputError
from quadpres.finitefield import ff_make
from quadpres.hyperfields import Hyperfield, euclidean_hyperfield, from_field
from quadpres.posets import squarefree_divisors, walking_supremum
from quadpres.presentable import example_sq_structure, powerset_of_hyperfield

from fleet import HYPERFIELDS


def test_hyperfield_round_trip_bit_exact():
    for F in HYPERFIELDS:
        doc = emit_hyperfield(F)
        G = parse_hyperfield(doc)
        assert G == F
        assert G.names == F.names
        assert emit_hyperfield(G) == doc


def test_poset_round_trip_bit_exact():
    for P in (walking_supremum(), squarefree_divisors(30)):
        doc = emit_poset(P)
        Q = parse_poset(doc)
        assert Q.up == P.up and Q.names == P.names and Q.basepoint == P.basepoint
        assert emit_poset(Q) == doc


def test_presentable_round_trip_bit_exact():
    for R in (example_sq_structure(), powerset_of_hyperfield(from_field(ff_make(2)))):
        doc = emit_presentable(R)
        S = parse_presentable(doc)
        assert S.add == R.add and S.mul == R.mul and S.neg == R.neg
        assert S.poset.up == R.poset.up and S.poset.names == R.poset.names
        assert S.one == R.one and S.is_field == R.is_field
        assert emit_presentable(S) == doc


def test_powerset_names_with_commas_round_trip():
    R = powerset_of_hyperfield(euclidean_hyperfield())
    doc = emit_presentable(R)
    S = parse_presentable(doc)
    assert S.poset.names == R.poset.names
    assert "{0,1}" in S.poset.names


def test_parse_document_dispatch():
    assert parse_document(emit_poset(walking_supremum())).n == 3
    assert parse_document(emit_hyperfield(euclidean_hyperfield())).size == 3
    assert parse_document(emit_presentable(example_sq_structure())).n == 7
    with pytest.raises(InputError):
        parse_document("widget\n")
    with pytest.raises(InputError):
        parse_document("")


def test_parse_errors_name_the_line():
    doc = emit_hyperfield(euclidean_hyperfield())
    broken = doc.replace("mul:\n0 0 0", "mul:\n0 0", 1)
    with pytest.raises(InputError) as err:
        parse_hyperfield(broken)
    assert "line" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_hyperfield(doc.replace("zero: 0", "zero: q", 1))
    assert str(err.value) == "line 3: unknown element 'q'"
    presentable = emit_presentable(example_sq_structure())
    with pytest.raises(InputError) as err:
        parse_presentable(presentable.replace("one: I", "one: q", 1))
    assert str(err.value) == "line 4: unknown element 'q'"
    with pytest.raises(InputError) as err:
        parse_hyperfield(doc.replace("mul:", "mul: 0", 1))
    assert str(err.value) == "line 6: 'mul:' takes no inline value"
    with pytest.raises(InputError) as err:
        parse_presentable(presentable.replace("add:", "add: theta", 1))
    assert str(err.value) == "line 16: 'add:' takes no inline value"


def test_comments_and_blank_lines_ignored():
    doc = emit_poset(walking_supremum())
    noisy = "# header comment\n" + doc.replace("basepoint: p", "basepoint: p  # the base\n")
    P = parse_poset(noisy)
    assert P.names == ("p", "q", "x")


def test_lines_after_the_last_section_are_refused(tmp_path):
    with pytest.raises(InputError) as err:
        parse_document("poset\nelements: a b\nbasepoint: a\ncovr: a b\n")
    assert str(err.value) == "line 4: unexpected line after the document's end: 'covr: a b'"
    hyperfield = emit_hyperfield(euclidean_hyperfield())
    presentable = emit_presentable(example_sq_structure())
    for doc in (hyperfield, presentable):
        lines = doc.count("\n")
        with pytest.raises(InputError) as err:
            parse_document(doc + "\n# a comment\n0 1 -1\n")
        assert str(err.value).startswith(f"line {lines + 3}: unexpected line"), doc
        assert parse_document(doc + "\n# a comment\n") is not None  # comments and blanks stay fine
    path = tmp_path / "trailing.txt"
    path.write_text(hyperfield + "add:\n")
    assert main(["check-hyperfield", "--input", str(path)]) == 2


def test_hash_in_element_names_is_refused():
    E = euclidean_hyperfield()
    named = Hyperfield(zero=E.zero, one=E.one, neg=[E.neg(a) for a in range(3)],
                       mul=[[E.mul(a, b) for b in range(3)] for a in range(3)],
                       add=[[E.add(a, b) for b in range(3)] for a in range(3)], names=("0", "1#x", "-1"))
    with pytest.raises(InputError) as err:
        emit_hyperfield(named)
    assert str(err.value) == "element name '1#x' not serializable (whitespace/semicolon/#)"

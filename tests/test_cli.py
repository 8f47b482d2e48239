import io
import json
from dataclasses import replace

import pytest

from quadpres import cli, hyperfields, quadratic
from quadpres.cli import _oracle_match, build_parser, main
from quadpres.documents import emit_hyperfield, emit_presentable, emit_witt_ring, parse_document
from quadpres.finitefield import FiniteField, ff_make, parse_field_arg
from quadpres.hyperfields import (
    check_hyperfield,
    euclidean_hyperfield,
    from_field,
    hyperfield_isomorphic,
    prime_hyperfield,
    quadratic_hyperfield,
)
from quadpres.oracle import classical_isometric, classical_witt_ring
from quadpres.posets import check_presentable as check_poset
from quadpres.presentable import check_presentable, example_sq_structure, squares_pipeline
from quadpres.quadratic import ring_isomorphic, witt_ring

from fleet import (
    ORACLE_SIZES, STRUCTURES, TABLE_FIELDS, gf, mutate_add, one_add_cell_changed, run_python, two_step_laurent,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_witt_field_3(capsys):
    for max_dim in ("3", "4"):
        code, out = run(capsys, "witt", "--field", "3", "--max-dim", max_dim)
        assert code == 0, max_dim
        assert "W: finite, 4 classes" in out, max_dim
        assert "oracle match: yes" in out, max_dim


def test_witt_field_matches_the_oracle_past_the_small_fields(capsys):
    for q in ("11", "25", "27", "49", "1021"):
        code, out = run(capsys, "witt", "--field", q, "--max-dim", "4")
        assert code == 0, q
        assert "oracle match: yes" in out, q
    # GF(1024), the largest field the guard admits, in a subprocess with a timeout
    done = run_python("-m", "quadpres.cli", "witt", "--field", "1024", "--max-dim", "4", timeout=60)
    assert done.returncode == 0
    assert "oracle match: yes" in done.stdout
    code, out = run(capsys, "oracle", "witt", "--q", "1021", "--max-dim", "4")
    assert code == 0 and "oracle witt: 4 classes" in out


def two_classes_swapped(W, i, j):
    """An isomorphic copy of W with classes i and j renumbered as each other."""
    perm = list(range(W.size))
    perm[i], perm[j] = j, i
    return replace(
        W,
        classes=[W.classes[perm[x]] for x in range(W.size)],
        add_table=[[perm[W.add_table[perm[x]][perm[y]]] for y in range(W.size)] for x in range(W.size)],
        mul_table=[[perm[W.mul_table[perm[x]][perm[y]]] for y in range(W.size)] for x in range(W.size)],
        zero_class=perm[W.zero_class],
        one_class=perm[W.one_class],
    )


def test_oracle_match_by_equal_tables_agrees_with_the_isomorphism_search():
    # cli witt decides the oracle match by equal names and tables, not by the
    # search.  That is stricter by design: it also pins the class numbering,
    # so an isomorphic relabelling fails it while the search still finds a map.
    for q in ORACLE_SIZES:
        k = gf(q)
        F = quadratic_hyperfield(k)
        for dmax in range(2, 7):
            W = witt_ring(F, dmax)
            WO = classical_witt_ring(q, min(dmax, 4))
            assert W.status == "finite", (q, dmax)
            assert _oracle_match(W, F, WO, k) == (ring_isomorphic(W, WO) is not None), (q, dmax)
            assert _oracle_match(W, F, WO, k), (q, dmax)
            assert not _oracle_match(one_add_cell_changed(W), F, WO, k), (q, dmax)
            if W.size > 2:  # odd q: classes 1 and 2 are <1> and <least non-square>
                swapped = two_classes_swapped(W, 1, 2)
                assert not _oracle_match(swapped, F, WO, k), (q, dmax)
                assert ring_isomorphic(swapped, WO) is not None, (q, dmax)


def test_witt_oracle_mismatch_fails(monkeypatch, capsys):
    real = quadratic.witt_ring
    monkeypatch.setattr(quadratic, "witt_ring", lambda F, dmax: one_add_cell_changed(real(F, dmax)))
    code, out = run(capsys, "witt", "--field", "3")
    assert code == 1
    assert "oracle match: no" in out
    assert "witt: FAIL (oracle mismatch)" in out


def test_witt_euclidean_truncated(capsys):
    code, out = run(capsys, "witt", "--builtin", "euclidean3", "--max-dim", "5")
    assert code == 0
    assert "truncated" in out


def test_witt_input_past_two_classes(tmp_path, capsys):
    # Q(GF(3))((t)): 4 nonzero square classes, 16 Witt classes, so dim 3 truncates
    F = STRUCTURES["Q3(t)"]
    doc = tmp_path / "q3t.hf"
    doc.write_text(emit_hyperfield(F))
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "witt", "--input", str(doc), "--max-dim", "3", "--out", str(out_path))
    assert code == 0
    assert "witt: pass" in out
    report = json.loads(out_path.read_text())
    witt = next(r for r in report["reports"] if r["check"] == "witt-ring")
    assert (witt["status"], witt["classes"], witt["growth"]) == ("truncated", 15, [4, 6, 4])
    assert report["documents"]["witt-ring"] == emit_witt_ring(witt_ring(F, 3), F.names)


def test_witt_input_on_eight_classes(tmp_path, capsys):
    # E((t))((s)): distinct names per Laurent step, so it is a document
    F = two_step_laurent()
    doc = tmp_path / "ets.hf"
    doc.write_text(emit_hyperfield(F))
    out_path = tmp_path / "report.json"
    # check_quadratic prices the 512^2 pairs of dim 3, which the guard admits
    code, out = run(capsys, "witt", "--input", str(doc), "--max-dim", "3", "--out", str(out_path))
    assert code == 0
    assert "witt: pass" in out
    report = json.loads(out_path.read_text())
    witt = next(r for r in report["reports"] if r["check"] == "witt-ring")
    assert witt["growth"] == [8, 32, 88]
    assert report["documents"]["witt-ring"] == emit_witt_ring(witt_ring(F, 3), F.names)


def test_witt_refuses_max_dim_below_two_before_any_ladder(tmp_path, capsys):
    # 1 + (-1) = {0}: the table fails the hyperfield ladder
    doc = tmp_path / "bad.hf"
    doc.write_text(emit_hyperfield(mutate_add(euclidean_hyperfield(), 1, 2, {0})))
    code, out = run(capsys, "witt", "--input", str(doc), "--max-dim", "2")
    assert code == 1
    assert "witt: FAIL (hyperfield axioms)" in out
    for source in (("--input", str(doc)), ("--builtin", "euclidean3")):
        for max_dim in ("1", "0", "-3"):
            assert main(["witt", *source, "--max-dim", max_dim]) == 2, (source, max_dim)
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "error: --max-dim must be at least 2 (the hyperbolic plane has dim 2)\n"


def test_check_hyperfield_builtin(capsys):
    code, out = run(capsys, "check-hyperfield", "--builtin", "euclidean3")
    assert code == 0
    assert "hyperfield: pass" in out


def test_ladder_commands_on_larger_prime_fields(capsys):
    for p in ("127", "509"):
        code, out = run(capsys, "check-hyperfield", "--field", p)
        assert code == 0
        assert "level passed: hyperfield" in out
        assert "hyperfield: pass" in out
    code, out = run(capsys, "prime", "--field", "61")
    assert code == 0
    assert "prime: pass" in out


def test_qhf_on_the_largest_prime_field_under_the_guard(capsys):
    code, out = run(capsys, "qhf", "--field", "1021")
    assert code == 0
    assert "Q(GF(1021)): 3 square classes (with zero)" in out


def test_isom_decided_query_exits_zero(capsys):
    code, out = run(capsys, "isom", "--builtin", "euclidean3", "--form", "1,-1", "--form", "-1,1")
    assert code == 0
    assert "isometric" in out
    code, out = run(capsys, "isom", "--builtin", "euclidean3", "--form", "1,1", "--form", "-1,-1")
    assert code == 0
    assert "not isometric" in out


def test_isom_on_forms_of_2404_entries_exits_zero(capsys):
    # phi + (-phi) of dim 4,808 once ended in a RecursionError traceback and
    # exit 1, one recursive strip per hyperbolic plane
    ones = ",".join(["1"] * 2404)
    code, out = run(capsys, "isom", "--field", "3", "--form", ones, "--form", ones)
    assert code == 0
    assert out.splitlines()[-1] == "isometric"


def test_isom_on_a_long_pair_free_sum_agrees_with_the_oracle(capsys):
    # <1^4096> + (-<2^4096>) is <1^8192> over GF(3): no pair <a, -a> to
    # cancel, so it is stripped by the class table, where a plane per fold
    # took 4,095 folds.  The classical criterion agrees: equal dimensions
    # and discriminants
    phi, psi = (1,) * 4096, (2,) * 4096
    code, out = run(capsys, "isom", "--field", "3", "--form", ",".join(map(str, phi)),
                    "--form", ",".join(map(str, psi)))
    assert code == 0
    assert out.splitlines()[-1] == "isometric"
    assert classical_isometric(3, phi, psi)


def test_isom_refuses_a_field_that_is_not_prequadratic(tmp_path, capsys):
    # GF(5) with singleton addition fails a in a + b, so no value-set verdict
    # on it means anything
    doc = tmp_path / "gf5.hf"
    doc.write_text(emit_hyperfield(from_field(ff_make(5))))
    out_path = tmp_path / "report.json"
    code, out = run(capsys, "isom", "--input", str(doc), "--form", "1,4", "--form", "1,4",
                    "--out", str(out_path))
    assert code == 1
    assert "isom: FAIL (pre-quadratic axioms)" in out
    checks = {r["check"]: r["passed"] for r in json.loads(out_path.read_text())["reports"]}
    assert checks == {"hyperfield-axioms": True, "prequadratic-axioms": False}


def test_check_presentable_builtin(capsys):
    code, out = run(capsys, "check-presentable", "--builtin", "example-sq-7")
    assert code == 0
    assert "level passed: field" in out


def test_check_poset_builtin(capsys):
    code, out = run(capsys, "check-poset", "--builtin", "walking-supremum")
    assert code == 0


def test_chains_fail_weak_presentability_at_any_size(tmp_path, capsys):
    # weak presentability (ii) fails at the second element of a chain, so
    # compactness is left unevaluated at every size
    for n in (16, 17):
        names = [f"c{i}" for i in range(n)]
        doc = tmp_path / f"chain{n}.poset"
        doc.write_text(
            "poset\nelements: " + " ".join(names) + "\nbasepoint: c0\n"
            + "".join(f"cover: {a} {b}\n" for a, b in zip(names, names[1:]))
        )
        out_path = tmp_path / f"chain{n}.json"
        code, out = run(capsys, "check-poset", "--input", str(doc), "--out", str(out_path))
        assert code == 1, n
        assert "presentability: FAIL" in out, n
        (check,) = json.loads(out_path.read_text())["reports"]
        assert check["failures"] == [["weak_presentability.ii", [1, [0]]]], n
        assert check["weakly_presentable"] is False, n
        assert check["all_minimals_compact"] is None, n
        assert "minimals compact: None" in out, n
        assert check["tests_agree"] is None, n


def test_mathematical_failure_exits_one(tmp_path, capsys):
    doc = tmp_path / "bad.hf"
    doc.write_text(emit_hyperfield(mutate_add(euclidean_hyperfield(), 1, 2, {0})))
    code, out = run(capsys, "check-hyperfield", "--input", str(doc))
    assert code == 1
    assert "FAIL" in out
    assert "hypermonoid" in out


def test_usage_errors_exit_two(tmp_path, capsys):
    not_utf8 = tmp_path / "bytes.hf"
    not_utf8.write_bytes(b"\xff\xfe\x00 hyperfield")
    assert main(["no-such-command"]) == 2
    assert main(["check-poset", "--input", str(tmp_path)]) == 2  # a directory
    assert main(["check-hyperfield", "--input", str(not_utf8)]) == 2
    assert main(["check-hyperfield"]) == 2  # no input selected
    assert main(["check-hyperfield", "--builtin", "nope"]) == 2
    assert main(["witt", "--field", "6"]) == 2  # not a prime power
    assert main(["witt", "--field", "3", "--builtin", "euclidean3"]) == 2  # two sources
    assert main(["check-presentable", "--builtin", "example-sq-7", "--seed", "1"]) == 2
    assert main(["qhf", "--field", "9", "--modulus", "1,a"]) == 2
    assert main(["qhf", "--field", "9", "--modulus", "1,5,1"]) == 2  # 5 is not in GF(3)
    assert main(["qhf", "--field", "9", "--modulus", ""]) == 2  # not dropped for the default GF(9)
    assert main(["oracle", "isom", "--q", "3", "--form", "1,x", "--form", "1,1"]) == 2
    assert main(["oracle", "isom", "--q", "3", "--form", "1,5", "--form", "1,1"]) == 2
    assert main(["oracle", "isom", "--q", "9", "--form", "-1", "--form", "8"]) == 2  # -1 is id 2
    err = capsys.readouterr().err
    assert f"error: cannot read --input {tmp_path}: " in err
    assert f"error: --input {not_utf8} is not UTF-8 text" in err
    assert "error: --modulus needs comma-separated integers, got ''" in err
    assert "Traceback" not in err


def test_modulus_without_field_exits_two(tmp_path, capsys):
    # --modulus shapes only the GF(q) that --field builds; beside --builtin
    # or --input it was dropped without a word, and the command passed; an
    # empty --modulus is still one
    doc = tmp_path / "e.hf"
    doc.write_text(emit_hyperfield(euclidean_hyperfield()))
    for command in (("check-hyperfield",), ("prime",), ("quotient", "--subset", "1")):
        for source in (("--builtin", "euclidean3"), ("--input", str(doc))):
            for modulus in ("1,1,1", ""):
                assert main([*command, *source, "--modulus", modulus]) == 2, (command, source, modulus)
                out = capsys.readouterr()
                assert (out.out, out.err) == ("", "error: --modulus applies only to --field\n"), (command, source)


def test_unwritable_report_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "r.json"
    assert main(["qhf", "--field", "3", "--out", str(tmp_path)]) == 2  # a directory
    assert main(["qhf", "--field", "3", "--out", str(missing)]) == 2
    assert main(["quotient", "--field", "5", "--subset", "0", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot write the report") == 3


def test_quotient_command(capsys):
    code, out = run(capsys, "quotient", "--field", "5", "--subset", "1,4")
    assert code == 0
    assert "3 classes" in out


def test_prime_command_roundtrip_document(tmp_path, capsys):
    code, out = run(capsys, "prime", "--field", "3")
    assert code == 0
    assert "hyperfield" in out
    from quadpres.documents import parse_hyperfield

    block = out[out.index("hyperfield") :]
    lines = [l for l in block.splitlines() if l and not l.startswith("prime:")]
    F = parse_hyperfield("\n".join(lines))
    assert F.size == 3


def test_pipeline_command(capsys):
    code, out = run(capsys, "pipeline", "--field", "9")
    assert code == 0
    assert "isomorphic to the quadratic hyperfield: yes" in out


def test_pipeline_table_equality_matches_the_isomorphism_search():
    # cli pipeline decides by out == Q; the search it replaced is the reference
    for p, n in TABLE_FIELDS:
        k = ff_make(p, n)
        start = prime_hyperfield(from_field(k))
        Q = quadratic_hyperfield(k)
        for literal in (False, True):
            out = squares_pipeline(start, literal_squares=literal)
            iso = hyperfield_isomorphic(out, Q) if out.size == Q.size else None
            assert (out == Q) == (iso is not None), (p, n, literal)
            assert (out == Q) == (not literal or p == 2), (p, n, literal)


def test_pipeline_literal_squares_reports_collapse(capsys):
    code, out = run(capsys, "pipeline", "--field", "7", "--literal-squares")
    assert code == 0
    assert "collapses to 2 classes" in out


REPORT_COMMANDS = (
    ("witt", "--field", "3", "--max-dim", "4"),
    ("check-presentable", "--builtin", "example-sq-7"),
    ("check-hyperfield", "--field", "5"),
    ("check-poset", "--builtin", "walking-supremum"),
    ("qhf", "--field", "9"),
    ("prime", "--field", "3"),
    ("quotient", "--field", "5", "--subset", "1,4"),
    ("pipeline", "--field", "9"),
    ("isom", "--builtin", "euclidean3", "--form", "1,-1", "--form", "-1,1"),
    ("oracle", "classes", "--q", "3", "--dim", "2"),
    ("oracle", "isom", "--q", "3", "--form", "1,1", "--form", "2,2"),
    ("oracle", "witt", "--q", "5", "--max-dim", "4"),
)


def test_machine_report_determinism_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in REPORT_COMMANDS:
        texts = []
        for _ in range(2):
            assert main([*argv, "--out", str(out)]) == 0, argv
            texts.append(out.read_text())
        capsys.readouterr()
        # keys are sorted, so the timestamp block comes last and every byte
        # before it must be identical across the two runs
        data = json.loads(texts[0])
        assert list(data)[-1] == "timestamp", argv
        before = [t[: t.index('\n  "timestamp"')] for t in texts]
        assert before[0] == before[1], argv
        if argv[0] == "witt":
            checks = {r["check"] for r in data["reports"]}
            assert {"hyperfield-axioms", "quadratic-presentability", "witt-ring", "oracle-match"} <= checks


def test_a_written_report_is_the_json_dump_of_its_data(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv in REPORT_COMMANDS:
        assert main([*argv, "--out", str(out)]) == 0, argv
        text = out.read_text()
        dumped = io.StringIO()
        json.dump(json.loads(text), dumped, indent=2, sort_keys=True)
        assert text == dumped.getvalue() + "\n", argv
    capsys.readouterr()


FIELD_COMMANDS = (
    ("qhf", "--field", "9"),
    ("pipeline", "--field", "9"),
    ("check-hyperfield", "--field", "9"),
    ("prime", "--field", "9"),
    ("quotient", "--field", "9", "--subset", "1"),
    ("isom", "--field", "9", "--form", "1,1", "--form", "x+1,x+1"),
    ("witt", "--field", "9", "--max-dim", "4"),
    ("witt", "--field", "1021", "--max-dim", "4"),
)


def test_each_field_command_builds_its_field_once(monkeypatch, capsys):
    # one reader of --field per command; witt hands its field to the oracle,
    # whose elements that field also names
    built = []
    real = FiniteField.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "__init__", spy)
    for argv in FIELD_COMMANDS:
        built.clear()
        assert main(list(argv)) == 0, argv
        assert built == [(*parse_field_arg(argv[2]), None)], argv
    assert capsys.readouterr().out.count("oracle match: yes") == 2


def test_failing_ladders_write_their_witnesses_to_the_report(tmp_path, capsys):
    # a failing ladder's entry holds the library's failures as json.dumps
    # writes them, beside its level or, for the poset ladder, its notes
    hyperfield_doc = emit_hyperfield(mutate_add(euclidean_hyperfield(), 1, 2, {0}))
    sq7 = emit_presentable(example_sq_structure())
    presentable_doc = sq7.replace("alpha3 beta beta beta beta beta beta\n", "alpha3 beta beta beta beta alpha3 beta\n")
    assert presentable_doc != sq7  # alpha3 + alpha3 is alpha3, not beta
    chain_doc = "poset\nelements: a b c\nbasepoint: a\ncover: a b\ncover: b c\n"
    gf5_doc = emit_hyperfield(from_field(ff_make(5)))
    cases = (
        ("check-hyperfield", hyperfield_doc, (), "hyperfield-axioms", check_hyperfield, "hyperfield: FAIL"),
        ("check-presentable", presentable_doc, (), "presentable-ladder", check_presentable, "presentable: FAIL"),
        ("check-poset", chain_doc, (), "presentable-poset", check_poset, "presentability: FAIL"),
        ("isom", gf5_doc, ("--form", "1,1", "--form", "2,2"), "prequadratic-axioms",
         quadratic.check_prequadratic, "isom: FAIL (pre-quadratic axioms)"),
    )
    out = tmp_path / "report.json"
    for command, doc, rest, name, ladder, result in cases:
        path = tmp_path / f"{command}.txt"
        path.write_text(doc)
        assert main([command, "--input", str(path), *rest, "--out", str(out)]) == 1, command
        data = json.loads(out.read_text())
        assert data["result"] == result, command
        (entry,) = [r for r in data["reports"] if r["check"] == name]
        report = ladder(parse_document(doc))
        assert report.failures and entry["passed"] is False, command
        assert entry["failures"] == json.loads(json.dumps(report.failures)), command
        if ladder is check_poset:
            assert {key: entry[key] for key in report.notes} == report.notes
            assert report.notes["weakly_presentable"] is False
        else:
            assert entry["level"] == report.level_passed, command
    capsys.readouterr()


def test_the_ladder_runs_on_reported_tables_and_on_outside_input(monkeypatch, tmp_path, capsys):
    # a table built here from GF(q) meets no ladder on the way in; a reported
    # hyperfield meets it once, and prime's --input meets it before and after
    calls = []
    real = hyperfields.check_hyperfield

    def counted(F):
        calls.append(F)
        return real(F)

    monkeypatch.setattr(hyperfields, "check_hyperfield", counted)
    monkeypatch.setattr(cli, "check_hyperfield", counted)

    def ladders(*argv):
        calls.clear()
        assert main(list(argv)) == 0, argv
        return len(calls)

    doc = tmp_path / "e.hf"
    doc.write_text(emit_hyperfield(euclidean_hyperfield()))
    for q in ("2", "3", "4", "9", "13"):
        calls.clear()
        quadratic_hyperfield(gf(q))
        assert not calls, q
        assert ladders("pipeline", "--field", q) == 0, q
        assert ladders("qhf", "--field", q) == 1, q
        assert ladders("isom", "--field", q, "--form", "1,1", "--form", "1,1") == 1, q
        assert ladders("witt", "--field", q, "--max-dim", "3") == 1, q
        assert ladders("prime", "--field", q) == 1, q
    assert ladders("prime", "--input", str(doc)) == 2
    capsys.readouterr()


def test_prime_refuses_an_input_that_is_not_a_hyperfield(tmp_path, capsys):
    # E with 1 + (-1) = {0}: (1 + 1) + (-1) = {0}, but 1 + (1 + (-1)) = {1}
    doc = tmp_path / "bad.hf"
    doc.write_text(emit_hyperfield(mutate_add(euclidean_hyperfield(), 1, 2, {0})))
    out = tmp_path / "report.json"
    assert main(["prime", "--input", str(doc), "--out", str(out)]) == 1
    result = json.loads(out.read_text())["result"]
    assert result == (
        "validation failure: prime addition needs a hyperfield; first failure "
        "('hypermonoid.iii', (1, 1, 2, [1], [0]))"
    )
    assert capsys.readouterr().out == result + "\n"


def test_oracle_subcommands(tmp_path, capsys):
    code, out = run(capsys, "oracle", "classes", "--q", "3", "--dim", "1")
    assert code == 0 and "2 congruence classes" in out
    code, out = run(capsys, "oracle", "classes", "--q", "3", "--dim", "3", "--out", str(tmp_path / "r.json"))
    assert code == 0 and "classes: 2" in out
    code, out = run(capsys, "oracle", "isom", "--q", "3", "--form", "1,1", "--form", "2,2")
    assert code == 0 and "isometric" in out
    code, out = run(capsys, "oracle", "witt", "--q", "5", "--max-dim", "4")
    assert code == 0 and "4 classes" in out


# One process, one parser: no call may see what an earlier call parsed.
REUSE_SEQUENCE = (
    ("isom", "--field", "5", "--form", "1,2", "--form", "1,2"),
    ("isom", "--field", "5", "--form", "1,2", "--form", "1,2"),
    ("pipeline", "--field", "3", "--literal-squares"),
    ("pipeline", "--field", "3"),
    ("witt", "--field", "3", "--max-dim", "2"),
    ("witt", "--field", "3"),
    ("qhf",),
    ("qhf", "--field", "3"),
    ("--help",),
)


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    out = tmp_path / "report.json"

    def run_in(order):
        seen = {}
        for i in order:
            code = main([*REUSE_SEQUENCE[i], "--out", str(out)])
            std = capsys.readouterr()
            report = None
            if out.exists():
                report = json.loads(out.read_text())
                del report["timestamp"]
                out.unlink()
            seen[i] = (code, std.out, std.err, report)
        return [seen[i] for i in range(len(REUSE_SEQUENCE))]

    forward = run_in(range(len(REUSE_SEQUENCE)))
    backward = run_in(reversed(range(len(REUSE_SEQUENCE))))
    assert forward == backward
    codes = [r[0] for r in forward]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 0]
    assert forward[0] == forward[1]  # --form does not pile up
    assert forward[2][3]["result"] == "pipeline: collapse reported"
    assert forward[3][3]["result"] == "pipeline: pass"
    assert "to dim 2: pass" in forward[4][1] and "to dim 4: pass" in forward[5][1]
    assert "--field" in forward[6][2] and forward[6][3] is None
    assert forward[8][1].startswith("usage: quadpres")
    assert build_parser() is build_parser()


def test_parser_is_not_built_at_import():
    probe = "import quadpres.cli as c; print(c.build_parser.cache_info().currsize)"
    done = run_python("-c", probe, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_run_python_refuses_an_unbounded_child():
    with pytest.raises(ValueError, match="needs a timeout"):
        run_python("-c", "pass", timeout=None)


OVERSIZED = (  # (descriptor, command)
    ("1000003", ("qhf", "--field", "1000003")),
    ("1000000007", ("qhf", "--field", "1000000007")),
    ("1000000007", ("oracle", "isom", "--q", "1000000007", "--form", "1", "--form", "1")),
    ("3^1000000", ("qhf", "--field", "3^1000000")),
    ("3^10000000", ("qhf", "--field", "3^10000000")),
    ("100000000000000000039^1", ("pipeline", "--field", "100000000000000000039^1")),
)


def test_oversized_field_descriptors_are_refused_at_once():
    # in a subprocess with a timeout: a guard that factors q or builds p^n first hangs or raises
    for descriptor, argv in OVERSIZED:
        done = run_python("-m", "quadpres.cli", *argv, timeout=10)
        assert done.returncode == 2, argv
        assert done.stderr == f"error: field size {descriptor} exceeds cap 1024\n", argv

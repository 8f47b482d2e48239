"""Command-line front end: document ingestion, checks, pipelines, reports.

Exit codes: 0 = all checks passed (or a query was decided), 1 = a verified
mathematical failure (witnesses in the report), 2 = usage or document error.

Human-readable output goes to stdout; `--out FILE` writes the machine report
(JSON, sorted keys).  The report is byte-identical across runs with the same
inputs except for its "timestamp" field, which carries wall-clock time and
elapsed seconds.  Each ladder's AxiomReport becomes one entry of "reports":
its failures and notes are stored as they are and written by json.dumps.

`_field` is the one reader of --field and --modulus, so every command builds
its GF(q) once; `witt --field` hands that field on to the oracle.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from datetime import datetime, timezone

from . import documents, oracle, posets, presentable, quadratic
from .errors import InputError, SizeGuardError, ValidationError
from .finitefield import ff_make, parse_field_arg
from .hyperfields import (
    Hyperfield,
    check_hyperfield,
    euclidean_hyperfield,
    from_field,
    prime_hyperfield,
    quadratic_hyperfield,
)

BUILTINS = {
    "euclidean3": euclidean_hyperfield,
    "walking-supremum": posets.walking_supremum,
    "example-sq-7": presentable.example_sq_structure,
}

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class Report:
    def __init__(self, argv):
        self.data = {
            "command": list(argv),
            "structures": [],
            "reports": [],
            "documents": {},
            "result": "",
        }
        self._t0 = time.perf_counter()
        self.lines = []

    def say(self, line):
        self.lines.append(line)

    def structure(self, kind, summary):
        self.data["structures"].append({"kind": kind, **summary})

    def check(self, name, passed, failures=(), **fields):
        self.data["reports"].append(
            {"check": name, "passed": passed, "failures": failures, **fields}
        )

    def document(self, name, text):
        self.data["documents"][name] = text

    def finish(self, result, out_path=None):
        self.data["result"] = result
        self.data["timestamp"] = {
            "at": datetime.now(timezone.utc).isoformat(),
            "elapsed_s": round(time.perf_counter() - self._t0, 6),
        }
        self.say(result)
        text = "\n".join(self.lines)
        print(text)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(json.dumps(self.data, indent=2, sort_keys=True) + "\n")  # one write, not one per chunk


def _int_list(option, text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise InputError(f"{option} needs comma-separated integers, got {text!r}") from None


def _field(args):
    """The GF(q) that --field names, built with --modulus when one is given."""
    p, n = parse_field_arg(args.field)
    modulus = getattr(args, "modulus", None)
    if modulus is not None:  # an empty --modulus is refused, not dropped
        modulus = _int_list("--modulus", modulus)
    return ff_make(p, n, modulus)


def _load_structure(args, want=None, build=from_field):
    """Resolve --input / --builtin / --field to a structure, returned with the
    field that --field built (None for --input and --builtin)."""
    sources = [s for s in ("input", "builtin", "field") if getattr(args, s, None)]
    if len(sources) != 1:
        raise InputError("exactly one of --input, --builtin, --field is required")
    if getattr(args, "modulus", None) is not None and not args.field:
        raise InputError("--modulus applies only to --field")
    k = None
    if args.input:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise InputError(f"cannot read --input {args.input}: {err.strerror}") from None
        except UnicodeDecodeError as err:
            raise InputError(f"--input {args.input} is not UTF-8 text: {err.reason} at byte {err.start}") from None
        obj = documents.parse_document(text)
    elif args.builtin:
        if args.builtin not in BUILTINS:
            raise InputError(f"unknown builtin {args.builtin!r}; have {sorted(BUILTINS)}")
        obj = BUILTINS[args.builtin]()
    else:
        k = _field(args)
        obj = build(k)
    if want is not None and not isinstance(obj, want):
        raise InputError(f"expected a {want.__name__} input, got {type(obj).__name__}")
    return obj, k


def _parse_form(F, text):
    names = text.split(",")
    return quadratic.Form(tuple(F.id_of(s.strip()) for s in names))


def _hyperfield_summary(rep, F):
    rep.structure(
        "hyperfield", {"size": F.size, "names": list(F.names), "zero": F.names[F.zero], "one": F.names[F.one]}
    )


def _axioms(rep, F):
    """The hyperfield ladder on F, recorded as the report's hyperfield-axioms check."""
    report = check_hyperfield(F)
    rep.check("hyperfield-axioms", report.passed, report.failures, level=report.level_passed)
    return report


def _emit_checked(rep, F, command, document, *heading):
    """The tail of qhf, prime and quotient: F's summary and ladder, its table
    stored as `document` and printed after the heading lines, the verdict."""
    _hyperfield_summary(rep, F)
    report = _axioms(rep, F)
    doc = documents.emit_hyperfield(F)
    rep.document(document, doc)
    for line in heading:
        rep.say(line)
    rep.say(doc.rstrip("\n"))
    return (EXIT_OK, f"{command}: pass") if report.passed else (EXIT_MATH, f"{command}: FAIL")


def _oracle_match(W, F, WO, k):
    """Whether W = W(Q(k)) equals the oracle's ring WO, table for table.

    Both builders number classes by their least sorted form, dimension first,
    and Q(k) names each square class by its least member, so the explicit map
    from W to WO is the identity: equal class names, tables and one class.
    """
    names = [tuple(F.names[e] for e in c.normalized) for c in W.classes]
    oracle_names = [tuple(k.element_name(e) for e in c.normalized) for c in WO.classes]
    return (names, W.add_table, W.mul_table, W.one_class) == (oracle_names, WO.add_table, WO.mul_table, WO.one_class)


# -- subcommands ---------------------------------------------------------------


def cmd_check_poset(args, rep):
    P, _ = _load_structure(args, want=posets.FinitePointedPoset)
    rep.structure("poset", {"size": P.n, "names": list(P.names), "basepoint": P.names[P.basepoint]})
    report = posets.check_presentable(P)
    notes = report.notes
    rep.check("presentable-poset", report.passed, report.failures, **notes)
    rep.say(f"poset: {P.n} elements, basepoint {P.names[P.basepoint]}")
    rep.say(
        "weakly presentable: %(weakly_presentable)s | basepoint minimal: %(basepoint_minimal)s"
        " | minimals compact: %(all_minimals_compact)s" % notes
    )
    if notes["tests_agree"] is not None:
        rep.say(f"compactness vs unique-representation agreement: {notes['tests_agree']}")
    for axiom, wit in report.failures:
        rep.say(f"failure {axiom}: witness {wit}")
    return EXIT_OK if report.passed else EXIT_MATH, "presentability: pass" if report.passed else "presentability: FAIL"


def cmd_check_hyperfield(args, rep):
    F, _ = _load_structure(args, want=Hyperfield)
    _hyperfield_summary(rep, F)
    report = _axioms(rep, F)
    rep.say(f"hyperfield candidate: {F.size} elements")
    rep.say(f"level passed: {report.level_passed}")
    for axiom, wit in report.failures:
        rep.say(f"failure {axiom}: witness {wit}")
    return (EXIT_OK, "hyperfield: pass") if report.passed else (EXIT_MATH, "hyperfield: FAIL")


def cmd_check_presentable(args, rep):
    R, _ = _load_structure(args, want=presentable.PresentableRing)
    rep.structure(
        "presentable",
        {"size": R.n, "claimed": "field" if R.is_field else "ring", "supercompacts": len(R.supercompacts())},
    )
    report = presentable.check_presentable(R)
    rep.check("presentable-ladder", report.passed, report.failures, level=report.level_passed)
    rep.say(f"presentable structure: {R.n} elements, claimed {'field' if R.is_field else 'ring'}")
    rep.say(f"level passed: {report.level_passed}")
    for axiom, wit in report.failures[:10]:
        rep.say(f"failure {axiom}: witness {wit}")
    return (EXIT_OK, "presentable: pass") if report.passed else (EXIT_MATH, "presentable: FAIL")


def cmd_qhf(args, rep):
    k = _field(args)
    Q = quadratic_hyperfield(k)
    return _emit_checked(rep, Q, "qhf", "quadratic-hyperfield", f"Q(GF({k.q})): {Q.size} square classes (with zero)")


def cmd_prime(args, rep):
    F, _ = _load_structure(args, want=Hyperfield)
    return _emit_checked(rep, prime_hyperfield(F), "prime", "prime-hyperfield")


def cmd_quotient(args, rep):
    F, _ = _load_structure(args, want=Hyperfield)
    T = {F.id_of(s.strip()) for s in args.subset.split(",")}
    Q = presentable.quotient_mod_multiplicative_set(F, T)
    return _emit_checked(rep, Q, "quotient", "quotient-hyperfield", f"quotient by T of size {len(T)}: {Q.size} classes")


def cmd_pipeline(args, rep):
    k = _field(args)
    start = prime_hyperfield(from_field(k))
    out = presentable.squares_pipeline(start, literal_squares=args.literal_squares)
    Q = quadratic_hyperfield(k)
    _hyperfield_summary(rep, out)
    rep.document("pipeline-output", documents.emit_hyperfield(out))
    if args.literal_squares:
        rep.say(
            f"literal square-set reading: T is every nonzero element; quotient collapses to {out.size} classes"
        )
    # prime addition commutes with the square-class quotient; both number classes by least member
    same = out == Q
    rep.check("pipeline-vs-quadratic-hyperfield", same)
    rep.say(f"pipeline output: {out.size} classes; Q(GF({k.q})): {Q.size} classes")
    if same:
        rep.say("isomorphic to the quadratic hyperfield: yes")
        return EXIT_OK, "pipeline: pass"
    rep.say("isomorphic to the quadratic hyperfield: no")
    return (EXIT_OK if args.literal_squares else EXIT_MATH), "pipeline: collapse reported" if args.literal_squares else "pipeline: FAIL"


def cmd_isom(args, rep):
    F, _ = _load_structure(args, want=Hyperfield, build=quadratic_hyperfield)
    if len(args.form) != 2:
        raise InputError("isom needs exactly two --form options")
    phi = _parse_form(F, args.form[0])
    psi = _parse_form(F, args.form[1])
    # the value-set engine decides isometry only on quadratically presentable
    # fields; refuse tables that are not even pre-quadratic hyperfields
    hrep = _axioms(rep, F)
    if not hrep.passed:
        rep.say(f"hyperfield axioms: FAIL, first failure {hrep.first_failure()}")
        return EXIT_MATH, "isom: FAIL (hyperfield axioms)"
    prep = quadratic.check_prequadratic(F)
    rep.check("prequadratic-axioms", prep.passed, prep.failures, level=prep.level_passed)
    if not prep.passed:
        rep.say(f"pre-quadratic axioms: FAIL, first failure {prep.first_failure()}")
        return EXIT_MATH, "isom: FAIL (pre-quadratic axioms)"
    verdict = quadratic.IsometryContext(F).isometric(phi, psi)
    rep.check("isometry", True, verdict=verdict)
    rep.say(f"form 1: {args.form[0]}  form 2: {args.form[1]}")
    return EXIT_OK, "isometric" if verdict else "not isometric"


def cmd_witt(args, rep):
    if args.max_dim < 2:
        raise InputError("--max-dim must be at least 2 (the hyperbolic plane has dim 2)")
    F, k = _load_structure(args, want=Hyperfield, build=quadratic_hyperfield)
    label = f"Q(GF({k.q}))" if k else args.builtin or args.input
    _hyperfield_summary(rep, F)
    hrep = _axioms(rep, F)
    rep.say(f"{label}: hyperfield axioms {'pass' if hrep.passed else 'FAIL'}")
    if not hrep.passed:
        return EXIT_MATH, "witt: FAIL (hyperfield axioms)"
    qrep = quadratic.check_quadratic(F, min(args.max_dim, 4))
    rep.check("quadratic-presentability", qrep.passed, qrep.failures, level=qrep.level_passed)
    rep.say(f"quadratic presentability to dim {min(args.max_dim, 4)}: {'pass' if qrep.passed else 'FAIL'}")
    if not qrep.passed:
        return EXIT_MATH, "witt: FAIL (quadratic axioms)"
    W = quadratic.witt_ring(F, args.max_dim)
    rep.check("witt-ring", True, status=W.status, classes=len(W.classes), growth=W.growth)
    doc = documents.emit_witt_ring(W, F.names)
    rep.document("witt-ring", doc)
    rep.say(doc.rstrip("\n"))
    rep.say(W.summary())
    if k and W.status == "finite":  # k also names the oracle's elements
        WO = oracle.classical_witt_ring(k, min(args.max_dim, 4))
        match = _oracle_match(W, F, WO, k)
        rep.check("oracle-match", match, oracle_classes=len(WO.classes))
        rep.say(f"classical oracle: {len(WO.classes)} classes (diagonal forms, char-2 via <1,1> stabilization)")
        rep.say(f"oracle match: {'yes' if match else 'no'}")
        if not match:
            return EXIT_MATH, "witt: FAIL (oracle mismatch)"
    return EXIT_OK, "witt: pass"


def cmd_oracle(args, rep):
    if args.oracle_op == "classes":
        cc = oracle.congruence_classes(args.q, args.dim)
        rep.check("congruence-classes", True, count=cc.count)
        rep.say(f"GF({args.q}) dim {args.dim}: {cc.count} congruence classes")
        return EXIT_OK, f"classes: {cc.count}"
    if args.oracle_op == "isom":
        if len(args.form) != 2:
            raise InputError("oracle isom needs exactly two --form options")
        phi, psi = (_int_list("--form", f) for f in args.form)
        verdict = oracle.classical_isometric(args.q, phi, psi)
        rep.check("classical-isometry", True, verdict=verdict)
        return EXIT_OK, "isometric" if verdict else "not isometric"
    if args.oracle_op == "witt":
        W = oracle.classical_witt_ring(args.q, args.max_dim)
        rep.check("classical-witt-ring", True, classes=len(W.classes))
        rep.say(W.summary())
        return EXIT_OK, f"oracle witt: {len(W.classes)} classes"
    raise InputError(f"unknown oracle operation {args.oracle_op!r}")


@functools.cache
def build_parser():
    """The one parser of this process, built on the first call and shared by
    every later caller, who must not change it.  main asks for it on every
    command; building it at import would cost every library import instead."""
    parser = argparse.ArgumentParser(
        prog="quadpres",
        description="Hyperfields, presentable structures, and Witt rings of "
        "quadratically presentable fields.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, field=True, modulus=False):
        p.add_argument("--input", help="structure document file")
        p.add_argument("--builtin", help=f"one of {sorted(BUILTINS)}")
        if field:
            p.add_argument("--field", help="finite field as q or p^n")
        if modulus:
            p.add_argument("--modulus", help="comma-separated coefficients, constant first")
        p.add_argument("--out", help="write the machine report (JSON) here")

    p = sub.add_parser("check-poset", help="presentability ladder of a pointed poset")
    common(p, field=False)
    p = sub.add_parser("check-hyperfield", help="hyperfield axiom ladder")
    common(p, modulus=True)
    p = sub.add_parser("check-presentable", help="presentable ring/field ladder")
    common(p, field=False)
    p = sub.add_parser("qhf", help="quadratic hyperfield Q(k) of a finite field")
    p.add_argument("--field", required=True)
    p.add_argument("--modulus")
    p.add_argument("--out")
    p = sub.add_parser("prime", help="prime hyperfield (three-case addition)")
    common(p, modulus=True)
    p = sub.add_parser("quotient", help="quotient by a multiplicative subset")
    common(p, modulus=True)
    p.add_argument("--subset", required=True, help="comma-separated element names")
    p = sub.add_parser("pipeline", help="squares pipeline vs quadratic hyperfield")
    p.add_argument("--field", required=True)
    p.add_argument("--literal-squares", action="store_true", dest="literal_squares")
    p.add_argument("--out")
    p = sub.add_parser("isom", help="decide isometry of two forms")
    common(p)
    p.add_argument("--form", action="append", required=True, help="comma-separated element names")
    p = sub.add_parser("witt", help="Witt ring of a quadratically presentable field")
    common(p)
    p.add_argument("--max-dim", type=int, default=4, dest="max_dim")

    p = sub.add_parser("oracle", help="classical field-level computations")
    osub = p.add_subparsers(dest="oracle_op", required=True)
    oc = osub.add_parser("classes", help="Gram-matrix congruence classes")
    oc.add_argument("--q", type=int, required=True)
    oc.add_argument("--dim", type=int, required=True)
    oc.add_argument("--out")
    oi = osub.add_parser("isom", help="classical diagonal-form isometry (odd q)")
    oi.add_argument("--q", type=int, required=True)
    oi.add_argument("--form", action="append", required=True)
    oi.add_argument("--out")
    ow = osub.add_parser("witt", help="classical Witt ring")
    ow.add_argument("--q", type=int, required=True)
    ow.add_argument("--max-dim", type=int, default=4, dest="max_dim")
    ow.add_argument("--out")
    return parser


COMMANDS = {
    "check-poset": cmd_check_poset,
    "check-hyperfield": cmd_check_hyperfield,
    "check-presentable": cmd_check_presentable,
    "qhf": cmd_qhf,
    "prime": cmd_prime,
    "quotient": cmd_quotient,
    "pipeline": cmd_pipeline,
    "isom": cmd_isom,
    "witt": cmd_witt,
    "oracle": cmd_oracle,
}


def _merge_value_flags(argv):
    """Join '--form -1,-1' into '--form=-1,-1' so leading dashes parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--form", "--subset", "--modulus") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = _merge_value_flags(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    rep = Report(argv)
    try:
        code, result = COMMANDS[args.cmd](args, rep)
    except (InputError, SizeGuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as err:
        code, result = EXIT_MATH, f"validation failure: {err}"
    try:
        rep.finish(result, getattr(args, "out", None))
    except OSError as err:
        print(f"error: cannot write the report: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

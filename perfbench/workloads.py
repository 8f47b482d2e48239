"""The four benchmark workloads and their independent reference verdicts.

Each workload turns a seeded ``random.Random`` into one cycle of ops (plain
data, so the cycle has a stable digest); a run repeats the cycle whole.  Every
op has four steps:

* ``run(state, op)`` -- the timed library or ``cli.main`` call, nothing else;
* ``observe(state, op, raw)`` -- untimed: the raw result as a dict of verdict
  fields, in terms a reference can state without knowing the program's ids;
* ``expect(state, op)`` -- untimed: the reference value of some of those
  fields, computed from field arithmetic, signatures or the classical oracle,
  never by the code path under test;
* a field that differs from its reference fails the op.

Why each cycle has a fixed composition: an op's cost depends mostly on its
shape (form dimension, field size, command), so every cycle holds the same
shapes and the seed draws the entries, subsets, parameters that leave the cost
nearly unchanged, and the order.  That keeps throughput comparable across
seeds while the inputs still vary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from math import isqrt

PLUS, MINUS = 1, 2  # ids of 1 and -1 in euclidean_hyperfield()


# -- field helpers shared by the references ------------------------------------


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            n, m = 0, q
            while m % p == 0:
                m //= p
                n += 1
            return (p, n) if m == 1 else None
    return None


def smallest_nonsquare_mod(p):
    return next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)


def primitive_root_mod(p):
    factors = [d for d in range(2, p) if (p - 1) % d == 0 and is_prime(d)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))


def signature(entries):
    return sum(1 if e == PLUS else -1 for e in entries)


class FieldRef:
    """Square classes of GF(q) and the Witt invariants of diagonal forms.

    A form over a finite field is classified up to Witt equivalence by its
    dimension parity and the square class of its signed discriminant
    (-1)^(n(n-1)/2) * a1...an (Lam, Introduction to Quadratic Forms over
    Fields, Ch. II).
    """

    def __init__(self, qp, q, k=None):
        self.k = k if k is not None else qp.finitefield.ff_make(*prime_power(q))
        self.squares = {self.k.mul(a, a) for a in self.k.nonzero()}
        self.by_name = {self.k.element_name(a): a for a in range(q)}

    def elements(self, F, entries):
        """Field elements naming the square classes that ``entries`` (ids of
        the quadratic hyperfield F) stand for."""
        return tuple(self.by_name[F.names[e]] for e in entries)

    def signed_disc_square(self, elems):
        k, n = self.k, len(elems)
        d = k.neg(1) if (n * (n - 1) // 2) % 2 else 1
        for e in elems:
            d = k.mul(d, e)
        return d in self.squares

    def label(self, elems):
        return (len(elems) % 2, self.signed_disc_square(elems))

    def isotropic(self, elems):
        n = len(elems)
        return n >= 3 or (n == 2 and self.signed_disc_square(elems))

    def class_reps(self):
        """One diagonal form per Witt class, keyed by its label."""
        nonsquare = [a for a in self.k.nonzero() if a not in self.squares][:1]
        reps = {}
        for form in [(), (1,)] + [(u,) for u in nonsquare] + [
            (a, b) for a in [1] + nonsquare for b in [1] + nonsquare
        ]:
            if form and self.isotropic(form):
                continue
            reps.setdefault(self.label(form), form)
        return reps

    def tensor(self, a, b):
        return tuple(self.k.mul(x, y) for x in a for y in b)


def field_ref(st, q):
    """The FieldRef of GF(q), cached in a workload's state."""
    if q not in st["refs"]:
        st["refs"][q] = FieldRef(st["qp"], q)
    return st["refs"][q]


def witt_tables_by_label(W, label_of_class):
    """A Witt ring's tables rewritten in class labels; None marks an escape."""
    labels = [label_of_class(c) for c in W.classes]

    def lab(i):
        return None if i is None else labels[i]

    add = {(labels[i], labels[j]): lab(W.add_table[i][j]) for i in range(W.size) for j in range(W.size)}
    mul = {(labels[i], labels[j]): lab(W.mul_table[i][j]) for i in range(W.size) for j in range(W.size)}
    return {
        "status": W.status,
        "size": W.size,
        "growth": list(W.growth),
        "labels": sorted(labels, key=repr),
        "zero": labels[W.zero_class],
        "one": labels[W.one_class],
        "add": add,
        "mul": mul,
    }


def canonical_hyperfield(H):
    return (H.size, H.zero, H.one, tuple(H.names), tuple(H.neg_table()),
            tuple(map(tuple, H.mul_table())), tuple(tuple(r) for r in H.add_full_table()))


# -- witt-cold ------------------------------------------------------------------


class WittCold:
    name = "witt-cold"
    why = ("A fresh IsometryContext per op over the Euclidean hyperfield, so the memo is cold "
           "and the exponential split_hyperbolic search sets the time.")
    FORM_DIMS = range(6, 17)  # seeded forms of each kind per dim, one per share in MINUS_SHARES
    # A sorted +-1 form is fixed by its number of -1 entries, and the search
    # time depends on it, so the seed draws that number within one of a
    # centre: the cycle's cost stays nearly the same from seed to seed.
    MINUS_SHARES = (0.25, 0.5, 0.75)
    ONES_DIMS = (8, 16, 20, 24)  # <1^n>, the anisotropic worst case, up to dim 24
    WITT_E_DIMS = (3, 4, 5)
    WITT_Q_FIELDS = (3, 4, 5, 7, 9)

    def make_ops(self, rng):
        ops = []
        for n in self.FORM_DIMS:
            for kind in ("anisotropic_part", "is_isotropic"):
                for share in self.MINUS_SHARES:
                    minus = round(n * share) + rng.choice((-1, 0, 1))
                    ops.append((kind, (PLUS,) * (n - minus) + (MINUS,) * minus))
        ops += [("is_isotropic", (PLUS,) * n) for n in self.ONES_DIMS]
        ops += [("witt_ring_E", d) for d in self.WITT_E_DIMS]
        ops += [("witt_ring_Q", q) for q in self.WITT_Q_FIELDS]
        rng.shuffle(ops)
        return ops

    def setup(self, qp, ops, workdir):
        E = qp.hyperfields.euclidean_hyperfield()
        if (E.names[PLUS], E.names[MINUS]) != ("1", "-1"):
            raise RuntimeError(f"unexpected Euclidean hyperfield names {E.names}")
        Q = {}
        for q in self.WITT_Q_FIELDS:
            k = qp.finitefield.ff_make(*prime_power(q))
            Q[q] = (k, qp.hyperfields.quadratic_hyperfield(k))
        return {"qp": qp, "E": E, "Q": Q, "refs": {}}

    def run(self, st, op):
        kind, arg = op
        quadratic = st["qp"].quadratic
        if kind == "anisotropic_part":
            return quadratic.IsometryContext(st["E"]).anisotropic_part(arg)
        if kind == "is_isotropic":
            return quadratic.IsometryContext(st["E"]).is_isotropic(arg)
        if kind == "witt_ring_E":
            return quadratic.witt_ring(st["E"], arg)
        return quadratic.witt_ring(st["Q"][arg][1], 4)

    def observe(self, st, op, raw):
        kind, arg = op
        if kind == "anisotropic_part":
            return {"anisotropic_part": tuple(sorted(raw.entries)) if raw else ()}
        if kind == "is_isotropic":
            return {"isotropic": raw}
        if kind == "witt_ring_E":
            out = witt_tables_by_label(raw, lambda c: signature(c.normalized))
            out["reps_anisotropic"] = all(len(set(c.normalized)) <= 1 for c in raw.classes)
            return out
        ref = field_ref(st, arg)
        F = st["Q"][arg][1]
        return witt_tables_by_label(raw, lambda c: ref.label(ref.elements(F, c.normalized)))

    def expect(self, st, op):
        kind, arg = op
        if kind == "anisotropic_part":
            s = signature(arg)
            return {"anisotropic_part": (PLUS,) * s if s > 0 else (MINUS,) * -s}
        if kind == "is_isotropic":
            return {"isotropic": PLUS in arg and MINUS in arg}
        if kind == "witt_ring_E":
            d = arg
            sigs = range(-d, d + 1)

            def within(x):
                return x if abs(x) <= d else None

            return {
                "status": "truncated",  # W(R) = Z is infinite
                "size": 2 * d + 1,
                "growth": [2] * d,
                "labels": sorted(sigs, key=repr),
                "zero": 0,
                "one": 1,
                "add": {(a, b): within(a + b) for a in sigs for b in sigs},
                "mul": {(a, b): within(a * b) for a in sigs for b in sigs},
                "reps_anisotropic": True,
            }
        ref = field_ref(st, arg)
        reps = ref.class_reps()
        W = st["qp"].oracle.classical_witt_ring(arg, 4)
        return {
            "status": W.status,
            "size": W.size,
            "growth": list(W.growth),
            "labels": sorted(reps, key=repr),
            "zero": ref.label(()),
            "one": ref.label((1,)),
            "add": {(a, b): ref.label(reps[a] + reps[b]) for a in reps for b in reps},
            "mul": {(a, b): ref.label(ref.tensor(reps[a], reps[b])) for a in reps for b in reps},
        }


# -- isom-warm ------------------------------------------------------------------


class IsomWarm:
    name = "isom-warm"
    why = ("Repeated isometric / witt_equivalent / is_isotropic queries on long-lived warm "
           "contexts (Euclidean and Q(GF(q))), so the quadratic layer reads its memo.")
    FIELDS = ("E", 3, 4, 5, 7, 9, 13)
    DIMS = range(2, 17)
    FORMS_PER_DIM = 2
    QUERIES = 4096

    def _nonzero(self, key):
        return (PLUS, MINUS) if key == "E" or key % 2 else (1,)

    def make_ops(self, rng):
        pool = {
            key: {
                d: [tuple(sorted(rng.choice(self._nonzero(key)) for _ in range(d)))
                    for _ in range(self.FORMS_PER_DIM)]
                for d in self.DIMS
            }
            for key in self.FIELDS
        }
        ops = []
        for _ in range(self.QUERIES):
            key = rng.choice(self.FIELDS)
            kind = rng.choice(("isometric", "witt_equivalent", "is_isotropic"))
            forms = pool[key][rng.choice(self.DIMS)]
            if kind == "isometric":
                ops.append((kind, key, rng.choice(forms), rng.choice(forms)))
            elif kind == "witt_equivalent":
                ops.append((kind, key, rng.choice(forms), rng.choice(pool[key][rng.choice(self.DIMS)])))
            else:
                ops.append((kind, key, rng.choice(forms)))
        return ops

    def setup(self, qp, ops, workdir):
        fields, ks = {}, {}
        for key in self.FIELDS:
            if key == "E":
                fields[key] = qp.hyperfields.euclidean_hyperfield()
            else:
                ks[key] = qp.finitefield.ff_make(*prime_power(key))
                fields[key] = qp.hyperfields.quadratic_hyperfield(ks[key])
            if fields[key].nonzero() != self._nonzero(key):
                raise RuntimeError(f"unexpected nonzero ids {fields[key].nonzero()} for {key}")
        st = {
            "qp": qp,
            "fields": fields,
            "ctx": {key: qp.quadratic.IsometryContext(F) for key, F in fields.items()},
            "refs": {key: FieldRef(qp, key, ks[key]) for key in ks},
        }
        for op in dict.fromkeys(ops):  # warm-up: every distinct query once
            self.run(st, op)
        return st

    def run(self, st, op):
        ctx = st["ctx"][op[1]]
        if op[0] == "isometric":
            return ctx.isometric(op[2], op[3])
        if op[0] == "witt_equivalent":
            return ctx.witt_equivalent(op[2], op[3])
        return ctx.is_isotropic(op[2])

    def observe(self, st, op, raw):
        return {op[0]: raw}

    def expect(self, st, op):
        kind, key, forms = op[0], op[1], op[2:]
        if key == "E":
            if kind == "is_isotropic":
                return {kind: PLUS in forms[0] and MINUS in forms[0]}
            same_sig = signature(forms[0]) == signature(forms[1])
            return {kind: same_sig}  # equal dims for isometric, so dim and signature
        ref, F = st["refs"][key], st["fields"][key]
        elems = [ref.elements(F, f) for f in forms]
        if kind == "is_isotropic":
            return {kind: ref.isotropic(elems[0])}
        if kind == "witt_equivalent":
            return {kind: ref.label(elems[0]) == ref.label(elems[1])}
        if key % 2 == 0:
            return {kind: True}  # one square class: forms of equal dimension agree
        return {kind: st["qp"].oracle.classical_isometric(key, elems[0], elems[1])}


# -- table-build ----------------------------------------------------------------


class TableBuild:
    name = "table-build"
    why = ("Builds GF(q) tables, Q(GF(q)) and the multiplicative-set quotient for q in 11-128: "
           "table construction and quotients with no isometry work.")
    FIELDS = tuple(
        q for q in range(11, 129)
        if is_prime(q) or q in (16, 25, 27, 49, 81, 121)  # prime powers with a built-in modulus
    )

    def make_ops(self, rng):
        fields = list(self.FIELDS)
        rng.shuffle(fields)
        ops = []
        for q in fields:
            ops += [("quadratic_hyperfield", q), ("quotient_mod_multiplicative_set", q)]
        return ops

    def setup(self, qp, ops, workdir):
        return {"qp": qp, "last": {}, "refs": {}}

    def run(self, st, op):
        qp = st["qp"]
        kind, q = op
        if kind == "quadratic_hyperfield":
            k = qp.finitefield.ff_make(*prime_power(q))
            Q = qp.hyperfields.quadratic_hyperfield(k)
            st["last"][q] = (k, Q)
            return Q
        k = st["last"][q][0]
        squares = {k.mul(a, a) for a in k.nonzero()}
        return qp.presentable.quotient_mod_multiplicative_set(qp.hyperfields.from_field(k), squares)

    def observe(self, st, op, raw):
        kind, q = op
        if kind == "quadratic_hyperfield":
            ref = field_ref(st, q)
            elems = [ref.by_name[n] for n in raw.names]
            cells = {
                (ref.by_name[raw.names[a]], ref.by_name[raw.names[b]]):
                    frozenset(elems[c] for c in raw.add(a, b))
                for a in range(raw.size) for b in range(raw.size)
            }
            return {"size": raw.size, "class_reps": tuple(sorted(elems)), "cells": cells,
                    "digest": canonical_hyperfield(raw)}
        Q = st["last"][q][1]
        return {"size": raw.size, "prime_equals_quadratic": st["qp"].hyperfields.prime_hyperfield(raw) == Q,
                "digest": canonical_hyperfield(raw)}

    def expect(self, st, op):
        kind, q = op
        size = 3 if q % 2 else 2
        if kind == "quotient_mod_multiplicative_set":
            return {"size": size, "prime_equals_quadratic": True}
        ref = field_ref(st, q)
        k, represents = ref.k, st["qp"].oracle.represents
        reps = [0, 1] + [a for a in k.nonzero() if a not in ref.squares][:1]

        def cell(a, b):
            if a == 0 or b == 0:
                return frozenset([a or b])
            # prime addition: c in a + b iff <a, b> represents c nontrivially
            return frozenset(c for c in reps if represents(k, a, b, c))

        return {"size": size, "class_reps": tuple(sorted(reps)),
                "cells": {(a, b): cell(a, b) for a in reps for b in reps}}


# -- cli-verify -----------------------------------------------------------------


class CliVerify:
    name = "cli-verify"
    why = ("CLI commands users run (witt, check-*, qhf, pipeline, quotient, isom, oracle) in-process; "
           "the only workload that reaches oracle, posets, documents and cli.")
    # Shapes are chosen so that one cycle takes about a second and a run
    # repeats every op many times: P*(GF(7)), check-hyperfield for p > 41 and
    # oracle classes at dim 3 take 0.6-1 s each and are left out.
    POWERSET_FIELDS = (3, 4, 5)
    HYPERFIELD_PRIMES = (23, 31, 41)
    QHF_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 31)
    PIPELINE_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13)
    QUOTIENT_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31)
    ISOM_PRIMES = (3, 5, 7, 11, 13)
    CLASSES = ((3, 2), (5, 2), (7, 2), (9, 2), (3, 1), (5, 1), (7, 1), (9, 1))
    WITT_FIELDS = (3, 4, 5, 7, 9)
    # witt --field q --max-dim 3 says "truncated" where the classical oracle
    # says "finite" for odd q (ROADMAP item 5).  Timed ops must not fail, so
    # these run once per measured run, untimed, and the run prints what they
    # return.
    DEFECT_FIELDS = (3, 5, 7, 9)
    KNOWN_DEFECT = {"status": ("truncated", "finite")}
    OUT = ("--out", "{out}")

    def _witt_field(self, q, d):
        return (("witt-field", q, d), ("witt", "--field", str(q), "--max-dim", str(d)) + self.OUT)

    def defect_probe(self):
        return [self._witt_field(q, 3) for q in self.DEFECT_FIELDS]

    def known_defect(self, op, mismatch):
        return op[0][0] == "witt-field" and op[0][2] == 3 and mismatch == self.KNOWN_DEFECT

    def make_ops(self, rng):
        ops = []
        ops.append((("witt-euclidean", 4), ("witt", "--builtin", "euclidean3", "--max-dim", "4")))
        for p in self.HYPERFIELD_PRIMES:
            ops.append((("check-hyperfield", p), ("check-hyperfield", "--field", str(p))))
        for q in self.POWERSET_FIELDS:
            ops.append((("check-presentable", q), ("check-presentable", "--input", f"{{docs}}/pstar{q}.txt")))
            ops.append((("check-poset", q), ("check-poset", "--input", f"{{docs}}/pstar{q}-poset.txt")))
        for q in self.QHF_FIELDS:
            ops.append((("qhf", q), ("qhf", "--field", str(q))))
        for q in self.PIPELINE_FIELDS:
            ops.append((("pipeline", q, False), ("pipeline", "--field", str(q))))
            ops.append((("pipeline", q, True), ("pipeline", "--field", str(q), "--literal-squares")))
        for p in self.QUOTIENT_PRIMES:
            d = rng.choice([d for d in range(1, 7) if (p - 1) % d == 0])
            g = primitive_root_mod(p)
            subset = sorted({pow(g, d * i, p) for i in range((p - 1) // d)})
            ops.append((("quotient", p, d),
                        ("quotient", "--field", str(p), "--subset", ",".join(map(str, subset)))))
        for p in self.ISOM_PRIMES:
            names = ("1", str(smallest_nonsquare_mod(p)))
            for n in (2, 5):
                phi, psi = ([rng.choice(names) for _ in range(n)] for _ in range(2))
                ops.append((("isom", p, ",".join(phi), ",".join(psi)),
                            ("isom", "--field", str(p), "--form", ",".join(phi), "--form", ",".join(psi))))
        for q, d in self.CLASSES:
            ops.append((("oracle-classes", q, d), ("oracle", "classes", "--q", str(q), "--dim", str(d))))
        for p in self.ISOM_PRIMES:
            for n in (1, 4):
                phi, psi = (",".join(str(rng.randrange(1, p)) for _ in range(n)) for _ in range(2))
                ops.append((("oracle-isom", p, phi, psi),
                            ("oracle", "isom", "--q", str(p), "--form", phi, "--form", psi)))
        for q, d in zip(self.WITT_FIELDS, (2, 3, 4, 2, 3)):
            ops.append((("oracle-witt", q, d), ("oracle", "witt", "--q", str(q), "--max-dim", str(d))))
        ops = [(spec, argv + self.OUT) for spec, argv in ops]
        ops += [self._witt_field(q, 4) for q in self.WITT_FIELDS]
        ops += [self._witt_field(q, 3) for q in self.WITT_FIELDS if q not in self.DEFECT_FIELDS]
        rng.shuffle(ops)
        return ops

    def setup(self, qp, ops, workdir):
        docs = os.path.join(workdir, "docs")
        os.makedirs(docs, exist_ok=True)
        for q in self.POWERSET_FIELDS:
            field = qp.hyperfields.from_field(qp.finitefield.ff_make(*prime_power(q)))
            R = qp.presentable.powerset_of_hyperfield(field)
            with open(os.path.join(docs, f"pstar{q}.txt"), "w") as fh:
                fh.write(qp.documents.emit_presentable(R))
            with open(os.path.join(docs, f"pstar{q}-poset.txt"), "w") as fh:
                fh.write(qp.documents.emit_poset(R.poset))
        fill = {"docs": docs, "out": os.path.join(workdir, "report.json")}
        argvs = {argv: [a.format(**fill) for a in argv] for _, argv in ops + self.defect_probe()}
        return {"qp": qp, "argvs": argvs, "out": fill["out"], "refs": {}}

    def run(self, st, op):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = st["qp"].cli.main(st["argvs"][op[1]])
        return code, stdout.getvalue()

    def observe(self, st, op, raw):
        code, stdout = raw
        verdict = {"code": code}
        if os.path.exists(st["out"]):
            with open(st["out"]) as fh:
                report = json.load(fh)
            os.remove(st["out"])
            lines = stdout.rstrip("\n").split("\n")
            verdict["result"] = report["result"]
            verdict["stdout_ends_with_result"] = lines[-1] == report["result"]
            if report["structures"]:
                verdict["size"] = report["structures"][-1].get("size")
            for rep in report["reports"]:
                if rep["check"] == "witt-ring":
                    verdict.update(status=rep["status"], classes=rep["classes"], growth=rep["growth"])
        return verdict

    def expect(self, st, op):
        spec = op[0]
        kind = spec[0]
        out = {"code": 0, "stdout_ends_with_result": True}
        if kind == "witt-field":
            _, q, d = spec
            W = st["qp"].oracle.classical_witt_ring(q, d)
            out.update(result="witt: pass", status=W.status, classes=W.size)
        elif kind == "witt-euclidean":
            d = spec[1]
            out.update(result="witt: pass", status="truncated", classes=2 * d + 1, growth=[2] * d)
        elif kind == "check-hyperfield":
            out.update(result="hyperfield: pass")
        elif kind == "check-presentable":
            out.update(result="presentable: pass")
        elif kind == "check-poset":
            out.update(result="presentability: pass")
        elif kind == "qhf":
            out.update(result="qhf: pass", size=3 if spec[1] % 2 else 2)
        elif kind == "pipeline":
            _, q, literal = spec
            collapse = literal and q % 2 == 1  # odd q has two nonzero square classes
            out.update(result="pipeline: collapse reported" if collapse else "pipeline: pass")
        elif kind == "quotient":
            _, p, d = spec
            out.update(result="quotient: pass", size=d + 1)
        elif kind == "isom":
            _, p, phi, psi = spec
            same = st["qp"].oracle.classical_isometric(
                p, [int(x) for x in phi.split(",")], [int(x) for x in psi.split(",")])
            out.update(result="isometric" if same else "not isometric")
        elif kind == "oracle-classes":
            out.update(result="classes: 2")  # two congruence classes per dimension, odd q
        elif kind == "oracle-isom":
            _, p, phi, psi = spec
            a, b = ([int(x) for x in f.split(",")] for f in (phi, psi))
            disc = 1
            for x in a + b:
                disc = disc * x % p
            same = len(a) == len(b) and pow(disc, (p - 1) // 2, p) == 1  # Euler's criterion
            out.update(result="isometric" if same else "not isometric")
        elif kind == "oracle-witt":
            out.update(result=f"oracle witt: {4 if spec[1] % 2 else 2} classes")
        return out


WORKLOADS = {w.name: w for w in (WittCold(), IsomWarm(), TableBuild(), CliVerify())}

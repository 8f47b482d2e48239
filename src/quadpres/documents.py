"""Line-based text documents for posets, hyperfields and presentable rings.

Emission is canonical: elements in id order, cover pairs sorted, addition
cells as semicolon-joined names sorted ascending by id.  parse(emit(x))
returns a structurally identical object, byte-for-byte stable across runs.

Element names may not contain whitespace, semicolons or '#', which starts a
comment (braces and commas are fine, so powerset names like {0,1} round-trip
unchanged).  A document ends with its last section: any further line is an
error.
"""

from __future__ import annotations

from .errors import InputError
from .hyperfields import Hyperfield
from .posets import FinitePointedPoset, explicit_poset
from .presentable import PresentableRing


def _check_names(names):
    seen = set()
    for s in names:
        if not s or any(ch.isspace() for ch in s) or ";" in s or "#" in s:
            raise InputError(f"element name {s!r} not serializable (whitespace/semicolon/#)")
        if s in seen:
            raise InputError(f"duplicate element name {s!r}")
        seen.add(s)


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


class _Reader:
    def __init__(self, text):
        self.items = list(_lines(text))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self, what):
        if self.pos >= len(self.items):
            raise InputError(f"unexpected end of document; expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect_key(self, key):
        lineno, line = self.next(f"'{key}:'")
        if not line.startswith(key + ":"):
            raise InputError(f"line {lineno}: expected '{key}:', got {line!r}")
        return lineno, line[len(key) + 1 :].strip()

    def end(self):
        if self.pos < len(self.items):
            lineno, line = self.items[self.pos]
            raise InputError(f"line {lineno}: unexpected line after the document's end: {line!r}")


def _start(text, kind):
    """A reader past the header and 'elements:' lines, and the element names."""
    r = _Reader(text)
    lineno, head = r.next(f"'{kind}' header")
    if head != kind:
        raise InputError(f"line {lineno}: expected '{kind}', got {head!r}")
    _, elems = r.expect_key("elements")
    names = elems.split()
    _check_names(names)
    return r, names


def _resolver(names):
    index = {s: i for i, s in enumerate(names)}

    def resolve(lineno, token):
        if token not in index:
            raise InputError(f"line {lineno}: unknown element {token!r}")
        return index[token]

    return resolve


def _covers(r):
    pairs = []
    while True:
        lineno, line = r.peek()
        if line is None or not line.startswith("cover:"):
            return pairs
        r.next("cover")
        parts = line[len("cover:") :].split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: cover needs exactly two names")
        pairs.append((parts[0], parts[1]))


def _neg_row(r, n, resolve):
    lineno, negs = r.expect_key("neg")
    neg_names = negs.split()
    if len(neg_names) != n:
        raise InputError(f"line {lineno}: neg needs {n} entries")
    return [resolve(lineno, s) for s in neg_names]


# -- posets ------------------------------------------------------------------


def emit_poset(P: FinitePointedPoset) -> str:
    _check_names(P.names)
    out = ["poset"]
    out.append("elements: " + " ".join(P.names))
    out.append("basepoint: " + P.names[P.basepoint])
    for x, y in sorted(P.cover_pairs()):
        out.append(f"cover: {P.names[x]} {P.names[y]}")
    return "\n".join(out) + "\n"


def parse_poset(text: str) -> FinitePointedPoset:
    r, names = _start(text, "poset")
    if not names:
        raise InputError("poset needs at least one element")
    _, bp = r.expect_key("basepoint")
    covers = _covers(r)
    r.end()
    return explicit_poset(names, covers, basepoint_name=bp)


# -- hyperfields ---------------------------------------------------------------


def _emit_cell(F, cell):
    return ";".join(F.names[x] for x in sorted(cell))


def emit_hyperfield(F: Hyperfield) -> str:
    _check_names(F.names)
    out = ["hyperfield"]
    out.append("elements: " + " ".join(F.names))
    out.append("zero: " + F.names[F.zero])
    out.append("one: " + F.names[F.one])
    out.append("neg: " + " ".join(F.names[F.neg(a)] for a in range(F.size)))
    out.append("mul:")
    for a in range(F.size):
        out.append(" ".join(F.names[F.mul(a, b)] for b in range(F.size)))
    out.append("add:")
    for a in range(F.size):
        out.append(" ".join(_emit_cell(F, F.add(a, b)) for b in range(F.size)))
    return "\n".join(out) + "\n"


def _parse_table_rows(r, n, resolve, what):
    lineno, rest = r.expect_key(what)
    if rest:
        raise InputError(f"line {lineno}: '{what}:' takes no inline value")
    rows = []
    for _ in range(n):
        lineno, line = r.next(f"{what} row")
        parts = line.split()
        if len(parts) != n:
            raise InputError(f"line {lineno}: {what} row needs {n} entries, got {len(parts)}")
        rows.append([resolve(lineno, p) for p in parts])
    return rows


def parse_hyperfield(text: str) -> Hyperfield:
    r, names = _start(text, "hyperfield")
    resolve = _resolver(names)
    n = len(names)
    zero = resolve(*r.expect_key("zero"))
    one = resolve(*r.expect_key("one"))
    neg = _neg_row(r, n, resolve)
    mul = _parse_table_rows(r, n, resolve, "mul")

    def resolve_cell(lineno, token):
        return frozenset(resolve(lineno, part) for part in token.split(";"))

    add = _parse_table_rows(r, n, resolve_cell, "add")
    r.end()
    return Hyperfield(zero=zero, one=one, neg=neg, mul=mul, add=add, names=names)


# -- presentable rings ---------------------------------------------------------


def emit_presentable(R: PresentableRing) -> str:
    P = R.poset
    _check_names(P.names)
    out = ["presentable"]
    out.append("elements: " + " ".join(P.names))
    out.append("basepoint: " + P.names[P.basepoint])
    out.append("one: " + P.names[R.one])
    out.append("is_field: " + ("true" if R.is_field else "false"))
    for x, y in sorted(P.cover_pairs()):
        out.append(f"cover: {P.names[x]} {P.names[y]}")
    out.append("neg: " + " ".join(P.names[R.neg[a]] for a in range(P.n)))
    out.append("add:")
    for a in range(P.n):
        out.append(" ".join(P.names[R.add[a][b]] for b in range(P.n)))
    out.append("mul:")
    for a in range(P.n):
        out.append(" ".join(P.names[R.mul[a][b]] for b in range(P.n)))
    return "\n".join(out) + "\n"


def parse_presentable(text: str) -> PresentableRing:
    r, names = _start(text, "presentable")
    resolve = _resolver(names)
    n = len(names)
    _, bp = r.expect_key("basepoint")
    one = resolve(*r.expect_key("one"))
    lineno, is_field = r.expect_key("is_field")
    if is_field not in ("true", "false"):
        raise InputError(f"line {lineno}: is_field must be true or false")
    poset = explicit_poset(names, _covers(r), basepoint_name=bp)
    neg = _neg_row(r, n, resolve)
    add = _parse_table_rows(r, n, resolve, "add")
    mul = _parse_table_rows(r, n, resolve, "mul")
    r.end()
    return PresentableRing(poset, add, neg, mul, one=one, is_field=is_field == "true")


def emit_witt_ring(W, names) -> str:
    """Witt ring table document: class representatives, then add/mul matrices.

    Output-only (Witt rings are computed, not ingested); unknown entries of
    truncated rings render as '-'.
    """
    def class_token(cls):
        if cls.representative is None:
            return "0"
        return "<" + ",".join(names[e] for e in cls.representative.entries) + ">"

    out = [f"wittring {W.status}"]
    out.append("classes: " + " ".join(class_token(c) for c in W.classes))
    out.append(f"zero: {W.zero_class}")
    out.append(f"one: {W.one_class}")
    out.append("growth: " + " ".join(str(g) for g in W.growth))
    out.append("add:")
    for row in W.add_table:
        out.append(" ".join("-" if x is None else str(x) for x in row))
    out.append("mul:")
    for row in W.mul_table:
        out.append(" ".join("-" if x is None else str(x) for x in row))
    return "\n".join(out) + "\n"


def parse_document(text: str):
    """Dispatch on the document header line."""
    for _, line in _lines(text):
        head = line
        break
    else:
        raise InputError("empty document")
    if head == "poset":
        return parse_poset(text)
    if head == "hyperfield":
        return parse_hyperfield(text)
    if head == "presentable":
        return parse_presentable(text)
    raise InputError(f"unknown document kind {head!r}")

"""Textual set-expression language: parser and canonical renderer.

Grammar (whitespace insignificant):

    expr    := term { "U" term }
    term    := "(" expr ")" | "{" rat { "," rat } "}" | "[" rat "," rat "]"
             | "seq(" rat "," rat "," rat ")"
             | "tower(" int "," rat "," rat [ "," rat ] ")"
             | "cantor(" rat "," rat "," int "," rat ")"
             | "shift(" expr "," rat ")" | "below(" expr "," rat ")" | "above(" expr "," rat ")"
    int     := optionally signed string of at most INT_DIGITS (4300) decimal digits
    rat     := int [ "/" unsigned positive int ]

``below``/``above`` keep the part of the set at or below/above the cut;
``shift`` translates.  ``tower`` takes an optional fourth scale argument
(default 1) so that cut results render losslessly.

Two paths read a text.  The fast one reads a term with one match of its
pattern, generated from the same grammar table, and builds the term from
the match's groups.  It accepts a text only when every term matches and
every block it builds is valid.  Any other text, and so every malformed
or invalid one, is read again from the start by the token parser, which
alone raises ParseError and ValidationError, with their order, messages and
positions.
"""

from __future__ import annotations

import re

from .blocks import INT_DIGITS, Cantor, Finite, GeomSeq, Interval, Tower
from .errors import ParseError, SetMeansError, ValidationError
from .rational import Q
from .sets import CutAbove, CutBelow, Leaf, SetExpr, Translate, Union

# a mark (its own kind), an integer, a word, then the two lexical errors:
# a sign with no digits after it, and any other character
_TOKEN = re.compile(r"\s*(?:([()\[\]{},/U])|([+-]?\d+)|([^\W\d_]+)|([+-])|(\S))")

# each call: its argument kinds (e an expression, r a rational, i an integer;
# the arguments after ? are optional) and what it builds from them
_CALLS = {
    "seq": ("rrr", lambda a, w, r: Leaf(GeomSeq(a, w, r))),
    "tower": ("irr?r", lambda k, a, r, w=Q(1): Leaf(Tower(k, a, w, r))),
    "cantor": ("rrir", lambda lo, hi, m, r: Leaf(Cantor(lo, hi, m, r))),
    "shift": ("er", Translate),
    "below": ("er", CutBelow),
    "above": ("er", CutAbove),
}
_TERM = ("{", "[", "(", *_CALLS)

# the fast path's argument patterns, two groups each (an integer's second is
# empty): an integer of at most INT_DIGITS digits, and a rational whose
# denominator is unsigned and not zero, so that every literal the token
# parser rejects leaves the patterns
_DIGITS = rf"\d{{1,{INT_DIGITS}}}"
_ARG = {"i": rf"\s*([+-]?{_DIGITS})()",
        "r": rf"\s*([+-]?{_DIGITS})(?:\s*/\s*((?=0*[1-9]){_DIGITS}))?"}
_COMMA = r"\s*,"


def _args(kinds: str) -> str:
    """The pattern of comma-separated r and i arguments; those after a ?
    are left out together or not at all."""
    head, _, rest = kinds.partition("?")
    pattern = _COMMA.join(_ARG[k] for k in head)
    return pattern + (f"(?:{_COMMA if head else ''}{_args(rest)})?" if rest else "")


def _places(kinds: str, first: int) -> tuple:
    """(index, kind) of each r and i argument in a match's groups(), the
    first at index first."""
    return tuple((first + 2 * i, k) for i, k in enumerate(kinds.replace("?", "")))


def _terms():
    """One pattern whose alternatives are the heads of the term kinds, the
    first a whole finite list; and, by each other alternative's group,
    where the match holds its arguments, the pattern of those after an
    expression argument (None without one), where that match holds them,
    and the builder."""
    rows = [(r"\[", "rr", r"\s*\]", lambda lo, hi: Leaf(Interval(lo, hi))),
            (r"\(", "e", r"\s*\)", lambda e: e),
            *((rf"{name}\s*\(", kinds, r"\s*\)", build)
              for name, (kinds, build) in _CALLS.items())]
    heads, terms = [rf"\{{{_ARG['r']}(?:{_COMMA}{_ARG['r']})*\s*\}}"], []
    for opener, kinds, closer, build in rows:
        before, e, after = kinds.partition("e")
        if e:  # the expression is read between the head and the tail
            heads.append(opener + _args(before) + (_COMMA if before else ""))
            tail = re.compile((_COMMA if after else "") + _args(after) + closer)
        else:
            heads.append(opener + _args(before) + closer)
            tail = None
        terms.append((before, tail, after, build))
    head = re.compile(r"\s*(?:" + "|".join(f"(?P<t{i}>{h})" for i, h in enumerate(heads)) + ")")
    group = [head.groupindex[f"t{i}"] for i in range(len(heads))]
    return head, {group[i]: (_places(before, group[i]), tail, _places(after, 0), build)
                  for i, (before, tail, after, build) in enumerate(terms, 1)}


_HEAD, _ROWS = _terms()
_RAT, _UNION, _END = re.compile(_ARG["r"]), re.compile(r"\s*U"), re.compile(r"\s*\Z")


class _Unmatched(Exception):
    """A text leaves the fast path's patterns."""


def _error(src: str, offset: int, message: str, expected) -> ParseError:
    """A ParseError at the 1-based line and column of src[offset]."""
    line = src.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - src.rfind("\n", 0, offset), expected)


def _tokenize(src: str) -> list:
    """(kind, text, offset) tuples, then ("end", "", len(src)); a mark is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(src):
        group = m.lastindex
        text, offset = m[group], m.start(group)
        if group == 1:
            tokens.append((text, text, offset))
        elif group == 2:
            # Python reads no int of more digits from text
            if len(text) - (text[0] in "+-") > INT_DIGITS:
                raise _error(src, offset, f"integer literal longer than {INT_DIGITS} digits",
                             (f"integer of at most {INT_DIGITS} digits",))
            tokens.append(("int", text, offset))
        elif group == 4:
            raise _error(src, offset, f"stray {text!r}", ("integer",))
        elif text.isalpha():
            tokens.append(("word", text, offset))
        else:
            # \w also holds numerals that are not letters, such as ½
            bad = next(i for i, ch in enumerate(text) if not ch.isalpha())
            raise _error(src, offset + bad, f"unexpected character {text[bad]!r}",
                         ("expression",))
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def _fail(self, expected):
        kind, text, offset = self.tokens[self.pos]
        what = "end of input" if kind == "end" else repr(text)
        raise _error(self.src, offset, f"unexpected {what}", expected)

    def _eat(self, kind) -> str:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self._fail((kind,))
        self.pos += 1
        return tok[1]

    def _next_is(self, kind) -> bool:
        """Step over the next token when it is of this kind."""
        if self.tokens[self.pos][0] != kind:
            return False
        self.pos += 1
        return True

    def parse(self) -> SetExpr:
        e = self.expr()
        if self.tokens[self.pos][0] != "end":
            self._fail(("U", "end of input"))
        return e

    def expr(self) -> SetExpr:
        parts = [self.term()]
        while self._next_is("U"):
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def term(self) -> SetExpr:
        text = self.tokens[self.pos][1]
        if self._next_is("("):
            e = self.expr()
            self._eat(")")
            return e
        if self._next_is("{"):
            pts = [self.rat()]
            while self._next_is(","):
                pts.append(self.rat())
            self._eat("}")
            return Leaf(Finite(tuple(pts)))
        if self._next_is("["):
            lo = self.rat()
            self._eat(",")
            hi = self.rat()
            self._eat("]")
            return Leaf(Interval(lo, hi))
        if text not in _CALLS:  # only a word's text can be a call name
            self._fail(_TERM)
        self.pos += 1
        kinds, build = _CALLS[text]
        self._eat("(")
        args = []
        for arg in kinds:
            if arg == "?":
                if self.tokens[self.pos][0] != ",":
                    break
                continue
            if args:
                self._eat(",")
            args.append(self.expr() if arg == "e" else self.rat() if arg == "r"
                        else int(self._eat("int")))
        self._eat(")")
        return build(*args)

    def rat(self) -> Q:
        num = int(self._eat("int"))
        if not self._next_is("/"):
            return Q(num)
        _, text, offset = self.tokens[self.pos]
        den = int(self._eat("int"))
        if den <= 0 or text[0] in "+-":
            raise _error(self.src, offset, "denominator must be a positive integer",
                         ("positive integer",))
        return Q(num, den)


def _values(places: tuple, groups: tuple) -> list:
    """The r and i arguments at these places of a match's groups; an
    optional one left out holds None."""
    return [int(groups[i]) if kind == "i" else
            Q(int(groups[i]), int(groups[i + 1])) if groups[i + 1] else Q(int(groups[i]))
            for i, kind in places if groups[i] is not None]


def _expr(src: str, pos: int) -> tuple[SetExpr, int]:
    """The fast path: the expression at src[pos:] and where it ends."""
    e, pos = _term(src, pos)
    parts = [e]
    while m := _UNION.match(src, pos):
        e, pos = _term(src, m.end())
        parts.append(e)
    return (e if len(parts) == 1 else Union(tuple(parts))), pos


def _term(src: str, pos: int) -> tuple[SetExpr, int]:
    m = _HEAD.match(src, pos)
    if m is None:
        raise _Unmatched
    if m.lastindex == 1:
        pts = [Q(int(num), int(den)) if den else Q(int(num))
               for num, den in _RAT.findall(src, m.start(1), m.end())]
        return Leaf(Finite(tuple(pts))), m.end()
    places, tail, tail_places, build = _ROWS[m.lastindex]
    args, pos = _values(places, m.groups()), m.end()
    if tail is not None:
        child, pos = _expr(src, pos)
        if (m := tail.match(src, pos)) is None:
            raise _Unmatched
        args += [child, *_values(tail_places, m.groups())]
        pos = m.end()
    return build(*args), pos


def parse(src: str) -> SetExpr:
    """Parse source text; ParseError carries 1-based line/column."""
    try:
        e, pos = _expr(src, 0)
        if _END.match(src, pos):
            return e
    except (_Unmatched, SetMeansError, RecursionError):
        # the token parser finds the first error, a lexical one before any
        # other, also in a text nested deeper than the stack allows
        pass
    return _Parser(src).parse()


def int_text(n: int) -> str:
    """The decimal text of n; ValidationError past INT_DIGITS digits, where
    Python stops converting an int to text."""
    try:
        return str(n)
    except ValueError:
        raise ValidationError(
            f"a result of more than {INT_DIGITS} digits cannot be written") from None


def fmt_q(q: Q) -> str:
    num = int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_text(q.denominator)}"


def render(e: SetExpr) -> str:
    """Canonical text; parsing it back normalizes to the same set."""
    if isinstance(e, Leaf):
        b = e.block
        if isinstance(b, Finite):
            return "{" + ", ".join(fmt_q(p) for p in b.points) + "}"
        if isinstance(b, GeomSeq):
            return f"seq({fmt_q(b.anchor)}, {fmt_q(b.scale)}, {fmt_q(b.ratio)})"
        if isinstance(b, Tower):
            if b.scale == 1:
                return f"tower({b.level}, {fmt_q(b.anchor)}, {fmt_q(b.ratio)})"
            return (f"tower({b.level}, {fmt_q(b.anchor)}, {fmt_q(b.ratio)}, "
                    f"{fmt_q(b.scale)})")
        if isinstance(b, Interval):
            return f"[{fmt_q(b.lo)}, {fmt_q(b.hi)}]"
        return (f"cantor({fmt_q(b.lo)}, {fmt_q(b.hi)}, {b.pieces}, {fmt_q(b.ratio)})")
    if isinstance(e, Union):
        return " U ".join(
            f"({render(p)})" if isinstance(p, Union) else render(p) for p in e.parts
        )
    if isinstance(e, Translate):
        return f"shift({render(e.child)}, {fmt_q(e.offset)})"
    if isinstance(e, CutBelow):
        return f"below({render(e.child)}, {fmt_q(e.at)})"
    return f"above({render(e.child)}, {fmt_q(e.at)})"


def render_set(bs) -> str:
    """Render a normalized BlockSet as expression text."""
    return render(bs.to_expr())

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

One scan reads a text into token strings and shows its lexical errors,
each raised before any other error; then a recursive-descent parser reads
the strings.  A line and column are found only for an error, by scanning
the text again.  Parentheses and ``shift``, ``below`` and ``above`` calls
nest at most NESTING_DEPTH deep: past it, the opener is a ParseError.
"""

from __future__ import annotations

import re
from itertools import islice

from .blocks import INT_DIGITS, Cantor, Finite, GeomSeq, Interval, Tower
from .errors import ParseError, ValidationError
from .rational import Q
from .sets import CutAbove, CutBelow, Leaf, SetExpr, Translate, Union

#: the deepest nesting a text may hold: the parser, normalize, every mean and
#: render recurse once per level, and within it they run inside Python's
#: default recursion limit from a caller 100 frames deep
NESTING_DEPTH = 200

# one scan reads a text's tokens: a U, an integer, a word or a mark, and as
# "" any other character but a space: a sign with no digits after it, an
# underscore or any other, each a lexical error
_TOKEN = re.compile(r"(U|[+-]?\d+|[^\W\d_]+|[()\[\]{},/])|\S")
# the lexical errors the tokens do not show, compiled (and kept by re) only
# for a text that can hold them: a literal past INT_DIGITS digits, from its
# sign or first digit, and a numeral that is not a letter in a word, such as ½
_LONG = r"(?:[+-]|(?<!\d))\d{%d}" % (INT_DIGITS + 1)
_WORD = r"[^\W\d_]+"

# each call: its argument kinds (e an expression, r a rational, i an integer,
# R an optional last rational) and what it builds from them
_CALLS = {
    "seq": ("rrr", lambda a, w, r: Leaf(GeomSeq(a, w, r))),
    "tower": ("irrR", lambda k, a, r, w=Q(1): Leaf(Tower(k, a, w, r))),
    "cantor": ("rrir", lambda lo, hi, m, r: Leaf(Cantor(lo, hi, m, r))),
    "shift": ("er", Translate),
    "below": ("er", CutBelow),
    "above": ("er", CutAbove),
}
_TERM = ("{", "[", "(", *_CALLS)


def _error(src: str, offset: int, message: str, expected) -> ParseError:
    """A ParseError at the 1-based line and column of src[offset]."""
    line = src.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - src.rfind("\n", 0, offset), expected)


def _check_lexical(src: str, tokens: list) -> None:
    """Raise the first lexical error in src, given its tokens; only a text
    with a "" token, a long text or one not ASCII is scanned once more."""
    if "" not in tokens and len(src) <= INT_DIGITS and src.isascii():
        return
    at = (next(m.start() for m in _TOKEN.finditer(src) if m[1] is None)
          if "" in tokens else len(src))
    long = re.compile(_LONG).search(src, 0, at) if len(src) > INT_DIGITS else None
    at = long.start() if long else at
    if not src.isascii() and not all(map(str.isalpha, re.compile(_WORD).findall(src, 0, at))):
        at = next(w.start() + i for w in re.finditer(_WORD, src)
                  for i, ch in enumerate(w[0]) if not ch.isalpha())
    elif long:  # Python reads no int of more digits from text
        raise _error(src, at, f"integer literal longer than {INT_DIGITS} digits",
                     (f"integer of at most {INT_DIGITS} digits",))
    elif at == len(src):
        return
    elif src[at] in "+-":
        raise _error(src, at, f"stray {src[at]!r}", ("integer",))
    raise _error(src, at, f"unexpected character {src[at]!r}", ("expression",))


class _Parser:
    def __init__(self, src: str, tokens: list):
        self.src = src
        self.tokens = [*tokens, None]  # None ends the text
        self.pos = self.depth = 0

    def _error_at(self, pos: int, message: str, expected) -> ParseError:
        """A ParseError at token pos, whose offset a rescan of the text finds."""
        m = next(islice(_TOKEN.finditer(self.src), pos, None), None)
        return _error(self.src, len(self.src) if m is None else m.start(), message, expected)

    def _fail(self, expected):
        text = self.tokens[self.pos]
        what = "end of input" if text is None else repr(text)
        raise self._error_at(self.pos, f"unexpected {what}", expected)

    def _eat(self, mark: str) -> None:
        if self.tokens[self.pos] != mark:
            self._fail((mark,))
        self.pos += 1

    def parse(self) -> SetExpr:
        e = self.expr()
        if self.tokens[self.pos] is not None:
            self._fail(("U", "end of input"))
        return e

    def expr(self) -> SetExpr:
        parts = [self.term()]
        while self.tokens[self.pos] == "U":
            self.pos += 1
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def _nested(self, opener: int) -> SetExpr:
        """The expression in the opener at token opener, a level deeper, up to NESTING_DEPTH."""
        if self.depth == NESTING_DEPTH:
            raise self._error_at(opener, f"nesting deeper than {NESTING_DEPTH} levels",
                                 (f"at most {NESTING_DEPTH} nested terms",))
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        return e

    def term(self) -> SetExpr:
        tokens, at = self.tokens, self.pos
        text = tokens[at]
        self.pos = at + 1
        if text == "(":
            e = self._nested(at)
            self._eat(")")
            return e
        if text == "{":
            pts = [self.rat()]
            while tokens[self.pos] == ",":
                self.pos += 1
                pts.append(self.rat())
            self._eat("}")
            return Leaf(Finite(tuple(pts)))
        if text == "[":
            lo = self.rat()
            self._eat(",")
            hi = self.rat()
            self._eat("]")
            return Leaf(Interval(lo, hi))
        if text not in _CALLS:  # only a word's text can be a call name
            self.pos = at
            self._fail(_TERM)
        kinds, build = _CALLS[text]
        self._eat("(")
        args = []
        for arg in kinds:
            if args:
                if tokens[self.pos] != ",":
                    if arg == "R":  # an optional last argument
                        break
                    self._fail((",",))
                self.pos += 1
            args.append(self._nested(at) if arg == "e" else self.rat(whole=arg == "i"))
        self._eat(")")
        return build(*args)

    def rat(self, whole=False) -> Q | int:
        """A rat of the grammar, or with whole an int, read as an int."""
        tokens, at = self.tokens, self.pos
        try:
            num = int(tokens[at])
            if whole or tokens[at + 1] != "/":
                self.pos = at + 1
                return num if whole else Q(num)
            at += 2
            den = int(tokens[at])
        except (TypeError, ValueError):  # int() reads only an integer token
            self.pos = at
            self._fail(("int",))
        if den <= 0 or tokens[at][0] in "+-":
            raise self._error_at(at, "denominator must be a positive integer",
                                 ("positive integer",))
        self.pos = at + 1
        return Q(num, den)


def parse(src: str) -> SetExpr:
    """Parse source text; ParseError carries 1-based line/column, found by a
    second scan only for an error.  One scan finds a lexical error anywhere
    first; then the tokens are read left to right, each block validated as it
    is built, so the first syntax or ValidationError in the text is raised."""
    tokens = _TOKEN.findall(src)
    _check_lexical(src, tokens)
    return _Parser(src, tokens).parse()


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
            scale = "" if b.scale == 1 else f", {fmt_q(b.scale)}"
            return f"tower({b.level}, {fmt_q(b.anchor)}, {fmt_q(b.ratio)}{scale})"
        if isinstance(b, Interval):
            return f"[{fmt_q(b.lo)}, {fmt_q(b.hi)}]"
        return (f"cantor({fmt_q(b.lo)}, {fmt_q(b.hi)}, {b.pieces}, {fmt_q(b.ratio)})")
    if isinstance(e, Union):
        return " U ".join(f"({render(p)})" if isinstance(p, Union) else render(p)
                          for p in e.parts)
    if isinstance(e, Translate):
        return f"shift({render(e.child)}, {fmt_q(e.offset)})"
    if isinstance(e, CutBelow):
        return f"below({render(e.child)}, {fmt_q(e.at)})"
    return f"above({render(e.child)}, {fmt_q(e.at)})"


def render_set(bs) -> str:
    """Render a normalized BlockSet as expression text."""
    return render(bs.to_expr())

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

Parentheses and ``shift``, ``below`` and ``above`` calls nest at most
NESTING_DEPTH deep: the parser, after its lexical scan of the whole text,
raises ParseError at the first opener past the bound.
"""

from __future__ import annotations

import re

from .blocks import INT_DIGITS, Cantor, Finite, GeomSeq, Interval, Tower
from .errors import ParseError, ValidationError
from .rational import Q
from .sets import CutAbove, CutBelow, Leaf, SetExpr, Translate, Union

#: the deepest nesting a text may hold: the parser, normalize, every mean and
#: render recurse once per level, and within it they run inside Python's
#: default recursion limit from a caller 100 frames deep
NESTING_DEPTH = 200

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
        self.depth = 0

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

    def _nested(self, offset: int) -> SetExpr:
        """The expression inside the opener at offset, one level deeper;
        ParseError when that is past NESTING_DEPTH."""
        if self.depth == NESTING_DEPTH:
            raise _error(self.src, offset, f"nesting deeper than {NESTING_DEPTH} levels",
                         (f"at most {NESTING_DEPTH} nested terms",))
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        return e

    def term(self) -> SetExpr:
        _, text, offset = self.tokens[self.pos]
        if self._next_is("("):
            e = self._nested(offset)
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
            args.append(self._nested(offset) if arg == "e" else self.rat() if arg == "r"
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


def parse(src: str) -> SetExpr:
    """Parse source text; ParseError carries 1-based line/column.  The whole
    text is scanned first, so a lexical error anywhere in it comes before any
    other; then it is read left to right, each block validated as it is
    built, so the first syntax or ValidationError in the text is raised."""
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

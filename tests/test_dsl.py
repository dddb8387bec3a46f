"""Parser, renderer, error positions, and the round-trip property."""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from setmeans import (
    Cantor,
    CutAbove,
    CutBelow,
    Finite,
    GeomSeq,
    Interval,
    Leaf,
    MeanKind,
    ParseError,
    SetExpr,
    SetMeansError,
    Tower,
    Translate,
    Union,
    ValidationError,
    gen_corpus,
    mean_of,
    normalize,
    parse,
    render,
    render_set,
)
from setmeans import dsl
from setmeans.laws import PROFILES


def test_parse_union_of_intervals():
    e = parse("[0,2] U [4,5]")
    assert isinstance(e, Union)
    assert e.parts == (Leaf(Interval(Q(0), Q(2))), Leaf(Interval(Q(4), Q(5))))


def test_parse_shift():
    e = parse("shift(seq(0,1,1/2), 3)")
    assert e == Translate(Leaf(GeomSeq(Q(0), Q(1), Q(1, 2))), Q(3))


def test_parse_finite_and_rationals():
    e = parse("{1, -2/3, +4}")
    assert e == Leaf(Finite((Q(-2, 3), Q(1), Q(4))))


def test_parse_cuts():
    e = parse("above([0,2], 1)")
    assert e == CutAbove(Leaf(Interval(Q(0), Q(2))), Q(1))


def test_parse_tower_scale_extension():
    assert parse("tower(2, 0, 1/4)") == Leaf(Tower(2, Q(0), Q(1), Q(1, 4)))
    assert parse("tower(2, 0, 1/4, -1/2)") == Leaf(Tower(2, Q(0), Q(-1, 2), Q(1, 4)))


def test_validation_errors():
    with pytest.raises(ValidationError):
        parse("tower(2, 0, 1/2)")  # ratio at or above 1/3
    with pytest.raises(ValidationError):
        parse("cantor(0, 1, 2, 1/2)")
    with pytest.raises(ValidationError):
        parse("[3, 1]")
    with pytest.raises(ValidationError):
        parse("seq(0, 0, 1/2)")


MALFORMED = [
    ("", 1, 1),
    ("[0 2]", 1, 4),
    ("{1, }", 1, 5),
    ("seq(1, 2)", 1, 9),
    ("[0, 1] U", 1, 9),
    ("shift([0,1], )", 1, 14),
    ("(" * 3 + "[0,1]", 1, 9),
    ("[0,1] [2,3]", 1, 7),
    ("tower(1/2, 0, 1/4)", 1, 8),
    ("cantor(0, 1, 2, 1/0)", 1, 19),
    ("1/2", 1, 1),
    ("seq(0, 1, 1/2) U U", 1, 18),
    ("{²}", 1, 2),
    ("{1, 5²}", 1, 6),
]


@pytest.mark.parametrize("src,line,col", MALFORMED)
def test_error_positions(src, line, col):
    with pytest.raises(ParseError) as exc_info:
        parse(src)
    err = exc_info.value
    assert (err.line, err.column) == (line, col)
    assert err.expected


def test_render_canonical_forms():
    assert render(Leaf(Finite((Q(1), Q(2))))) == "{1, 2}"
    assert render(Leaf(Interval(Q(0), Q(1)))) == "[0, 1]"
    assert render(Leaf(GeomSeq(Q(0), Q(1), Q(1, 2)))) == "seq(0, 1, 1/2)"
    assert render(Leaf(Tower(2, Q(0), Q(1), Q(1, 4)))) == "tower(2, 0, 1/4)"
    assert render(Translate(Leaf(Finite((Q(1),))), Q(2))) == "shift({1}, 2)"


def test_render_translated_finite_normalizes():
    e = Translate(Leaf(Finite((Q(1),))), Q(2))
    assert render_set(normalize(e)) == "{3}"


def test_round_trip_on_corpora():
    count = 0
    for profile in ("finite", "sequences", "towers", "intervals", "cantor", "mixed"):
        for e in gen_corpus(101, 60, profile):
            text = render(e)
            assert normalize(parse(text)) == normalize(e)
            count += 1
    assert count == 360


def test_round_trip_normalized_sets():
    for e in gen_corpus(103, 80, "mixed"):
        bs = normalize(e)
        assert normalize(parse(render_set(bs))) == bs


# ---------------------------------------------------------------------------
# the character-loop tokenizer and parser that the table-driven one replaced,
# kept as written as the reference


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "word", or a literal punctuation mark
    text: str
    line: int
    column: int


_PUNCT = set("()[]{},/U")


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "U":
            tokens.append(_Token("U", "U", line, col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "+-" or ch.isdigit():
            j = i + 1 if ch in "+-" else i
            if j >= len(src) or not src[j].isdigit():
                raise ParseError(f"stray {ch!r}", line, col, expected=("integer",))
            k = j
            while k < len(src) and src[k].isdigit():
                k += 1
            tokens.append(_Token("int", src[i:k], line, col))
            col += k - i
            i = k
            continue
        if ch.isalpha():
            k = i
            while k < len(src) and src[k].isalpha():
                k += 1
            tokens.append(_Token("word", src[i:k], line, col))
            col += k - i
            i = k
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col,
                         expected=("expression",))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.src = src

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, expected):
        tok = self._peek()
        if tok is None:
            lines = self.src.split("\n")
            line = len(lines)
            col = len(lines[-1]) + 1
            raise ParseError("unexpected end of input", line, col, expected=expected)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column,
                         expected=expected)

    def _eat(self, kind):
        tok = self._peek()
        if tok is None or tok.kind != kind:
            self._fail((kind,))
        self.pos += 1
        return tok

    def parse(self) -> SetExpr:
        e = self.expr()
        if self._peek() is not None:
            self._fail(("U", "end of input"))
        return e

    def expr(self) -> SetExpr:
        parts = [self.term()]
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "U":
                self.pos += 1
                parts.append(self.term())
            else:
                break
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

    def term(self) -> SetExpr:
        tok = self._peek()
        if tok is None:
            self._fail(("{", "[", "(", "seq", "tower", "cantor", "shift", "below", "above"))
        if tok.kind == "(":
            self.pos += 1
            e = self.expr()
            self._eat(")")
            return e
        if tok.kind == "word" and tok.text in ("shift", "below", "above"):
            self.pos += 1
            self._eat("(")
            child = self.expr()
            self._eat(",")
            at = self.rat()
            self._eat(")")
            if tok.text == "shift":
                return Translate(child, at)
            if tok.text == "below":
                return CutBelow(child, at)
            return CutAbove(child, at)
        return self.prim()

    def prim(self) -> SetExpr:
        tok = self._peek()
        if tok is None:
            self._fail(("{", "[", "seq", "tower", "cantor"))
        if tok.kind == "{":
            self.pos += 1
            pts = [self.rat()]
            while self._peek() is not None and self._peek().kind == ",":
                self.pos += 1
                pts.append(self.rat())
            self._eat("}")
            return Leaf(Finite(tuple(pts)))
        if tok.kind == "[":
            self.pos += 1
            lo = self.rat()
            self._eat(",")
            hi = self.rat()
            self._eat("]")
            return Leaf(Interval(lo, hi))
        if tok.kind == "word":
            if tok.text == "seq":
                self.pos += 1
                self._eat("(")
                a = self.rat()
                self._eat(",")
                w = self.rat()
                self._eat(",")
                r = self.rat()
                self._eat(")")
                return Leaf(GeomSeq(a, w, r))
            if tok.text == "tower":
                self.pos += 1
                self._eat("(")
                k_tok = self._eat("int")
                self._eat(",")
                a = self.rat()
                self._eat(",")
                r = self.rat()
                w = Q(1)
                if self._peek() is not None and self._peek().kind == ",":
                    self.pos += 1
                    w = self.rat()
                self._eat(")")
                return Leaf(Tower(int(k_tok.text), a, w, r))
            if tok.text == "cantor":
                self.pos += 1
                self._eat("(")
                lo = self.rat()
                self._eat(",")
                hi = self.rat()
                self._eat(",")
                m_tok = self._eat("int")
                self._eat(",")
                r = self.rat()
                self._eat(")")
                return Leaf(Cantor(lo, hi, int(m_tok.text), r))
        self._fail(("{", "[", "(", "seq", "tower", "cantor", "shift", "below", "above"))

    def rat(self) -> Q:
        num_tok = self._eat("int")
        num = int(num_tok.text)
        if self._peek() is not None and self._peek().kind == "/":
            self.pos += 1
            den_tok = self._eat("int")
            den = int(den_tok.text)
            if den <= 0 or den_tok.text[0] in "+-":
                raise ParseError("denominator must be a positive integer",
                                 den_tok.line, den_tok.column, expected=("positive integer",))
            return Q(num, den)
        return Q(num)


def reference_parse(src: str) -> SetExpr:
    return _Parser(src).parse()


def outcome(parse_fn, src: str):
    """The expression, or the error's type, message, position and expected set."""
    try:
        return parse_fn(src)
    except SetMeansError as exc:
        return (type(exc).__name__, exc.args, getattr(exc, "line", None),
                getattr(exc, "column", None), getattr(exc, "expected", None))


# the grammar's own characters and layout, and characters at the edges of
# the character classes: a non-ASCII decimal digit, a non-ASCII letter,
# numerals that are not decimal digits (superscript two, one half) and a
# no-break space
MUTATION_CHARS = "0123456789+-/,()[]{}U sequtowrcanihfbl\n\t_.*#٣é²½ "


def corpus_texts():
    return [render(e) for profile in PROFILES for seed in range(1, 21)
            for e in gen_corpus(seed, 40, profile)]


def mutations(texts, count, seed):
    """count seeded one-character replacements, insertions and deletions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 2 and i < len(text):
            out.append(text[:i] + text[i + 1:])
        else:
            # op 0 replaces the character at i (or appends at the end)
            out.append(text[:i] + rng.choice(MUTATION_CHARS) + text[i + (op == 0):])
    return out


def test_parser_agrees_with_the_reference_on_corpus_texts():
    texts = corpus_texts()
    assert len(texts) == 4800
    for text in texts:
        assert parse(text) == reference_parse(text)


def test_parser_agrees_with_the_reference_on_mutated_texts():
    accepted = rejected = exempt = 0
    for text in mutations(corpus_texts(), 9600, seed=15):
        got = outcome(parse, text)
        if any(ch.isdigit() and not ch.isdecimal() for ch in text):
            # the reference reads such a digit as part of an integer and then
            # fails in int() with a ValueError; the parser reports it
            assert isinstance(got, tuple) and got[0] == "ParseError", text
            exempt += 1
            continue
        want = outcome(reference_parse, text)
        assert got == want, text
        if isinstance(want, tuple):
            rejected += 1
        else:
            accepted += 1
    assert min(accepted, rejected) > 1000 and exempt > 100, (accepted, rejected, exempt)


# ---------------------------------------------------------------------------
# the term patterns against the token parser: parse reads a text by its
# patterns and leaves every other text to the token parser, so each text
# must read the same, or fail with the same error, both ways


def token_parse(src: str) -> SetExpr:
    return dsl._Parser(src).parse()


PATTERN_EDGES = [
    "{1}Useq(0,1,1/2)",  # the tokenizer reads U as a mark before a word
    "seq (0,1,1/2)",
    "seq(0,1,2) U {",  # the ValidationError comes before the syntax error
    "seq(0,1,2) U ½",  # the lexical error comes first
    "{1/-2}",
    "{1/0}",
    "{}",
    "tower(2,0,1/4,)",
    "{٣}",
    "({1} U {2}) U {3}",
    # a literal past the digit limit in each argument kind
    "{" + "1" * 4301 + "}",
    "{1/" + "3" * 4301 + "}",
    "tower(" + "2" * 4301 + ", 0, 1/4)",
    "cantor(0, 1, " + "3" * 4301 + ", 1/9)",
    # nested past NESTING_DEPTH: the lexical error still comes first
    "(" * 5000 + "½",
    # nested at NESTING_DEPTH and one past it
    *(opener * n + "{1}" + closer * n for opener, closer in (("(", ")"), ("shift(", ", 1)"))
      for n in (dsl.NESTING_DEPTH, dsl.NESTING_DEPTH + 1)),
]


@pytest.mark.parametrize("src", PATTERN_EDGES, ids=range(len(PATTERN_EDGES)))
def test_patterns_agree_with_the_token_parser_at_the_edges(src):
    assert outcome(parse, src) == outcome(token_parse, src)


def test_patterns_agree_with_the_token_parser_on_corpus_and_mutated_texts():
    texts = corpus_texts()
    for text in texts + mutations(texts, 9600, seed=15):
        assert outcome(parse, text) == outcome(token_parse, text), text


@pytest.mark.parametrize("seed", [101, 9001])
@pytest.mark.parametrize("workload", ["query-exact", "query-iso"])
def test_patterns_read_every_benchmark_operand(workload, seed, monkeypatch):
    import setmeans
    from test_argv import _workloads

    def unbuilt(src):
        raise AssertionError(f"the token parser read {src!r}")

    token = dsl._Parser
    monkeypatch.setattr(dsl, "_Parser", unbuilt)
    texts = {t for op in _workloads().build(setmeans, workload, seed).ops for t in op.operands}
    for text in texts:
        assert parse(text) == token(text).parse(), text


def _from_frames(depth: int, f):
    """f() called from a caller depth frames deeper than this one."""
    return f() if depth == 0 else _from_frames(depth - 1, f)


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("shift(", ", 1)")])
def test_nesting_answers_at_the_bound_and_is_a_parse_error_past_it(opener, closer):
    n = dsl.NESTING_DEPTH
    body = "{1} U seq(0,1,1/2)"

    def read(depth):
        e = parse(opener * depth + body + closer * depth)
        h = normalize(e)
        return [mean_of(h, kind).status for kind in MeanKind], render(e)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        statuses, text = _from_frames(100, lambda: read(n))
        with pytest.raises(ParseError) as exc:
            _from_frames(100, lambda: read(n + 1))
    finally:
        sys.setrecursionlimit(limit)
    assert statuses == read(0)[0]
    assert text.count("shift(") == (n if opener == "shift(" else 0)
    err = exc.value
    assert err.args == (f"nesting deeper than {n} levels",)
    assert (err.line, err.column) == (1, len(opener) * n + 1)
    assert err.expected == (f"at most {n} nested terms",)

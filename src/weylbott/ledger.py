"""A small expression language for bundle identities, and their checker.

Grammar (whitespace-insensitive):

    expr    := term ('+' term)*
    term    := atom ('*' atom)*
    atom    := primary twist*
    twist   := '(' INT ')'
    primary := 'E' '[' INT (',' INT)* ']'      irreducible bundle
             | 'V' '[' INT (',' INT)* ']'      full-system module, restricted
             | 'O'                              trivial bundle
             | 'wedge' '^' INT '(' expr ')'
             | 'sym' '^' INT '(' expr ')'
             | 'dual' '(' expr ')'
             | 'gr' '(' expr ')'                associated graded: identity on characters
             | '(' expr ')'

Groups, '(' expr ')' on their own or after dual, gr, wedge^k or sym^k,
nest at most MAX_NESTING (64) deep.

Identities are checked at character level: an isomorphism must give a
zero difference, an exact sequence a zero alternating sum.  This
certifies equality in the representation ring of the parabolic; it
cannot distinguish a bundle from its associated graded, which is
exactly the granularity the checked statements live at.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Callable, NamedTuple, Optional

from .characters import (
    Character,
    char_add,
    char_dual,
    char_mul,
    char_twist,
    decompose,
    irrep_character,
    power_op,
    weight_mults_obj,
)
from .errors import ParseError
from .lie_core import Weight
from .parabolic import ParabolicSetup, bundle_char
from .presets import require_keys

GRADED_NOTE = (
    "identities are checked at character (Grothendieck-group) level; "
    "filtered objects are compared through their associated graded"
)


# -- evaluators ----------------------------------------------------------------

# A parsed expression is its evaluator: the character of the expression
# over the Levi weight lattice of a setup.
Evaluator = Callable[[ParabolicSetup], Character]


def _triv(setup: ParabolicSetup) -> Character:
    return {(0,) * setup.rs.rank: 1}


# -- parsing -----------------------------------------------------------------

# Groups are the one recursive rule, at seven parser frames a level; this bound
# keeps the parser far below Python's recursion limit (the built-in ledger
# nests 2 deep).
MAX_NESTING = 64

# Whitespace is what no group matches; any other character that starts no token is bad.
_TOKEN = re.compile(r"(?P<int>-?\d+)|(?P<name>[A-Za-z]+)|(?P<punct>[\[\](),*+^])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(m.start(), "a token")
        out.append((m.lastgroup, m.group(), m.start()))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, value: str) -> int:
        _, val, offset = self.next()
        if val != value:
            raise ParseError(offset, f"'{value}'")
        return offset

    def parse(self) -> Evaluator:
        e = self.expr()
        kind, _, offset = self.next()
        if kind != "end":
            raise ParseError(offset, "end of input")
        return e

    def expr(self) -> Evaluator:
        return self.sequence("+", self.term)

    def term(self) -> Evaluator:
        return self.sequence("*", self.atom)

    def sequence(self, op: str, item: Callable[[], Evaluator]) -> Evaluator:
        """item (op item)*: one item as it is, more folded through char_add for + or
        char_mul for *, each read from this module's globals when the evaluator runs."""
        items = [item()]
        while self.peek()[1] == op:
            self.next()
            items.append(item())
        if len(items) == 1:
            return items[0]
        return lambda setup: reduce(char_add if op == "+" else char_mul, (e(setup) for e in items))

    def atom(self) -> Evaluator:
        e = self.primary()
        # A parenthesized integer right after a primary is a twist; O(t) is a
        # line bundle, so consecutive twists add up to one.
        twists = []
        while (
            self.peek()[1] == "("
            and self.peek(1)[0] == "int"
            and self.peek(2)[1] == ")"
        ):
            self.next()
            twists.append(int(self.next()[1]))
            self.next()
        if not twists:
            return e
        t = sum(twists)
        return lambda setup: char_twist(e(setup), setup.crossed, t)

    def weight_list(self) -> Weight:
        self.expect("[")
        coords = []
        sep = ","
        while sep == ",":
            kind, val, offset = self.next()
            if kind != "int":
                raise ParseError(offset, "an integer coordinate")
            coords.append(int(val))
            _, sep, offset = self.next()
        if sep != "]":
            raise ParseError(offset, "',' or ']'")
        return tuple(coords)

    def power(self) -> int:
        self.expect("^")
        kind, val, offset = self.next()
        if kind != "int" or int(val) < 0:
            raise ParseError(offset, "a nonnegative exponent")
        return int(val)

    def group(self) -> Evaluator:
        offset = self.expect("(")
        if self.depth == MAX_NESTING:
            raise ParseError(offset, f"at most {MAX_NESTING} nested groups")
        self.depth += 1
        e = self.expr()
        self.expect(")")
        self.depth -= 1
        return e

    def primary(self) -> Evaluator:
        if self.peek()[1] == "(":
            return self.group()
        kind, val, offset = self.next()
        if val == "E":
            w = self.weight_list()
            return lambda setup: bundle_char(setup, w)
        if val == "V":
            w = self.weight_list()
            return lambda setup: irrep_character(setup.rs, setup.rs.full, w)
        if val == "O":
            return _triv
        if val == "dual":
            e = self.group()
            return lambda setup: char_dual(e(setup))
        if val == "gr":
            return self.group()  # the associated graded has the same character
        if val not in ("wedge", "sym"):
            raise ParseError(offset, "one of E, V, O, wedge, sym, dual, gr" if kind == "name" else "an expression")
        k = self.power()
        e = self.group()

        def power(setup: ParabolicSetup) -> Character:
            c = e(setup)  # evaluated for k = 0 too, so that its errors still surface
            # the zeroth power is O even of a zero character, whose rank power_op cannot see
            return power_op(c, k, val) if k else _triv(setup)

        return power


def parse_expr(text: str) -> Evaluator:
    return _Parser(text).parse()


def eval_expr(setup: ParabolicSetup, expr: Evaluator) -> Character:
    """Character of the expression over the Levi weight lattice."""
    return expr(setup)


# -- identities -----------------------------------------------------------------


class Identity:
    """Either an isomorphism (two terms) or an exact sequence (any length).

    The terms are kept as source text and compiled once, here, so that a
    syntax error in a ledger surfaces before any term is evaluated.
    """

    __slots__ = ("name", "kind", "terms", "evaluators")

    def __init__(self, name: str, kind: str, terms: tuple[str, ...]) -> None:
        self.name, self.kind, self.terms = name, kind, terms
        self.evaluators: tuple[Evaluator, ...] = tuple(parse_expr(t) for t in terms)
        if kind not in ("iso", "exactseq"):
            raise ValueError(f"kind must be iso or exactseq, got {kind!r}")
        if kind == "iso" and len(terms) != 2:
            raise ValueError("an isomorphism needs exactly two terms")
        if kind == "exactseq" and len(terms) < 2:
            raise ValueError("an exact sequence needs at least two terms")


class CheckResult(NamedTuple):
    name: str
    kind: str
    passed: bool
    difference: Character
    diff_components: Optional[tuple[tuple[Weight, int], ...]]  # None exactly when passed


def check_identity(setup: ParabolicSetup, ident: Identity) -> CheckResult:
    """Alternating sum of the terms; for an isomorphism that is t0 - t1."""
    diff: Character = {}
    for idx, term in enumerate(ident.evaluators):
        sign = 1 if idx % 2 == 0 else -1
        for w, m in eval_expr(setup, term).items():
            n = diff.get(w, 0) + sign * m
            if n:
                diff[w] = n
            else:
                diff.pop(w, None)
    # every evaluator gives a W_L-invariant character, so a difference always decomposes
    comps = tuple(decompose(setup.rs, setup.levi, diff, virtual=True)) if diff else None
    return CheckResult(ident.name, ident.kind, not diff, diff, comps)


# -- built-in ledger --------------------------------------------------------------

# Identities on the E6-paper setup with node 1 crossed.  Shorthand:
# S = E[0,0,0,0,0,1] (rank 10), T = E[0,0,0,1,0,0] (tangent bundle),
# Om = E[-2,1,0,0,0,0] (cotangent), and twists are O(t) shifts at node 1.
_BUILTIN: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("wedge2_s", "iso", ("wedge^2(E[0,0,0,0,0,1])", "E[0,0,0,0,1,0]")),
    ("wedge3_s", "iso", ("wedge^3(E[0,0,0,0,0,1])", "E[0,0,1,0,0,0]")),
    ("wedge4_s", "iso", ("wedge^4(E[0,0,0,0,0,1])", "E[0,1,0,1,0,0]")),
    ("wedge2_tangent", "iso", ("wedge^2(E[0,0,0,1,0,0])", "E[0,0,1,0,0,0]")),
    ("wedge3_tangent", "iso", ("wedge^3(E[0,0,0,1,0,0])", "E[0,1,0,0,1,0]")),
    ("wedge2_cotangent", "iso", ("wedge^2(E[-2,1,0,0,0,0])", "E[-3,0,1,0,0,0]")),
    ("wedge3_cotangent", "iso", ("wedge^3(E[-2,1,0,0,0,0])", "E[-4,0,0,1,1,0]")),
    ("wedge2_t_twists", "iso", ("wedge^2(E[0,0,0,1,0,0])", "wedge^2(E[-2,1,0,0,0,0])(3)")),
    (
        "euler_cotangent",
        "exactseq",
        ("E[-1,0,0,0,0,1]", "V[1,0,0,0,0,0] * O", "E[-1,1,0,0,0,0] + O(1)"),
    ),
    (
        "euler_tangent",
        "exactseq",
        ("O", "V[0,0,0,0,0,1] * O(1)", "E[0,0,0,1,0,0] + E[1,0,0,0,0,1]"),
    ),
    (
        "adjoint_restriction",
        "iso",
        (
            "V[0,0,0,1,0,0] * O",
            "E[0,0,0,1,0,0] + E[-2,1,0,0,0,0] + E[-1,0,0,0,1,0] + O",
        ),
    ),
    (
        "minimal27_restriction",
        "iso",
        ("V[1,0,0,0,0,0] * O", "O(1) + E[-1,1,0,0,0,0] + E[-1,0,0,0,0,1]"),
    ),
    (
        "dual27_restriction",
        "iso",
        ("V[0,0,0,0,0,1] * O", "O(-1) + E[-1,0,0,1,0,0] + E[0,0,0,0,0,1]"),
    ),
    (
        "six_term",
        "exactseq",
        (
            "E[-2,0,0,0,0,2]",
            "V[1,0,0,0,0,0] * E[-1,0,0,0,0,1]",
            "(V[0,0,0,0,0,1] + V[0,1,0,0,0,0]) * O",
            "(V[1,0,0,0,0,0] + V[0,0,0,0,1,0]) * O(1)",
            "V[0,0,0,0,0,1] * E[1,0,0,0,0,1]",
            "E[1,0,0,0,0,2]",
        ),
    ),
    (
        "sym2_dual_s",
        "iso",
        ("sym^2(dual(E[0,0,0,0,0,1]))", "E[-2,0,0,0,0,2] + O(-1)"),
    ),
    ("sym3_s", "iso", ("sym^3(E[0,0,0,0,0,1])", "E[0,0,0,0,0,3] + E[1,0,0,0,0,1]")),
    (
        "wedge_sym_exchange",
        "iso",
        (
            "wedge^2(dual(E[0,0,0,0,0,1])) * dual(E[0,0,0,0,0,1]) + E[-3,0,0,0,0,3]",
            "E[-2,0,0,0,0,2] * dual(E[0,0,0,0,0,1]) + wedge^3(dual(E[0,0,0,0,0,1]))",
        ),
    ),
    (
        "dual_s_squared",
        "iso",
        (
            "dual(E[0,0,0,0,0,1]) * dual(E[0,0,0,0,0,1])",
            "E[-2,0,0,0,0,2] + E[-2,0,0,0,1,0] + O(-1)",
        ),
    ),
    (
        "cotangent_x_tangent",
        "iso",
        (
            "E[0,1,0,0,0,0] * E[0,0,0,1,0,0]",
            "E[0,1,0,1,0,0] + E[1,0,0,0,1,0] + O(2)",
        ),
    ),
    (
        "tangent_x_wedge2s",
        "iso",
        (
            "gr(E[0,0,0,1,0,0] * E[0,0,0,0,1,0](-1))",
            "E[-1,0,0,1,1,0] + E[-1,1,0,0,0,1] + E[0,0,0,1,0,0]",
        ),
    ),
    (
        "spinor_x_s",
        "iso",
        ("gr(E[0,1,0,0,0,0] * E[0,0,0,0,0,1](-1))", "E[-1,1,0,0,0,1] + E[0,0,0,1,0,0]"),
    ),
    ("dual_s_is_twist", "iso", ("dual(E[0,0,0,0,0,1])", "E[0,0,0,0,0,1](-1)")),
)


def builtin_ledger() -> list[Identity]:
    """The shipped identity list for the E6-paper setup with node 1 crossed."""
    return [Identity(name, kind, terms) for name, kind, terms in _BUILTIN]


def builtin_ledger_obj() -> list[dict]:
    return [identity_to_obj(i) for i in builtin_ledger()]


def identities_from_obj(data: list) -> list[Identity]:
    """Identities from a ledger.json list; ValueError if it is malformed."""
    if not isinstance(data, list):
        raise ValueError(f"a ledger must be a list of identities, got {data!r}")
    out = []
    for item in data:
        if not isinstance(item, dict):
            raise ValueError(f"each identity must be an object, got {item!r}")
        require_keys(item, ("name", "kind", "terms"), "an identity")
        name, kind, terms = item.get("name"), item.get("kind"), item.get("terms")
        if not isinstance(name, str) or not isinstance(kind, str):
            raise ValueError(f"an identity needs a string name and kind, got {item!r}")
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ValueError(f"terms of {name!r} must be a list of strings, got {terms!r}")
        out.append(Identity(name, kind, tuple(terms)))
    return out


def identity_to_obj(ident: Identity) -> dict:
    return {"name": ident.name, "kind": ident.kind, "terms": list(ident.terms)}


def check_ledger(
    setup: ParabolicSetup, identities: list[Identity]
) -> list[CheckResult]:
    return [check_identity(setup, ident) for ident in identities]


def ledger_report_obj(results: list[CheckResult]) -> dict:
    return {
        "note": GRADED_NOTE,
        "verdict": "pass" if all(r.passed for r in results) else "fail",
        "results": [
            {
                "name": r.name,
                "kind": r.kind,
                "passed": r.passed,
                "difference": weight_mults_obj(sorted(r.difference.items())),
                "difference_components": (
                    None if r.diff_components is None else weight_mults_obj(r.diff_components)
                ),
            }
            for r in results
        ],
    }


def render_ledger_text(results: list[CheckResult]) -> str:
    lines = [f"note: {GRADED_NOTE}", ""]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name} ({r.kind})")
        if not r.passed:
            comps = ", ".join(f"{m} x E{list(w)}" for w, m in r.diff_components)
            lines.append(f"      difference: {comps}")
    verdict = "pass" if all(r.passed for r in results) else "fail"
    lines.append("")
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)

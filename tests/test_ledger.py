"""Expression parsing, evaluation and the identity ledger."""

import json
import random

import pytest

from weylbott import ledger
from weylbott.characters import char_dual, irrep_character, power_op
from weylbott.cli import main
from weylbott.errors import ParseError
from weylbott.ledger import (
    GRADED_NOTE,
    Identity,
    builtin_ledger,
    builtin_ledger_obj,
    check_identity,
    check_ledger,
    eval_expr,
    identities_from_obj,
    identity_to_obj,
    ledger_report_obj,
    parse_expr,
    render_ledger_text,
)
from weylbott.lie_core import Subsystem
from weylbott.parabolic import bundle_char
from weylbott.presets import read_json

from oracles import from_components

ZERO6 = (0,) * 6
S = (0, 0, 0, 0, 0, 1)


# -- parsing ------------------------------------------------------------------


def line(t):
    return {(t, 0, 0, 0, 0, 0): 1}


def ev(setup, text):
    return eval_expr(setup, parse_expr(text))


def test_parse_primaries(cayley):
    s = bundle_char(cayley, S)
    assert ev(cayley, "O") == {ZERO6: 1}
    assert ev(cayley, "E[1,0,0,0,0,0]") == bundle_char(cayley, (1, 0, 0, 0, 0, 0))
    assert ev(cayley, "V[ 1 , 0,0,0, 0,0 ]") == irrep_character(
        cayley.rs, Subsystem.full(6), (1, 0, 0, 0, 0, 0)
    )
    assert ev(cayley, "dual(E[0,0,0,0,0,1])") == char_dual(s)
    assert ev(cayley, "gr(E[0,0,0,0,0,1])") == s
    assert ev(cayley, "wedge^2(E[0,0,0,0,0,1])") == power_op(s, 2, "wedge")
    assert ev(cayley, "sym^3(E[0,0,0,0,0,1])") == power_op(s, 3, "sym")


def test_parse_twist_and_precedence(cayley):
    assert ev(cayley, "O(3)") == line(3)
    assert ev(cayley, "O(-2)(5)") == line(3)
    assert ev(cayley, "(O + O(1))(2)") == {**line(2), **line(3)}
    # '*' binds tighter than '+'
    assert ev(cayley, "O(1) + O(2) * O(3)") == {**line(1), **line(5)}
    assert ev(cayley, "(O(1) + O(2)) * O(3)") == {**line(4), **line(5)}
    assert ev(cayley, "O(1) * O + O(3)(1)") == {**line(1), **line(4)}


def test_parse_twist_requires_integer():
    # 'O(O)' cannot be a twist; the grammar has no adjacency product, so it fails
    with pytest.raises(ParseError):
        parse_expr("O(O)")


def test_parse_errors_carry_position_and_expectation():
    with pytest.raises(ParseError) as info:
        parse_expr("E[1,")
    assert info.value.expected == "an integer coordinate"
    with pytest.raises(ParseError) as info:
        parse_expr("E[1 2]")
    assert info.value.expected == "',' or ']'"
    with pytest.raises(ParseError) as info:
        parse_expr("O + ")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_expr("O @ O")
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_expr("wedge^-1(O)")
    assert info.value.expected == "a nonnegative exponent"
    with pytest.raises(ParseError) as info:
        parse_expr("O O")
    assert info.value.expected == "end of input"


TOKEN_EDGES = [
    ("", (0, "an expression")),
    ("   ", (3, "an expression")),
    ("O   ", None),
    ("\tO", None),
    ("O\x1c+\x1cO", None),  # \x1c is Unicode whitespace, so it separates tokens
    (" O ", None),
    ("O @", (2, "a token")),
    ("-", (0, "a token")),
    ("O(-x)", (2, "a token")),
    ("E[]", (2, "an integer coordinate")),
    ("E[1,2", (5, "',' or ']'")),
    ("Sym^2(O)", (0, "one of E, V, O, wedge, sym, dual, gr")),
    ("wedge(O)", (5, "'^'")),
    ("V[1,0]]", (6, "end of input")),
    ("gr(O", (4, "')'")),
]


@pytest.mark.parametrize("text,error", TOKEN_EDGES, ids=[repr(t) for t, _ in TOKEN_EDGES])
def test_tokenizer_edges(text, error):
    # None: the text parses; else the (position, expected) of its ParseError
    if error is None:
        parse_expr(text)
        return
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    assert (info.value.position, info.value.expected) == error


def test_groups_nest_to_a_fixed_depth(cayley):
    deepest = 64  # the parser's bound; the built-in ledger nests 2 deep
    assert ev(cayley, "(" * deepest + "O" + ")" * deepest) == {ZERO6: 1}
    assert ev(cayley, "dual(" * deepest + "O" + ")" * deepest) == {ZERO6: 1}
    with pytest.raises(ParseError) as info:
        parse_expr("(" * (deepest + 1) + "O" + ")" * (deepest + 1))
    assert info.value.position == deepest


@pytest.mark.parametrize(
    "term,code,out_tail",
    [
        ("(" * 200 + "O" + ")" * 200, 3, None),
        ("O" + "(1)" * 2000, 1, "verdict: fail"),
        ("*".join(["O"] * 2000), 0, "verdict: pass"),
    ],
    ids=["200-groups", "2000-twists", "2000-factors"],
)
def test_long_terms_end_in_a_verdict_or_one_line(capsys, tmp_path, term, code, out_tail):
    # products and twists are flat, so only nesting depth could recurse, and it is bounded
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps([{"name": "long", "kind": "iso", "terms": [term, "O"]}]))
    assert main(["ledger", "--ledger-file", str(path)]) == code
    captured = capsys.readouterr()
    if out_tail is None:
        assert captured.out == ""
        assert captured.err.startswith("error: parse error") and captured.err.count("\n") == 1
    else:
        assert captured.out.rstrip().endswith(out_tail)
        assert captured.err == ""


# -- evaluation ----------------------------------------------------------------


def test_eval_primaries(cayley):
    assert eval_expr(cayley, parse_expr("O")) == {ZERO6: 1}
    assert eval_expr(cayley, parse_expr("E[0,0,0,0,0,1]")) == bundle_char(cayley, S)
    assert sum(eval_expr(cayley, parse_expr("V[1,0,0,0,0,0]")).values()) == 27


def test_eval_twist_dual_matches_engine(cayley):
    lhs = eval_expr(cayley, parse_expr("dual(E[0,0,0,0,0,1])"))
    rhs = eval_expr(cayley, parse_expr("E[0,0,0,0,0,1](-1)"))
    assert lhs == rhs


def test_eval_gr_is_identity(cayley):
    inner = "E[0,1,0,0,0,0] * E[0,0,0,0,0,1]"
    assert eval_expr(cayley, parse_expr(f"gr({inner})")) == eval_expr(
        cayley, parse_expr(inner)
    )


def test_eval_sum_and_tensor(cayley):
    c = eval_expr(cayley, parse_expr("(O + O(1)) * E[0,0,0,0,0,1]"))
    assert sum(c.values()) == 20


def test_sum_and_product_run_through_the_module_functions_at_evaluation(cayley, monkeypatch):
    # a wrapper installed after parsing must see every + and * the expression evaluates
    expr = parse_expr("E[0,0,0,0,0,1] * E[0,0,0,0,0,1] + O")
    plain = eval_expr(cayley, expr)
    calls = []
    for name in ("char_mul", "char_add"):
        fn = getattr(ledger, name)
        monkeypatch.setattr(ledger, name, lambda a, b, name=name, fn=fn: calls.append(name) or fn(a, b))
    assert eval_expr(cayley, expr) == plain
    assert sorted(calls) == ["char_add", "char_mul"]


# -- identity checking ----------------------------------------------------------


def test_identity_arity_validation():
    t = ("O", "O", "O")
    with pytest.raises(ValueError):
        Identity("x", "iso", t)
    with pytest.raises(ValueError):
        Identity("x", "exactseq", ("O",))
    with pytest.raises(ValueError):
        Identity("x", "what", t[:2])


def test_check_identity_pass(cayley):
    ident = Identity("dual_s", "iso", ("dual(E[0,0,0,0,0,1])", "E[0,0,0,0,0,1](-1)"))
    res = check_identity(cayley, ident)
    assert res.passed
    assert res.difference == {}
    assert res.diff_components is None


def test_check_identity_fail_reports_components(cayley):
    ident = Identity("wrong", "iso", ("O(1)", "O"))
    res = check_identity(cayley, ident)
    assert not res.passed
    assert res.difference == {(1, 0, 0, 0, 0, 0): 1, ZERO6: -1}
    assert res.diff_components == (((0, 0, 0, 0, 0, 0), -1), ((1, 0, 0, 0, 0, 0), 1))


def test_check_exact_sequence_signs(cayley):
    # 0 -> A -> A + B -> B -> 0 alternates to zero
    ident = Identity("split", "exactseq", ("E[0,0,0,0,0,1]", "E[0,0,0,0,0,1] + O(2)", "O(2)"))
    assert check_identity(cayley, ident).passed


# -- the built-in ledger -----------------------------------------------------------


def test_builtin_ledger_size_and_verdict(cayley):
    idents = builtin_ledger()
    assert len(idents) >= 17
    results = check_ledger(cayley, idents)
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_builtin_ledger_names_unique():
    names = [i.name for i in builtin_ledger()]
    assert len(names) == len(set(names))


def test_ledger_report_obj(cayley):
    results = check_ledger(cayley, builtin_ledger())
    obj = ledger_report_obj(results)
    assert obj["note"] == GRADED_NOTE
    assert obj["verdict"] == "pass"
    assert all(r["passed"] and r["difference"] == [] for r in obj["results"])


def test_render_ledger_text(cayley):
    results = check_ledger(cayley, builtin_ledger())
    text = render_ledger_text(results)
    assert text.startswith(f"note: {GRADED_NOTE}")
    assert text.count("PASS") == len(results)
    assert text.strip().endswith("verdict: pass")
    bad = check_ledger(cayley, [Identity("bad", "iso", ("O(1)", "O"))])
    bad_text = render_ledger_text(bad)
    assert "FAIL  bad (iso)" in bad_text
    assert "difference:" in bad_text
    assert bad_text.strip().endswith("verdict: fail")


def test_wrong_identities_report_their_difference(cayley):
    # every evaluator gives a W_L-invariant character, so any difference decomposes
    terms = sorted({t for ident in builtin_ledger() for t in ident.terms})
    rng = random.Random(12)
    wrong = []
    for _ in range(20):
        ident = Identity("wrong", "iso", tuple(rng.sample(terms, 2)))
        res = check_identity(cayley, ident)
        assert (res.diff_components is None) == res.passed
        if not res.passed:
            wrong.append(res)
            rebuilt = from_components(cayley.rs, cayley.levi, res.diff_components)
            assert rebuilt == res.difference, ident.terms
    assert len(wrong) >= 15
    assert render_ledger_text(wrong).count("difference: ") == len(wrong)


# -- ledger files ---------------------------------------------------------------------


def test_ledger_json_round_trip(tmp_path):
    obj = builtin_ledger_obj()
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(obj))
    loaded = identities_from_obj(read_json(str(path)))
    assert list(map(identity_to_obj, loaded)) == list(map(identity_to_obj, builtin_ledger()))
    assert [identity_to_obj(i)["name"] for i in loaded] == [x["name"] for x in obj]


def test_syntax_error_surfaces_before_evaluation(capsys, tmp_path, monkeypatch):
    # the first identity would fail to evaluate (non-dominant weight); the
    # second does not parse, and that must be reported without evaluating
    def no_eval(*args):
        raise AssertionError("a term was evaluated before the ledger was parsed")

    monkeypatch.setattr(ledger, "bundle_char", no_eval)
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps([
        {"name": "first", "kind": "iso", "terms": ["E[0,-1,0,0,0,0]", "O"]},
        {"name": "second", "kind": "iso", "terms": ["O +", "O"]},
    ]))
    code = main(["ledger", "--ledger-file", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: parse error at position 3: expected an expression\n"

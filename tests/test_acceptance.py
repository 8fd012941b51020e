"""Acceptance gate: one test per headline claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see every line; under a
plain run the lines for failing criteria appear in the captured output.
"""

import random
import time
from functools import partial

from weylbott import Subsystem
from weylbott.bbw import cohomology, ext_table
from weylbott.characters import (
    char_dual,
    char_mul,
    char_twist,
    irrep_character,
    power_op,
    weyl_dim,
)
from weylbott.ledger import builtin_ledger, check_ledger
from weylbott.parabolic import (
    branch,
    bundle_c1,
    bundle_dual,
    bundle_rank,
    levi_tensor,
    twist,
)
from weylbott.verify import builtin_collection, verify_strong_exceptional

from oracles import (
    euler_characteristic,
    ext_from_characters,
    inversion_count,
    is_regular,
    random_l_dominant,
    strip_full_support,
)

W = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
ZERO6 = (0,) * 6
S = (0, 0, 0, 0, 0, 1)
S_DUAL = (-1, 0, 0, 0, 0, 1)
TANGENT_M1 = (-1, 0, 0, 1, 0, 0)  # T_X(-1)
COTANGENT2_2 = (-1, 0, 1, 0, 0, 0)  # wedge^2 of the cotangent bundle, twisted by 2


def report(n: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_cayley27_strongly_exceptional(cayley27_report):
    rep = cayley27_report
    ok = (
        rep.verdict == "pass"
        and rep.pairs_checked == 729
        and not rep.violations
        and rep.elapsed_seconds <= 300.0
    )
    report(1, "27-bundle collection is strongly exceptional", ok)
    assert rep.pairs_checked == 729
    assert rep.verdict == "pass", rep.violations
    assert rep.elapsed_seconds <= 300.0, f"took {rep.elapsed_seconds:.2f}s"


def test_criterion_2_quadric_collection_fast():
    start = time.monotonic()
    rep = verify_strong_exceptional(builtin_collection("kapranovQ7"))
    elapsed = time.monotonic() - start
    ok = rep.verdict == "pass" and rep.pairs_checked == 64 and elapsed <= 10.0
    report(2, "quadric collection verifies in under ten seconds", ok)
    assert rep.verdict == "pass", rep.violations
    assert rep.pairs_checked == 64
    assert elapsed <= 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_identity_ledger(cayley):
    idents = builtin_ledger()
    results = check_ledger(cayley, idents)
    failed = [r.name for r in results if not r.passed]
    ok = len(idents) >= 17 and not failed
    report(3, f"all {len(idents)} ledger identities hold", ok)
    assert len(idents) >= 17
    assert not failed, failed


def test_criterion_4_bundle_invariants(cayley):
    checks = {
        "rank S": bundle_rank(cayley, S) == 10,
        "c1 S": bundle_c1(cayley, S) == 5,
        "sections of S": cohomology(cayley, S).dim == 27
        and cohomology(cayley, S).degree == 0,
        "dual of S": bundle_dual(cayley, W[5]) == (-1, 0, 0, 0, 0, 1),
        "dual of sym2": bundle_dual(cayley, (0, 0, 0, 0, 0, 2)) == (-2, 0, 0, 0, 0, 2),
        "dual of sym3": bundle_dual(cayley, (0, 0, 0, 0, 0, 3)) == (-3, 0, 0, 0, 0, 3),
        "adjoint branching": sorted(
            m * bundle_rank(cayley, w) for w, m in branch(cayley, W[3])
        )
        == [1, 16, 16, 45],
    }
    failed = [name for name, good in checks.items() if not good]
    report(4, "ranks, Chern classes, duals and branching", not failed)
    assert not failed, failed


def test_criterion_5_intermediate_ext_vanishing(cayley, e6):
    # None of the three intermediate first Ext groups vanishes, and one cannot:
    # X sits in P^26 by V_27 and is not linear, so its normal sequence does
    # not split (Van de Ven); twisted by -1 it is
    # 0 -> T(-1) -> T_P(-1)|X -> N(-1) -> 0 with N(-1) = S, and its class is
    # an invariant in Ext^1(S, T(-1)).
    # The engine's tables are checked against a route that never enters its
    # Ext code: Freudenthal characters (wedge^2 from the product of (1 + t e^w)),
    # character multiplication, and cohomology from Euler products,
    # inversion counts and root reflections.
    levi = cayley.levi
    omega = char_dual(irrep_character(e6, levi, twist(cayley, TANGENT_M1, 1)))
    wedge2 = char_twist(power_op(omega, 2, "wedge"), cayley.crossed, 2)
    assert wedge2 == irrep_character(e6, levi, COTANGENT2_2)
    chars = {
        COTANGENT2_2: wedge2,
        S: irrep_character(e6, levi, S),
        TANGENT_M1: irrep_character(e6, levi, TANGENT_M1),
    }
    pairs = {
        "Ext(wedge2-cotangent(2), S)": (COTANGENT2_2, S),
        "Ext(S, tangent(-1))": (S, TANGENT_M1),
        "Ext(wedge2-cotangent(2), tangent(-1))": (COTANGENT2_2, TANGENT_M1),
    }
    mismatches = []
    tables = {}
    for label, (a, b) in pairs.items():
        table = ext_table(cayley, a, b)
        dims, modules = ext_from_characters(
            e6, levi, cayley.dim_x, chars[a], chars[b]
        )
        tables[label] = table
        nonzero = [k for k, d in enumerate(table.dims) if d]
        print(f"[acceptance]   {label}: Ext^1 = {table.dims[1]}   "
              f"(nonzero degrees {nonzero}, "
              f"weights at 1: {table.weights[1]})")
        if (table.dims, table.weights) != (dims, modules):
            mismatches.append((label, table.dims, dims, modules))
    first = {label: t.dims[1] for label, t in tables.items()}

    # V_27 restricted to the Levi is O(-1) + T(-1) + S, the graded pieces of
    # V (x) O; the quotient by O(-1) is T_P(-1)|X, so S = N(-1), and
    # c1(N(-1)) = (27 - c1(T_X)) - rank N.
    v27 = branch(cayley, W[5])
    c1_normal = weyl_dim(e6, Subsystem.full(6), W[5]) - cayley.index
    geometry = {
        "V27 = O(-1) + T(-1) + S": v27
        == [(twist(cayley, ZERO6, -1), 1), (TANGENT_M1, 1), (S, 1)],
        "rank T(-1) = dim X": bundle_rank(cayley, TANGENT_M1) == cayley.dim_x,
        "c1 N(-1) = c1 S": c1_normal - bundle_rank(cayley, S)
        == bundle_c1(cayley, S)
        == 5,
        "invariant class in Ext^1(S, T(-1))": (ZERO6, 1)
        in tables["Ext(S, tangent(-1))"].weights[1],
        "no invariant in Ext^1(wedge2-cotangent(2), S)": all(
            w != ZERO6 for w, _ in tables["Ext(wedge2-cotangent(2), S)"].weights[1]
        ),
    }
    failed = [name for name, good in geometry.items() if not good]
    expected = dict(zip(pairs, (78, 1, 1)))
    ok = not mismatches and not failed and first == expected
    report(5, "intermediate Ext^1 = 78, 1, 1 by two routes and the normal sequence", ok)
    assert not mismatches, mismatches
    assert not failed, failed
    assert first == expected, first


def test_criterion_6_tensor_cross_check(cayley, e6, e6_levi):
    coll = builtin_collection("cayley27")
    mismatches = 0
    checked = 0
    for a in coll.bundles:
        da = bundle_dual(cayley, a)
        ca = irrep_character(e6, e6_levi, da)
        for b in coll.bundles:
            direct = levi_tensor(cayley, da, b)
            oracle = strip_full_support(
                e6, e6_levi, char_mul(ca, irrep_character(e6, e6_levi, b))
            )
            checked += 1
            if direct != oracle:
                mismatches += 1
    rng = random.Random(2026)
    sample = partial(
        random_l_dominant, rng, e6, 1, 3000, partial(bundle_rank, cayley)
    )
    small = partial(
        random_l_dominant, rng, e6, 1, 60, partial(bundle_rank, cayley)
    )
    for _ in range(100):
        a, b = small(), sample()
        direct = levi_tensor(cayley, a, b)
        oracle = strip_full_support(
            e6,
            e6_levi,
            char_mul(
                irrep_character(e6, e6_levi, a), irrep_character(e6, e6_levi, b)
            ),
        )
        checked += 1
        if direct != oracle:
            mismatches += 1
    ok = mismatches == 0 and checked == 729 + 100
    report(6, f"two tensor routes agree on {checked} pairs", ok)
    assert ok, f"{mismatches} mismatches in {checked} pairs"


def test_criterion_7_cohomology_structural_invariants(cayley, e6, cayley27_report):
    full = Subsystem.full(6)
    rho_shift = lambda w: tuple(x + 1 for x in w)
    coll = cayley27_report.collection

    # every irreducible summand met during the flagship verification obeys
    # the one-degree law, the Euler product, and the inversion-count rule
    summands = set()
    for a in coll.bundles:
        da = bundle_dual(cayley, a)
        for b in coll.bundles:
            summands.update(w for w, _ in levi_tensor(cayley, da, b))
    assert len(summands) > 100
    for w in summands:
        res = cohomology(cayley, w)
        chi = euler_characteristic(e6, w)
        if res.is_zero:
            assert chi == 0, w
            assert not is_regular(e6, full, rho_shift(w)), w
        else:
            assert res.degree is not None
            assert chi == (-1) ** res.degree * res.dim, w
            assert res.degree == inversion_count(e6, full, rho_shift(w)), w
            assert res.dim == weyl_dim(e6, full, res.g_weight), w

    # Serre duality on random pairs drawn from the collection
    rng = random.Random(77)
    for _ in range(50):
        a = rng.choice(coll.bundles)
        b = rng.choice(coll.bundles)
        left = ext_table(cayley, a, b)
        right = ext_table(cayley, b, twist(cayley, a, -cayley.index))
        assert left.dims == right.dims[::-1], (a, b)

    # Freudenthal character totals match the Weyl dimension formula on
    # the full-system fundamentals and on every weight in the collection
    fundamental_dims = (27, 351, 2925, 78, 351, 27)
    for j, w in enumerate(W):
        ch = irrep_character(e6, full, w)
        assert sum(ch.values()) == weyl_dim(e6, full, w) == fundamental_dims[j]
    levi = cayley.levi
    for w in coll.bundles:
        ch = irrep_character(e6, levi, w)
        assert sum(ch.values()) == weyl_dim(e6, levi, w), w

    report(7, "one-degree law, Euler products, Serre duality", True)

"""Weyl dimensions, Freudenthal characters, plethysms and decomposition."""

import ast
import random
from functools import cache, partial
from itertools import combinations
from pathlib import Path

import pytest

import weylbott.characters as characters
from weylbott import CartanMatrix, RootSystem, Subsystem, get_preset
from weylbott.characters import (
    MAX_SUPPORT,
    char_add,
    char_dim,
    char_dual,
    char_mul,
    char_twist,
    decompose,
    irrep_character,
    orbit_size,
    power_op,
    weyl_dim,
)
from weylbott.errors import GuardrailExceeded, NotDecomposable, NotDominant
from weylbott.parabolic import bundle_rank, levi_tensor, make_setup

from oracles import (
    char_scale,
    char_sub,
    from_components,
    newton_power,
    orbit_sum_character,
    random_l_dominant,
    strip_full_support,
)
from test_lie_core import weyl_orbit

W = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
ZERO6 = (0,) * 6

E6_FUNDAMENTAL_DIMS = (27, 351, 2925, 78, 351, 27)
LEVI_FUNDAMENTAL_DIMS = {5: 10, 4: 45, 2: 120, 3: 16, 1: 16}  # 0-based node -> dim


def binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# -- dimensions ---------------------------------------------------------------


def test_e6_fundamental_dims(e6, e6_full):
    assert tuple(weyl_dim(e6, e6_full, w) for w in W) == E6_FUNDAMENTAL_DIMS


def test_levi_fundamental_dims(e6, e6_levi):
    for node0, dim in LEVI_FUNDAMENTAL_DIMS.items():
        assert weyl_dim(e6, e6_levi, W[node0]) == dim
    # crossed coordinate never changes a Levi rank
    assert weyl_dim(e6, e6_levi, (-9, 0, 0, 0, 0, 1)) == 10


def test_dim_of_zero_weight(e6, e6_full, e6_levi):
    assert weyl_dim(e6, e6_full, ZERO6) == 1
    assert weyl_dim(e6, e6_levi, ZERO6) == 1


def test_dim_requires_dominance(e6, e6_full):
    with pytest.raises(NotDominant):
        weyl_dim(e6, e6_full, (0, -1, 0, 0, 0, 0))


def test_dim_checks_every_weight_after_a_valid_one():
    # a weight that compares equal to one already answered, or a neighbour of
    # it, is checked all the same: short, long, non-dominant, float and list
    rs = RootSystem(get_preset("E6-paper"))
    levi = Subsystem.levi(6, 1)
    lam = (-2, 0, 0, 0, 0, 1)
    assert weyl_dim(rs, levi, lam) == 10
    for wrong in (lam[:5], lam + (0,)):
        with pytest.raises(ValueError, match="weight has length"):
            weyl_dim(rs, levi, wrong)
    with pytest.raises(NotDominant):
        weyl_dim(rs, levi, (-2, 0, 0, 0, -1, 1))
    with pytest.raises(ValueError, match="integer coordinates"):
        weyl_dim(rs, levi, (-2.0, 0, 0, 0, 0, 1))
    assert weyl_dim(rs, levi, list(lam)) == 10
    ch = irrep_character(rs, levi, lam)
    ch[lam] = 99
    assert irrep_character(rs, levi, lam)[lam] == 1


@pytest.mark.parametrize("lam", [(1.5, 0), (2.9, 0), ("1", 0)])
def test_non_integer_weight_is_refused(lam):
    # truncating would answer for a neighbouring weight: (1.5, 0) as (1, 0)
    rs = RootSystem(get_preset("A2"))
    setup = make_setup(rs, 1)
    for call in (
        partial(weyl_dim, rs, rs.full),
        partial(irrep_character, rs, rs.full),
        partial(levi_tensor, setup, (0, 0)),
        lambda w: levi_tensor(setup, w, (0, 0)),
    ):
        with pytest.raises(ValueError, match="integer coordinates"):
            call(lam)


# -- irreducible characters -----------------------------------------------------


def test_trivial_character(e6, e6_full):
    assert irrep_character(e6, e6_full, ZERO6) == {ZERO6: 1}


def test_vector_character_weights(e6, e6_levi):
    ch = irrep_character(e6, e6_levi, W[5])
    assert char_dim(ch) == 10
    assert all(m == 1 for m in ch.values())
    assert ch[W[5]] == 1


def test_character_totals_match_weyl_dim(e6, e6_full, e6_levi):
    for j, w in enumerate(W):
        assert char_dim(irrep_character(e6, e6_full, w)) == E6_FUNDAMENTAL_DIMS[j]
    for node0, dim in LEVI_FUNDAMENTAL_DIMS.items():
        assert char_dim(irrep_character(e6, e6_levi, W[node0])) == dim


def test_adjoint_character_structure(e6, e6_full):
    ch = irrep_character(e6, e6_full, W[3])
    assert ch[ZERO6] == 6  # Cartan subalgebra
    assert char_dim(ch) == 78
    nonzero = {w: m for w, m in ch.items() if w != ZERO6}
    assert all(m == 1 for m in nonzero.values())
    assert set(nonzero) == {r.weight for r in e6.positive_roots} | {
        tuple(-x for x in r.weight) for r in e6.positive_roots
    }


def test_character_weyl_invariance(e6, e6_full):
    ch = irrep_character(e6, e6_full, (1, 0, 0, 0, 0, 1))
    rng = random.Random(3)
    for w, m in list(ch.items())[:50]:
        i = rng.randint(1, 6)
        assert ch[e6.reflect(i, w)] == m


@pytest.mark.parametrize(
    "preset,sub_nodes,lam",
    [
        ("A2", None, (2, 1)),
        ("A2", None, (3, 0)),
        ("B3", None, (0, 0, 1)),
        ("B3", None, (1, 0, 1)),
        ("D5", None, (1, 0, 0, 0, 0)),
        ("D5", None, (0, 0, 0, 1, 0)),
    ],
)
def test_freudenthal_against_orbit_sums(preset, sub_nodes, lam):
    rs = RootSystem(get_preset(preset))
    sub = Subsystem.full(rs.rank)
    assert irrep_character(rs, sub, lam) == orbit_sum_character(rs, sub, lam)


def test_freudenthal_against_orbit_sums_levi(e6, e6_levi):
    for lam in [W[5], W[3], (-1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2)]:
        assert irrep_character(e6, e6_levi, lam) == orbit_sum_character(e6, e6_levi, lam)


def test_freudenthal_minuscule_is_single_orbit(e6, e6_full):
    # the 27 is minuscule: its character is one Weyl orbit, all multiplicities 1
    assert irrep_character(e6, e6_full, W[5]) == {
        w: 1 for w in weyl_orbit(e6, e6_full, W[5])
    }


def test_weyl_orbit_sizes(e6, e6_full, e6_levi):
    assert len(weyl_orbit(e6, e6_full, W[5])) == 27  # minuscule: one orbit
    assert len(weyl_orbit(e6, e6_levi, W[5])) == 10
    assert weyl_orbit(e6, e6_full, ZERO6) == [ZERO6]


def test_cache_toggle():
    """A cold and a warm per-root-system memo agree; results are private copies."""
    rs = RootSystem(get_preset("E6-paper"))
    full = Subsystem.full(6)
    assert rs.memo == {}  # a fresh root system is cold
    a = irrep_character(rs, full, W[0])
    assert set(rs.memo) == {full.nodes}
    assert set(rs.sub_roots(full).chars) == {W[0]}
    b = irrep_character(rs, full, W[0])
    assert a == b == irrep_character(RootSystem(get_preset("E6-paper")), full, W[0])
    # returned dicts are private copies: mutating one must not leak
    a[ZERO6] = 99
    assert irrep_character(rs, full, W[0]) == b != a


def unit(rank, node):
    return tuple(int(i == node - 1) for i in range(rank))


# (Cartan matrix, subsystem nodes, parts): a part is zero off the nodes, and a
# twist moves the coordinates there, which pair to 0 with every coroot of the
# subsystem.  A1/P1's Levi has no roots, and E6 nodes (2, 3, 4) leave three off.
TWIST_CASES = {
    "E6-P1": (get_preset("E6-paper"), (2, 3, 4, 5, 6), [ZERO6, W[5], W[3]]),
    "D5-P5": (get_preset("D5"), (1, 2, 3, 4), [(0,) * 5, *(unit(5, j) for j in (1, 2, 3, 4)), (1, 0, 0, 1, 0)]),
    "A1-P1": (CartanMatrix([[2]]), (), [(0,)]),
    "E6-nodes-2-4": (get_preset("E6-paper"), (2, 3, 4), [ZERO6, W[1], W[2], W[3], (0, 1, 0, 1, 0, 0)]),
}


def twists(rank, nodes):
    """Shifts t at each node off the subsystem, t = -3..3, one node after another."""
    off = [j for j in range(1, rank + 1) if j not in nodes]
    return [tuple(t * x for x in unit(rank, j)) for j in off for t in range(-3, 4) if t]


@cache
def twisted_orbit_sums(name, lam):
    """The oracle's character of lam in a case of TWIST_CASES, once for both orders."""
    cartan, nodes, _ = TWIST_CASES[name]
    return orbit_sum_character(RootSystem(cartan), Subsystem(nodes), lam)


@pytest.mark.parametrize("part_first", [True, False], ids=["part-first", "part-last"])
@pytest.mark.parametrize("name", TWIST_CASES)
def test_twisted_character_matches_orbit_sums(name, part_first):
    # one Freudenthal run per part: each twist is served as a shift of it,
    # whether the part was asked for first or only after its twists
    cartan, nodes, parts = TWIST_CASES[name]
    rs = RootSystem(cartan)
    sub = Subsystem(nodes)
    chars = rs.sub_roots(sub).chars
    shifts = twists(rs.rank, nodes)
    for k, part in enumerate(parts):
        lams = [tuple(map(sum, zip(part, s))) for s in shifts]
        order = [part, *lams] if part_first else [*lams, part]
        for lam in order:
            assert irrep_character(rs, sub, lam) == twisted_orbit_sums(name, lam), lam
        assert list(chars) == parts[: k + 1]  # one key per part, however many twists
    if not nodes:
        assert all(irrep_character(rs, sub, (t,)) == {(t,): 1} for t in range(-3, 4))


def test_twisted_character_is_a_private_copy():
    rs = RootSystem(get_preset("D5"))
    sub = Subsystem.levi(5, 5)
    part = (1, 0, 0, 0, 0)
    first = irrep_character(rs, sub, (1, 0, 0, 0, 3))
    want = dict(first)
    first[(1, 0, 0, 0, 3)] = 99
    first[(9, 9, 9, 9, 9)] = 1
    assert irrep_character(rs, sub, (1, 0, 0, 0, 3)) == want
    assert irrep_character(rs, sub, part) == char_twist(want, 5, -3)
    assert list(rs.sub_roots(sub).chars) == [part]


def test_twisted_weight_past_the_bound_is_refused_before_freudenthal(monkeypatch):
    def no_freudenthal(*args):
        raise AssertionError("Freudenthal ran on an input over the support bound")

    monkeypatch.setattr(characters, "_freudenthal", no_freudenthal)
    monkeypatch.setattr(characters, "MAX_SUPPORT", 1000)
    rs = RootSystem(get_preset("E6-paper"))
    levi = Subsystem.levi(6, 1)
    # the part (0, 1, 1, 0, 0, 1) has support 1376 on D5; its twists share it
    for t in (-5, 4):
        with pytest.raises(GuardrailExceeded):
            irrep_character(rs, levi, (t, 1, 1, 0, 0, 1))
    assert rs.sub_roots(levi).chars == {}


# -- ring operations --------------------------------------------------------------


def test_char_arithmetic_basics(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    one = {ZERO6: 1}
    assert char_add(s, {}) == s
    assert char_sub(s, s) == {}
    assert char_mul(s, one) == s
    assert char_scale(s, 3) == {w: 3 * m for w, m in s.items()}
    assert char_dim(char_mul(s, s)) == 100
    t = irrep_character(e6, e6_levi, W[3])
    assert char_mul(s, t) == char_mul(t, s)


def test_char_mul_zero_multiplicity():
    # a zero in a factor contributes nothing; it must not raise KeyError
    assert char_mul({(0,): 0}, {(1,): 1}) == {}
    assert char_mul({(0,): 0, (1,): 2}, {(1,): 1}) == {(2,): 2}


def naive_mul(a, b):
    """Every product term summed, then the zero sums dropped, and how many there were."""
    out = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            out[w] = out.get(w, 0) + ma * mb
    return {w: m for w, m in out.items() if m}, sum(not m for m in out.values())


def test_char_mul_matches_naive_product_on_virtual_characters():
    # signed multiplicities on a small box, zero entries included, so many sums
    # cancel; (1 - e^v)(1 + e^v) = 1 - e^2v cancels at v in every trial
    rng = random.Random(12)
    cancelled = 0
    for _ in range(60):
        rank = rng.randint(1, 3)
        box = partial(rng.randint, -2, 2)
        a, b = ({tuple(box() for _ in range(rank)): rng.choice([-3, -1, 0, 1, 2]) for _ in range(6)} for _ in range(2))
        v = tuple(box() or 1 for _ in range(rank))
        zero = (0,) * rank
        for x, y in ((a, b), (b, a), ({zero: 1, v: -1}, {zero: 1, v: 1}), (a, {})):
            want, zeros = naive_mul(x, y)
            cancelled += zeros
            got = char_mul(x, y)
            assert got == want and 0 not in got.values(), (x, y)
    assert cancelled > 100


def test_char_twist_and_dual(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    assert char_twist(s, 1, 0) == s
    assert char_twist(char_twist(s, 1, 5), 1, -5) == s
    assert char_dual(char_dual(s)) == s
    # rank-10 factor is self-dual up to a twist
    assert char_dual(s) == char_twist(s, 1, -1)


def test_guardrail(e6):
    big = {(i, j, 0, 0, 0, 0): 1 for i in range(1100) for j in range(1000)}
    with pytest.raises(GuardrailExceeded):
        char_mul(big, {(0, 1, 0, 0, 0, 0): 1, (1, 0, 0, 0, 0, 0): 1})
    assert len(big) > MAX_SUPPORT  # the input itself was over the line


@pytest.mark.parametrize(
    "preset,crossed,lam",
    [
        ("E6-paper", None, (0, 0, 0, 0, 0, 1)),
        ("E6-paper", None, (0, 0, 0, 1, 0, 0)),
        ("E6-paper", None, (1, 0, 0, 0, 0, 1)),
        ("E6-paper", 1, (-1, 0, 0, 0, 0, 2)),
        ("E6-paper", 1, (3, 0, 1, 0, 0, 1)),
        ("B4", None, (1, 1, 0, 1)),
        ("B4", None, (0, 0, 1, 2)),
        ("B4", 1, (0, 2, 0, 1)),
    ],
)
def test_support_from_orbit_sizes(preset, crossed, lam):
    # the support the guardrail bounds is the support Freudenthal then builds
    rs = RootSystem(get_preset(preset))
    sub = Subsystem.full(rs.rank) if crossed is None else Subsystem.levi(rs.rank, crossed)
    dom = characters._dominant_weights(rs, sub, lam)
    ch = irrep_character(rs, sub, lam)
    assert sum(orbit_size(rs, sub, nu) for nu in dom) == len(ch)
    for nu in dom:
        assert orbit_size(rs, sub, nu) == len(weyl_orbit(rs, sub, nu))


def test_guardrail_fires_before_freudenthal(monkeypatch):
    def no_freudenthal(*args):
        raise AssertionError("Freudenthal ran on an input over the support bound")

    monkeypatch.setattr(characters, "_freudenthal", no_freudenthal)
    rs = RootSystem(get_preset("E6-paper"))
    with pytest.raises(GuardrailExceeded):
        irrep_character(rs, Subsystem.full(6), (12, 0, 0, 0, 0, 0))
    assert [sr.chars for sr in rs.memo.values()] == [{}]


@pytest.mark.parametrize(
    "top",
    [(0,) * 5, (0,) * 7, (0.5, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0)],
    ids=["one short", "one long", "non-integer", "non-dominant"],
)
def test_brauer_klimyk_refuses_a_bad_top_before_any_walk(top):
    rs = RootSystem(get_preset("E6-paper"))
    c = irrep_character(rs, rs.full, W[0])
    walks = []
    walk = rs.dotted_to_dominant
    rs.dotted_to_dominant = lambda sub, lam: walks.append(lam) or walk(sub, lam)
    with pytest.raises((ValueError, NotDominant)):
        characters.brauer_klimyk(rs, rs.full, c, top)
    assert walks == []


# -- plethysms ----------------------------------------------------------------------


def test_power_op_degenerate_cases(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    assert power_op(s, 0, "wedge") == {ZERO6: 1}
    assert power_op(s, 1, "wedge") == s
    assert power_op(s, 1, "sym") == s
    assert power_op(s, 11, "wedge") == {}  # beyond the rank
    line = {(2, 0, 0, 0, 0, 0): 1}
    assert power_op(line, 3, "sym") == {(6, 0, 0, 0, 0, 0): 1}
    assert power_op(line, 2, "wedge") == {}
    with pytest.raises(ValueError):
        power_op(char_scale(s, -1), 2, "wedge")
    with pytest.raises(ValueError):
        power_op(s, 2, "cube")


def test_power_op_dimension_counts(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    for k in range(5):
        assert char_dim(power_op(s, k, "wedge")) == binomial(10, k)
        assert char_dim(power_op(s, k, "sym")) == binomial(10 + k - 1, k)


def test_wedge_powers_of_vector_bundle(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    expected = {1: W[5], 2: W[4], 3: W[2], 4: (0, 1, 0, 1, 0, 0)}
    for k, top in expected.items():
        assert decompose(e6, e6_levi, power_op(s, k, "wedge")) == [(top, 1)]


def test_binomial_identity_wedge_sym(e6, e6_levi):
    # sum_k (-1)^k e_k h_{n-k} = 0 for n >= 1: the wedge series at -t inverts the sym series
    s = irrep_character(e6, e6_levi, W[3])
    n = 3
    acc = {}
    for k in range(n + 1):
        term = char_mul(power_op(s, k, "wedge"), power_op(s, n - k, "sym"))
        acc = char_add(acc, char_scale(term, (-1) ** k))
    assert acc == {}



@pytest.mark.parametrize("kind", ["wedge", "sym"])
def test_power_op_matches_newton_on_ledger_bundles(e6, e6_levi, kind):
    # the ledger's S, its dual, T and Omega
    s = irrep_character(e6, e6_levi, W[5])
    tangent = irrep_character(e6, e6_levi, W[3])
    omega = irrep_character(e6, e6_levi, (-2, 1, 0, 0, 0, 0))
    for c in (s, char_dual(s), tangent, omega):
        for k in range(5):
            assert power_op(c, k, kind) == newton_power(c, k, kind), k


def test_power_op_matches_newton_on_random_characters():
    rng = random.Random(8)
    for _ in range(60):
        rank = rng.randint(1, 3)
        c = {}
        for _ in range(rng.randint(1, 5)):
            c[tuple(rng.randint(-3, 3) for _ in range(rank))] = rng.randint(1, 4)
        for kind in ("wedge", "sym"):
            for k in range(5):
                assert power_op(c, k, kind) == newton_power(c, k, kind), (c, k, kind)


def test_power_op_work_bound(monkeypatch):
    # the running count stops a wide character; a lowered bound keeps the test quick
    monkeypatch.setattr(characters, "MAX_SUPPORT", 1000)
    with pytest.raises(GuardrailExceeded, match="passes the work bound 1000 at sym"):
        power_op({(i, 0): 1 for i in range(100)}, 2, "sym")
    assert char_dim(power_op({(i, 0): 1 for i in range(10)}, 2, "sym")) == 55


def test_sym_power_of_two_weights_is_not_refused():
    # sym^k of two weights has k + 1 weights; the dimension is k + 1
    c = {(1, 0, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0, 0): 1}
    assert char_dim(power_op(c, 200, "sym")) == 201


# -- decomposition ----------------------------------------------------------------


def test_decompose_round_trip(e6, e6_levi):
    comps = [((0, 0, 0, 0, 0, 2), 2), ((2, 0, 0, 0, 1, 0), 1), ((-1, 0, 0, 0, 0, 0), 5)]
    ch = from_components(e6, e6_levi, comps)
    assert decompose(e6, e6_levi, ch) == sorted(
        comps, key=lambda t: (e6.height_of(t[0]), t[0])
    )


def test_decompose_tensor_square(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    comps = decompose(e6, e6_levi, char_mul(s, s))
    assert set(comps) == {
        ((1, 0, 0, 0, 0, 0), 1),
        ((0, 0, 0, 0, 1, 0), 1),
        ((0, 0, 0, 0, 0, 2), 1),
    }


def test_decompose_rejects_virtual(e6, e6_levi):
    with pytest.raises(NotDecomposable):
        decompose(e6, e6_levi, {W[5]: -1})
    # the diagnostic mode accepts any integer combination of irreducibles
    s = irrep_character(e6, e6_levi, W[5])
    virt = char_sub(s, char_scale({ZERO6: 1}, 2))
    assert decompose(e6, e6_levi, virt, virtual=True) == [(ZERO6, -2), (W[5], 1)]
    # invariant, so only the negative coefficient refuses it
    with pytest.raises(NotDecomposable, match="negative multiplicity -2"):
        decompose(e6, e6_levi, virt)


def test_decompose_zero_entry_hides_no_orphan(e6, e6_levi):
    # dropping a weight mu leaves its mirrors without a partner; a zero entry
    # at 2 mu, with the sign pattern of mu, must not stand in for it
    s = irrep_character(e6, e6_levi, W[5])
    for mu in s:
        if any(mu[i - 1] for i in e6_levi.nodes) and tuple(2 * x for x in mu) not in s:
            bad = {w: m for w, m in s.items() if w != mu}
            bad[tuple(2 * x for x in mu)] = 0
            with pytest.raises(NotDecomposable, match="has 0$"):
                decompose(e6, e6_levi, bad)


def test_decompose_rejects_asymmetric(e6, e6_levi):
    s = irrep_character(e6, e6_levi, W[5])
    bad = dict(s)
    top = max(bad, key=lambda w: (e6.height_of(w), w))
    del bad[top]
    with pytest.raises(NotDecomposable):
        decompose(e6, e6_levi, bad)
    # S's only dominant weight is its top weight, so dropping or changing any
    # other weight keeps the maximal weight dominant with multiplicity 1
    low = min(s, key=e6.sort_key)
    assert not e6.is_dominant(e6_levi, low)
    for bad in ({w: m for w, m in s.items() if w != low}, {**s, low: 2}):
        assert max(bad, key=e6.sort_key) == W[5] and bad[W[5]] == 1
        for virtual in (False, True):
            with pytest.raises(NotDecomposable):
                decompose(e6, e6_levi, bad, virtual=virtual)
            with pytest.raises(NotDecomposable):
                strip_full_support(e6, e6_levi, bad, virtual=virtual)
    # a zero multiplicity is ignored wherever it sits: above the top, dominant or not
    padded = {**s, (0, 0, 0, 0, 0, 2): 0, (0, 0, 0, 0, 0, -3): 0, ZERO6: 0}
    for virtual in (False, True):
        assert decompose(e6, e6_levi, padded, virtual=virtual) == [(W[5], 1)]


# The engine sums one dotted walk per weight (Brauer-Klimyk); tests/oracles.py
# strips the whole support with orbit-expanded characters, highest weight first.

E6_SMALL_DOMINANT = [
    tuple(1 if i in ones else 0 for i in range(6))
    for k in range(3)
    for ones in combinations(range(6), k)
]


@pytest.mark.parametrize("crossed", [1, 6])
def test_decompose_matches_oracle_on_branching(e6, e6_full, crossed):
    levi = Subsystem.levi(6, crossed)
    for lam in E6_SMALL_DOMINANT:
        ch = irrep_character(e6, e6_full, lam)
        comps = decompose(e6, levi, ch)
        assert comps == strip_full_support(e6, levi, ch), lam
        assert sum(m * weyl_dim(e6, levi, w) for w, m in comps) == weyl_dim(e6, e6_full, lam)


@pytest.mark.parametrize("preset,crossed", [("E6-paper", 1), ("D5", 5), ("B4", 1)])
def test_decompose_matches_oracle_on_products(preset, crossed):
    rs = RootSystem(get_preset(preset))
    setup = make_setup(rs, crossed)
    levi = setup.levi
    rng = random.Random(10 + crossed)
    draw = partial(random_l_dominant, rng, rs, crossed, 200, partial(bundle_rank, setup))
    for _ in range(12):
        a, b, c, d = (irrep_character(rs, levi, draw()) for _ in range(4))
        prod = char_mul(a, b)
        comps = decompose(rs, levi, prod)
        assert comps == strip_full_support(rs, levi, prod)
        assert from_components(rs, levi, comps) == prod
        diff = char_sub(prod, char_mul(c, d))
        comps = decompose(rs, levi, diff, virtual=True)
        assert comps == strip_full_support(rs, levi, diff, virtual=True)
        assert from_components(rs, levi, comps) == diff


def test_decompose_expands_no_orbit(e6, e6_full, e6_levi, monkeypatch):
    ch = irrep_character(e6, e6_full, (0, 0, 1, 0, 0, 0))
    expected = strip_full_support(e6, e6_levi, ch)

    def refuse(*args):
        raise AssertionError("decompose expanded a Weyl orbit or ran Freudenthal")

    for name in ("irrep_character", "_dominant_weights", "_freudenthal"):
        monkeypatch.setattr(characters, name, refuse)
    assert decompose(e6, e6_levi, ch) == expected


def test_oracles_do_not_import_decompose():
    # neither decompose nor the Brauer-Klimyk sum it shares with levi_tensor,
    # nor the Weyl-group kernels under them: the in-place walk, the dotted
    # walk it takes per weight, the coroot chain and the layered orbit
    engine = {"decompose", "brauer_klimyk", "_walk", "dotted_to_dominant", "sub_roots", "chain_pairings", "orbit_layers"}
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weylbott"):
            assert not engine & {a.name for a in node.names}, node.lineno
        if isinstance(node, ast.Import):
            assert all(not a.name.startswith("weylbott") for a in node.names), node.lineno
        if isinstance(node, ast.Attribute):
            assert node.attr not in engine, node.lineno

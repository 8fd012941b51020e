"""Root generation, reflections, dominance walks and duality."""

import math
import operator
import random
from itertools import chain

import pytest

from weylbott import CartanMatrix, RootSystem, Subsystem, get_preset, preset_names
from weylbott.characters import (
    brauer_klimyk,
    char_mul,
    irrep_character,
    orbit_size,
    weyl_dim,
)
from weylbott.errors import NotDominant, NotFiniteType
from weylbott.presets import cartan_from_obj, cartan_to_obj

from oracles import (
    dominant_chamber,
    inversion_count,
    is_regular,
    orbit_sum_character,
    strip_full_support,
    weyl_dim_product,
)


def weyl_orbit(rs: RootSystem, sub: Subsystem, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The sub-Weyl orbit of lam, sorted: the layers of its dominant conjugate."""
    _, top = rs.make_dominant(sub, lam)
    return sorted(chain.from_iterable(rs.orbit_layers(sub, top)))


W1, W2, W3, W4, W5, W6 = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
ZERO6 = (0,) * 6


# -- construction and positive roots ------------------------------------


@pytest.mark.parametrize(
    "preset,count",
    [("E6-paper", 36), ("E6-bourbaki", 36), ("D5", 20), ("B4", 16), ("B3", 9), ("A2", 3)],
)
def test_positive_root_counts(preset, count):
    rs = RootSystem(get_preset(preset))
    assert len(rs.positive_roots) == count


def test_root_generation_stop_follows_the_rank():
    # A_46 has 1081 positive roots, more than any fixed stop of 1000 allowed;
    # E8 x A1 (rank 9, 121 roots) is more than the 120 a max(n^2, 120) stop allows
    n = 46
    a46 = CartanMatrix(
        [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    )
    assert len(RootSystem(a46).positive_roots) == n * (n + 1) // 2 == 1081
    e8_edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
    rows = [[2 if i == j else 0 for j in range(9)] for i in range(9)]
    for i, j in e8_edges:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
    assert len(RootSystem(CartanMatrix(rows)).positive_roots) == 120 + 1


def test_simple_roots_are_cartan_columns(e6):
    cartan = get_preset("E6-paper")
    simples = [r for r in e6.positive_roots if r.height == 1]
    assert sorted(r.weight for r in simples) == sorted(
        cartan.column(j) for j in range(1, 7)
    )


def test_root_coordinates_consistent(e6):
    # weight coordinates must be the Cartan matrix applied to root coordinates
    cartan = get_preset("E6-paper")
    for r in e6.positive_roots:
        expect = tuple(
            sum(cartan.entries[i][j] * r.simple_coords[j] for j in range(6))
            for i in range(6)
        )
        assert r.weight == expect


def test_coroots_integral_and_normalized(b4):
    for r in b4.positive_roots:
        # <alpha, alpha^vee> = 2 for every root, long or short
        assert sum(e * w for e, w in zip(r.coroot, r.weight)) == 2


def test_levi_root_count(e6, e6_levi):
    assert len(e6.sub_roots(e6_levi).roots) == 20
    crossed = [r for r in e6.positive_roots if r.simple_coords[0] > 0]
    assert len(crossed) == 16
    # the two sets partition all positive roots
    assert len(crossed) + 20 == 36


# -- the weight order --------------------------------------------------------

G2 = CartanMatrix([[2, -1], [-3, 2]])
A1_A2 = CartanMatrix([[2, 0, 0], [0, 2, -1], [0, -1, 2]])


@pytest.mark.parametrize(
    "cartan",
    [get_preset(name) for name in preset_names()] + [G2, A1_A2],
    ids=preset_names() + ["G2", "A1xA2"],
)
def test_height_of_is_twice_the_height(cartan):
    # heights from simple-root coordinates, a route that never reads a coroot
    rs = RootSystem(cartan)
    for r in rs.positive_roots:
        assert rs.height_of(r.weight) == 2 * r.height
    assert rs.height_of(rs.rho) == sum(r.height for r in rs.positive_roots)


# -- the finite-type table ---------------------------------------------------


def _diagram(n, edges):
    """Cartan rows of rank n; an edge (i, j, m) sets a_ij = -1 and a_ji = -m."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        rows[i - 1][j - 1], rows[j - 1][i - 1] = -1, -m
    return rows


def _chain(n, kind="A"):
    # the double edge of B_n makes node n short, as in the B4 preset; C_n is its transpose
    last = {"A": (n - 1, n, 1), "B": (n - 1, n, 2), "C": (n, n - 1, 2)}[kind]
    return _diagram(n, [(i, i + 1, 1) for i in range(1, n - 1)] + [last] * (n > 1))


def _d(n):
    return _diagram(n, [(i, i + 1, 1) for i in range(1, n - 1)] + [(n - 2, n, 1)])


def _e(n):
    return _diagram(n, [(1, 3, 1), (3, 4, 1), (2, 4, 1)] + [(i, i + 1, 1) for i in range(4, n)])


def _direct_sum(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


F4_ROWS = _diagram(4, [(1, 2, 1), (2, 3, 2), (3, 4, 1)])
G2_ROWS = _diagram(2, [(1, 2, 3)])

# (label, rows, positive roots, |W|)
FINITE_TYPES = (
    [(f"A{n}", _chain(n), n * (n + 1) // 2, math.factorial(n + 1)) for n in range(1, 9)]
    + [(f"B{n}", _chain(n, "B"), n * n, 2**n * math.factorial(n)) for n in range(2, 9)]
    + [(f"C{n}", _chain(n, "C"), n * n, 2**n * math.factorial(n)) for n in range(3, 9)]
    + [(f"D{n}", _d(n), n * (n - 1), 2 ** (n - 1) * math.factorial(n)) for n in range(4, 9)]
    # E8 sits exactly on the closure's stop n^2 + 56, which raises only past it
    + [("E6", _e(6), 36, 51840), ("E7", _e(7), 63, 2903040), ("E8", _e(8), 8**2 + 56, 696729600)]
    + [("F4", F4_ROWS, 24, 1152), ("G2", G2_ROWS, 6, 12)]
    + [("E8xE8", _direct_sum(_e(8), _e(8)), 240, 696729600**2)]
    + [("B3xG2", _direct_sum(_chain(3, "B"), G2_ROWS), 15, 48 * 12)]
)


def _oracle_coroot(coords, weight, d):
    """alpha^vee = 2 alpha / (alpha, alpha) in the simple coroots, (alpha_i, alpha_j) = d_i a_ij."""
    norm = sum(c * di * w for c, di, w in zip(coords, d, weight))
    out = []
    for c, di in zip(coords, d):
        e, rem = divmod(2 * c * di, norm)
        assert rem == 0, f"coroot of {coords} is not integral"
        out.append(e)
    return tuple(out)


@pytest.mark.parametrize(
    "rows,count,order", [t[1:] for t in FINITE_TYPES], ids=[t[0] for t in FINITE_TYPES]
)
def test_finite_type_table(rows, count, order):
    rs = RootSystem(CartanMatrix(rows))
    n = rs.rank
    assert len(rs.positive_roots) == count
    assert orbit_size(rs, Subsystem.full(n), rs.rho) == order
    d = rs.sub_roots(rs.full).symmetrizer
    assert math.gcd(*d) == 1 and min(d) > 0
    assert all(d[i] * rows[i][j] == d[j] * rows[j][i] for i in range(n) for j in range(n))
    for r in rs.positive_roots:
        assert r.coroot == _oracle_coroot(r.simple_coords, r.weight, d)
    # each Levi's symmetrizer: symmetrizing, positive and coprime on its nodes, 0 off them
    for c in range(1, n + 1):
        nodes = [i for i in range(n) if i != c - 1]
        d = rs.sub_roots(Subsystem.levi(n, c)).symmetrizer
        assert d[c - 1] == 0
        if nodes:
            assert math.gcd(*(d[i] for i in nodes)) == 1 and min(d[i] for i in nodes) > 0
            assert all(d[i] * rows[i][j] == d[j] * rows[j][i] for i in nodes for j in nodes)
        else:  # the Levi of A1/P1 has no roots
            assert d == (0,)


# (label, rows, crossed node, |W/W_P| = rank K_0(G/P))
K0_RANKS = [
    ("G2/P1", G2_ROWS, 1, 6),
    ("G2/P2", G2_ROWS, 2, 6),
    ("B4/P1", _chain(4, "B"), 1, 8),
    ("C3/P3", _chain(3, "C"), 3, 8),
    ("F4/P4", F4_ROWS, 4, 24),
]


@pytest.mark.parametrize("rows,crossed,rank", [t[1:] for t in K0_RANKS], ids=[t[0] for t in K0_RANKS])
def test_orbit_of_the_crossed_weight_is_the_rank_of_k0(rows, crossed, rank):
    rs = RootSystem(CartanMatrix(rows))
    omega = tuple(int(i == crossed - 1) for i in range(rs.rank))
    assert orbit_size(rs, rs.full, omega) == rank


# Subsystems whose simple factors have different root lengths, so that each
# factor's symmetrizer is scaled on its own: B3 x G2, and the F4 Levi at node 2,
# an A1 beside an A2 of the other root length.  Multiplicities reach 3, and 6 in
# (1, 0, 1, 1, 0), of dimension 672; it and (1, 0, 0, 1, 0) mix the factors.
MIXED = [
    (
        "B3xG2", _direct_sum(_chain(3, "B"), G2_ROWS), None, (2, 2, 1, 3, 1),
        [(0, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 2), (1, 0, 0, 1, 0), (1, 0, 1, 1, 0)],
    ),
    (
        "F4-levi-2", F4_ROWS, 2, (2, 0, 3, 3),
        [(1, 2, 0, 1), (1, 0, 1, 1), (2, -3, 0, 1), (1, 1, 2, 0), (1, 0, 1, 2), (2, -1, 2, 2)],
    ),
]


@pytest.mark.parametrize("rows,crossed,d,weights", [t[1:] for t in MIXED], ids=[t[0] for t in MIXED])
def test_freudenthal_on_factors_of_mixed_length(rows, crossed, d, weights):
    rs = RootSystem(CartanMatrix(rows))
    sub = rs.full if crossed is None else Subsystem.levi(rs.rank, crossed)
    assert rs.sub_roots(sub).symmetrizer == d
    for lam in weights:
        assert irrep_character(rs, sub, lam) == orbit_sum_character(rs, sub, lam), lam


NOT_FINITE = {
    "affine-A1": [[2, -2], [-2, 2]],
    "hyperbolic": [[2, -3], [-3, 2]],
    "affine-E8": _e(9),  # the E8 chain extended by a ninth node
    "affine-G2": _diagram(3, [(1, 2, 1), (2, 3, 3)]),
    "affine-A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
    "not-symmetrizable": [[2, -1, -1], [-2, 2, -1], [-1, -1, 2]],
    "affine-A45": _diagram(46, [(i, i % 46 + 1, 1) for i in range(1, 47)]),  # a 46-cycle
}


def test_not_finite_type_rejected():
    for rows in NOT_FINITE.values():
        with pytest.raises(NotFiniteType, match="not of finite type"):
            RootSystem(CartanMatrix(rows))


def test_invalid_cartan_rejected():
    with pytest.raises(ValueError):
        CartanMatrix([[2, -1], [0, 2]])  # asymmetric zero pattern
    with pytest.raises(ValueError):
        CartanMatrix([[1, 0], [0, 2]])  # bad diagonal
    with pytest.raises(ValueError):
        CartanMatrix([[2, 1], [1, 2]])  # positive off-diagonal
    # an entry that is not an integer is refused, never truncated (to A2 here)
    for bad, rows in ((-1.5, [[2, -1.5], [-1, 2]]), ("-1", [[2, "-1"], [-1, 2]])):
        for given in (rows, tuple(map(tuple, rows))):  # rows as lists or as tuples
            with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}"):
                CartanMatrix(given)


def test_preset_registry_round_trip():
    assert "E6-paper" in preset_names()
    for name in preset_names():
        cartan = get_preset(name)
        assert cartan_from_obj(cartan_to_obj(cartan)).entries == cartan.entries
    with pytest.raises(ValueError):
        get_preset("Z9")


# -- reflections ----------------------------------------------------------


def test_reflect_examples(e6):
    # s_i fixes any weight with zero i-th coordinate
    assert e6.reflect(1, W6) == W6
    # s_i(w_i) = w_i - alpha_i
    a2 = RootSystem(get_preset("A2"))
    assert a2.reflect(1, (1, 0)) == (-1, 1)
    assert a2.reflect(1, (-1, 2)) == (1, 1)


def test_reflect_involution_random(e6):
    rng = random.Random(7)
    for _ in range(50):
        w = tuple(rng.randint(-4, 4) for _ in range(6))
        i = rng.randint(1, 6)
        assert e6.reflect(i, e6.reflect(i, w)) == w


def test_reflect_permutes_roots(e6):
    roots = {r.weight for r in e6.positive_roots}
    signed = roots | {tuple(-x for x in w) for w in roots}
    for i in range(1, 7):
        for w in roots:
            assert e6.reflect(i, w) in signed


# -- dominance walks --------------------------------------------------------


def test_make_dominant_fixed_point(e6, e6_full):
    assert e6.make_dominant(e6_full, e6.rho) == (0, e6.rho)
    assert e6.make_dominant(e6_full, ZERO6) == (0, ZERO6)


def test_make_dominant_longest_element(e6, e6_full):
    # -rho needs the full longest word: one reflection per positive root
    count, dom = e6.make_dominant(e6_full, tuple(-x for x in e6.rho))
    assert (count, dom) == (36, e6.rho)


def test_make_dominant_matches_inversion_count(e6, e6_full, e6_levi):
    rng = random.Random(11)
    for sub in (e6_full, e6_levi):
        for _ in range(60):
            mu = tuple(rng.randint(-5, 5) for _ in range(6))
            if not is_regular(e6, sub, mu):
                continue
            count, dom = e6.make_dominant(sub, mu)
            assert count == inversion_count(e6, sub, mu)
            assert e6.is_dominant(sub, dom)


def test_dotted_action(e6, e6_full, e6_levi):
    # already dominant: zero reflections
    assert e6.dotted_to_dominant(e6_full, W6) == (0, W6)
    # lam + rho singular: no cohomology
    assert e6.dotted_to_dominant(e6_full, tuple(-x for x in e6.rho)) is None
    assert e6.dotted_to_dominant(e6_full, (-1, 0, 0, 0, 0, 0)) is None
    # the anticanonical twist walks to the far chamber
    assert e6.dotted_to_dominant(e6_full, (-12, 0, 0, 0, 0, 0)) == (16, ZERO6)
    # Levi dotted action sees only Levi singularities
    assert e6.dotted_to_dominant(e6_levi, (-7, 0, 0, 0, 0, 0)) == (0, (-7, 0, 0, 0, 0, 0))


def test_dotted_degree_matches_inversions(e6, e6_full):
    rng = random.Random(13)
    for _ in range(80):
        lam = tuple(rng.randint(-6, 4) for _ in range(6))
        shifted = tuple(x + 1 for x in lam)
        res = e6.dotted_to_dominant(e6_full, lam)
        if res is None:
            assert not is_regular(e6, e6_full, shifted)
        else:
            assert res[0] == inversion_count(e6, e6_full, shifted)


# -- the shared Weyl walk, against the oracles --------------------------------


def _subsystems(rs):
    """The full system and the Levi of every crossed node."""
    return [rs.full] + [Subsystem.levi(rs.rank, k) for k in range(1, rs.rank + 1)]


@pytest.mark.parametrize("preset", preset_names())
def test_walks_match_inversions_and_chambers(preset):
    rs = RootSystem(get_preset(preset))
    rng = random.Random(f"walk/{preset}")
    for sub in _subsystems(rs):
        for _ in range(40):
            lam = tuple(rng.randint(-5, 3) for _ in range(rs.rank))
            shifted = tuple(x + 1 for x in lam)
            count, dom = rs.make_dominant(sub, lam)
            assert dom == dominant_chamber(rs, sub, lam)
            if is_regular(rs, sub, lam):
                assert count == inversion_count(rs, sub, lam)
            res = rs.dotted_to_dominant(sub, lam)
            if not is_regular(rs, sub, shifted):
                assert res is None
            else:
                top = tuple(x - 1 for x in dominant_chamber(rs, sub, shifted))
                assert res == (inversion_count(rs, sub, shifted), top)


@pytest.mark.parametrize("preset", preset_names())
def test_orbit_from_any_start_is_the_whole_orbit(preset):
    rs = RootSystem(get_preset(preset))
    rng = random.Random(f"orbit/{preset}")
    for sub in _subsystems(rs):
        tried = 0
        while tried < 6:
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            dom = dominant_chamber(rs, sub, mu)
            if mu == dom or orbit_size(rs, sub, dom) > 2000:
                continue
            tried += 1
            orbit = weyl_orbit(rs, sub, mu)
            assert orbit == weyl_orbit(rs, sub, dom)
            assert mu in orbit and len(orbit) == orbit_size(rs, sub, dom)
            # closed under every simple reflection, not only the lowering ones
            members = set(orbit)
            assert all(rs.reflect(i, w) in members for w in orbit for i in sub.nodes)


@pytest.mark.parametrize("preset", preset_names())
def test_brauer_klimyk_matches_product_and_strip(preset):
    rs = RootSystem(get_preset(preset))
    rng = random.Random(f"bk/{preset}")

    def small(sub):
        while True:
            w = [rng.randint(-2, 2) if i not in sub.nodes else 0 for i in range(1, rs.rank + 1)]
            w[rng.choice(sub.nodes) - 1] += rng.randint(0, 1)
            if weyl_dim(rs, sub, tuple(w)) <= 60:
                return tuple(w)

    for sub in _subsystems(rs):
        for _ in range(2):
            a, b = small(sub), small(sub)
            ca = irrep_character(rs, sub, a)
            expected = strip_full_support(rs, sub, char_mul(ca, irrep_character(rs, sub, b)))
            assert sorted(brauer_klimyk(rs, sub, ca, b).items()) == sorted(expected)


# -- the Weyl-group kernels, against plain per-weight work ----------------------


def _sub_weight(rng, rs, sub, low, high):
    """Coordinates in low..high on the nodes of sub, anything in -high..high off them."""
    return tuple(
        rng.randint(low, high) if i in sub.nodes else rng.randint(-high, high)
        for i in range(1, rs.rank + 1)
    )


@pytest.mark.parametrize("preset", preset_names())
def test_weyl_dim_matches_the_plain_product(preset):
    # the coroot chain against one dot product per coroot, up to coordinates near 10^6
    rs = RootSystem(get_preset(preset))
    rng = random.Random(f"dim/{preset}")
    for sub in _subsystems(rs):
        for high in (3, 10 ** 6):
            for _ in range(12):
                lam = _sub_weight(rng, rs, sub, 0, high)
                assert weyl_dim(rs, sub, lam) == weyl_dim_product(rs, sub, lam), (sub.nodes, lam)


@pytest.mark.parametrize("preset", preset_names())
def test_dotted_to_dominant_matches_per_weight_oracles(preset):
    rs = RootSystem(get_preset(preset))
    rng = random.Random(f"dotted/{preset}")
    for sub in _subsystems(rs):
        base = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
        deltas = [tuple(rng.randint(-4, 2) for _ in range(rs.rank)) for _ in range(30)]
        # base + d + rho = rho is regular, and = 0 is singular on every node
        deltas += [tuple(-x for x in base), tuple(-1 - x for x in base)]
        for d in deltas:
            lam = tuple(x + y for x, y in zip(base, d))
            res = rs.dotted_to_dominant(sub, lam)
            # lam is read once, so a one-pass map, as brauer_klimyk passes, walks the same
            assert rs.dotted_to_dominant(sub, map(operator.add, base, d)) == res
            shifted = tuple(x + 1 for x in lam)
            if is_regular(rs, sub, shifted):
                top = tuple(x - 1 for x in dominant_chamber(rs, sub, shifted))
                assert res == (inversion_count(rs, sub, shifted), top), (sub.nodes, lam)
            else:
                assert res is None, (sub.nodes, lam)


@pytest.mark.parametrize("preset", preset_names())
def test_layered_orbit_is_the_reflection_closure(preset):
    rs = RootSystem(get_preset(preset))
    rng = random.Random(f"layers/{preset}")
    for sub in _subsystems(rs):
        for _ in range(4):
            lam = _sub_weight(rng, rs, sub, 0, 1)
            if orbit_size(rs, sub, lam) > 3000:
                continue
            closure, queue = {lam}, [lam]
            while queue:
                w = queue.pop()
                for i in sub.nodes:
                    nw = rs.reflect(i, w)
                    if nw not in closure:
                        closure.add(nw)
                        queue.append(nw)
            assert weyl_orbit(rs, sub, lam) == sorted(closure), (sub.nodes, lam)
            assert len(closure) == orbit_size(rs, sub, lam)


# -- duality -----------------------------------------------------------------


def test_full_system_duals(e6, e6_full):
    assert e6.dual_dominant(e6_full, W1) == W6
    assert e6.dual_dominant(e6_full, W6) == W1
    assert e6.dual_dominant(e6_full, W2) == W5
    assert e6.dual_dominant(e6_full, W3) == W3
    assert e6.dual_dominant(e6_full, W4) == W4


def test_levi_duals(e6, e6_levi):
    assert e6.dual_dominant(e6_levi, W6) == (-1, 0, 0, 0, 0, 1)
    assert e6.dual_dominant(e6_levi, (0, 0, 0, 0, 0, 2)) == (-2, 0, 0, 0, 0, 2)
    assert e6.dual_dominant(e6_levi, (0, 0, 0, 0, 0, 3)) == (-3, 0, 0, 0, 0, 3)
    assert e6.dual_dominant(e6_levi, W4) == (-2, 1, 0, 0, 0, 0)
    assert e6.dual_dominant(e6_levi, W3) == (-3, 0, 1, 0, 0, 0)


def test_dual_involution_random(e6, e6_levi, e6_full):
    rng = random.Random(17)
    for sub in (e6_levi, e6_full):
        for _ in range(40):
            lam = tuple(rng.randint(0, 3) for _ in range(6))
            if sub is e6_levi:
                lam = (rng.randint(-3, 3),) + lam[1:]
            if not e6.is_dominant(sub, lam):
                continue
            assert e6.dual_dominant(sub, e6.dual_dominant(sub, lam)) == lam


def test_dual_requires_dominance(e6, e6_full):
    with pytest.raises(NotDominant):
        e6.dual_dominant(e6_full, (-1, 0, 0, 0, 0, 0))


def test_b4_short_root_convention(b4):
    # node 4 is short: the last simple root has weight column (0,0,-1,2)
    cartan = get_preset("B4")
    assert cartan.entries[2][3] == -1
    assert cartan.entries[3][2] == -2
    assert b4.sub_roots(b4.full).symmetrizer == (2, 2, 2, 1)

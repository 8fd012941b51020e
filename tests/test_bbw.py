"""Cohomology by the dotted Weyl action, Ext tables, Euler and Serre checks."""

import random
from functools import partial

import pytest

from weylbott import RootSystem, Subsystem, get_preset
from weylbott.bbw import CohomologyResult, cohomology, ext_table
from weylbott.characters import weyl_dim
from weylbott.errors import NotDominant
from weylbott.ledger import Identity, check_identity
from weylbott.parabolic import bundle_dual, bundle_rank, levi_tensor, make_setup, twist
from weylbott.verify import Violation

from oracles import euler_characteristic, inversion_count, is_regular, random_l_dominant

W = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
ZERO6 = (0,) * 6

S = (0, 0, 0, 0, 0, 1)
S_DUAL = (-1, 0, 0, 0, 0, 1)
TANGENT = (0, 0, 0, 1, 0, 0)
COTANGENT = (-2, 1, 0, 0, 0, 0)
COTANGENT2 = (-3, 0, 1, 0, 0, 0)  # wedge^2 of the cotangent bundle


def sample_weight(rng, setup, max_rank=3000, crossed_range=(-14, 6)):
    return random_l_dominant(
        rng,
        setup.rs,
        setup.crossed,
        max_rank,
        partial(bundle_rank, setup),
        crossed_range=crossed_range,
    )


# -- single bundles ------------------------------------------------------------


def test_structure_sheaf(cayley):
    res = cohomology(cayley, ZERO6)
    assert (res.degree, res.g_weight, res.dim) == (0, ZERO6, 1)
    assert not res.is_zero


def test_sections_of_s(cayley):
    res = cohomology(cayley, S)
    assert (res.degree, res.g_weight, res.dim) == (0, W[5], 27)


def test_acyclic_line_bundles(cayley):
    for t in range(-11, 0):
        res = cohomology(cayley, (t, 0, 0, 0, 0, 0))
        assert res.is_zero
        assert res == CohomologyResult(None, None, 0)


def test_canonical_bundle(cayley):
    res = cohomology(cayley, (-12, 0, 0, 0, 0, 0))
    assert (res.degree, res.g_weight, res.dim) == (16, ZERO6, 1)


def test_hodge_diagonal(cayley):
    # H^p of the p-th wedge of the cotangent bundle is one-dimensional
    assert (cohomology(cayley, COTANGENT).degree, cohomology(cayley, COTANGENT).dim) == (1, 1)
    res2 = cohomology(cayley, COTANGENT2)
    assert (res2.degree, res2.g_weight, res2.dim) == (2, ZERO6, 1)


def test_ample_line_bundles_have_sections(cayley, e6, e6_full):
    for t in (1, 2, 5):
        res = cohomology(cayley, (t, 0, 0, 0, 0, 0))
        assert res.degree == 0
        assert res.dim == weyl_dim(e6, e6_full, (t, 0, 0, 0, 0, 0))


def test_cohomology_checks_dominance(cayley):
    with pytest.raises(NotDominant):
        cohomology(cayley, (0, -1, 0, 0, 0, 0))


# -- oracle agreement -----------------------------------------------------------


def test_euler_characteristic_oracle(cayley, e6):
    rng = random.Random(23)
    full = Subsystem.full(6)
    for _ in range(60):
        w = sample_weight(rng, cayley)
        res = cohomology(cayley, w)
        chi = euler_characteristic(e6, w)
        if res.is_zero:
            assert chi == 0
        else:
            assert res.degree is not None
            assert chi == (-1) ** res.degree * res.dim


def test_degree_is_inversion_count(cayley, e6):
    rng = random.Random(29)
    full = Subsystem.full(6)
    rho_shift = lambda w: tuple(x + 1 for x in w)
    for _ in range(60):
        w = sample_weight(rng, cayley)
        res = cohomology(cayley, w)
        if is_regular(e6, full, rho_shift(w)):
            assert res.degree == inversion_count(e6, full, rho_shift(w))
        else:
            assert res.is_zero


# -- Ext tables -------------------------------------------------------------------


def test_ext_o_to_o1(cayley):
    t = ext_table(cayley, ZERO6, (1, 0, 0, 0, 0, 0))
    assert t.dims == [27] + [0] * 16
    assert t.weights[0] == [(W[0], 1)]


def test_ext_endomorphisms_of_s_dual(cayley):
    t = ext_table(cayley, S_DUAL, S_DUAL)
    assert t.dims == [1] + [0] * 16


def test_ext_table_euler_additivity(cayley, e6):
    a, b = S_DUAL, (2, 0, 0, 0, 0, 0)
    t = ext_table(cayley, a, b)
    pieces = levi_tensor(cayley, bundle_dual(cayley, a), b)
    euler = sum((-1) ** k * d for k, d in enumerate(t.dims))
    assert euler == sum(m * euler_characteristic(e6, w) for w, m in pieces)


def test_serre_duality(cayley):
    rng = random.Random(31)
    for _ in range(12):
        a = sample_weight(rng, cayley, max_rank=400, crossed_range=(-6, 6))
        b = sample_weight(rng, cayley, max_rank=400, crossed_range=(-6, 6))
        left = ext_table(cayley, a, b)
        right = ext_table(cayley, b, twist(cayley, a, -cayley.index))
        assert left.dims == right.dims[::-1]


# -- known nonvanishing beyond degree zero -------------------------------------


def test_intermediate_ext_adjoint(cayley):
    # Ext^1 between the wedge-square of the cotangent bundle twisted by 2
    # and S is the full adjoint representation; its trivial part is zero.
    t = ext_table(cayley, twist(cayley, COTANGENT2, 2), S)
    assert t.dims == [0, 78] + [0] * 15
    assert t.weights[1] == [(W[3], 1)]  # no trivial summand at degree 1


def test_intermediate_ext_trivial_class(cayley):
    # Ext^1(S, T_X(-1)) is one-dimensional and comes from the trivial module:
    # the class of the normal sequence of X in P^26, twisted by -1, which does
    # not split (X is not linear) and ends in N(-1) = S
    t = ext_table(cayley, S, (-1, 0, 0, 1, 0, 0))
    assert t.dims == [0, 1] + [0] * 15
    assert t.weights[1] == [(ZERO6, 1)]


def test_intermediate_ext_mixed(cayley):
    t = ext_table(cayley, twist(cayley, COTANGENT2, 2), (-1, 0, 0, 1, 0, 0))
    assert t.dims == [0, 1, 78] + [0] * 14


# -- tables as values ----------------------------------------------------------------


def test_ext_table_merges_repeated_g_module():
    # on the D5/P5 spinor variety, two distinct Levi summands of the tensor
    # product, (0,2,0,0,-4) and (1,0,0,2,-4), both have the trivial module
    # as their Ext^3: one entry of multiplicity 2, dimensions added
    d5 = make_setup(RootSystem(get_preset("D5")), 5)
    a, b = (0, 1, 0, 0, 0), (0, 1, 0, 1, -3)
    summands = [w for w, _ in levi_tensor(d5, bundle_dual(d5, a), b)]
    assert (0, 2, 0, 0, -4) in summands and (1, 0, 0, 2, -4) in summands
    t = ext_table(d5, a, b)
    assert t.dims == [0, 0, 0, 2] + [0] * 7
    assert t.weights[3] == [((0, 0, 0, 0, 0), 2)]


def test_ext_table_equality(cayley):
    a = ext_table(cayley, ZERO6, S)
    assert a == ext_table(cayley, ZERO6, S)
    assert a != ext_table(cayley, ZERO6, (1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda s: ext_table(s, ZERO6, S), "dims"),  # one object shared by every pair of a class
        (lambda s: cohomology(s, S), "degree"),
        (lambda s: Violation((2, 1), 0, 27, "backward morphism"), "dim"),
        (lambda s: check_identity(s, Identity("wrong", "iso", ("O(1)", "O"))), "passed"),
        (lambda s: s.rs.positive_roots[0], "weight"),
        (lambda s: s, "crossed"),
    ],
    ids=["ExtTable", "CohomologyResult", "Violation", "CheckResult", "PositiveRoot", "ParabolicSetup"],
)
def test_records_are_immutable(cayley, make, field):
    record = make(cayley)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))

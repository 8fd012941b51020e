"""End-to-end strong-exceptionality verification and report serialization."""

import json
import math
import random
from functools import partial
from pathlib import Path

import pytest

import weylbott.characters as characters
import weylbott.parabolic as parabolic
import weylbott.presets as presets
import weylbott.verify as verify
from weylbott import CartanMatrix, RootSystem, get_preset
from weylbott.bbw import ExtTable, ext_table
from weylbott.characters import orbit_size
from weylbott.errors import GuardrailExceeded
from weylbott.ledger import builtin_ledger, check_ledger
from weylbott.parabolic import bundle_rank, levi_tensor, make_setup, twist
from weylbott.presets import read_json
from weylbott.verify import (
    Collection,
    VerificationReport,
    Violation,
    _check_pair,
    builtin_collection,
    collection_from_obj,
    collection_to_obj,
    ext_table_to_obj,
    render_report_text,
    report_to_json,
    report_to_obj,
    verify_strong_exceptional,
)

from oracles import per_pair_tables, random_l_dominant, sign_count_dims

ZERO6 = (0,) * 6
S_DUAL = (-1, 0, 0, 0, 0, 1)

# The paper's setup (E6/P1), setups whose crossed node is not node 1 (E6/P6,
# D5/P5), and one whose Levi is not simply laced (B4/P1).
TWIST_SETUPS = (("E6-paper", 1), ("E6-paper", 6), ("D5", 5), ("B4", 1))


def twisted_collection(preset: str, crossed: int, seed: int) -> Collection:
    """Six bundles drawn from three Levi parts, each under a twist in -3..3,
    so that several ordered pairs fall into one twist class."""
    rng = random.Random(seed)
    setup = make_setup(RootSystem(get_preset(preset)), crossed)
    rank = partial(bundle_rank, setup)
    pool = [
        random_l_dominant(rng, setup.rs, crossed, 60, rank, crossed_range=(0, 0))
        for _ in range(3)
    ]
    bundles = tuple(twist(setup, rng.choice(pool), rng.randint(-3, 3)) for _ in range(6))
    return Collection(f"{preset}/P{crossed} seed {seed}", setup, bundles)


# -- small hand-built collections ----------------------------------------------


def test_singleton_structure_sheaf(cayley):
    coll = Collection("one", cayley, (ZERO6,))
    report = verify_strong_exceptional(coll)
    assert report.verdict == "pass"
    assert report.pairs_checked == 1
    assert report.table_for(1, 1).dims[0] == 1


def test_canonical_pair_fails_both_ways(cayley):
    coll = Collection("bad", cayley, (ZERO6, (-12, 0, 0, 0, 0, 0)))
    report = verify_strong_exceptional(coll)
    assert report.verdict == "fail"
    assert report.violations == [
        Violation(pair=(1, 2), degree=16, dim=1, rule="higher forward extension"),
        Violation(pair=(2, 1), degree=0, dim=374332452, rule="backward morphism"),
    ]


def test_line_bundle_pairs(cayley):
    # (O, O(1)) is exceptional; the reversed order has a backward morphism
    good = verify_strong_exceptional(Collection("good", cayley, (ZERO6, (1, 0, 0, 0, 0, 0))))
    assert good.verdict == "pass"
    bad = verify_strong_exceptional(Collection("bad", cayley, ((1, 0, 0, 0, 0, 0), ZERO6)))
    assert bad.verdict == "fail"
    assert bad.violations == [
        Violation(pair=(2, 1), degree=0, dim=27, rule="backward morphism")
    ]


def test_rules_cover_self_pairs(cayley):
    # a two-copy collection fails with non-scalar endomorphisms in Hom
    coll = Collection("dup", cayley, (S_DUAL, S_DUAL))
    report = verify_strong_exceptional(coll)
    assert report.verdict == "fail"
    rules = {v.rule for v in report.violations}
    assert "backward morphism" in rules


# -- the built-in collections ------------------------------------------------------


def test_cayley27_is_strongly_exceptional(cayley27_report):
    report = cayley27_report
    assert report.verdict == "pass"
    assert report.pairs_checked == 729
    assert report.violations == []


def test_cayley27_shape():
    coll = builtin_collection("cayley27")
    assert len(coll.bundles) == 27
    assert coll.blocks == (3, 3, 3) + (2,) * 9
    assert coll.setup.dim_x == 16
    assert coll.bundles[0] == (-2, 0, 0, 0, 0, 2)
    assert coll.bundles[-1] == (11, 0, 0, 0, 0, 0)


def test_cayley27_hom_matrix_unitriangular(cayley27_report):
    report = cayley27_report
    n = 27
    for i in range(1, n + 1):
        assert report.table_for(i, i).dims[0] == 1
        for j in range(1, i):
            assert not any(report.table_for(i, j).dims)


def test_reversed_cayley27_fails():
    coll = builtin_collection("cayley27")
    rev = Collection("reversed", coll.setup, tuple(reversed(coll.bundles)))
    report = verify_strong_exceptional(rev)
    assert report.verdict == "fail"
    assert any(v.rule == "backward morphism" for v in report.violations)


# Metamorphic relations, each a transformation of cayley27 that must keep it
# strongly exceptional and move its Ext tables in a known way: reversing the
# duals, and relabelling the nodes (a diagram automorphism, another labelling).


def test_dual_reversed_cayley27_passes_with_transposed_tables(cayley27_report):
    # Ext(E_a^vee, E_b^vee) = Ext(E_b, E_a), so (E_27^vee, ..., E_1^vee) has at
    # (i, j) the table of the original at (28 - j, 28 - i)
    coll = builtin_collection("cayley27")
    duals = tuple(parabolic.bundle_dual(coll.setup, w) for w in reversed(coll.bundles))
    report = verify_strong_exceptional(Collection("dual reversed", coll.setup, duals))
    assert report.verdict == "pass"
    for i in range(1, 28):
        for j in range(1, 28):
            assert report.table_for(i, j) == cayley27_report.table_for(28 - j, 28 - i), (i, j)


def carried(phi, w):
    """w relabelled by phi: the coordinate at node a moves to node phi[a - 1]."""
    out = [0] * len(w)
    for a, x in zip(phi, w):
        out[a - 1] = x
    return tuple(out)


def carried_entries(phi, entries):
    """A Cartan matrix relabelled by phi: entry (a, b) moves to (phi(a), phi(b))."""
    return [list(carried(phi, row)) for row in carried(phi, entries)]


def assert_tables_carried(report, original, phi):
    """Every pair keeps its dims, and its G-modules are the original's relabelled by phi."""
    for got, want in zip(report.tables, original.tables, strict=True):
        assert got.dims == want.dims
        assert got.weights == [sorted((carried(phi, g), m) for g, m in ws) for ws in want.weights]


def test_diagram_automorphism_carries_cayley27_to_e6_p6(cayley27_report):
    # 1 <-> 6 and 2 <-> 5 fix the Cartan matrix of E6-paper and carry P1 to P6
    phi = (6, 5, 3, 4, 2, 1)
    entries = get_preset("E6-paper").entries
    assert carried_entries(phi, entries) == [list(row) for row in entries]
    coll = builtin_collection("cayley27")
    setup = make_setup(RootSystem(get_preset("E6-paper")), 6)
    report = verify_strong_exceptional(Collection("E6/P6", setup, tuple(carried(phi, w) for w in coll.bundles)))
    assert report.verdict == "pass"
    assert_tables_carried(report, cayley27_report, phi)


def test_relabelling_carries_cayley27_to_e6_bourbaki(cayley27_report):
    # phi = (1->1, 2->3, 3->4, 4->2, 5->5, 6->6) takes E6-paper onto E6-bourbaki
    # and fixes the crossed node
    phi = (1, 3, 4, 2, 5, 6)
    assert carried_entries(phi, get_preset("E6-paper").entries) == [list(r) for r in get_preset("E6-bourbaki").entries]
    coll = builtin_collection("cayley27")
    setup = make_setup(RootSystem(get_preset("E6-bourbaki")), 1)
    report = verify_strong_exceptional(Collection("E6-bourbaki/P1", setup, tuple(carried(phi, w) for w in coll.bundles)))
    assert report.verdict == "pass"
    assert_tables_carried(report, cayley27_report, phi)


def test_kapranov_q7_passes():
    report = verify_strong_exceptional(builtin_collection("kapranovQ7"))
    assert report.verdict == "pass"
    assert report.pairs_checked == 64


def test_kapranov_spinor_rank():
    from weylbott.parabolic import bundle_dual, bundle_rank

    coll = builtin_collection("kapranovQ7")
    sigma = coll.bundles[2]
    assert sigma == (6, 0, 0, 1)
    assert bundle_rank(coll.setup, sigma) == 8
    # the spinor bundle is self-dual up to a twist
    assert bundle_dual(coll.setup, (0, 0, 0, 1)) == (-1, 0, 0, 1)


class PairComputed(Exception):
    pass


def test_size_guardrail_fires_before_any_pair(cayley, monkeypatch):
    # n^2 (dim X + 1) degree entries: 243^2 * 17 = 1,003,833 passes 10^6 and
    # 242^2 * 17 = 995,588 does not; |W/W_P| = 27 on the Cayley plane
    def no_pair(*args):
        raise PairComputed

    monkeypatch.setattr(verify, "levi_tensor", no_pair)
    monkeypatch.setattr(verify, "cohomology_table", no_pair)
    lines = [twist(cayley, ZERO6, t) for t in range(243)]
    with pytest.raises(GuardrailExceeded, match="1003833 degree entries.* more than 27 objects"):
        verify_strong_exceptional(Collection("O(0..242)", cayley, tuple(lines)))
    with pytest.raises(PairComputed):
        verify_strong_exceptional(Collection("O(0..241)", cayley, tuple(lines[:-1])))


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_collection("nope")


# -- hom matrix --------------------------------------------------------------------


def test_hom_matrix_values(cayley):
    report = verify_strong_exceptional(Collection("pair", cayley, (S_DUAL, ZERO6)))
    hom = [[report.table_for(i, j).dims[0] for j in (1, 2)] for i in (1, 2)]
    assert hom == [[1, 27], [0, 1]]


# -- determinism ---------------------------------------------------------------------


def test_report_deterministic_across_memo_states():
    coll = builtin_collection("kapranovQ7")
    memo = coll.setup.rs.memo
    assert memo == {}
    cold = report_to_json(verify_strong_exceptional(coll))
    # a finished run leaves no characters behind
    assert memo == {}
    for a in coll.bundles:
        for b in coll.bundles:
            ext_table(coll.setup, a, b)
    assert any(sr.chars for sr in memo.values())
    warm = report_to_json(verify_strong_exceptional(coll))
    assert memo == {}
    fresh = report_to_json(verify_strong_exceptional(builtin_collection("kapranovQ7")))
    assert cold == warm == fresh


def test_engine_calls_add_no_cache_to_the_root_system():
    # one memo of subsystem records, each with its character memo, is the
    # only cache a root system holds, and no call adds another:
    # a cache keyed by pairs of bundles would grow quadratically for a caller
    # that keeps the root system
    coll = builtin_collection("cayley27")  # the ledger's identities live on E6/P1
    setup, rs = coll.setup, coll.setup.rs
    attrs = set(vars(rs))
    assert {k for k, v in vars(rs).items() if isinstance(v, dict)} == {"memo"}
    a, b = coll.bundles[0], coll.bundles[4]
    levi_tensor(setup, a, b)
    ext_table(setup, a, b)
    check_ledger(setup, builtin_ledger())
    assert set(rs.memo) == {setup.levi.nodes, rs.full.nodes}
    for sr in rs.memo.values():
        assert {k for k, v in sr._asdict().items() if isinstance(v, dict)} == {"chars"}
    verify_strong_exceptional(coll)
    assert set(vars(rs)) == attrs


# -- Ext classes ------------------------------------------------------------------------


def untwisted_classes(coll: Collection) -> int:
    """The number of (a untwisted, b shifted by the same amount) classes: the
    ordered pairs that share a table because O(t) is a line bundle."""
    setup = coll.setup
    c = setup.crossed - 1
    return len({(twist(setup, a, -a[c]), twist(setup, b, -a[c])) for a in coll.bundles for b in coll.bundles})


def checked_report(coll: Collection, tables: list[ExtTable]) -> VerificationReport:
    """The report of coll with these tables, row-major, and the violations they give."""
    n = len(coll.bundles)
    violations = [v for k, t in enumerate(tables) for v in _check_pair(k // n + 1, k % n + 1, t)]
    return VerificationReport(coll, tables, violations)


def naive_report(coll: Collection) -> VerificationReport:
    """The report of the per-pair path: every table computed on its own."""
    return checked_report(coll, per_pair_tables(coll))


def plain_obj(report: VerificationReport) -> dict:
    """The certificate object, built from the report and sharing nothing with the
    writer: the header field by field, and each pair's table converted on its own
    by ext_table_to_obj, so no table or entry object is shared between pairs."""
    coll = report.collection
    n = len(coll.bundles)
    return {
        "collection": collection_to_obj(coll),
        "dim_x": coll.setup.dim_x,
        "index": coll.setup.index,
        "size": n,
        "pairs_checked": len(report.tables),
        "verdict": "fail" if report.violations else "pass",
        "violations": [
            {"pair": list(v.pair), "degree": v.degree, "dim": v.dim, "rule": v.rule}
            for v in report.violations
        ],
        "tables": [
            {"pair": [k // n + 1, k % n + 1], "table": ext_table_to_obj(coll.setup, t)}
            for k, t in enumerate(report.tables)
        ],
    }


def plain_dump(report: VerificationReport) -> str:
    """The certificate as the stock encoder writes it from plain_obj, every table
    converted and written in full at every pair: the oracle for report_to_json,
    which converts and lays out each shared table and entry once."""
    return json.dumps(plain_obj(report), sort_keys=True, indent=2)


def reversed_cayley27() -> Collection:
    coll = builtin_collection("cayley27")
    return Collection("reversed", coll.setup, tuple(reversed(coll.bundles)))


COLLECTIONS = Path(__file__).parent / "collections"
CORPUS = sorted(COLLECTIONS.glob("*.json"))
CERTIFIED = {
    "cayley27": partial(builtin_collection, "cayley27"),
    "kapranovQ7": partial(builtin_collection, "kapranovQ7"),
    "cayley27-reversed": reversed_cayley27,
    **{path.stem: partial(collection_from_obj, read_json(str(path))) for path in CORPUS},
    **{
        f"{p}-P{c}-seed{seed}": partial(twisted_collection, p, c, seed)
        for p, c in TWIST_SETUPS
        for seed in (1, 2)
    },
}


# the entries of CERTIFIED that pass; the rest are a reversed order and random samples
FULL = ["cayley27", "kapranovQ7", *(path.stem for path in CORPUS)]


def k0_rank(setup) -> int:
    """|W/W_P|, the rank of K_0: the orbit size of the crossed fundamental weight."""
    rs = setup.rs
    return orbit_size(rs, rs.full, tuple(int(i == setup.crossed - 1) for i in range(rs.rank)))


@pytest.mark.parametrize("name", FULL)
def test_certified_collection_is_numerically_full(name):
    coll = CERTIFIED[name]()
    assert verify_strong_exceptional(coll).verdict == "pass"
    assert len(coll.bundles) == k0_rank(coll.setup)


def gr2_collection(n: int, blocks: list[int]) -> Collection:
    """S^k U*(t) on Gr(2, n), that is A_{n-1} with node 2 crossed and weight
    (k, t, 0, ..., 0): block t holds k = 0, ..., blocks[t] - 1."""
    rank = n - 1
    cartan = CartanMatrix([[2 if i == j else -(abs(i - j) == 1) for j in range(rank)] for i in range(rank)])
    bundles = tuple((k, t) + (0,) * (rank - 2) for t, size in enumerate(blocks) for k in range(size))
    return Collection(f"Gr(2,{n})", make_setup(RootSystem(cartan), 2), bundles, blocks=tuple(blocks))


def kuznetsov_gr2_blocks(n: int) -> list[int]:
    """Kuznetsov's Lefschetz shape on Gr(2, n), as recalled (Homological projective
    duality for Grassmannians of lines): n odd, n blocks of (O, U*, ..., S^{(n-3)/2} U*);
    n even, n/2 blocks of (O, ..., S^{n/2-1} U*), then n/2 blocks of one fewer.  The
    test below confirms the count and strong exceptionality, not the attribution."""
    if n % 2:
        return [(n - 1) // 2] * n
    return [n // 2] * (n // 2) + [n // 2 - 1] * (n // 2)


@pytest.mark.parametrize("n", range(4, 11))
def test_kuznetsov_gr2n_is_full_and_strongly_exceptional(n):
    coll = gr2_collection(n, kuznetsov_gr2_blocks(n))
    assert verify_strong_exceptional(coll).verdict == "pass"
    assert len(coll.bundles) == k0_rank(coll.setup) == math.comb(n, 2)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_gr2n_even_with_n_full_blocks_is_not_exceptional(n):
    # the negative control: with n even, n blocks of (O, ..., S^{n/2-1} U*) are one
    # object per block too many, and Ext^{n-2}(S^{n/2-1} U*(t + n/2), S^{n/2-1} U*(t))
    # is one-dimensional, a backward morphism, for each t < n/2
    h = n // 2
    report = verify_strong_exceptional(gr2_collection(n, [h] * n))
    last = [(t + 1) * h for t in range(n)]  # 1-based index of S^{h-1} U*(t)
    assert report.violations == [Violation((last[t + h], last[t]), n - 2, 1, "backward morphism") for t in range(h)]


def test_cayley27_less_a_bundle_passes_but_is_not_full():
    coll = builtin_collection("cayley27")
    part = Collection("cayley27 less its last bundle", coll.setup, coll.bundles[:-1])
    assert verify_strong_exceptional(part).verdict == "pass"
    assert (len(part.bundles), k0_rank(coll.setup)) == (26, 27)


@pytest.mark.parametrize("make", list(CERTIFIED.values()), ids=list(CERTIFIED))
def test_memoized_report_matches_per_pair_path(make):
    coll = make()
    report = verify_strong_exceptional(coll)
    # pairs of one class share a table, and so may classes whose factors swap
    assert len({id(t) for t in report.tables}) <= untwisted_classes(coll) < report.pairs_checked
    naive = naive_report(coll)
    n = len(coll.bundles)
    differ = [divmod(k, n) for k, (x, y) in enumerate(zip(report.tables, naive.tables)) if x != y]
    assert differ == []  # 0-based (i, j) of the pairs whose tables differ
    # compared as a bool: a diff of two megabyte strings would take minutes.
    # The plain dump is the oracle of the writer; the per-pair report shares no table.
    text = report_to_json(report)
    same = text == plain_dump(report) == report_to_json(naive) == plain_dump(naive)
    assert same, "the certificates differ"
    # each pair's entry as converted on its own, so a serializer that hands
    # a pair the wrong shared object fails even where no sha256 is pinned
    own = [ext_table_to_obj(coll.setup, t) for t in naive.tables]
    assert [e["table"] for e in json.loads(text)["tables"]] == own


@pytest.mark.parametrize("make", list(CERTIFIED.values()), ids=list(CERTIFIED))
def test_sign_count_gives_every_dims_row(make):
    coll = make()
    assert sign_count_dims(coll) == [t.dims for t in verify_strong_exceptional(coll).tables]


def test_sign_count_on_the_lg36_weights_on_b3():
    # the negative control of the corpus: LG(3,6)'s weights on the transposed
    # matrix, B3; its 10 violations follow from the sign-count rows alone
    obj = json.loads((COLLECTIONS / "samokhin-lg36.json").read_text(encoding="utf-8"))
    obj["cartan"]["entries"] = [list(col) for col in zip(*obj["cartan"]["entries"])]
    coll = collection_from_obj(obj)
    report = verify_strong_exceptional(coll)
    rows = sign_count_dims(coll)
    assert rows == [t.dims for t in report.tables]
    n = len(coll.bundles)
    violations = [v for k, dims in enumerate(rows) for v in _check_pair(k // n + 1, k % n + 1, ExtTable(dims, []))]
    assert violations == report.violations and len(violations) == 10


# the dimension of a backward Hom between a spinor bundle and an O(k) on the
# wrong side of it on Q^8, by how far O(k) stands from the spinors' place, 0 first
Q8_SPINOR_HOM = (16, 144, 720, 2640, 7920, 20592, 48048, 102960)


@pytest.mark.parametrize("t", range(-1, 3))
def test_q8_spinor_placements(t):
    # the negative controls of kapranov-q8.json: the spinor pair S(t), S'(t)
    # inserted at position p among O, ..., O(7) passes exactly when p = t + 1;
    # otherwise a degree-0 morphism runs backward between each spinor and each
    # O(k) on the wrong side of it
    obj = json.loads((COLLECTIONS / "kapranov-q8.json").read_text(encoding="utf-8"))
    lines = obj["bundles"][2:]
    spinors = [{"weight": [t, 0, 0, 1, 0]}, {"weight": [t, 0, 0, 0, 1]}]
    for p in range(9):
        coll = collection_from_obj({**obj, "bundles": lines[:p] + spinors + lines[p:]})
        report = verify_strong_exceptional(coll)
        assert sign_count_dims(coll) == [table.dims for table in report.tables]
        want = [  # O(k) sits at k + 1 before the spinors and at k + 3 after them
            Violation(pair, 0, Q8_SPINOR_HOM[k - t - 1], "backward morphism")
            for k in range(t + 1, p) for pair in ((p + 1, k + 1), (p + 2, k + 1))
        ] + [
            Violation(pair, 0, Q8_SPINOR_HOM[t - k], "backward morphism")
            for k in range(p, t + 1) for pair in ((k + 3, p + 1), (k + 3, p + 2))
        ]
        assert sorted(report.violations) == sorted(want), p
        assert (report.violations == []) == (p == t + 1)


def test_seeded_relabelling_of_lg36():
    # a permutation of the nodes of a non-simply-laced file, applied to the rows
    # and columns of its Cartan matrix, its crossed node and every weight
    obj = json.loads((COLLECTIONS / "samokhin-lg36.json").read_text(encoding="utf-8"))
    phi = tuple(random.Random(5).sample(range(1, 4), 3))
    assert phi[obj["crossed"] - 1] != obj["crossed"]
    moved = {
        "name": "lg36 relabelled",
        "cartan": {"rank": 3, "entries": carried_entries(phi, obj["cartan"]["entries"])},
        "crossed": phi[obj["crossed"] - 1],
        "bundles": [{"weight": list(carried(phi, b["weight"]))} for b in obj["bundles"]],
    }
    original = verify_strong_exceptional(collection_from_obj(obj))
    report = verify_strong_exceptional(collection_from_obj(moved))
    assert original.verdict == report.verdict == "pass"
    assert_tables_carried(report, original, phi)


# Every window of n bundles of the helix (E_1, ..., E_n, E_1(index), ..., E_n(index))
# is exceptional when the collection is: by Serre duality, Ext^m(E_i (x) omega^-1, E_j)
# is dual to Ext^(dim X - m)(E_j, E_i), and omega^-1 = O(index) (Bondal-Polishchuk
# 1993).  So a backward morphism or a bad endomorphism in any window is an engine bug.
# Strongness does not follow; it was measured, and every window has it.
HELIX = ["cayley27", "kapranovQ7", *(path.stem for path in CORPUS)]
EXCEPTIONAL_RULES = {"endomorphisms not scalar", "higher self-extension", "backward morphism"}


@pytest.mark.parametrize("name", HELIX)
def test_every_helix_window_is_strongly_exceptional(name):
    coll = CERTIFIED[name]()
    setup, n = coll.setup, len(coll.bundles)
    helix = coll.bundles + tuple(twist(setup, w, setup.index) for w in coll.bundles)
    report = verify_strong_exceptional(Collection(f"{name} helix", setup, helix))
    for k in range(n):  # the window (H_(k+1), ..., H_(k+n))
        found = [
            v
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for v in _check_pair(i, j, report.table_for(k + i, k + j))
        ]
        assert not [v for v in found if v.rule in EXCEPTIONAL_RULES], (k, found)
        assert found == [], (k, found)


# Names that hold JSON syntax, quotes, escapes and non-ASCII text.
ADVERSARIAL_NAMES = [
    '"table": null',
    '"table": [',
    'a "quoted" name',
    "back\\slash \\\"",
    "two\nlines\n      \"table\": null",
    "Cayley plane \U0001d546\u2119\u00b2, \u03a3^\u03b1 U*",
]


@pytest.mark.parametrize("name", ADVERSARIAL_NAMES, ids=range(len(ADVERSARIAL_NAMES)))
def test_certificate_survives_any_name(cayley, name):
    gr24 = json.loads((COLLECTIONS / "kapranov-gr2-4.json").read_text(encoding="utf-8"))
    collections = [
        Collection(name, cayley, (S_DUAL, ZERO6)),  # pass
        Collection(name, cayley, (ZERO6, S_DUAL)),  # fail, with violations
        collection_from_obj({**gr24, "name": name}),  # cartan form
    ]
    assert collections[2].preset is None
    for coll in collections:
        report = verify_strong_exceptional(coll)
        text = report_to_json(report)
        assert text == plain_dump(report)
        assert json.loads(text) == plain_obj(report)
        assert json.loads(text)["collection"]["name"] == name


@pytest.mark.parametrize("name, entries, distinct", [("cayley27", 12393, 76), ("kapranovQ7", 512, 20)])
def test_equal_degree_entries_are_converted_and_encoded_once(monkeypatch, name, entries, distinct):
    # the reference shares nothing: every row of every pair is its own object
    report = verify_strong_exceptional(builtin_collection(name))
    rows = [entry for pair in plain_obj(report)["tables"] for entry in pair["table"]]
    assert (len(rows), len({id(entry) for entry in rows})) == (entries, entries)
    encode = presets._encode_str
    texts = []
    monkeypatch.setattr(presets, "_encode_str", lambda text: texts.append(text) or encode(text))
    report_to_json(report)
    assert texts.count("degree") == distinct  # the key of each distinct entry, laid out once


def _one_table(real: VerificationReport) -> list[ExtTable]:
    return [real.tables[1]] * len(real.tables)


def _equal_copies(real: VerificationReport) -> list[ExtTable]:
    return [ExtTable(list(t.dims), [list(m) for m in t.weights]) for t in real.tables]


def _modules_differ(real: VerificationReport) -> list[ExtTable]:
    # Hom(O(5), O(6)) is V(w1) in degree 0; its twin holds V(w4) there
    # with the same dimension, so only the G-modules of that degree differ
    table = real.tables[1]
    assert table.weights[0] == [((1, 0, 0, 0), 1)]
    twin = ExtTable(list(table.dims), [[((0, 0, 0, 1), 1)], *table.weights[1:]])
    return [table if k % 3 else twin for k in range(len(real.tables))]


def _all_zero(real: VerificationReport) -> list[ExtTable]:
    d = len(real.tables[0].dims)
    return [ExtTable([0] * d, [[] for _ in range(d)])] * len(real.tables)


def _no_entries(real: VerificationReport) -> list[ExtTable]:
    d = len(real.tables[0].dims)
    return [ExtTable([1] + [0] * (d - 1), [])] * len(real.tables)


def _transposed(real: VerificationReport) -> list[ExtTable]:
    n = len(real.collection.bundles)
    return [real.table_for(j + 1, i + 1) for i in range(n) for j in range(n)]


@pytest.mark.parametrize(
    "tables",
    [_one_table, _equal_copies, _modules_differ, _all_zero, _no_entries, _transposed],
    ids=["one table", "equal copies", "modules differ", "all zero", "no entries", "transposed"],
)
def test_hand_built_report_is_laid_out_as_the_stock_encoder(tables):
    # reports whose pairs share one table, hold equal copies, hold two tables
    # alike but in one degree's G-modules, hold zero tables, hold tables with
    # no entries (the writer's one branch on an empty list), or run backward;
    # each is checked against the stock encoder, and each pair's table against
    # its own conversion, which shares no entry with another table's
    real = verify_strong_exceptional(builtin_collection("kapranovQ7"))
    report = checked_report(real.collection, tables(real))
    text = report_to_json(report)
    assert text == plain_dump(report)
    own = [ext_table_to_obj(real.collection.setup, t) for t in report.tables]
    assert [e["table"] for e in json.loads(text)["tables"]] == own
    assert report.verdict == ("pass" if tables is _equal_copies else "fail")


def differential_collections() -> list[Collection]:
    """Seeded twisted collections on each twist setup (seeds apart from CERTIFIED's),
    cayley27's duals in its own order (the reverse of theirs, so it fails) and
    reversed (so it passes), and every helix window of kapranovQ7."""
    cayley = builtin_collection("cayley27")
    duals = tuple(parabolic.bundle_dual(cayley.setup, w) for w in cayley.bundles)
    q7 = builtin_collection("kapranovQ7")
    helix = q7.bundles + tuple(twist(q7.setup, w, q7.setup.index) for w in q7.bundles)
    n = len(q7.bundles)
    return [
        *(twisted_collection(p, c, seed) for p, c in TWIST_SETUPS for seed in (3, 4, 5)),
        Collection("cayley27 duals", cayley.setup, duals),
        Collection("cayley27 duals reversed", cayley.setup, duals[::-1]),
        *(Collection(f"kapranovQ7 window {k}", q7.setup, helix[k:k + n]) for k in range(n + 1)),
    ]


def test_report_to_json_matches_the_stock_encoder_on_seeded_collections():
    verdicts = set()
    for coll in differential_collections():
        report = verify_strong_exceptional(coll)
        verdicts.add(report.verdict)
        text = report_to_json(report)
        same = text == plain_dump(report)  # a bool: a diff of megabyte strings is slow
        assert same, coll.name
        assert json.loads(text) == plain_obj(report), coll.name
    assert verdicts == {"pass", "fail"}


@pytest.mark.parametrize("preset, crossed", TWIST_SETUPS)
def test_ext_table_depends_on_twist_difference(preset, crossed):
    rng = random.Random(f"{preset}/{crossed}")
    setup = make_setup(RootSystem(get_preset(preset)), crossed)
    rank = partial(bundle_rank, setup)
    for _ in range(12):
        a, b = (random_l_dominant(rng, setup.rs, crossed, 60, rank) for _ in range(2))
        t, s = rng.randint(-3, 3), rng.randint(-3, 3)
        assert ext_table(setup, twist(setup, a, t), twist(setup, b, s)) == ext_table(
            setup, a, twist(setup, b, s - t)
        )


@pytest.mark.parametrize("name, products, classes", [("cayley27", 6, 124), ("kapranovQ7", 3, 24)])
def test_cold_run_makes_one_table_per_ext_class(monkeypatch, name, products, classes):
    # one levi_tensor per unordered pair of untwisted factors, one table per
    # (unordered pair, sum of their twists)
    calls = {"levi_tensor": 0, "cohomology_table": 0}
    for attr in calls:
        true_fn = getattr(verify, attr)

        def counting(*args, true_fn=true_fn, attr=attr):
            calls[attr] += 1
            return true_fn(*args)

        monkeypatch.setattr(verify, attr, counting)
    coll = builtin_collection(name)
    report = verify_strong_exceptional(coll)
    assert report.pairs_checked == len(coll.bundles) ** 2
    assert calls == {"levi_tensor": products, "cohomology_table": classes}
    assert len({id(t) for t in report.tables}) == classes


def test_classes_whose_factors_swap_share_a_table():
    # E_a^dual (x) E_b depends on the unordered pair of factors, so the
    # classes of (a untwisted, b shifted) merge where the factors swap
    merged = (
        (len({id(t) for t in verify_strong_exceptional(make()).tables}), untwisted_classes(make()))
        for make in CERTIFIED.values()
    )
    assert any(tables < classes for tables, classes in merged)


@pytest.mark.parametrize("name, sums, runs", [("cayley27", 6, 3), ("kapranovQ7", 3, 2)])
def test_one_levi_tensor_per_pair_of_levi_parts(monkeypatch, name, sums, runs):
    # cayley27's 27 bundles twist 3 Levi parts, so its 153 Ext classes need the
    # 6 unordered products of their duals with them, from 3 characters
    counts = {"brauer_klimyk": 0, "_freudenthal": 0}
    for module, attr in ((parabolic, "brauer_klimyk"), (characters, "_freudenthal")):
        true_fn = getattr(module, attr)

        def counting(*args, true_fn=true_fn, attr=attr):
            counts[attr] += 1
            return true_fn(*args)

        monkeypatch.setattr(module, attr, counting)
    verify_strong_exceptional(builtin_collection(name))
    assert counts == {"brauer_klimyk": sums, "_freudenthal": runs}


def test_timing_excluded_by_default():
    coll = builtin_collection("kapranovQ7")
    report = verify_strong_exceptional(coll)
    obj = report_to_obj(report)
    assert obj == plain_obj(report)
    assert "elapsed_seconds" not in obj
    assert "elapsed_seconds" not in report_to_json(report)


# -- serialization -------------------------------------------------------------------


def test_collection_round_trip(tmp_path):
    coll = builtin_collection("cayley27")
    obj = collection_to_obj(coll)
    path = tmp_path / "coll.json"
    path.write_text(json.dumps(obj))
    loaded = collection_from_obj(read_json(str(path)))
    assert loaded.bundles == coll.bundles
    assert loaded.blocks == coll.blocks
    assert loaded.name == coll.name
    assert loaded.setup.dim_x == coll.setup.dim_x


def test_collection_from_explicit_cartan():
    obj = {
        "name": "p2",
        "cartan": {"rank": 2, "entries": [[2, -1], [-1, 2]]},
        "crossed": 1,
        "bundles": [{"weight": [0, 0]}, {"weight": [1, 0]}, {"weight": [2, 0]}],
    }
    coll = collection_from_obj(obj)
    assert coll.preset is None
    assert coll.setup.dim_x == 2
    report = verify_strong_exceptional(coll)
    assert report.verdict == "pass"  # the standard line-bundle triple


def test_blocks_must_sum(cayley):
    with pytest.raises(ValueError):
        Collection("bad", cayley, (ZERO6, S_DUAL), blocks=(3,))


class Index:
    """An integer that is not an int, as numpy.int64 is: it has only __index__."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


# kapranovQ7's setup, weights and blocks, each given in another integer form
INTEGER_FORMS = {
    "list weights": lambda q7: (q7.setup, [list(w) for w in q7.bundles], q7.blocks),
    "bool coordinate": lambda q7: (q7.setup, tuple(w[:3] + (True,) if w[3] else w for w in q7.bundles), q7.blocks),
    "bool crossed": lambda q7: (make_setup(q7.setup.rs, True), q7.bundles, q7.blocks),
    "__index__ weights": lambda q7: (q7.setup, tuple(tuple(map(Index, w)) for w in q7.bundles), q7.blocks),
    "__index__ blocks": lambda q7: (q7.setup, q7.bundles, tuple(map(Index, q7.blocks))),
    "__index__ crossed": lambda q7: (make_setup(q7.setup.rs, Index(1)), q7.bundles, q7.blocks),
}


@pytest.mark.parametrize("form", list(INTEGER_FORMS.values()), ids=list(INTEGER_FORMS))
def test_records_keep_the_integers_they_checked(form):
    # a collection stores the ints its checks produced, not the values it was given,
    # so it verifies and writes the same certificate as its plain-int twin
    q7 = builtin_collection("kapranovQ7")
    setup, bundles, blocks = form(q7)
    coll = Collection(q7.name, setup, bundles, q7.preset, blocks)
    assert {type(w) for w in coll.bundles} == {tuple}
    assert {type(x) for x in (coll.setup.crossed, *coll.blocks, *(x for w in coll.bundles for x in w))} == {int}
    assert report_to_json(verify_strong_exceptional(coll)) == report_to_json(verify_strong_exceptional(q7))


def test_report_json_shape():
    coll = builtin_collection("kapranovQ7")
    report = verify_strong_exceptional(coll)
    obj = json.loads(report_to_json(report))
    assert obj["verdict"] == "pass"
    assert obj["size"] == 8
    assert obj["pairs_checked"] == 64
    assert obj["dim_x"] == 7
    assert obj["index"] == 7
    assert len(obj["tables"]) == 64
    first = obj["tables"][0]
    assert first["pair"] == [1, 1]
    assert first["table"][0]["dim"] == 1
    assert first["table"][0]["weights"][0]["mult"] == 1


def test_render_text(cayley):
    coll = Collection("pair", cayley, (S_DUAL, ZERO6), blocks=(1, 1))
    report = verify_strong_exceptional(coll)
    text = render_report_text(report)
    assert "verdict PASS" in text
    assert "no violations" in text
    assert "|" in text  # block separator in the Hom matrix
    bad = Collection("bad", cayley, (ZERO6, (-12, 0, 0, 0, 0, 0)))
    bad_text = render_report_text(verify_strong_exceptional(bad))
    assert "verdict FAIL" in bad_text
    assert "backward morphism" in bad_text

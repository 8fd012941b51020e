"""Parabolic geometry: twists, first Chern class, Levi tensor and branching."""

import ast
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import weylbott
from weylbott import CartanMatrix, RootSystem, Subsystem, get_preset
from weylbott.characters import char_mul, irrep_character, weyl_dim
from weylbott.errors import NotDominant
from weylbott.parabolic import (
    branch,
    bundle_c1,
    bundle_dual,
    bundle_rank,
    levi_tensor,
    make_setup,
    twist,
)

from oracles import graded_rank, random_l_dominant, strip_full_support

W = [tuple(1 if i == j else 0 for i in range(6)) for j in range(6)]
ZERO6 = (0,) * 6

S_DUAL = (-1, 0, 0, 0, 0, 1)  # rank-10 bundle with 27 sections
TANGENT = (0, 0, 0, 1, 0, 0)  # T_X, rank 16


def sample_weight(rng, setup, max_rank=3000):
    return random_l_dominant(
        rng, setup.rs, setup.crossed, max_rank, partial(bundle_rank, setup)
    )


# -- setup invariants ---------------------------------------------------------


def test_cayley_setup_constants(cayley):
    assert cayley.crossed == 1
    assert cayley.dim_x == 16
    assert cayley.index == 12
    assert sorted(cayley.levi.nodes) == [2, 3, 4, 5, 6]


def test_quadric_setup_constants(quadric7):
    assert quadric7.dim_x == 7
    assert quadric7.index == 7


def test_projective_plane_setup():
    rs = RootSystem(get_preset("A2"))
    setup = make_setup(rs, 1)
    assert setup.dim_x == 2
    assert setup.index == 3


def test_make_setup_bad_node(e6):
    with pytest.raises(ValueError):
        make_setup(e6, 7)
    with pytest.raises(ValueError):
        make_setup(e6, 0)


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda bad: Subsystem.levi(6, bad), 1.5),  # a float in range would cross no node
        (lambda bad: make_setup(RootSystem(get_preset("A2")), bad), 1.5),
        (lambda bad: make_setup(RootSystem(get_preset("A2")), bad), "1"),
    ],
)
def test_crossed_node_must_be_an_integer(build, bad):
    with pytest.raises(ValueError, match=f"crossed node must be an integer, got {bad!r}"):
        build(bad)


# -- ranks, twists, Chern class -------------------------------------------------


def test_bundle_ranks(cayley, e6, e6_levi):
    assert bundle_rank(cayley, ZERO6) == 1
    assert bundle_rank(cayley, S_DUAL) == 10
    assert bundle_rank(cayley, TANGENT) == 16
    assert bundle_rank(cayley, W[2]) == weyl_dim(e6, e6_levi, W[2])


def test_line_bundle_and_twist(cayley):
    assert twist(cayley, ZERO6, 3) == (3, 0, 0, 0, 0, 0)
    assert twist(cayley, W[5], 2) == (2, 0, 0, 0, 0, 1)
    assert twist(cayley, twist(cayley, S_DUAL, 4), -4) == S_DUAL
    for t in (1.5, 2.0, "1"):
        with pytest.raises(ValueError, match=f"twist must be an integer, got {t!r}"):
            twist(cayley, (0,) * 6, t)


def test_c1_values(cayley):
    spinor = twist(cayley, S_DUAL, 1)  # S = dual of S*, rank 10
    assert bundle_c1(cayley, spinor) == 5
    assert bundle_c1(cayley, S_DUAL) == -5
    assert bundle_c1(cayley, twist(cayley, ZERO6, 1)) == 1
    assert bundle_c1(cayley, TANGENT) == 12  # c1(T_X) = index
    assert bundle_c1(cayley, W[2]) == 180


def test_c1_twist_rule(cayley):
    # twisting by O(t) adds rank * t
    rank = bundle_rank(cayley, S_DUAL)
    for t in (-2, 1, 7):
        assert bundle_c1(cayley, twist(cayley, S_DUAL, t)) == -5 + rank * t


def test_c1_of_tensor_is_bilinear(cayley, e6, e6_levi):
    a, b = S_DUAL, TANGENT
    prod = levi_tensor(cayley, a, b)
    ra, rb = bundle_rank(cayley, a), bundle_rank(cayley, b)
    total = sum(m * bundle_c1(cayley, w) for w, m in prod)
    assert total == ra * bundle_c1(cayley, b) + rb * bundle_c1(cayley, a)


# -- duals -------------------------------------------------------------------------


def test_dual_examples(cayley):
    assert bundle_dual(cayley, ZERO6) == ZERO6
    assert bundle_dual(cayley, W[5]) == S_DUAL
    assert bundle_dual(cayley, (0, 0, 0, 0, 0, 2)) == (-2, 0, 0, 0, 0, 2)
    assert bundle_dual(cayley, (0, 0, 0, 0, 0, 3)) == (-3, 0, 0, 0, 0, 3)
    assert bundle_dual(cayley, W[3]) == (-2, 1, 0, 0, 0, 0)  # D5 spinor swap
    assert bundle_dual(cayley, W[2]) == (-3, 0, 1, 0, 0, 0)


def test_dual_involution_rank_c1(cayley):
    rng = random.Random(11)
    for _ in range(25):
        w = sample_weight(rng, cayley)
        wd = bundle_dual(cayley, w)
        assert bundle_dual(cayley, wd) == w
        assert bundle_rank(cayley, wd) == bundle_rank(cayley, w)
        assert bundle_c1(cayley, wd) == -bundle_c1(cayley, w)


def test_check_bundle_rejects_non_dominant(cayley):
    with pytest.raises(NotDominant):
        bundle_rank(cayley, (0, -1, 0, 0, 0, 0))
    # negative crossed coordinate is fine: only Levi nodes constrain
    assert bundle_rank(cayley, (-7, 0, 0, 0, 0, 0)) == 1


# -- Levi tensor product -----------------------------------------------------------


def test_levi_tensor_s_dual_squared(cayley, e6):
    prod = levi_tensor(cayley, S_DUAL, S_DUAL)
    assert set(prod) == {
        ((-2, 0, 0, 0, 0, 2), 1),
        ((-2, 0, 0, 0, 1, 0), 1),
        ((-1, 0, 0, 0, 0, 0), 1),
    }
    assert prod == sorted(prod, key=lambda t: e6.sort_key(t[0]))


def test_levi_tensor_with_line_bundle(cayley):
    assert levi_tensor(cayley, TANGENT, (4, 0, 0, 0, 0, 0)) == [((4, 0, 0, 1, 0, 0), 1)]


def test_levi_tensor_matches_character_product(cayley, e6, e6_levi):
    rng = random.Random(7)
    for _ in range(30):
        a = sample_weight(rng, cayley, max_rank=700)
        b = sample_weight(rng, cayley, max_rank=700)
        direct = levi_tensor(cayley, a, b)
        oracle = strip_full_support(
            e6,
            e6_levi,
            char_mul(irrep_character(e6, e6_levi, a), irrep_character(e6, e6_levi, b)),
        )
        assert direct == oracle


def test_levi_tensor_rank_bookkeeping(cayley):
    a, b = W[4], (0, 0, 0, 0, 0, 2)
    prod = levi_tensor(cayley, a, b)
    assert graded_rank(cayley, prod) == bundle_rank(cayley, a) * bundle_rank(cayley, b)


def test_levi_tensor_on_quadric(quadric7):
    sigma = (0, 0, 0, 1)  # rank-8 factor
    prod = levi_tensor(quadric7, sigma, sigma)
    assert graded_rank(quadric7, prod) == 64


G2 = ((2, -1), (-3, 2))
G2_T = ((2, -3), (-1, 2))
C3 = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
# Crossed node not 1 (E6/P6, D5/P5, C3/P3), a Levi that is not simply laced
# (B4/P1), and G2 in both orientations, whose Levi is then the short and the
# long root.
EQUIVARIANCE_SETUPS = {
    "E6/P1": (get_preset("E6-paper").entries, 1),
    "E6/P6": (get_preset("E6-paper").entries, 6),
    "D5/P5": (get_preset("D5").entries, 5),
    "B4/P1": (get_preset("B4").entries, 1),
    "G2/P1": (G2, 1),
    "G2t/P1": (G2_T, 1),
    "C3/P3": (C3, 3),
}


@pytest.mark.parametrize("rows, crossed", EQUIVARIANCE_SETUPS.values(), ids=EQUIVARIANCE_SETUPS)
def test_levi_tensor_is_twist_equivariant(rows, crossed):
    # O(1) is a character of the Levi, so E_a(s) (x) E_b(t) is E_a (x) E_b
    # twisted by s + t: verify_strong_exceptional tensors the untwisted
    # factors once and shifts the product
    rng = random.Random(f"{rows}/{crossed}")
    setup = make_setup(RootSystem(CartanMatrix(rows)), crossed)
    rs, levi = setup.rs, setup.levi
    rank = partial(bundle_rank, setup)
    for _ in range(6):
        a, b = (random_l_dominant(rng, rs, crossed, 300, rank, crossed_range=(0, 0)) for _ in range(2))
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        a_s, b_t = twist(setup, a, s), twist(setup, b, t)
        shifted = [(twist(setup, w, s + t), m) for w, m in levi_tensor(setup, a, b)]
        oracle = strip_full_support(
            rs, levi, char_mul(irrep_character(rs, levi, a_s), irrep_character(rs, levi, b_t))
        )
        assert levi_tensor(setup, a_s, b_t) == shifted == oracle


# -- branching ----------------------------------------------------------------------


def test_branch_adjoint(cayley):
    comps = branch(cayley, W[3])
    ranks = sorted(m * bundle_rank(cayley, w) for w, m in comps)
    assert ranks == [1, 16, 16, 45]
    assert graded_rank(cayley, comps) == 78


def test_branch_27s(cayley):
    # the two 27-dimensional representations restrict to line + 16 + 10
    assert branch(cayley, W[5]) == [
        ((-1, 0, 0, 0, 0, 0), 1),
        ((-1, 0, 0, 1, 0, 0), 1),  # T_X(-1)
        ((0, 0, 0, 0, 0, 1), 1),
    ]
    assert branch(cayley, W[0]) == [
        (S_DUAL, 1),
        ((-1, 1, 0, 0, 0, 0), 1),  # cotangent twisted by 1
        ((1, 0, 0, 0, 0, 0), 1),
    ]


def test_branch_requires_full_dominance(cayley):
    with pytest.raises(NotDominant):
        branch(cayley, (-1, 0, 0, 0, 0, 1))


def test_branch_rank_bookkeeping(cayley, e6, e6_full):
    for lam in [W[1], (1, 0, 0, 0, 0, 1)]:
        comps = branch(cayley, lam)
        assert graded_rank(cayley, comps) == weyl_dim(e6, e6_full, lam)


# An off-by-one weyl_dim must still trip the rank bookkeeping of the shared
# Brauer-Klimyk sum, for levi_tensor and for decompose, when asserts are stripped.
_FAULT_UNDER_O = """
import sys
import weylbott.characters as characters
import weylbott.parabolic as parabolic
from weylbott import EngineError, RootSystem, Subsystem, get_preset

if not sys.flags.optimize:
    sys.exit("not running under -O")
true_dim = characters.weyl_dim
characters.weyl_dim = lambda rs, sub, lam: true_dim(rs, sub, lam) + 1
rs = RootSystem(get_preset("E6-paper"))
setup = parabolic.make_setup(rs, 1)
s_dual = (-1, 0, 0, 0, 0, 1)
v27 = characters.irrep_character(rs, Subsystem.full(6), (0, 0, 0, 0, 0, 1))
calls = {
    "levi_tensor": lambda: parabolic.levi_tensor(setup, s_dual, s_dual),
    # the same product twisted by 1 and 2
    "levi_tensor(1,2)": lambda: parabolic.levi_tensor(
        setup, parabolic.twist(setup, s_dual, 1), parabolic.twist(setup, s_dual, 2)
    ),
    "decompose": lambda: characters.decompose(rs, setup.levi, v27),
}
for name, call in calls.items():
    try:
        call()
    except EngineError as exc:
        print(name, exc)
    else:
        sys.exit(f"{name} accepted a wrong rank")
"""


def test_levi_tensor_invariants_survive_python_O():
    src = str(Path(weylbott.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAULT_UNDER_O],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["levi_tensor", "levi_tensor(1,2)", "decompose"]
    assert all("rank bookkeeping failed" in line for line in lines), lines


def test_no_assert_in_src():
    # engine invariants are explicit errors, which python -O keeps
    found = []
    for path in sorted(Path(weylbott.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_root_system_privates_stay_in_lie_core():
    # the sparse Cartan columns and the in-place walk over them are reached
    # through public RootSystem methods only
    rs = RootSystem(get_preset("A2"))
    private = {n for n in {*vars(RootSystem), *vars(rs)} if n.startswith("_") and not n.startswith("__")}
    assert {"_columns", "_walk"} <= private
    found = []
    for path in sorted(Path(weylbott.__file__).parent.glob("*.py")):
        if path.name == "lie_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} reads {node.attr}")
    assert found == []


def test_cli_loads_verify_ledger_and_bbw_lazily():
    # each CLI process compiles what it imports when no bytecode is cached, so
    # these modules load inside the subcommands that use them
    tree = ast.parse((Path(weylbott.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    lazy = {"verify", "ledger", "bbw"}
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names = {(node.module or "").split(".")[-1]} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names = {a.name.split(".")[-1] for a in node.names}
        else:
            continue
        found += [f"cli.py:{node.lineno} imports {name}" for name in sorted(names & lazy)]
    assert found == []


def test_no_unused_import_in_src():
    # a deletion that leaves its import behind; __init__ re-exports on purpose
    unused = []
    for path in sorted(Path(weylbott.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used - {"annotations"})]
    assert unused == []


def test_json_is_written_only_by_to_json():
    # one serializer: json.dumps and json.dump are called inside presets.to_json only
    found = []
    for path in sorted(Path(weylbott.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        writer = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "to_json"]
        inside = {id(node) for f in writer for node in ast.walk(f)} if path.name == "presets.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps") and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno} calls {ast.unparse(node)}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names if a.name in ("dump", "dumps")]
    assert found == []


def test_src_has_no_test_only_surface():
    # every module-level function and class of the engine is named (called, imported
    # or read as an attribute) by some other code in the engine or the benchmark;
    # one that only tests name belongs in the tests
    src = Path(weylbott.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*src.glob("*.py"), *perfbench.rglob("*.py")]}

    def named(node) -> set:
        return {
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
        }

    unnamed = []
    for path, tree in sorted(trees.items()):
        if path.parent != src:
            continue
        others = set().union(*(named(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest = set().union(*(named(n) for n in tree.body if n is not node))
                if node.name not in others | rest:
                    unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == []


def test_src_is_integer_only():
    # no rational or decimal arithmetic and no true division anywhere in the engine
    found = []
    for path in sorted(Path(weylbott.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] in ("fractions", "decimal") for m in modules):
                found.append(f"{path.name}:{node.lineno} imports {', '.join(modules)}")
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno} divides with /")
    assert found == []

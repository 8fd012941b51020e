"""Command-line interface: outputs, exit codes and schema conformance."""

import contextlib
import functools
import hashlib
import importlib.resources
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

import weylbott
import weylbott.verify
from weylbott.characters import orbit_size
from weylbott.cli import build_parser, main
from weylbott.presets import get_preset, preset_names, to_json

SCHEMA_FILES = [
    "cartan.json",
    "character.json",
    "cohomology.json",
    "collection.json",
    "ext-table.json",
    "ledger-report.json",
    "ledger.json",
    "report.json",
]


@functools.cache
def _load_schema(name):
    path = importlib.resources.files("weylbott.schemas").joinpath(name)
    return json.loads(path.read_text(encoding="utf-8"))


def schema_registry():
    reg = Registry()
    for name in SCHEMA_FILES:
        reg = reg.with_resource(name, Resource.from_contents(_load_schema(name)))
    return reg


@pytest.fixture(scope="module")
def registry():
    return schema_registry()


def validate(instance, schema_name, registry):
    jsonschema.validate(
        instance=instance, schema=_load_schema(schema_name), registry=registry
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


# -- basic commands -----------------------------------------------------------


def test_presets_lists_all(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    for name in ("A2", "B3", "B4", "D5", "E6-bourbaki", "E6-paper"):
        assert name in out


def test_dim_full_system(capsys):
    code, out, _ = run(capsys, "dim", "--weight=0,0,0,0,0,1")
    assert code == 0
    assert out.strip() == "27"


def test_dim_levi(capsys):
    code, out, _ = run(capsys, "dim", "--weight=-1,0,0,0,0,1", "--crossed", "1")
    assert code == 0
    assert out.strip() == "10"


def test_char_json_schema(capsys, registry):
    code, obj = run_json(capsys, "char", "--preset", "A2", "--weight=1,0")
    assert code == 0
    validate(obj, "character.json", registry)
    assert sum(e["mult"] for e in obj) == 3


def test_c1(capsys):
    code, out, _ = run(capsys, "c1", "--weight=0,0,0,0,0,1", "--crossed", "1")
    assert code == 0
    assert out.strip() == "5"


def test_tensor_json_schema(capsys, registry):
    code, obj = run_json(
        capsys, "tensor", "--weight=-1,0,0,0,0,1", "--weight2=-1,0,0,0,0,1"
    )
    assert code == 0
    validate(obj, "character.json", registry)
    assert len(obj) == 3


def test_branch_text(capsys):
    code, out, _ = run(capsys, "branch", "--weight=0,0,0,1,0,0")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_cohomology_json_schema(capsys, registry):
    code, obj = run_json(capsys, "cohomology", "--weight=-12,0,0,0,0,0")
    assert code == 0
    validate(obj, "cohomology.json", registry)
    assert obj["degree"] == 16
    assert obj["dim"] == 1
    code, obj = run_json(capsys, "cohomology", "--weight=-3,0,0,0,0,0")
    assert code == 0
    validate(obj, "cohomology.json", registry)
    assert obj["degree"] is None


def test_ext_json_schema(capsys, registry):
    code, obj = run_json(
        capsys, "ext", "--weight=0,0,0,0,0,0", "--weight2=1,0,0,0,0,0"
    )
    assert code == 0
    validate(obj, "ext-table.json", registry)
    assert obj[0]["dim"] == 27
    assert len(obj) == 17


def test_verify_json_schema(capsys, registry):
    code, obj = run_json(capsys, "verify", "kapranovQ7")
    assert code == 0
    validate(obj, "report.json", registry)
    assert obj["verdict"] == "pass"
    assert "elapsed_seconds" not in obj


JSON_COMMANDS = {
    "presets": ("presets",),
    "dim": ("dim", "--weight=0,0,0,0,0,1"),
    "char": ("char", "--preset", "A2", "--weight=1,0"),
    "c1": ("c1", "--weight=0,0,0,0,0,1"),
    "tensor": ("tensor", "--weight=-1,0,0,0,0,1", "--weight2=-1,0,0,0,0,1"),
    "branch": ("branch", "--weight=0,0,0,1,0,0"),
    "cohomology-zero": ("cohomology", "--weight=-3,0,0,0,0,0"),
    "cohomology": ("cohomology", "--weight=-12,0,0,0,0,0"),
    "ext": ("ext", "--weight=0,0,0,0,0,0", "--weight2=1,0,0,0,0,0"),
    "verify": ("verify", "kapranovQ7"),
    "ledger": ("ledger",),
}


@pytest.mark.parametrize("argv", JSON_COMMANDS.values(), ids=JSON_COMMANDS)
def test_json_output_keeps_the_stock_layout(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# sha256 of stdout, trailing newline included; any change to a certificate
# or to the ledger report must show up here.
GOLDEN_STDOUT = [
    (("verify", "cayley27", "--format", "json"),
     "fcc14580a7a3526c51cbee35c13e83f269ffe5596fe0f5e22932b63982f6657d"),
    (("verify", "kapranovQ7", "--format", "json"),
     "2ddbfaee1da15a2bae12106b88cde730578cbd9446800513bfe2789b7a6c19e4"),
    (("ledger", "--format", "json"),
     "b2dee6645de1d9af6a5fa588220e687237e23d28b6a8c85cdeb0588b9a89d2e9"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN_STDOUT, ids=["verify-cayley27", "verify-kapranovQ7", "ledger"]
)
def test_golden_stdout(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of the text certificate after its first line, which carries the
# elapsed time: the Hom matrix with its block rules, (3, 3, 3, 2, ..., 2) on
# cayley27 and (7, 1) on kapranovQ7, and the verdict line.
GOLDEN_TEXT_BODY = [
    ("cayley27", "53d25f0d9d70d8ba45451ba3c007df1f774a4af761999077b611babe1261aecb"),
    ("kapranovQ7", "03113d45283817f83c283a0532984c2f4af2fcf7decc11a4db6b100611ab1d08"),
]


@pytest.mark.parametrize("name,digest", GOLDEN_TEXT_BODY, ids=[n for n, _ in GOLDEN_TEXT_BODY])
def test_golden_text_body(capsys, name, digest):
    code, out, err = run(capsys, "verify", name)
    assert code == 0 and err == ""
    body = out.split("\n", 1)[1]
    assert hashlib.sha256(body.encode("utf-8")).hexdigest() == digest


def test_ledger_json_schema(capsys, registry):
    code, obj = run_json(capsys, "ledger")
    assert code == 0
    validate(obj, "ledger-report.json", registry)
    assert obj["verdict"] == "pass"


def test_builtin_ledger_file_schema(registry, tmp_path):
    from weylbott.ledger import builtin_ledger_obj

    validate(builtin_ledger_obj(), "ledger.json", registry)


def test_collection_obj_schema(registry):
    from weylbott.verify import builtin_collection, collection_to_obj

    for name in ("cayley27", "kapranovQ7"):
        validate(collection_to_obj(builtin_collection(name)), "collection.json", registry)


# -- files and failure paths ------------------------------------------------------


def test_verify_positional_target(capsys, tmp_path, monkeypatch):
    # a built-in name is not shadowed by an entry of that name in the cwd
    (tmp_path / "kapranovQ7").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "kapranovQ7")
    assert code == 0
    first = out.splitlines()[0]
    assert "64 pairs" in first
    assert "0 violation(s)" in first
    assert "verdict PASS" in first
    assert "s)" in first  # wall time on the summary line
    # a file path works positionally too
    from weylbott.verify import builtin_collection, collection_to_obj

    path = tmp_path / "coll.json"
    path.write_text(json.dumps(collection_to_obj(builtin_collection("kapranovQ7"))))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown built-in collection" in err


def test_verify_collection_file(capsys, tmp_path):
    from weylbott.verify import builtin_collection, collection_to_obj

    obj = collection_to_obj(builtin_collection("kapranovQ7"))
    # damage the order so the verdict fails
    obj["bundles"] = list(reversed(obj["bundles"]))
    obj.pop("blocks", None)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "verdict FAIL" in out


def test_ledger_file(capsys, tmp_path):
    idents = [
        {"name": "ok", "kind": "iso", "terms": ["O(1)", "O(1)"]},
        {"name": "broken", "kind": "iso", "terms": ["O(1)", "O"]},
    ]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(idents))
    code, out, _ = run(capsys, "ledger", "--ledger-file", str(path))
    assert code == 1
    assert "PASS  ok" in out
    assert "FAIL  broken" in out


def test_ledger_file_zeroth_power_of_zero_character(capsys, tmp_path):
    idents = [
        {"name": "wedge0", "kind": "iso", "terms": ["wedge^0(wedge^2(O))", "O"]},
        {"name": "sym0", "kind": "iso", "terms": ["sym^0(wedge^3(O(1)))", "O"]},
    ]
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(idents))
    code, out, err = run(capsys, "ledger", "--ledger-file", str(path))
    assert (code, err) == (0, "")
    assert "PASS  wedge0" in out and "PASS  sym0" in out


def test_ledger_file_power_work_bound(capsys, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps([{"name": "huge", "kind": "iso", "terms": ["sym^100000(O)", "O"]}]))
    code, out, err = run(capsys, "ledger", "--ledger-file", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "work bound" in err


def test_cartan_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "g2like.json"
    path.write_text(json.dumps({"rank": 2, "entries": [[2, -1], [-3, 2]]}))
    code, out, _ = run(capsys, "dim", "--preset", str(path), "--weight=1,0")
    assert code == 0
    assert out.strip() == "14"
    code, out, _ = run(capsys, "dim", "--preset", str(path), "--weight=0,1")
    assert code == 0
    assert out.strip() == "7"
    # a built-in name is not shadowed by a file of that name in the cwd
    (tmp_path / "A2").write_text(path.read_text())
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "dim", "--preset", "A2", "--weight=1,0")
    assert code == 0
    assert out.strip() == "3"


def test_cartan_file_type_a46(capsys, tmp_path):
    # 1081 positive roots: past the old fixed stop of 1000, below 46^2 + 56
    n = 46
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    path = tmp_path / "a46.json"
    path.write_text(json.dumps({"rank": n, "entries": rows}))
    weight = ",".join(["1"] + ["0"] * (n - 1))
    code, out, _ = run(capsys, "dim", "--preset", str(path), f"--weight={weight}")
    assert code == 0
    assert out.strip() == "47"


@pytest.mark.parametrize("kind", ["A100", "affine A99", "bad first entry"])
def test_cartan_file_rank_guardrail(capsys, tmp_path, kind):
    # the closure keeps three rank-n vectors for each of up to n^2 + 56 roots, so
    # from rank 100 on, where (n^2 + 56) * n passes 10^6, a matrix is refused before
    # it starts, an infinite type among them, and before any entry is read
    n = 100
    rows = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    if kind == "affine A99":
        rows[0][n - 1] = rows[n - 1][0] = -1
    if kind == "bad first entry":
        rows[0][0] = "x"
    path = tmp_path / "a100.json"
    path.write_text(json.dumps({"rank": n, "entries": rows}))
    code, out, err = run(capsys, "dim", "--preset", str(path), "--weight=" + ",".join(["0"] * n))
    assert (code, out) == (3, "")
    assert err.startswith("error: rank 100 refused") and err.count("\n") == 1


# -- known-answer corpus ------------------------------------------------------------

CORPUS = Path(__file__).parent / "collections"

# Kapranov's collection (Sigma^alpha U^*) on Gr(k, n), alpha in the k x (n-k) box,
# and the violations of its reversed order
KAPRANOV = [(2, 4, 14), (2, 5, 40), (2, 6, 90), (3, 6, 155), (2, 7, 175), (3, 7, 455)]


def _kapranov_weights(k, n):
    """E_w on A_{n-1}/P_k: w_i = a_i - a_{i+1} for i < k, w_k = a_k, by |a| then a descending."""
    box = [a for a in itertools.product(range(n - k + 1), repeat=k) if list(a) == sorted(a, reverse=True)]
    box.sort(key=lambda a: (sum(a), [-x for x in a]))
    return [[a[i] - a[i + 1] for i in range(k - 1)] + [a[-1]] + [0] * (n - 1 - k) for a in box]


@pytest.mark.parametrize("k,n,reversed_violations", KAPRANOV, ids=[f"gr{k}-{n}" for k, n, _ in KAPRANOV])
def test_kapranov_corpus(capsys, tmp_path, registry, k, n, reversed_violations):
    path = CORPUS / f"kapranov-gr{k}-{n}.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert [b["weight"] for b in obj["bundles"]] == _kapranov_weights(k, n)
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    assert report["verdict"] == "pass"
    size = report["size"]
    assert size == len(report["collection"]["bundles"]) == math.comb(n, k)
    # "tables" is checked item by item: the pairs exactly here, and each distinct
    # table once by the schema (Gr(3,7) has 1225 pairs but 81 distinct tables)
    pairs = [[i, j] for i in range(1, size + 1) for j in range(1, size + 1)]
    assert [t["pair"] for t in report["tables"]] == pairs
    distinct = {json.dumps(t["table"], sort_keys=True): t for t in report["tables"]}
    validate({**report, "tables": list(distinct.values())}, "report.json", registry)
    obj["bundles"].reverse()
    reversed_path = tmp_path / "reversed.json"
    reversed_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(reversed_path))
    assert code == 1
    assert f" {reversed_violations} violation(s), verdict FAIL" in out.splitlines()[0]


def test_kapranov_quadric_q8(capsys, tmp_path):
    # Q^8 = D5/P1: the two spinor bundles S(-1) and S'(-1), then O, ..., O(7)
    path = CORPUS / "kapranov-q8.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["cartan"]["entries"] == [list(row) for row in get_preset("D5").entries]
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    assert report["verdict"] == "pass" and report["size"] == 10 and report["violations"] == []
    # the negative control: S and S' untwisted, placed before O, map to O nontrivially
    obj["bundles"][:2] = [{"weight": [0, 0, 0, 1, 0]}, {"weight": [0, 0, 0, 0, 1]}]
    moved = tmp_path / "q8-spinors-untwisted.json"
    moved.write_text(json.dumps(obj))
    code, report = run_json(capsys, "verify", str(moved))
    assert code == 1
    assert report["violations"] == [
        {"pair": [3, 1], "degree": 0, "dim": 16, "rule": "backward morphism"},
        {"pair": [3, 2], "degree": 0, "dim": 16, "rule": "backward morphism"},
    ]


# Kuznetsov's G2 Grassmannian G2/P1 (dim 5, index 3) and Samokhin's LG(3,6) = C3/P3
# (dim 6, index 4): (O, U*)(t) over a full period of twists
NON_SIMPLY_LACED = [("kuznetsov-g2", 5, 3, 6), ("samokhin-lg36", 6, 4, 8)]


@pytest.mark.parametrize("name,dim_x,index,size", NON_SIMPLY_LACED, ids=[n for n, *_ in NON_SIMPLY_LACED])
def test_non_simply_laced_corpus(capsys, name, dim_x, index, size):
    code, report = run_json(capsys, "verify", str(CORPUS / f"{name}.json"))
    assert code == 0
    assert (report["verdict"], report["dim_x"], report["index"], report["size"]) == ("pass", dim_x, index, size)


def test_kuznetsov_gr25(capsys, tmp_path):
    # Kuznetsov's Lefschetz collection (O, U*)(t), t = 0..4, on Gr(2,5) = A4/P2
    # (dim 6, index 5), where U* = (1, 0, 0, 0) has rank 2 and c1 = 1
    path = CORPUS / "kuznetsov-gr25.json"
    cartan = tmp_path / "a4.json"
    cartan.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8"))["cartan"]))
    for cmd, value in (("dim", 2), ("c1", 1)):
        assert run(capsys, cmd, "--preset", str(cartan), "--crossed", "2", "--weight=1,0,0,0") == (0, f"{value}\n", "")
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    got = (report["verdict"], report["dim_x"], report["index"], report["size"], report["violations"])
    assert got == ("pass", 6, 5, 10, [])


def test_kuznetsov_og510(capsys, tmp_path):
    # Kuznetsov's rectangular Lefschetz collection (O, U*)(t), t = 0..7, on the spinor
    # tenfold OG(5,10) = D5/P5 (dim 10, index 8), where U* = (1, 0, 0, 0, 0) has rank 5
    # and c1 = 2; its 16 objects are as many as W/W_P has elements
    path = CORPUS / "kuznetsov-og510.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj["cartan"]["entries"] == [list(row) for row in get_preset("D5").entries]
    for cmd, value in (("dim", 5), ("c1", 2)):
        assert run(capsys, cmd, "--preset", "D5", "--crossed", "5", "--weight=1,0,0,0,0") == (0, f"{value}\n", "")
    rs = weylbott.RootSystem(get_preset("D5"))
    assert orbit_size(rs, rs.full, (0, 0, 0, 0, 1)) == 16
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    got = (report["verdict"], report["dim_x"], report["index"], report["size"], report["violations"])
    assert got == ("pass", 10, 8, 16, [])
    # the diagram automorphism of D5 swaps nodes 4 and 5 and fixes the matrix:
    # the same shape passes on D5/P4
    obj["crossed"] = 4
    obj["bundles"] = [{"weight": b["weight"][:3] + b["weight"][:2:-1]} for b in obj["bundles"]]
    assert obj["bundles"][3] == {"weight": [1, 0, 0, 1, 0]}
    moved = tmp_path / "og510-p4.json"
    moved.write_text(json.dumps(obj))
    code, report = run_json(capsys, "verify", str(moved))
    assert code == 0
    got = (report["verdict"], report["dim_x"], report["index"], report["size"], report["violations"])
    assert got == ("pass", 10, 8, 16, [])


def transposed(name):
    """A corpus collection with its Cartan matrix transposed."""
    obj = json.loads((CORPUS / f"{name}.json").read_text(encoding="utf-8"))
    obj["cartan"]["entries"] = [list(col) for col in zip(*obj["cartan"]["entries"])]
    return obj


def test_g2_transposed(capsys, tmp_path):
    # the same Grassmannian with the Cartan matrix transposed: the crossed node
    # is node 2, and U* = (1, 0)
    obj = transposed("kuznetsov-g2")
    obj["crossed"] = 2
    obj["bundles"] = [{"weight": b["weight"][::-1]} for b in obj["bundles"]]
    assert obj["bundles"][1] == {"weight": [1, 0]}
    path = tmp_path / "g2-transposed.json"
    path.write_text(json.dumps(obj))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    assert (report["verdict"], report["dim_x"], report["index"]) == ("pass", 5, 3)


def test_lg36_weights_on_b3_fail(capsys, tmp_path):
    # the negative control: the transposed matrix is B3, where the same weights
    # give the spinor Grassmannian's bundles, and the collection is not exceptional
    obj = transposed("samokhin-lg36")
    assert obj["cartan"]["entries"] == [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    path = tmp_path / "lg36-on-b3.json"
    path.write_text(json.dumps(obj))
    code, report = run_json(capsys, "verify", str(path))
    assert code == 1
    got = [(*v["pair"], v["degree"], v["dim"], v["rule"]) for v in report["violations"]]
    back, self_ext = "backward morphism", "higher self-extension"
    assert got == [
        (2, 1, 1, 1, back), (2, 2, 1, 7, self_ext),
        (4, 3, 1, 1, back), (4, 4, 1, 7, self_ext),
        (6, 2, 2, 1, back), (6, 5, 1, 1, back), (6, 6, 1, 7, self_ext),
        (8, 4, 2, 1, back), (8, 7, 1, 1, back), (8, 8, 1, 7, self_ext),
    ]


def test_beilinson_p1(capsys, tmp_path):
    # P^1 = A1/P1, whose Levi has no roots: (O, O(1)), with Hom(O, O(1)) of dim 2
    path = CORPUS / "beilinson-p1.json"
    code, report = run_json(capsys, "verify", str(path))
    assert code == 0
    assert (report["verdict"], report["dim_x"], report["index"]) == ("pass", 1, 2)
    dims = [t["table"][0]["dim"] for t in report["tables"]]
    assert [dims[:2], dims[2:]] == [[1, 2], [0, 1]]
    cartan = tmp_path / "a1.json"
    cartan.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8"))["cartan"]))
    assert run(capsys, "tensor", "--preset", str(cartan), "--weight=1", "--weight2=2") == (0, "[3] x 1\n", "")


# -- exit codes ----------------------------------------------------------------------

BUNDLE_ARGS = {
    "dim": ("--weight=0,0,0,0,0,0",),
    "char": ("--weight=0,0,0,0,0,0",),
    "c1": ("--weight=0,0,0,0,0,0",),
    "tensor": ("--weight=0,0,0,0,0,0", "--weight2=0,0,0,0,0,0"),
    "branch": ("--weight=0,0,0,0,0,0",),
    "cohomology": ("--weight=0,0,0,0,0,0",),
    "ext": ("--weight=0,0,0,0,0,0", "--weight2=0,0,0,0,0,0"),
    "ledger": (),
}

USAGE_ERRORS = [
    (("dim", "--weight=1,0", "--preset", "NOPE"), "unknown preset"),
    (("dim", "--weight=1,0,0"), "length"),
] + [((cmd, "--crossed", "0") + rest, "crossed node 0") for cmd, rest in BUNDLE_ARGS.items()]


@pytest.mark.parametrize(
    "argv,needle",
    USAGE_ERRORS,
    ids=["unknown-preset", "weight-length"] + [f"crossed-0-{cmd}" for cmd in BUNDLE_ARGS],
)
def test_exit_usage_error(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize("cmd", BUNDLE_ARGS)
def test_crossed_default_is_stated(capsys, cmd):
    # dim and char default to the full system, the bundle commands to node 1
    crossed = None if cmd in ("dim", "char") else 1
    assert build_parser().parse_args([cmd, *BUNDLE_ARGS[cmd]]).crossed == crossed
    with pytest.raises(SystemExit):
        main([cmd, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    full = "omit to work with the full system"
    assert (full in text, "default 1" in text) == (crossed is None, crossed == 1)


def test_verify_size_guardrail_exit(capsys, tmp_path, monkeypatch):
    def no_pair(*args):
        raise AssertionError("an Ext table was computed")

    monkeypatch.setattr(weylbott.verify, "levi_tensor", no_pair)
    monkeypatch.setattr(weylbott.verify, "cohomology_table", no_pair)
    bundles = [{"weight": [t, 0, 0, 0, 0, 0]} for t in range(243)]
    obj = {"name": "O(0..242)", "preset": "E6-paper", "crossed": 1, "bundles": bundles}
    code, out, err = run_on_file(capsys, tmp_path, obj, "verify")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1003833 degree entries" in err


def test_verify_size_guardrail_names_the_rank_of_k0(capsys, tmp_path, monkeypatch):
    # 354 line bundles on B4/P1 need 354^2 * 8 > 10^6 degree entries; K_0 has rank 8
    def no_pair(*args):
        raise AssertionError("an Ext table was computed")

    monkeypatch.setattr(weylbott.verify, "levi_tensor", no_pair)
    monkeypatch.setattr(weylbott.verify, "cohomology_table", no_pair)
    bundles = [{"weight": [t, 0, 0, 0]} for t in range(354)]
    obj = {"name": "O(0..353)", "preset": "B4", "crossed": 1, "bundles": bundles}
    code, out, err = run_on_file(capsys, tmp_path, obj, "verify")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.rstrip().endswith("no exceptional collection here has more than 8 objects, the rank of K_0")


def _quick_start():
    """The weylbott command lines of the README's Quick start, without redirections."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [re.sub(r"\s*>\s*\S+$", "", line) for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("weylbott ")]


QUICK_START = _quick_start()


def test_readme_quick_start_is_found():
    assert len(QUICK_START) == 7


@pytest.mark.parametrize("argv", QUICK_START, ids=" ".join)
def test_readme_quick_start(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


def test_exit_engine_error(capsys):
    code, _, err = run(capsys, "dim", "--preset", "A2", "--weight=0,-1")
    assert code == 3
    assert "dominant" in err


def test_exit_not_finite_type(capsys, tmp_path):
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"rank": 2, "entries": [[2, -2], [-2, 2]]}))
    code, out, err = run(capsys, "dim", "--preset", str(path), "--weight=0,0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not of finite type" in err


def test_cartan_file_convention(capsys, tmp_path):
    # entries[i][j] = <alpha_j, alpha_i^vee>: here <alpha_2, alpha_3^vee> = -2, so
    # alpha_3 is short and this is B3, whose first fundamental module is the
    # 7-dimensional vector one; the transpose is C3, where it has dimension 6
    b3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    for entries, dim in ((b3, 7), ([list(col) for col in zip(*b3)], 6)):
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps({"rank": 3, "entries": entries}))
        assert run(capsys, "dim", "--preset", str(path), "--weight=1,0,0") == (0, f"{dim}\n", "")


def test_exit_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent.json")
    assert code == 2


def run_on_file(capsys, tmp_path, obj, *argv):
    """Run argv with the JSON of obj written to a file as its last argument."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return run(capsys, *argv, str(path))


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


B4_POINT = {"preset": "B4", "crossed": 1, "bundles": [{"weight": [0, 0, 0, 0]}]}
A2_CARTAN = {"rank": 2, "entries": [[2, -1], [-1, 2]]}


@pytest.mark.parametrize(
    "obj",
    [
        {"preset": "E6-paper", "crossed": 1, "bundles": [{"weight": None}]},
        {"cartan": {"rank": 2, "entries": 5}, "crossed": 1, "bundles": [{"weight": [0, 0]}]},
        {"preset": "E6-paper", "crossed": 1, "bundles": []},
        {**B4_POINT, "name": 5},
        {**B4_POINT, "blocks": False},
        {**B4_POINT, "bundle": [{"weight": [0, 0, 0, 0]}]},
        {**B4_POINT, "bundles": [{"weight": [0, 0, 0, 0], "twist": 3}]},
        # a preset and a Cartan matrix that disagree: neither may be dropped silently
        {**B4_POINT, "cartan": {"rank": 2, "entries": [[2, -1], [-1, 2]]}},
        # the schema asks which keys are present, so a null preset is not an absent one
        {"preset": None, "cartan": A2_CARTAN, "crossed": 1, "bundles": [{"weight": [0, 0]}]},
    ],
    ids=[
        "null-weight", "scalar-entries", "no-bundles", "integer-name", "false-blocks",
        "unknown-key", "bundle-twist", "preset-and-cartan", "preset-null",
    ],
)
def test_malformed_collection_is_usage_error(capsys, tmp_path, registry, obj):
    with pytest.raises(jsonschema.ValidationError):
        validate(obj, "collection.json", registry)
    assert_usage_error(*run_on_file(capsys, tmp_path, obj, "verify"))


def test_empty_blocks_is_usage_error(capsys, tmp_path, registry):
    # the schema allows an empty list; the block sizes must sum to the collection size
    obj = {**B4_POINT, "blocks": []}
    validate(obj, "collection.json", registry)
    code, out, err = run_on_file(capsys, tmp_path, obj, "verify")
    assert_usage_error(code, out, err)
    assert "block sizes" in err


@pytest.mark.parametrize(
    "obj",
    [
        [{"name": "x", "kind": "iso", "terms": None}],
        [5],
        [{"name": "x", "kind": "iso", "terms": [5, "O"]}],
        [{"name": "x", "kind": "iso", "terms": ["O", "O(1)"], "extra": 1}],
        [{"name": "x", "kind": "ISO", "terms": ["O", "O"]}],
    ],
    ids=["null-terms", "scalar-entry", "integer-term", "unknown-key", "uppercase-kind"],
)
def test_malformed_ledger_is_usage_error(capsys, tmp_path, registry, obj):
    with pytest.raises(jsonschema.ValidationError):
        validate(obj, "ledger.json", registry)
    assert_usage_error(*run_on_file(capsys, tmp_path, obj, "ledger", "--ledger-file"))


@pytest.mark.parametrize(
    "obj",
    [
        {"rank": 2, "entries": 5},
        {"rank": 2, "entries": [[2, -1], [-1, 2]], "name": "A2"},
    ],
    ids=["scalar-entries", "unknown-key"],
)
def test_malformed_cartan_is_usage_error(capsys, tmp_path, registry, obj):
    with pytest.raises(jsonschema.ValidationError):
        validate(obj, "cartan.json", registry)
    assert_usage_error(*run_on_file(capsys, tmp_path, obj, "dim", "--weight=1,0", "--preset"))


# the commands that read a JSON file named by their last argument
FILE_ARGV = [("verify",), ("ledger", "--ledger-file"), ("dim", "--weight=1,0", "--preset")]
FILE_KINDS = ["collection", "ledger", "cartan"]


@pytest.mark.parametrize("argv", FILE_ARGV, ids=FILE_KINDS)
def test_deeply_nested_json_is_usage_error(capsys, tmp_path, argv):
    # written as text: json.dumps itself recurses on such an object
    path = tmp_path / "input.json"
    path.write_text("[" * 100_000)
    assert_usage_error(*run(capsys, *argv, str(path)))


@pytest.mark.parametrize("content", [b"", b"\x80\x81"], ids=["empty", "not-utf-8"])
@pytest.mark.parametrize("argv", FILE_ARGV, ids=FILE_KINDS)
def test_unreadable_json_error_names_the_file(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert_usage_error(code, out, err)
    assert str(path) in err


def test_closed_stdout_keeps_exit_code():
    # the certificate is larger than a pipe buffer, so the write meets the
    # closed pipe while the command is still printing
    src = str(Path(weylbott.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "weylbott.cli", "verify", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert head == b'{\n  "colle'
    assert code == 0
    assert err == b""


def test_python_m_weylbott_runs_the_cli():
    # the package runs as the module weylbott.cli does: a usage error exits 2
    # with argparse's message, never 1 (a "fail" verdict) or a traceback
    src = str(Path(weylbott.__file__).resolve().parents[1])

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )

    package, module = python_m("weylbott", "presets"), python_m("weylbott.cli", "presets")
    assert (package.returncode, package.stderr) == (module.returncode, module.stderr) == (0, "")
    assert package.stdout == module.stdout == "\n".join(preset_names()) + "\n"
    bad = python_m("weylbott", "presets", "--format", "xml")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert "invalid choice: 'xml'" in bad.stderr and "Traceback" not in bad.stderr


def test_cli_import_leaves_out_dataclasses():
    # the records are NamedTuples and __slots__ classes: importing dataclasses,
    # and inspect, ast, dis and tokenize with it, would add to every CLI call
    src = str(Path(weylbott.__file__).resolve().parents[1])
    probe = "import sys, weylbott.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


# -- random and malformed inputs ---------------------------------------------------

FORMATS = st.sampled_from([(), ("--format", "json"), ("--format", "text")])
JUNK = st.text(alphabet="ab ,.-+x", max_size=6)  # no digit, so never a weight


def weights(rank, low, high):
    """A weight of the preset's rank or of any length 0..7, or junk text."""
    length = st.one_of(st.just(rank), st.integers(0, 7))
    coords = length.flatmap(lambda n: st.lists(st.integers(low, high), min_size=n, max_size=n))
    return st.one_of(coords.map(lambda w: ",".join(map(str, w))), JUNK)


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(["presets", "verify", *BUNDLE_ARGS]))
    if cmd == "presets":
        return [cmd, *draw(FORMATS)]
    if cmd == "verify":
        return [cmd, draw(st.sampled_from(["kapranovQ7", "nosuch"])), *draw(FORMATS)]
    preset = draw(st.sampled_from([*preset_names(), "NOPE"]))
    rank = get_preset(preset).rank if preset != "NOPE" else 6
    argv = [cmd, "--preset", preset]
    crossed = draw(st.none() | st.integers(-2, 8))
    if crossed is not None:
        argv += ["--crossed", str(crossed)]
    # A command that expands a character slows down quickly as the weight grows,
    # though it stays under the guardrail.  On E6 (2 cores, Python 3.11.7) the
    # worst weight with three 1s, (0,1,1,0,1,0), takes 2.8 s for `char --format
    # json` and 1.6 s for `branch` on the CLI; (0,1,1,1,1,0) takes 6.6 s for
    # `branch`.  With at most three 1s this whole test ran in 2.0 s (1.4 s with two).
    if cmd in ("char", "branch"):
        weight = weights(rank, 0, 1).filter(lambda text: text.count("1") <= 3)
    elif cmd in ("c1", "tensor", "ext"):
        weight = weights(rank, -2, 1)
    else:
        weight = weights(rank, -2, 2)
    if cmd != "ledger":
        argv.append(f"--weight={draw(weight)}")
    if cmd in ("tensor", "ext"):
        argv.append(f"--weight2={draw(weight)}")
    return argv + list(draw(FORMATS))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argv())
@example(["tensor", "--preset", "E6-paper", "--crossed", "0",
          "--weight=0,0,0,0,0,0", "--weight2=0,0,0,0,0,0"])
def test_cli_inputs_end_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        assert exc.code == 2
        return
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert argv[0] in ("verify", "ledger")
    if code in (2, 3):
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


# One valid input of each file schema, by name: the schema, the command that reads
# the file (named by its last argument) and the object.
P2_BUNDLES = [{"weight": [0, 0]}, {"weight": [1, 0]}, {"weight": [2, 0]}]
SCHEMA_CASES = {
    "preset": ("collection.json", ("verify",), {"name": "p2", "preset": "A2", "crossed": 1, "bundles": P2_BUNDLES}),
    "cartan": (
        "collection.json",
        ("verify",),
        {"name": "p2", "cartan": A2_CARTAN, "crossed": 1, "bundles": P2_BUNDLES, "blocks": [1, 1, 1]},
    ),
    "ledger": (
        "ledger.json",
        ("ledger", "--preset", "A2", "--ledger-file"),
        [{"name": "twist", "kind": "iso", "terms": ["O(1)", "O(1)"]}],
    ),
}
# what "other" adds to a collection of each form
OTHER = {"preset": ("cartan", A2_CARTAN), "cartan": ("preset", "A2")}
SET_VALUES = [None, True, 1.5, "x", [], {}]


def _paths(obj, path=()):
    """The path of obj and of every value inside it, as tuples of keys and indices."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def schema_mutations(draw):
    """(form, path, op, value): one mutation of one of SCHEMA_CASES."""
    form = draw(st.sampled_from(sorted(SCHEMA_CASES)))
    obj = SCHEMA_CASES[form][2]
    # a collection's root can take an unknown key or the other form; a ledger's
    # root, a list, takes no mutation
    path = draw(st.sampled_from([p for p in _paths(obj) if p or form in OTHER]))
    target = _at(obj, path)
    ops = [("set", v) for v in SET_VALUES] + [("delete", None)] if path else []
    if isinstance(target, dict):
        ops.append(("unknown", None))
    if isinstance(target, str):
        ops.append(("upper", None))
    if not path and form in OTHER:
        ops.append(("other", None))
    return (form, path, *draw(st.sampled_from(ops)))


def mutated(form, path, op, value):
    obj = json.loads(json.dumps(SCHEMA_CASES[form][2]))  # a deep copy
    if op == "unknown":
        _at(obj, path)["unknown"] = 0
    elif op == "other":
        key, other = OTHER[form]
        obj[key] = other
    else:
        parent, key = _at(obj, path[:-1]), path[-1]
        if op == "set":
            parent[key] = value  # a key absent from a dict is added
        elif op == "delete":
            del parent[key]
        else:
            parent[key] = parent[key].upper()
    return obj


@settings(max_examples=100, deadline=None, derandomize=True)
@given(schema_mutations())
@example(("cartan", ("preset",), "set", None))
@example(("ledger", (0, "kind"), "upper", None))
def test_what_the_schema_refuses_is_a_usage_error(mutation):
    # hypothesis refuses function-scoped fixtures, so the registry and the file
    # are made here
    schema, argv, _ = SCHEMA_CASES[mutation[0]]
    obj = mutated(*mutation)
    validator = jsonschema.Draft202012Validator(_load_schema(schema), registry=schema_registry())
    if validator.is_valid(obj):
        return
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert_usage_error(code, out.getvalue(), err.getvalue())


# -- the JSON writer ------------------------------------------------------------------

KEYS = st.text(max_size=6) | st.sampled_from(['"', "\n", 'a "b"', "back\\slash", "\u00e9", "\U0001d546"])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10 ** 30), 10 ** 30)
    | st.floats()
    | KEYS
)
CONTAINERS = st.deferred(
    lambda: st.lists(VALUES, min_size=1, max_size=4)
    | st.lists(VALUES, min_size=1, max_size=3).map(tuple)
    | st.dictionaries(KEYS, VALUES, min_size=1, max_size=4)
)
VALUES = st.deferred(lambda: SCALARS | st.lists(VALUES, max_size=3) | st.dictionaries(KEYS, VALUES, max_size=3))


def stock(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(VALUES)
def test_to_json_is_the_stock_encoder(obj):
    assert to_json(obj) == stock(obj)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CONTAINERS, VALUES, st.lists(st.integers(0, 3), min_size=2, max_size=5))
def test_to_json_lays_out_a_shared_subobject_as_the_stock_encoder(sub, other, depths):
    # sub is shared at each depth drawn (at one depth when a depth is drawn twice),
    # again two levels deeper, and inside pair, which is itself shared
    def nested(depth):
        x = sub
        for k in range(depth):
            x = {"k": x} if k % 2 else [x]
        return x

    pair = [sub, sub]
    obj = [nested(d) for d in depths] + [{"again": [nested(d) for d in depths], "other": other}, pair, {"p": pair}]
    assert to_json(obj) == stock(obj)


@pytest.mark.parametrize("obj", [{}, [], [[]], {"a": {}}, (), "x", 5, None], ids=repr)
def test_to_json_small_values(obj):
    assert to_json(obj) == stock(obj)

"""The benchmark's own tests: a smoke run of every workload at minimal size,
and checks that a corrupted output is counted as a failure.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def small(monkeypatch):
    """Minimal size: one collection per setup and one probe of each kind."""
    monkeypatch.setattr(inputs, "COLLECTIONS_PER_SETUP", 1)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "STARTUP_RUNS", 1)


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(small, capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_cayley27_layer_counts(small, capsys):
    metrics = bench(capsys, "cayley27", trace=1)["metrics"]
    assert metrics["parabolic.levi_tensor_calls"]["value"] == 729
    assert metrics["parabolic.twist_classes"]["value"] == 9


def test_random_collections_same_size_class():
    n = inputs.COLLECTIONS_PER_SETUP
    a, b = inputs.random_collection_objs(1, n), inputs.random_collection_objs(2, n)
    assert a != b
    assert [len(o["bundles"]) for o in a] == [len(o["bundles"]) for o in b]
    assert inputs.random_collection_objs(1, n) == a


# -- corrupted outputs ---------------------------------------------------------


def certificate():
    from weylbott.verify import builtin_collection, report_to_json, verify_strong_exceptional

    return json.loads(report_to_json(verify_strong_exceptional(builtin_collection("cayley27"))))


def test_corrupted_certificate_fails():
    obj = certificate()
    workloads.check_cayley27_json(json.dumps(obj))
    obj["tables"][5]["table"][3]["dim"] += 1
    with pytest.raises(workloads.CheckFailed):
        workloads.check_cayley27_json(json.dumps(obj))


def test_schema_addition_is_not_a_failure():
    obj = certificate()
    obj["schema_version"] = 2
    obj["provenance"] = {"engine": "x"}
    workloads.check_cayley27_json(json.dumps(obj))


def test_corrupted_ledger_fails():
    from weylbott.ledger import builtin_ledger_obj

    results = [{"name": i["name"], "passed": True} for i in builtin_ledger_obj()]
    workloads.check_ledger_json(json.dumps({"results": results}))
    results[4]["passed"] = False
    with pytest.raises(workloads.CheckFailed):
        workloads.check_ledger_json(json.dumps({"results": results}))


def test_verify_text_mismatch_fails():
    expected = {"verdict": "fail", "violations": [[[2, 1], 0, 3, "backward morphism"]]}
    text = "x: verdict FAIL\n  pair (2, 1): Ext^0 has dim 3 (backward morphism)"
    workloads.check_verify_text(text, 1, expected)
    for bad_text, bad_code in ((text, 0), (text.replace("dim 3", "dim 4"), 1),
                               (text.replace("FAIL", "PASS"), 1)):
        with pytest.raises(workloads.CheckFailed):
            workloads.check_verify_text(bad_text, bad_code, expected)


def test_corrupted_in_process_output_counts(small, capsys, monkeypatch):
    import weylbott.verify as verify

    real = verify.report_to_json
    monkeypatch.setattr(verify, "report_to_json", lambda r: real(r).replace('"dim": 1', '"dim": 2', 1))
    result = bench(capsys, "cayley27")
    assert not result["correct"] and result["failed"] >= 1


def test_corrupted_cli_output_counts(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "CLI", ("-c", "print('{}')"))
    result = bench(capsys, "ledger")
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cayley27", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark workloads: CLI commands, in-process operations and their checks.

Each workload gives
- `commands`: CLI argument lists, run by the harness as a user runs them,
  each paired with a function that checks the child's output;
- `ops`: in-process operations.  One pass over them is a cycle.  Each
  builds fresh inputs (a new `RootSystem`) and clears the character
  cache, times only the engine calls, and returns (items, seconds,
  check), where check() raises CheckFailed if the output is wrong;
- `layer_metrics`: per-layer numbers read from the last cycle's results
  rather than from spans.

Correctness is checked on the mathematical content only, never on raw
bytes, so versioned additions to the report schema are not failures.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
from contextlib import contextmanager
from time import perf_counter

import weylbott.bbw as bbw
import weylbott.characters as characters
import weylbott.ledger as ledger
import weylbott.verify as verify
from weylbott import RootSystem, get_preset
from weylbott.parabolic import make_setup, twist

import inputs

# Digests of the mathematical content of the two fixed-input workloads,
# taken from the engine at the commit that added the benchmark.  cayley27:
# verdict, pairs_checked, every pair's dims array and the violations.
# ledger: each identity's name and `passed`.
EXPECTED = {
    "cayley27": "ed060265d3de2c79bbe9d5318bbf8be214b453aa1372f18b19c50d8d7ad486fa",
    "ledger": "3fff9396dc9c0531d3fbd8e9e78e0019bf5810f87b072f279415923337f21f56",
}

SERRE_PAIRS_PER_COLLECTION = 2
CLI = ("-m", "weylbott.cli")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def cold_cache() -> None:
    # The global cache may become a per-RootSystem memo; a fresh RootSystem
    # is then cold by itself.
    clear = getattr(characters, "clear_cache", None)
    if clear is not None:
        clear()


# -- content digests ---------------------------------------------------------


def report_content(obj: dict) -> dict:
    """The mathematical content of a verification report object."""
    return {
        "verdict": obj["verdict"],
        "pairs_checked": obj["pairs_checked"],
        "dims": [
            [list(t["pair"]), [e["dim"] for e in sorted(t["table"], key=lambda e: e["degree"])]]
            for t in obj["tables"]
        ],
        "violations": sorted(
            [list(v["pair"]), v["degree"], v["dim"], v["rule"]] for v in obj["violations"]
        ),
    }


def ledger_content(results) -> list:
    return sorted([r["name"], r["passed"]] for r in results)


def check_cayley27_json(text: str) -> None:
    try:
        obj = json.loads(text)
        got = inputs.digest(report_content(obj))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable certificate: {exc!r}") from None
    require(got == EXPECTED["cayley27"], f"cayley27 content digest {got}")


def check_ledger_json(text: str) -> None:
    try:
        got = inputs.digest(ledger_content(json.loads(text)["results"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable ledger report: {exc!r}") from None
    require(got == EXPECTED["ledger"], f"ledger content digest {got}")


_VIOLATION_LINE = re.compile(r"pair \((\d+), (\d+)\): Ext\^(\d+) has dim (\d+)")
_VERDICT = re.compile(r"verdict (PASS|FAIL)")


def check_verify_text(text: str, code: int, expected: dict) -> None:
    """CLI text output against the in-process report content of the same collection."""
    want_code = 0 if expected["verdict"] == "pass" else 1
    require(code == want_code, f"exit code {code}, in-process verdict {expected['verdict']}")
    verdicts = set(_VERDICT.findall(text))
    require(verdicts == {expected["verdict"].upper()}, f"text verdicts {sorted(verdicts)}")
    got = sorted([[int(i), int(j)], int(k), int(d)] for i, j, k, d in _VIOLATION_LINE.findall(text))
    want = sorted(v[:3] for v in expected["violations"])
    require(got == want, f"{len(got)} violation lines, expected {len(want)}")


def distinct_table_ratio(reports) -> float:
    """Distinct Ext tables per ordered pair, counted within each report."""
    distinct = pairs = 0
    for report in reports:
        keys = {(tuple(t.dims), tuple(tuple(ws) for ws in t.weights)) for t in report.tables}
        distinct += len(keys)
        pairs += len(report.tables)
    return distinct / pairs if pairs else 0.0


def twist_class_ratio(collections) -> float:
    """Distinct (Levi part of a^vee, Levi part of b) over ordered pairs, from the inputs."""
    classes = pairs = 0
    for coll in collections:
        setup = coll.setup
        i = setup.crossed - 1

        def levi(w):
            return w[:i] + w[i + 1:]

        duals = [levi(setup.rs.dual_dominant(setup.levi, w)) for w in coll.bundles]
        parts = [levi(w) for w in coll.bundles]
        classes += len({(a, b) for a in duals for b in parts})
        pairs += len(coll.bundles) ** 2
    return classes / pairs


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    item = ""          # what the in-process throughput counts
    cli_share = 0.7    # share of the measured seconds spent on CLI commands

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.per_setup = inputs.COLLECTIONS_PER_SETUP
        self.inputs, self.input_digest = inputs.build(self.name, seed, self.per_setup)
        self.last_reports: list = []
        self.tracer = None  # set by a traced run; spans record only inside `timed`

    @contextmanager
    def timed(self):
        """Time the engine calls of one operation; yields a one-item list
        that holds the elapsed seconds once the block ends."""
        box = [0.0]
        gc.collect()  # every operation starts from the same heap
        if self.tracer is not None:
            self.tracer.active = True
        t0 = perf_counter()
        try:
            yield box
        finally:
            box[0] = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False

    def context(self) -> dict:
        return {}

    def extra_checks(self) -> list:
        """(name, callable) checks run once per run, outside the timed region."""
        return []

    def layer_metrics(self) -> dict:
        return {"bbw.ext_table_distinct_ratio": distinct_table_ratio(self.last_reports)}


class Cayley27(Workload):
    name = "cayley27"
    item = "pairs"
    cli_share = 0.9  # a CLI run takes about a second; keep enough samples for the tail

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.commands = [(CLI + ("verify", "cayley27", "--format", "json"), self.check_cli)]
        self.ops = [self.op]

    def context(self):
        return {"twist_class_ratio": twist_class_ratio([self.inputs])}

    def check_cli(self, out: str, code: int) -> None:
        require(code == 0, f"exit code {code}")
        check_cayley27_json(out)

    def op(self):
        coll = verify.builtin_collection("cayley27")
        cold_cache()
        with self.timed() as dt:
            report = verify.verify_strong_exceptional(coll)
            text = verify.report_to_json(report)
        self.last_reports = [report]
        return report.pairs_checked, dt[0], lambda: check_cayley27_json(text)


class RandomCollections(Workload):
    name = "random-collections"
    item = "pairs"
    cli_share = 0.6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.objs, self.colls = self.inputs
        self.expected: list = [None] * len(self.objs)
        self._schemas = None
        self.commands = []
        self.ops = []
        for idx, obj in enumerate(self.objs):
            path = os.path.join(workdir, f"collection-{idx}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            self.commands.append((CLI + ("verify", path), self._cli_checker(idx)))
            self.ops.append(self._op(idx))

    def context(self):
        return {"twist_class_ratio": twist_class_ratio(self.colls)}

    def _op(self, idx: int):
        def op():
            coll = verify.collection_from_obj(self.objs[idx])
            cold_cache()
            with self.timed() as dt:
                report = verify.verify_strong_exceptional(coll)
                verify.render_report_text(report)
            if idx == 0:
                self.last_reports = []
            self.last_reports.append(report)

            def check():
                content = report_content(verify.report_to_obj(report))
                require(content == self.reference(idx, report), f"collection {idx} changed between cycles")

            return report.pairs_checked, dt[0], check

        return op

    def _cli_checker(self, idx: int):
        def check(out: str, code: int) -> None:
            check_verify_text(out, code, self.reference(idx))

        return check

    def reference(self, idx: int, report=None) -> dict:
        """Content of the first report of collection idx, schema-checked; every
        later output of that collection must match it."""
        if self.expected[idx] is None:
            if report is None:
                report = verify.verify_strong_exceptional(verify.collection_from_obj(self.objs[idx]))
            obj = verify.report_to_obj(report)
            self.check_schemas(idx, obj)
            self.expected[idx] = report_content(obj)
        return self.expected[idx]

    def extra_checks(self):
        return [("serre", self.check_serre)]

    def check_schemas(self, idx: int, report_obj: dict) -> None:
        """The input against collection.json and its report against report.json."""
        import jsonschema

        if self._schemas is None:
            from referencing import Registry, Resource

            schema_dir = os.path.join(os.path.dirname(verify.__file__), "schemas")
            registry = Registry()
            schemas = {}
            for name in sorted(os.listdir(schema_dir)):
                if name.endswith(".json"):
                    with open(os.path.join(schema_dir, name), encoding="utf-8") as fh:
                        schemas[name] = json.load(fh)
                    registry = registry.with_resource(name, Resource.from_contents(schemas[name]))
            self._schemas = (schemas, registry)
        schemas, registry = self._schemas
        try:
            jsonschema.validate(self.objs[idx], schemas["collection.json"], registry=registry)
            jsonschema.validate(report_obj, schemas["report.json"], registry=registry)
        except jsonschema.ValidationError as exc:
            raise CheckFailed(f"collection {idx}: {exc.message}") from None

    def check_serre(self) -> None:
        """dim Ext^k(A, B) = dim Ext^(N-k)(B, A(-index)) on sampled pairs."""
        rng = random.Random(self.seed)
        for coll in self.colls:
            setup = coll.setup
            n = setup.dim_x
            for _ in range(SERRE_PAIRS_PER_COLLECTION):
                a = rng.choice(coll.bundles)
                b = rng.choice(coll.bundles)
                fwd = bbw.ext_table(setup, a, b).dims
                back = bbw.ext_table(setup, b, twist(setup, a, -setup.index)).dims
                require(
                    all(fwd[k] == back[n - k] for k in range(n + 1)),
                    f"Serre duality fails for {a}, {b} in {coll.name}",
                )


class Ledger(Workload):
    name = "ledger"
    item = "identities"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.identities = self.inputs[1]
        self.commands = [(CLI + ("ledger", "--format", "json"), self.check_cli)]
        self.ops = [self.op]

    def check_cli(self, out: str, code: int) -> None:
        require(code == 0, f"exit code {code}")
        check_ledger_json(out)

    def op(self):
        setup = make_setup(RootSystem(get_preset("E6-paper")), 1)
        cold_cache()
        with self.timed() as dt:
            results = ledger.check_ledger(setup, self.identities)

        def check():
            got = inputs.digest(ledger_content({"name": r.name, "passed": r.passed} for r in results))
            require(got == EXPECTED["ledger"], f"ledger content digest {got}")

        return len(results), dt[0], check


WORKLOADS = {w.name: w for w in (Cayley27, RandomCollections, Ledger)}

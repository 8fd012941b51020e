"""Strong-exceptionality certification for ordered bundle collections.

A collection (E_1, ..., E_n) is strongly exceptional when every E_i is
simple with no higher self-extensions, Ext^k(E_i, E_j) vanishes for all
k >= 1 when i < j, and in every degree when i > j.  The verifier runs
all n^2 ordered pairs, collects every violation, and emits a
deterministic report.
"""

from __future__ import annotations

import json
import time
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .bbw import ExtTable, cohomology_table
from .characters import orbit_size
from .errors import GuardrailExceeded
from .lie_core import RootSystem, Weight, require_int
from .parabolic import GradedBundle, ParabolicSetup, bundle_dual, check_bundle, levi_tensor, make_setup, twist
from .presets import as_int, as_int_list, cartan_from_obj, cartan_to_obj, get_preset, require_keys, to_json


# Hard ceiling on the n^2 (dim X + 1) degree entries of a certificate. cayley27
# has 12,393; O, ..., O(199) on E6/P1 has 680,000 and writes 81 MB of JSON.
MAX_DEGREE_ENTRIES = 10 ** 6


class Collection:
    """An ordered list of bundle weights on one parabolic setup."""

    __slots__ = ("name", "setup", "bundles", "preset", "blocks")

    def __init__(
        self,
        name: str,
        setup: ParabolicSetup,
        bundles: tuple[Weight, ...],
        preset: Optional[str] = None,  # name used to rebuild the Cartan matrix
        blocks: Optional[tuple[int, ...]] = None,  # display grouping, e.g. by twist
    ) -> None:
        bundles = tuple(check_bundle(setup, w) for w in bundles)
        if not bundles:
            raise ValueError("a collection needs at least one bundle")
        if blocks is not None:
            blocks = tuple(require_int(b, "a block size") for b in blocks)
            if min(blocks, default=1) < 1 or sum(blocks) != len(bundles):
                raise ValueError("block sizes must be positive and sum to the collection size")
        self.name, self.setup, self.bundles = name, setup, bundles
        self.preset, self.blocks = preset, blocks


class Violation(NamedTuple):
    pair: tuple[int, int]  # 1-based indices into the collection
    degree: int
    dim: int
    rule: str              # which exceptionality clause failed


class VerificationReport(NamedTuple):
    collection: Collection
    tables: list[ExtTable]           # row-major over ordered pairs (i, j)
    violations: list[Violation]
    elapsed_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if not self.violations else "fail"

    @property
    def pairs_checked(self) -> int:
        return len(self.tables)

    def table_for(self, i: int, j: int) -> ExtTable:
        n = len(self.collection.bundles)
        return self.tables[(i - 1) * n + (j - 1)]


def _check_pair(i: int, j: int, table: ExtTable) -> list[Violation]:
    out = []
    if i == j and table.dims[0] != 1:
        out.append(Violation((i, j), 0, table.dims[0], "endomorphisms not scalar"))
    if i > j:
        lowest, rule = 0, "backward morphism"
    else:
        lowest, rule = 1, "higher self-extension" if i == j else "higher forward extension"
    for k in range(lowest, len(table.dims)):
        if table.dims[k]:
            out.append(Violation((i, j), k, table.dims[k], rule))
    return out


def verify_strong_exceptional(coll: Collection) -> VerificationReport:
    """Check all ordered pairs; never stops early, so reports are exhaustive.

    O(1) is a character of the Levi, so E_a^dual (x) E_b is the product of
    the two factors untwisted at the crossed node, twisted by the sum of
    their crossed coordinates.  Each ordered pair is keyed by that unordered
    pair of untwisted factors and that sum; levi_tensor runs once per
    unordered pair, cohomology_table once per key on the product so
    shifted, and every pair of a key shares one table (shared; do not mutate
    its lists).  The report keeps the collection and so its root system; its
    memo, which holds the characters the run computed, is emptied on return,
    so that a kept report does not also keep them.

    A collection whose certificate would pass MAX_DEGREE_ENTRIES is refused
    before any pair is computed.
    """
    setup = coll.setup
    rs = setup.rs
    c = setup.crossed - 1
    n = len(coll.bundles)
    entries = n * n * (setup.dim_x + 1)
    if entries > MAX_DEGREE_ENTRIES:
        omega = tuple(int(i == c) for i in range(rs.rank))
        raise GuardrailExceeded(
            f"{n} bundles need {entries} degree entries, over the bound {MAX_DEGREE_ENTRIES};"
            f" no exceptional collection here has more than {orbit_size(rs, rs.full, omega)}"
            " objects, the rank of K_0"
        )
    start = time.monotonic()

    def untwist(w: Weight) -> tuple[Weight, int]:
        return w[:c] + (0,) + w[c + 1:], w[c]

    left = [untwist(bundle_dual(setup, a)) for a in coll.bundles]
    right = [untwist(b) for b in coll.bundles]
    keys = [(min(p, q), max(p, q), s + t) for p, s in left for q, t in right]
    products: dict[tuple[Weight, Weight], GradedBundle] = {}
    classes: dict[tuple[Weight, Weight, int], ExtTable] = {}
    try:
        for p, q, shift in dict.fromkeys(keys):
            if (p, q) not in products:
                products[p, q] = levi_tensor(setup, p, q)
            classes[p, q, shift] = cohomology_table(
                setup, [(w[:c] + (w[c] + shift,) + w[c + 1:], m) for w, m in products[p, q]]
            )
    finally:
        rs.memo.clear()
    tables = [classes[k] for k in keys]
    violations = [v for k, t in enumerate(tables) for v in _check_pair(k // n + 1, k % n + 1, t)]
    return VerificationReport(coll, tables, violations, time.monotonic() - start)


# -- built-in collections -------------------------------------------------


BUILTIN_COLLECTIONS = ("cayley27", "kapranovQ7")


def builtin_collection(name: str) -> Collection:
    if name == "cayley27":
        rs = RootSystem(get_preset("E6-paper"))
        setup = make_setup(rs, 1)
        s2_star = (-2, 0, 0, 0, 0, 2)
        s_star = (-1, 0, 0, 0, 0, 1)
        o = (0, 0, 0, 0, 0, 0)
        bundles: list[Weight] = []
        blocks: list[int] = []
        for t in range(3):
            bundles += [twist(setup, s2_star, t), twist(setup, s_star, t), twist(setup, o, t)]
            blocks.append(3)
        for t in range(3, 12):
            bundles += [twist(setup, s_star, t), twist(setup, o, t)]
            blocks.append(2)
        return Collection("cayley27", setup, tuple(bundles), "E6-paper", tuple(blocks))
    if name == "kapranovQ7":
        rs = RootSystem(get_preset("B4"))
        setup = make_setup(rs, 1)
        o = (0, 0, 0, 0)
        spinor = (0, 0, 0, 1)
        bundles = [
            twist(setup, o, 5),
            twist(setup, o, 6),
            twist(setup, spinor, 6),
            twist(setup, o, 7),
            twist(setup, o, 8),
            twist(setup, o, 9),
            twist(setup, o, 10),
            twist(setup, o, 11),
        ]
        return Collection("kapranovQ7", setup, tuple(bundles), "B4", (7, 1))
    raise ValueError(
        f"unknown built-in collection {name!r}; available: {', '.join(BUILTIN_COLLECTIONS)}"
    )


# -- JSON in/out ------------------------------------------------------------


def collection_from_obj(obj: dict) -> Collection:
    """Build a collection from a collection.json object; ValueError if malformed."""
    if not isinstance(obj, dict):
        raise ValueError(f"a collection must be a JSON object, got {obj!r}")
    require_keys(obj, ("name", "preset", "cartan", "crossed", "bundles", "blocks"), "a collection")
    name = obj.get("name", "collection")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    preset = obj.get("preset")
    if "preset" in obj:
        if not isinstance(preset, str):
            raise ValueError(f"preset must be a string, got {preset!r}")
        if "cartan" in obj:
            raise ValueError("a collection needs a preset or a cartan matrix, not both")
        cartan = get_preset(preset)
    elif "cartan" in obj:
        cartan = cartan_from_obj(obj["cartan"])
    else:
        raise ValueError("a collection needs a preset or a cartan matrix")
    bundles = obj.get("bundles")
    if not isinstance(bundles, list):
        raise ValueError(f"bundles must be a list, got {bundles!r}")
    for b in bundles:
        if not isinstance(b, dict):
            raise ValueError(f"each bundle must be an object with a weight, got {b!r}")
        require_keys(b, ("weight",), "a bundle")
    weights = tuple(tuple(as_int_list(b.get("weight"), "a bundle weight")) for b in bundles)
    setup = make_setup(RootSystem(cartan), as_int(obj.get("crossed"), "crossed"))
    blocks = tuple(as_int_list(obj["blocks"], "blocks")) if "blocks" in obj else None
    return Collection(name, setup, weights, preset, blocks)


def collection_to_obj(coll: Collection) -> dict:
    obj: dict = {"name": coll.name, "crossed": coll.setup.crossed}
    if coll.preset is not None:
        obj["preset"] = coll.preset
    else:
        obj["cartan"] = cartan_to_obj(coll.setup.rs.cartan)
    obj["bundles"] = [{"weight": list(w)} for w in coll.bundles]
    if coll.blocks is not None:
        obj["blocks"] = list(coll.blocks)
    return obj


def g_module_obj(rs: RootSystem, w: Weight) -> dict:
    """A G-module as printed: its highest weight and that of its dual."""
    return {"weight": list(w), "dual": list(rs.dual_dominant(rs.full, w))}


def _entry_obj(rs: RootSystem, degree: int, dim: int, modules: Iterable[tuple[Weight, int]]) -> dict:
    """One degree's entry of an Ext table, in the shape of ext-table.json."""
    return {"degree": degree, "dim": dim, "weights": [{**g_module_obj(rs, w), "mult": m} for w, m in modules]}


def ext_table_to_obj(setup: ParabolicSetup, table: ExtTable) -> list[dict]:
    """One entry per degree 0..dim X, in the shape of ext-table.json; no memo, no sharing."""
    return [_entry_obj(setup.rs, k, dim, m) for k, (dim, m) in enumerate(zip(table.dims, table.weights))]


def _header(report: VerificationReport) -> dict:
    """The certificate's fields other than "tables"."""
    coll = report.collection
    return {
        "collection": collection_to_obj(coll),
        "dim_x": coll.setup.dim_x,
        "index": coll.setup.index,
        "size": len(coll.bundles),
        "pairs_checked": report.pairs_checked,
        "verdict": report.verdict,
        "violations": [
            {"pair": list(v.pair), "degree": v.degree, "dim": v.dim, "rule": v.rule}
            for v in report.violations
        ],
    }


def report_to_obj(report: VerificationReport) -> dict:
    """The certificate as a JSON object, read back from report_to_json's text."""
    return json.loads(report_to_json(report))


# One pair's wrapper in the certificate, up to its table, which opens at depth 6.
_PAIR = ',\n    {\n      "pair": [\n        %d,\n        %d\n      ],\n      "table": '


def report_to_json(report: VerificationReport) -> str:
    """The certificate text, byte for byte as json.dumps(sort_keys=True, indent=2) writes
    it, built from the report in one loop with two memos of text: each distinct degree
    entry, keyed by (degree, dim, modules), is laid out by to_json once, and each distinct
    table (a twist class's pairs share one, keyed by id) is joined once from those
    texts.  Each pair's wrapper is _PAIR filled in; every piece goes to one list."""
    rs = report.collection.setup.rs
    n = len(report.collection.bundles)
    # to_json escapes every newline inside a string, so indenting each line of an
    # entry's text by 8 puts the entry at its depth in the certificate
    pad = "\n        "
    entries: dict = {}  # (degree, dim, modules) -> the entry's text
    tables: dict = {}  # id(table) -> its text, which also closes its pair's wrapper
    # the header around "tables", which no string can fake: each newline in one is escaped
    before, _, after = to_json({**_header(report), "tables": None}).partition('\n  "tables": null')
    out = [before, '\n  "tables": [']
    for k, t in enumerate(report.tables):
        text = tables.get(id(t))
        if text is None:
            laid = []
            for key in zip(range(len(t.dims)), t.dims, map(tuple, t.weights)):
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = to_json(_entry_obj(rs, *key)).replace("\n", pad)
                laid.append(entry)
            text = tables[id(t)] = ("[" + pad + ("," + pad).join(laid) + "\n      ]" if laid else "[]") + "\n    }"
        out += (_PAIR % (k // n + 1, k % n + 1), text)
    out[2] = out[2][1:]  # no comma before the first pair
    out += ("\n  ]", after)
    return "".join(out)


def render_report_text(report: VerificationReport) -> str:
    coll = report.collection
    n = len(coll.bundles)
    lines = [
        f"{coll.name}: {n} bundles, {report.pairs_checked} pairs, "
        f"{len(report.violations)} violation(s), verdict {report.verdict.upper()} "
        f"({report.elapsed_seconds:.2f}s)",
        "",
    ]
    lines.append("Hom matrix (dim Hom(E_row, E_col)):")
    hom = [[report.table_for(i + 1, j + 1).dims[0] for j in range(n)] for i in range(n)]
    width = max(len(str(x)) for row in hom for x in row)
    cuts = set(accumulate((coll.blocks or ())[:-1]))  # first index of each block after the first

    def fmt_row(row: list[int]) -> str:
        return " ".join(("| " if j in cuts else "") + str(x).rjust(width) for j, x in enumerate(row))

    rule = "-" * len(fmt_row(hom[0]))
    for i, row in enumerate(hom):
        if i in cuts:
            lines.append(rule)
        lines.append(fmt_row(row))
    lines.append("")
    if report.violations:
        lines.append(f"{len(report.violations)} violation(s):")
        for v in report.violations:
            lines.append(
                f"  pair {v.pair}: Ext^{v.degree} has dim {v.dim} ({v.rule})"
            )
    else:
        lines.append("no violations: the collection is strongly exceptional")
    return "\n".join(lines)

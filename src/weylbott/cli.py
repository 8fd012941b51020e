"""Command-line front end.

Exit codes: 0 success, 1 a verification or ledger check failed,
2 usage error, 3 engine error (non-finite type, dominance violation,
guardrail, parse failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .bbw import cohomology, ext_table
from .characters import char_dim, irrep_character, weyl_dim
from .errors import EngineError
from .ledger import (
    builtin_ledger,
    check_ledger,
    ledger_report_obj,
    load_ledger,
    render_ledger_text,
)
from .lie_core import RootSystem, Subsystem, Weight
from .parabolic import (
    ParabolicSetup,
    branch,
    bundle_c1,
    levi_tensor,
    make_setup,
)
from .presets import get_preset, load_cartan, preset_names
from .verify import (
    BUILTIN_COLLECTIONS,
    builtin_collection,
    ext_table_to_obj,
    load_collection,
    render_report_text,
    report_to_json,
    verify_strong_exceptional,
)

USAGE_ERROR = 2
ENGINE_ERROR = 3


def _parse_weight(text: str) -> Weight:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError(f"weight must be comma-separated integers, got {text!r}") from None


def _build_root_system(args) -> RootSystem:
    if args.cartan:
        return RootSystem(load_cartan(args.cartan))
    return RootSystem(get_preset(args.preset))


def _setup_or_full(args) -> tuple[RootSystem, Optional[ParabolicSetup], Subsystem]:
    rs = _build_root_system(args)
    if getattr(args, "crossed", None):
        setup = make_setup(rs, args.crossed)
        return rs, setup, setup.levi
    return rs, None, Subsystem.full(rs.rank)


def _char_obj(c: dict) -> list[dict]:
    return [{"weight": list(w), "mult": m} for w, m in sorted(c.items())]


def _graded_obj(graded) -> list[dict]:
    return [{"weight": list(w), "mult": m} for w, m in graded]


def _emit(args, obj, text: str) -> None:
    if args.format == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(text)


def _cmd_presets(args) -> int:
    _emit(args, preset_names(), "\n".join(preset_names()))
    return 0


def _cmd_dim(args) -> int:
    rs, _, sub = _setup_or_full(args)
    d = weyl_dim(rs, sub, _parse_weight(args.weight))
    _emit(args, {"dim": d}, str(d))
    return 0


def _cmd_char(args) -> int:
    rs, _, sub = _setup_or_full(args)
    ch = irrep_character(rs, sub, _parse_weight(args.weight))
    text = "\n".join(f"{list(w)}: {m}" for w, m in sorted(ch.items()))
    _emit(args, _char_obj(ch), f"{text}\ntotal {char_dim(ch)}")
    return 0


def _cmd_c1(args) -> int:
    rs, setup, _ = _setup_or_full(args)
    c = bundle_c1(setup, _parse_weight(args.weight))
    _emit(args, {"c1": c}, str(c))
    return 0


def _cmd_tensor(args) -> int:
    rs, setup, _ = _setup_or_full(args)
    comps = levi_tensor(setup, _parse_weight(args.weight), _parse_weight(args.weight2))
    text = "\n".join(f"{list(w)} x {m}" for w, m in comps)
    _emit(args, _graded_obj(comps), text)
    return 0


def _cmd_branch(args) -> int:
    rs, setup, _ = _setup_or_full(args)
    comps = branch(setup, _parse_weight(args.weight))
    text = "\n".join(f"{list(w)} x {m}" for w, m in comps)
    _emit(args, _graded_obj(comps), text)
    return 0


def _cmd_cohomology(args) -> int:
    rs, setup, _ = _setup_or_full(args)
    res = cohomology(setup, _parse_weight(args.weight))
    if res.is_zero:
        obj = {"degree": None, "weight": None, "dual": None, "dim": 0}
        text = "zero"
    else:
        dual = rs.dual_dominant(Subsystem.full(rs.rank), res.g_weight)
        obj = {
            "degree": res.degree,
            "weight": list(res.g_weight),
            "dual": list(dual),
            "dim": res.dim,
        }
        text = (
            f"degree {res.degree}: weight {list(res.g_weight)} "
            f"(dual {list(dual)}), dim {res.dim}"
        )
    _emit(args, obj, text)
    return 0


def _cmd_ext(args) -> int:
    rs, setup, _ = _setup_or_full(args)
    table = ext_table(setup, _parse_weight(args.weight), _parse_weight(args.weight2))
    lines = []
    for k in range(table.dim_x + 1):
        if table.dims[k] or args.all_degrees:
            ws = ", ".join(f"{list(w)} x {m}" for w, m in table.weights[k]) or "-"
            lines.append(f"Ext^{k}: dim {table.dims[k]}  [{ws}]")
    if not lines:
        lines.append("all degrees vanish")
    _emit(args, ext_table_to_obj(setup, table), "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    target = args.target
    # A built-in name wins over a file of that name in the working directory.
    if target not in BUILTIN_COLLECTIONS and (
        target.endswith(".json") or os.path.sep in target or os.path.exists(target)
    ):
        coll = load_collection(target)
    else:
        coll = builtin_collection(target)
    report = verify_strong_exceptional(coll)
    if args.format == "json":
        print(report_to_json(report))
    else:
        print(render_report_text(report))
    return 0 if report.verdict == "pass" else 1


def _cmd_ledger(args) -> int:
    rs, setup, _ = _setup_or_full(args)
    identities = load_ledger(args.ledger_file) if args.ledger_file else builtin_ledger()
    results = check_ledger(setup, identities)
    if args.format == "json":
        print(json.dumps(ledger_report_obj(results), sort_keys=True, indent=2))
    else:
        print(render_ledger_text(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbott",
        description="Exact Lie-theoretic computations for homogeneous vector bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, crossed_required=False, crossed_default=None):
        p.add_argument("--preset", default="E6-paper", help="named Cartan matrix")
        p.add_argument("--cartan", help="path to a Cartan matrix JSON file (overrides --preset)")
        p.add_argument(
            "--crossed",
            type=int,
            default=crossed_default,
            required=crossed_required,
            help="crossed node (1-based); omit to work with the full system",
        )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("presets", help="list named Cartan matrices")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("dim", help="dimension of an irreducible module")
    common(p)
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("char", help="full character of an irreducible module")
    common(p)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("c1", help="first Chern class of a bundle")
    common(p, crossed_required=False, crossed_default=1)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_c1)

    p = sub.add_parser("tensor", help="decompose a tensor product of two bundles")
    common(p, crossed_default=1)
    p.add_argument("--weight", required=True)
    p.add_argument("--weight2", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("branch", help="restrict a full-system module to the Levi")
    common(p, crossed_default=1)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_branch)

    p = sub.add_parser("cohomology", help="sheaf cohomology of one bundle")
    common(p, crossed_default=1)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("ext", help="Ext table between two bundles")
    common(p, crossed_default=1)
    p.add_argument("--weight", required=True)
    p.add_argument("--weight2", required=True)
    p.add_argument("--all-degrees", action="store_true", help="print vanishing degrees too")
    p.set_defaults(func=_cmd_ext)

    p = sub.add_parser("verify", help="certify strong exceptionality of a collection")
    p.add_argument(
        "target",
        nargs="?",
        default="cayley27",
        help="built-in collection name or path to a collection JSON file (default: cayley27)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ledger", help="check an identity ledger")
    common(p, crossed_default=1)
    p.add_argument("--ledger-file", help="path to a ledger JSON file (default: built-ins)")
    p.set_defaults(func=_cmd_ledger)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ENGINE_ERROR
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

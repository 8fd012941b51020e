"""Command-line front end.

Exit codes: 0 success, 1 a verification or ledger check failed,
2 usage error, 3 engine error (non-finite type, dominance violation,
guardrail, parse failure).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .characters import char_dim, irrep_character, weight_mults_obj, weyl_dim
from .errors import EngineError
from .lie_core import RootSystem, Subsystem, Weight
from .parabolic import ParabolicSetup, branch, bundle_c1, levi_tensor, make_setup
from .presets import PRESETS, cartan_from_obj, get_preset, preset_names, read_json, to_json
# bbw, verify and ledger load inside the subcommands that use them, so start-up stays small

USAGE_ERROR = 2
ENGINE_ERROR = 3


def _parse_weight(text: str) -> Weight:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError:
        raise ValueError(f"weight must be comma-separated integers, got {text!r}") from None


def _names_file(name: str, builtins) -> bool:
    """A built-in name wins over a file of that name in the working directory;
    otherwise a .json suffix, a path separator or an existing path means a file."""
    return name not in builtins and (
        name.endswith(".json") or os.path.sep in name or os.path.exists(name)
    )


def _root_system(args) -> RootSystem:
    name = args.preset
    return RootSystem(cartan_from_obj(read_json(name)) if _names_file(name, PRESETS) else get_preset(name))


def _subsystem(args) -> tuple[RootSystem, Subsystem]:
    """The full system unless --crossed names a node, then its Levi."""
    rs = _root_system(args)
    if args.crossed is None:
        return rs, rs.full
    return rs, Subsystem.levi(rs.rank, args.crossed)


def _setup(args) -> ParabolicSetup:
    return make_setup(_root_system(args), args.crossed)


def _write(text: str) -> None:
    """The one write to stdout. A reader that closes the pipe early does not change
    the exit code: stdout goes to the null device, so the final flush stays quiet."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, obj, text: str) -> None:
    _write(to_json(obj) if args.format == "json" else text)


def _cmd_presets(args) -> int:
    _emit(args, preset_names(), "\n".join(preset_names()))
    return 0


def _cmd_dim(args) -> int:
    rs, sub = _subsystem(args)
    d = weyl_dim(rs, sub, _parse_weight(args.weight))
    _emit(args, {"dim": d}, str(d))
    return 0


def _cmd_char(args) -> int:
    rs, sub = _subsystem(args)
    ch = irrep_character(rs, sub, _parse_weight(args.weight))
    items = sorted(ch.items())
    text = "\n".join(f"{list(w)}: {m}" for w, m in items)
    _emit(args, weight_mults_obj(items), f"{text}\ntotal {char_dim(ch)}")
    return 0


def _cmd_c1(args) -> int:
    c = bundle_c1(_setup(args), _parse_weight(args.weight))
    _emit(args, {"c1": c}, str(c))
    return 0


def _cmd_tensor(args) -> int:
    comps = levi_tensor(_setup(args), _parse_weight(args.weight), _parse_weight(args.weight2))
    _emit(args, weight_mults_obj(comps), "\n".join(f"{list(w)} x {m}" for w, m in comps))
    return 0


def _cmd_branch(args) -> int:
    comps = branch(_setup(args), _parse_weight(args.weight))
    _emit(args, weight_mults_obj(comps), "\n".join(f"{list(w)} x {m}" for w, m in comps))
    return 0


def _cmd_cohomology(args) -> int:
    from . import bbw, verify

    setup = _setup(args)
    res = bbw.cohomology(setup, _parse_weight(args.weight))
    if res.is_zero:
        _emit(args, {"degree": None, "weight": None, "dual": None, "dim": 0}, "zero")
        return 0
    g = verify.g_module_obj(setup.rs, res.g_weight)
    text = f"degree {res.degree}: weight {g['weight']} (dual {g['dual']}), dim {res.dim}"
    _emit(args, {"degree": res.degree, "dim": res.dim, **g}, text)
    return 0


def _cmd_ext(args) -> int:
    from . import bbw, verify

    setup = _setup(args)
    table = bbw.ext_table(setup, _parse_weight(args.weight), _parse_weight(args.weight2))
    lines = []
    for k, dim in enumerate(table.dims):
        if dim:
            ws = ", ".join(f"{list(w)} x {m}" for w, m in table.weights[k])
            lines.append(f"Ext^{k}: dim {dim}  [{ws}]")
    _emit(args, verify.ext_table_to_obj(setup, table), "\n".join(lines) or "all degrees vanish")
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    target = args.target
    if _names_file(target, verify.BUILTIN_COLLECTIONS):
        coll = verify.collection_from_obj(read_json(target))
    else:
        coll = verify.builtin_collection(target)
    report = verify.verify_strong_exceptional(coll)
    _write(verify.report_to_json(report) if args.format == "json" else verify.render_report_text(report))
    return 0 if report.verdict == "pass" else 1


def _cmd_ledger(args) -> int:
    from . import ledger

    setup = _setup(args)
    identities = ledger.identities_from_obj(read_json(args.ledger_file)) if args.ledger_file else ledger.builtin_ledger()
    results = ledger.check_ledger(setup, identities)
    obj = ledger.ledger_report_obj(results)
    _emit(args, obj, ledger.render_ledger_text(results))
    return 0 if obj["verdict"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylbott",
        description="Exact Lie-theoretic computations for homogeneous vector bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, crossed=1, weights=1):
        """A root-system subcommand: --preset, --crossed, --format, then `weights` weights."""
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--preset",
            default="E6-paper",
            help="named Cartan matrix or path to a Cartan matrix JSON file",
        )
        where = "omit to work with the full system" if crossed is None else f"default {crossed}"
        p.add_argument(
            "--crossed", type=int, default=crossed, help=f"crossed node (1-based); {where}"
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        for opt in ("--weight", "--weight2")[:weights]:
            p.add_argument(opt, required=True, help="comma-separated coordinates")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("presets", help="list named Cartan matrices")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_presets)

    command("dim", "dimension of an irreducible module", _cmd_dim, crossed=None)
    command("char", "full character of an irreducible module", _cmd_char, crossed=None)
    command("c1", "first Chern class of a bundle", _cmd_c1)
    command("tensor", "decompose a tensor product of two bundles", _cmd_tensor, weights=2)
    command("branch", "restrict a full-system module to the Levi", _cmd_branch)
    command("cohomology", "sheaf cohomology of one bundle", _cmd_cohomology)
    command("ext", "Ext table between two bundles", _cmd_ext, weights=2)

    p = sub.add_parser("verify", help="certify strong exceptionality of a collection")
    p.add_argument(
        "target",
        nargs="?",
        default="cayley27",
        help="built-in collection name or path to a collection JSON file (default: cayley27)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = command("ledger", "check an identity ledger", _cmd_ledger, weights=0)
    p.add_argument("--ledger-file", help="path to a ledger JSON file (default: built-ins)")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse turns "--opt=--" into an empty list
        parser.error("an option was given '--' as its value")
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ENGINE_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

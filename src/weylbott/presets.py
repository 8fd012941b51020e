"""Named Cartan matrices, JSON loading and the one JSON writer.

The "E6-paper" labeling runs the chain 1-2-3-5-6 with node 4 attached
to node 3; "E6-bourbaki" is the textbook order, kept for comparison.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str

from .lie_core import CartanMatrix, guard_rank


def _simply_laced(rank: int, edges: list[tuple[int, int]]) -> CartanMatrix:
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        rows[i - 1][j - 1] = -1
        rows[j - 1][i - 1] = -1
    return CartanMatrix(rows)


def _type_b(rank: int) -> CartanMatrix:
    """Chain 1..rank with the last simple root short."""
    m = _simply_laced(rank, [(i, i + 1) for i in range(1, rank)])
    rows = [list(r) for r in m.entries]
    rows[rank - 1][rank - 2] = -2
    return CartanMatrix(rows)


PRESETS: dict[str, CartanMatrix] = {
    "E6-paper": _simply_laced(6, [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)]),
    "E6-bourbaki": _simply_laced(6, [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]),
    "D5": _simply_laced(5, [(1, 2), (2, 3), (3, 4), (3, 5)]),
    "B4": _type_b(4),
    "B3": _type_b(3),
    "A2": _simply_laced(2, [(1, 2)]),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> CartanMatrix:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None


def as_int(x, what: str) -> int:
    """x if it is a JSON integer (1.0 counts, true does not), else ValueError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{what} must be an integer, got {x!r}")


def as_int_list(x, what: str) -> list[int]:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list of integers, got {x!r}")
    return [as_int(v, what) for v in x]


def require_keys(obj: dict, allowed: tuple[str, ...], what: str) -> None:
    """ValueError if obj has a key outside allowed, as additionalProperties: false."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {', '.join(unknown)}; allowed: {', '.join(allowed)}")


def cartan_from_obj(obj: dict) -> CartanMatrix:
    """Build a Cartan matrix from {"rank": n, "entries": [[...], ...]}; the row count and the
    rank bound are checked before any entry is read, so an oversized file fails fast."""
    if not isinstance(obj, dict):
        raise ValueError(f"a Cartan matrix must be a JSON object, got {obj!r}")
    require_keys(obj, ("rank", "entries"), "a Cartan matrix")
    rank = as_int(obj.get("rank"), "rank")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list of rows, got {entries!r}")
    if len(entries) != rank:
        raise ValueError(f"entries has {len(entries)} rows, rank says {rank}")
    guard_rank(rank)
    return CartanMatrix(as_int_list(row, "a Cartan matrix row") for row in entries)


def read_json(path: str):
    """The JSON value in a file; a ValueError naming the file if it is not JSON or nests too deep."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) byte for byte, for str keys."""

    def write(x, pad: str, out: list[str]) -> list[str]:
        inner = pad + "  "
        if not isinstance(x, (dict, list, tuple)) or not x:
            out.append(
                str(x) if type(x) is int
                else _encode_str(x) if type(x) is str
                else "null" if x is None else "true" if x is True else "false" if x is False
                else "{}" if isinstance(x, dict) else "[]" if isinstance(x, (list, tuple))  # empty here
                else json.dumps(x)
            )
        elif isinstance(x, dict):
            for i, k in enumerate(sorted(x)):
                out.append(("," if i else "{") + inner + _encode_str(k) + ": ")
                write(x[k], inner, out)
            out.append(pad + "}")
        else:
            for i, v in enumerate(x):
                out.append(("," if i else "[") + inner + (str(v) if type(v) is int else ""))
                if type(v) is not int:  # an int, the common leaf, is written without a call
                    write(v, inner, out)
            out.append(pad + "]")
        return out

    return "".join(write(obj, "\n", []))


def cartan_to_obj(cartan: CartanMatrix) -> dict:
    return {"rank": cartan.rank, "entries": [list(row) for row in cartan.entries]}

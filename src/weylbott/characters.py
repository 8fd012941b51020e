"""Exact character arithmetic over a chosen subsystem.

A character is a finite dict {weight: multiplicity} with nonzero integer
values.  Irreducible characters come from Freudenthal's recursion on the
dominant cone; wedge and symmetric powers by expanding the product of
(1 + t e^w) or 1 / (1 - t e^w) over the weights w, each to its multiplicity.
One Brauer-Klimyk sum, a dotted walk per weight, decomposes both a
Weyl-invariant character and a tensor product with an irreducible.
"""

from __future__ import annotations

from itertools import chain
from math import comb, prod
from operator import add, mul, sub as subtract
from typing import Iterable, NoReturn

from .errors import EngineError, GuardrailExceeded, NotDecomposable
from .lie_core import RootSystem, Subsystem, Weight, chain_pairings

Character = dict[Weight, int]

# Hard ceiling on character support; a product that would cross it is
# almost certainly a mistake in the calling code.
MAX_SUPPORT = 10 ** 6


def _guard(size: int) -> None:
    if size > MAX_SUPPORT:
        raise GuardrailExceeded(f"character support {size} exceeds bound {MAX_SUPPORT}")


# -- dimensions and orbits ---------------------------------------------


def weyl_dim(rs: RootSystem, sub: Subsystem, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam: the Weyl product over the coroot chain."""
    lam = rs.require_dominant(sub, lam)
    sr = rs.sub_roots(sub)
    # <lam + rho, a^vee> = <lam, a^vee> + <rho, a^vee>
    num = prod(map(add, chain_pairings(sr.chain, lam), sr.coroot_heights))
    q, rem = divmod(num, sr.rho_product)
    if rem:
        raise EngineError(f"Weyl dimension of {lam} is not an integer: {num}/{sr.rho_product}")
    return q


def orbit_size(rs: RootSystem, sub: Subsystem, nu: Weight) -> int:
    """|W_sub . nu| for a sub-dominant nu. |W| is the product of (h + 1) / h over the
    positive coroots a^vee of height h = <rho, a^vee>, and the stabilizer of nu is the
    Weyl group of those with <nu, a^vee> = 0, so the orbit is the product over the others."""
    sr = rs.sub_roots(sub)
    num = den = 1
    for pairing, h in zip(chain_pairings(sr.chain, nu), sr.coroot_heights):
        if pairing:
            num *= h + 1
            den *= h
    return num // den


def _dominant_weights(rs: RootSystem, sub: Subsystem, lam: Weight) -> dict[Weight, Weight]:
    """Sub-dominant weights of the irrep, mapped to root coordinates of lam - mu;
    the support, the sum of their orbits, is bounded before any multiplicity."""
    roots = rs.sub_roots(sub).roots
    zero = (0,) * rs.rank
    found: dict[Weight, Weight] = {lam: zero}
    support = orbit_size(rs, sub, lam)
    queue = [lam]
    while queue:
        _guard(support)
        mu = queue.pop()
        off = found[mu]
        for r in roots:
            nu = tuple(map(subtract, mu, r.weight))
            if nu in found or not rs.is_dominant(sub, nu):
                continue
            found[nu] = tuple(map(add, off, r.simple_coords))
            support += orbit_size(rs, sub, nu)
            queue.append(nu)
    return found


def _freudenthal(rs: RootSystem, sub: Subsystem, lam: Weight, dom: dict) -> Character:
    """Full character of the irrep with highest weight lam, dom its sub-dominant weights.

    Taken by depth, each nu reads m(nu + k alpha) from the character itself: the
    dominant conjugate of nu + k alpha lies above nu, so its orbit is already filled."""
    sr = rs.sub_roots(sub)
    d = sr.symmetrizer
    # per root: its weight, and the form <alpha, .> as (simple coordinates) x d
    steps = [(r.weight, tuple(map(mul, r.simple_coords, d))) for r in sr.roots]
    # _dominant_weights has bounded the support, so each orbit is written as it is walked
    mults: Character = dict.fromkeys(chain.from_iterable(rs.orbit_layers(sub, lam)), 1)
    for nu in sorted(dom, key=lambda w: (sum(dom[w]), w)):
        if nu == lam:
            continue
        off = dom[nu]  # root coordinates of lam - nu; positive total
        total = 0
        for step, form in steps:
            mu = nu
            while True:
                mu = tuple(map(add, mu, step))
                m = mults.get(mu, 0)
                if m == 0:
                    break  # weight strings of an irrep have no internal gaps
                total += m * sum(map(mul, form, mu))
        den = sum(c * di * (a + b + 2) for c, di, a, b in zip(off, d, lam, nu))
        q, rem = divmod(2 * total, den)
        if rem or q <= 0:
            raise EngineError(f"Freudenthal multiplicity of {nu} in {lam} is {2 * total}/{den}")
        mults.update(dict.fromkeys(chain.from_iterable(rs.orbit_layers(sub, nu)), q))
    return mults


def irrep_character(rs: RootSystem, sub: Subsystem, lam: Weight) -> Character:
    """Full character of the irreducible with highest weight lam; a private copy.

    Freudenthal runs once per part, lam set to 0 off the nodes of sub: lam - part
    pairs to 0 with every coroot of sub, so lam's character is the part's shifted by it."""
    lam = rs.require_dominant(sub, lam)
    chars = rs.sub_roots(sub).chars
    part = tuple([x if i in sub.index else 0 for i, x in enumerate(lam)])
    out = chars.get(part)
    if out is None:
        out = chars[part] = _freudenthal(rs, sub, part, _dominant_weights(rs, sub, part))
    if part == lam:
        return dict(out)
    shift = tuple(map(subtract, lam, part))
    return {tuple(map(add, w, shift)): m for w, m in out.items()}


# -- ring operations ----------------------------------------------------


def weight_mults_obj(pairs: Iterable[tuple[Weight, int]]) -> list[dict]:
    """[{"weight": [...], "mult": m}, ...] in the given order (character.json)."""
    return [{"weight": list(w), "mult": m} for w, m in pairs]


def char_dim(c: Character) -> int:
    return sum(c.values())


def char_add(a: Character, b: Character) -> Character:
    out = dict(a)
    for w, m in b.items():
        n = out.get(w, 0) + m
        if n:
            out[w] = n
        else:
            out.pop(w, None)
    return out


def char_mul(a: Character, b: Character) -> Character:
    if len(a) > len(b):
        a, b = b, a
    if a:
        _guard(len(b))  # the first row is b shifted by one weight
    out: Character = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            w = tuple(map(add, wa, wb))
            n = out.get(w, 0) + ma * mb
            if n:
                out[w] = n
            else:
                out.pop(w, None)
        _guard(len(out))
    return out


def char_dual(a: Character) -> Character:
    return {tuple(-x for x in w): m for w, m in a.items()}


def char_twist(a: Character, node: int, t: int) -> Character:
    """Shift every weight by t at the given node (1-based)."""
    if t == 0:
        return dict(a)
    i = node - 1
    return {w[:i] + (w[i] + t,) + w[i + 1:]: m for w, m in a.items()}


# -- plethysms -----------------------------------------------------------


def _rank_of(c: Character) -> int:
    for w in c:
        return len(w)
    raise ValueError("cannot infer rank from an empty character")


def power_op(c: Character, k: int, kind: str) -> Character:
    """Wedge or symmetric power: the degree-k part of prod_w (1 + t e^w)^m
    (wedge) or prod_w (1 - t e^w)^(-m) (sym), w over the weights of c with
    multiplicity m."""
    if kind not in ("wedge", "sym"):
        raise ValueError(f"unknown power operation {kind!r}")
    if k < 0:
        raise ValueError("power operations need k >= 0")
    if k == 0:
        return {(0,) * _rank_of(c): 1}
    if any(m < 0 for m in c.values()):
        raise ValueError(f"{kind} power of a virtual character is undefined")
    # Each weight makes up to k(k+1)/2 steps, one per pair of layers j > j - i;
    # the work counts the terms they shift, so a large k or a large c stops.
    products = k * (k + 1) // 2
    if products > MAX_SUPPORT:
        raise GuardrailExceeded(f"{kind}^{k} needs {products} products, over the work bound {MAX_SUPPORT}")
    layers: list[Character] = [{(0,) * _rank_of(c): 1} if c else {}] + [{} for _ in range(k)]
    work = 0
    for w, m in c.items():
        steps = [tuple(i * x for x in w) for i in range(k + 1)]  # i w, by i
        # highest layer first, so each step reads layers this weight has not yet changed
        for j in range(k, 0, -1):
            for i in range(1, j + 1):
                coeff = comb(m, i) if kind == "wedge" else comb(m + i - 1, i)
                if coeff == 0:
                    break
                work += len(layers[j - i])
                if work > MAX_SUPPORT:
                    raise GuardrailExceeded(f"{kind}^{k} passes the work bound {MAX_SUPPORT} at {kind}^{j}")
                # in place, so a step costs what it counts (char_add would copy
                # layer j every step); all terms are positive, none cancels
                out, step = layers[j], steps[i]
                for v, n in layers[j - i].items():
                    u = tuple(map(add, v, step))
                    out[u] = out.get(u, 0) + coeff * n
    return layers[k]


# -- decomposition -------------------------------------------------------


def brauer_klimyk(rs: RootSystem, sub: Subsystem, c: Character, top: Weight) -> Character:
    """V_top (x) c for a sub-Weyl-invariant c, as {highest weight: coefficient}.

    Each weight mu of c with multiplicity m adds (-1)^l m at the dotted-dominant
    conjugate of top + mu, of length l, or nothing when top + mu + rho is
    singular.  The dimensions of the result must add up to dim c * dim V_top.
    """
    top = rs.require_dominant(sub, top)  # before any walk, which would index past a short top
    acc: Character = {}
    dotted = rs.dotted_to_dominant
    for mu, m in c.items():
        hit = dotted(sub, map(add, top, mu))  # read once, so no tuple is built per weight
        if hit is not None:
            count, w = hit
            n = acc.get(w, 0) + (-m if count & 1 else m)
            if n:
                acc[w] = n
            else:
                acc.pop(w, None)
    total = sum(k * weyl_dim(rs, sub, w) for w, k in acc.items())
    expected = char_dim(c) * weyl_dim(rs, sub, top)
    if total != expected:
        raise EngineError(f"rank bookkeeping failed for V{top} (x) a character of dimension {char_dim(c)}: {total} != {expected}")
    return acc


def _not_fixed(mu: Weight, m: int, i: int, n: int) -> NoReturn:
    raise NotDecomposable(f"weight {mu} has multiplicity {m}, its reflection at node {i + 1} has {n}")


def decompose(
    rs: RootSystem, sub: Subsystem, c: Character, virtual: bool = False
) -> list[tuple[Weight, int]]:
    """Write a character as a sum of irreducibles, lowest weight first.

    c must be fixed by each simple reflection of sub; then it is the
    Brauer-Klimyk sum with top 0.  Unless `virtual` is set, every coefficient
    must be positive.
    """
    # s_i swaps the weights above the wall of node i with those below it; checking
    # the ones above, and that as many lie below, checks them all with half the
    # lookups.  A zero entry is checked from the side of its mirror.
    below = [0] * rs.rank
    for mu, m in c.items():
        if not m:
            continue
        for i in sub.index:
            k = mu[i]
            if k > 0:
                n = c.get(rs.reflect(i + 1, mu), 0)
                if n != m:
                    _not_fixed(mu, m, i, n)
                below[i] -= 1
            elif k:
                below[i] += 1
    for i in sub.index:
        if below[i]:  # some weight below the wall has no mirror above it
            for mu, m in c.items():
                if m and mu[i] < 0:
                    n = c.get(rs.reflect(i + 1, mu), 0)
                    if n != m:
                        _not_fixed(mu, m, i, n)
    out = sorted(brauer_klimyk(rs, sub, c, (0,) * rs.rank).items(), key=lambda t: rs.sort_key(t[0]))
    for w, m in out:
        if m < 0 and not virtual:
            raise NotDecomposable(f"component {w} has negative multiplicity {m}")
    return out

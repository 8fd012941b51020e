"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: the Euler
characteristic and Weyl dimensions come from the Weyl product over positive
roots, one coroot dot product each (no reflections, no coroot chain; the
roots of a subsystem are read off their simple coordinates), characters
from alternating orbit sums with exact polynomial division (no Freudenthal
recursion), cohomology degrees
from inversion counting (no iterative dominance walk), dominant
representatives from reflections in arbitrary positive roots (no
simple-reflection walk), wedge and symmetric powers from Newton's
identities on stretched characters (no layer-by-layer product), the
Ext tables of a collection one ordered pair at a time (no twist-class
sharing), every Ext dimension row a second time by Bott's sign count (no
Weyl walk, no weyl_dim, no coroot chain), and decompositions into
irreducibles by stripping the maximal weight of the whole support with
orbit-expanded characters (no invariance check, no dominant-part-only
stripping).
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction as Q
from heapq import heapify, heappop, heappush
from math import prod

from weylbott.bbw import ExtTable, ext_table
from weylbott.characters import char_add, char_dual, char_mul, irrep_character
from weylbott.errors import NotDecomposable
from weylbott.lie_core import RootSystem, Subsystem, Weight
from weylbott.parabolic import ParabolicSetup, bundle_rank, levi_tensor


def euler_characteristic(rs: RootSystem, lam: Weight) -> int:
    """chi(E_lam) on G/B as prod <lam+rho, a^v> / <rho, a^v>: 0 if singular,
    else (-1)^(inversions) times the dimension of the dotted-dominant module."""
    num = Q(1)
    for r in rs.positive_roots:
        pairing = sum(e * (x + 1) for e, x in zip(r.coroot, lam))
        if pairing == 0:
            return 0
        num *= Q(pairing, sum(r.coroot))
    assert num.denominator == 1
    return int(num)


def roots_on(rs: RootSystem, sub: Subsystem) -> list:
    """The positive roots supported on the nodes of sub, read off their simple
    coordinates (not through the engine's per-subsystem table)."""
    return [
        r for r in rs.positive_roots
        if all(c == 0 or j + 1 in sub.nodes for j, c in enumerate(r.simple_coords))
    ]


def weyl_dim_product(rs: RootSystem, sub: Subsystem, lam: Weight) -> int:
    """prod <lam + rho, a^v> / prod <rho, a^v> over the positive roots of sub,
    each pairing a dot product with the coroot (no coroot chain, no memo)."""
    num = den = 1
    for r in roots_on(rs, sub):
        num *= sum(e * (x + 1) for e, x in zip(r.coroot, lam))
        den *= sum(r.coroot)
    q, rem = divmod(num, den)
    assert rem == 0, (lam, num, den)
    return q


def inversion_count(rs: RootSystem, sub: Subsystem, mu: Weight) -> int:
    """Number of sub-positive roots with negative pairing: the length of the
    shortest Weyl word carrying regular mu to the dominant chamber."""
    count = 0
    for r in roots_on(rs, sub):
        pairing = sum(e * x for e, x in zip(r.coroot, mu))
        if pairing < 0:
            count += 1
    return count


def is_regular(rs: RootSystem, sub: Subsystem, mu: Weight) -> bool:
    return all(
        sum(e * x for e, x in zip(r.coroot, mu)) != 0
        for r in roots_on(rs, sub)
    )


def dominant_chamber(rs: RootSystem, sub: Subsystem, mu: Weight) -> Weight:
    """The sub-dominant weight in the Weyl orbit of mu, found by reflecting in
    any sub-positive root (simple or not) that pairs negatively with mu."""
    roots = roots_on(rs, sub)
    while True:
        for r in roots:
            pairing = sum(e * x for e, x in zip(r.coroot, mu))
            if pairing < 0:
                mu = tuple(x - pairing * y for x, y in zip(mu, r.weight))
                break
        else:
            return mu


def strip_full_support(
    rs: RootSystem, sub: Subsystem, c: dict[Weight, int], virtual: bool = False
) -> list[tuple[Weight, int]]:
    """A character as a sum of irreducibles, lowest weight first.

    Repeatedly strips the maximal weight of the whole support in (height, lex)
    order, kept on a heap, by subtracting the full orbit-expanded character of
    its irreducible.  That weight must be sub-dominant, and unless `virtual`
    is set its multiplicity must be positive.
    """
    work = {w: m for w, m in c.items() if m}
    heap = [(-rs.height_of(w), [-x for x in w], w) for w in work]
    heapify(heap)
    out = []
    while heap:
        mu = heappop(heap)[2]
        m = work.get(mu)
        if m is None:
            continue  # stripped or cancelled since it was pushed
        if not rs.is_dominant(sub, mu):
            raise NotDecomposable(f"maximal weight {mu} is not dominant on nodes {list(sub.nodes)}")
        if m < 0 and not virtual:
            raise NotDecomposable(f"maximal weight {mu} has negative multiplicity {m}")
        for w, cm in irrep_character(rs, sub, mu).items():
            if w not in work:
                heappush(heap, (-rs.height_of(w), [-x for x in w], w))
            n = work.get(w, 0) - m * cm
            if n:
                work[w] = n
            else:
                work.pop(w)
        out.append((mu, m))
    out.sort(key=lambda t: rs.sort_key(t[0]))
    return out


def char_scale(a: dict[Weight, int], k: int) -> dict[Weight, int]:
    return {w: m * k for w, m in a.items()} if k else {}


def from_components(
    rs: RootSystem, sub: Subsystem, comps: Iterable[tuple[Weight, int]]
) -> dict[Weight, int]:
    """Inverse of a decomposition: rebuild the character of a sum of irreducibles."""
    acc: dict[Weight, int] = {}
    for w, m in comps:
        acc = char_add(acc, char_scale(irrep_character(rs, sub, w), m))
    return acc


def char_sub(a: dict[Weight, int], b: dict[Weight, int]) -> dict[Weight, int]:
    return char_add(a, char_scale(b, -1))


def graded_rank(setup: ParabolicSetup, graded: Iterable[tuple[Weight, int]]) -> int:
    """Total rank of a direct sum of irreducible bundles."""
    return sum(m * bundle_rank(setup, w) for w, m in graded)


def ext_from_characters(
    rs: RootSystem,
    levi: Subsystem,
    dim_x: int,
    char_a: dict[Weight, int],
    char_b: dict[Weight, int],
) -> tuple[list[int], list[list[tuple[Weight, int]]]]:
    """Ext^k(E_a, E_b) on G/P from the Levi characters of E_a and E_b.

    Multiplies the dual character of E_a by that of E_b, strips it into Levi
    irreducibles, and reads the cohomology of each summand w off w + rho:
    zero if singular, else degree = inversion count, dimension = |Euler
    product|, G-module = dominant chamber of w + rho, minus rho.  Returns
    the per-degree dimensions and sorted (G-weight, multiplicity) lists,
    the same shape as an ExtTable's dims and weights.
    """
    full = Subsystem.full(rs.rank)
    dims = [0] * (dim_x + 1)
    modules: list[dict[Weight, int]] = [{} for _ in range(dim_x + 1)]
    for w, m in strip_full_support(rs, levi, char_mul(char_dual(char_a), char_b)):
        mu = tuple(x + 1 for x in w)
        if not is_regular(rs, full, mu):
            continue
        k = inversion_count(rs, full, mu)
        dims[k] += m * abs(euler_characteristic(rs, w))
        g = tuple(x - 1 for x in dominant_chamber(rs, full, mu))
        modules[k][g] = modules[k].get(g, 0) + m
    return dims, [sorted(d.items()) for d in modules]


def per_pair_tables(coll) -> list[ExtTable]:
    """The naive verifier path: one ext_table call per ordered pair, row-major,
    with every pair taken at its own twist."""
    return [ext_table(coll.setup, a, b) for a in coll.bundles for b in coll.bundles]


def sign_count_dims(coll) -> list[list[int]]:
    """The dims row of every ordered pair, row-major, by Bott's sign count.

    E_a^dual (x) E_b is the Levi product of the two factors untwisted at the
    crossed node c, shifted by d, the sum of their crossed coordinates.  A
    summand nu pairs with each positive coroot as <nu + rho + d omega_c, a^v> =
    <nu + rho, a^v> + d a^v_c; it adds nothing if a pairing vanishes, else its
    multiplicity times |prod| / prod <rho, a^v> in the degree that counts the
    negative pairings (Bott 1957).  The duals come from dominant_chamber."""
    setup = coll.setup
    rs, c = setup.rs, setup.crossed - 1
    roots = rs.positive_roots
    rho_product = prod(sum(r.coroot) for r in roots)

    def untwist(w: Weight) -> tuple[Weight, int]:
        return w[:c] + (0,) + w[c + 1:], w[c]

    left = [untwist(dominant_chamber(rs, setup.levi, tuple(-x for x in a))) for a in coll.bundles]
    right = [untwist(b) for b in coll.bundles]
    products: dict = {}  # (p, q) -> [(multiplicity, <nu + rho, a^v> per root)]
    rows = []
    for p, s in left:
        for q, t in right:
            if (p, q) not in products:
                products[p, q] = [
                    (m, [sum(e * (x + 1) for e, x in zip(r.coroot, nu)) for r in roots])
                    for nu, m in levi_tensor(setup, p, q)
                ]
            dims = [0] * (setup.dim_x + 1)
            for m, base in products[p, q]:
                pairings = [x + (s + t) * r.coroot[c] for x, r in zip(base, roots)]
                if 0 in pairings:
                    continue
                dim, rem = divmod(abs(prod(pairings)), rho_product)
                assert rem == 0, (p, q, s + t)
                dims[sum(x < 0 for x in pairings)] += m * dim
            rows.append(dims)
    return rows


def orbit_sum_character(rs: RootSystem, sub: Subsystem, lam: Weight) -> dict[Weight, int]:
    """Weyl character formula: alternating orbit sum of lam+rho divided by the
    alternating orbit sum of rho, as exact division of lattice polynomials.

    Only practical for small orbits; used to cross-check Freudenthal.
    """
    rho = rs.rho

    def signed_orbit(start: Weight) -> dict[Weight, int]:
        nodes = sorted(sub.nodes)
        out = {start: 1}
        queue = [start]
        while queue:
            w = queue.pop()
            s = out[w]
            for i in nodes:
                nw = rs.reflect(i, w)
                if nw not in out:
                    out[nw] = -s
                    queue.append(nw)
        return out

    numerator = signed_orbit(tuple(x + y for x, y in zip(lam, rho)))
    # Long division from the lowest term up, in the (height, lex) order, which
    # is a total order kept by translation: each step clears the remainder's
    # lowest term and leaves only higher ones.  The remainder's keys wait on a
    # heap, and keys cancelled since they were pushed are skipped.
    denominator = [(rs.height_of(w), w, m) for w, m in signed_orbit(rho).items()]
    low_h, low, low_m = min(denominator)  # low_m is +-1, the sign of the longest element
    quotient: dict[Weight, int] = {}
    work = dict(numerator)
    heap = [(rs.height_of(w), w) for w in work]
    heapify(heap)
    while heap:
        h, bottom = heappop(heap)
        coeff = work.get(bottom)
        if coeff is None:
            continue
        shift = tuple(x - y for x, y in zip(bottom, low))
        q = quotient[shift] = coeff * low_m
        for hw, w, m in denominator:
            key = tuple(x + y for x, y in zip(w, shift))
            n = work.get(key)
            if n is None:
                heappush(heap, (hw + h - low_h, key))
                n = 0
            n -= q * m
            if n:
                work[key] = n
            else:
                del work[key]
    assert not work and all(m > 0 for m in quotient.values())
    return quotient


def newton_power(c: dict[Weight, int], k: int, kind: str) -> dict[Weight, int]:
    """Wedge (e_k) or symmetric (h_k) power by Newton's identities:
    n e_n = sum_i (-1)^(i-1) psi_i e_{n-i} and n h_n = sum_i psi_i h_{n-i}, where
    the Adams operation psi_i stretches every weight by i; the division by n is
    exact on a genuine character.  Uses its own product, not char_mul."""
    rank = len(next(iter(c)))
    layers = [{(0,) * rank: 1}]
    for n in range(1, k + 1):
        acc: dict[Weight, int] = {}
        for i in range(1, n + 1):
            sign = -1 if kind == "wedge" and i % 2 == 0 else 1
            for wa, ma in c.items():
                for wb, mb in layers[n - i].items():
                    w = tuple(i * x + y for x, y in zip(wa, wb))
                    acc[w] = acc.get(w, 0) + sign * ma * mb
        layer = {}
        for w, m in acc.items():
            q, rem = divmod(m, n)
            assert rem == 0, (kind, n, w, m)
            if q:
                layer[w] = q
        layers.append(layer)
    return layers[k]


def random_l_dominant(
    rng: random.Random,
    rs: RootSystem,
    crossed: int,
    max_rank: int,
    rank_fn,
    crossed_range: tuple[int, int] = (-4, 4),
    levi_budget: int = 2,
) -> Weight:
    """A random Levi-dominant weight whose bundle rank stays under max_rank."""
    sub = Subsystem.levi(rs.rank, crossed)
    while True:
        w = [0] * rs.rank
        w[crossed - 1] = rng.randint(*crossed_range)
        budget = rng.randint(0, levi_budget)
        for _ in range(budget):
            node = rng.choice(sorted(sub.nodes))
            w[node - 1] += 1
        weight = tuple(w)
        if rank_fn(weight) <= max_rank:
            return weight

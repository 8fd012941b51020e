"""Exact root-system combinatorics in the fundamental-weight basis.

A weight is a tuple of integers: its pairings with the simple coroots.
Column j of the Cartan matrix is then the coordinate vector of the
simple root alpha_j, so reflections, root generation and dominance
tests are all integer arithmetic on tuples.  Nodes are numbered 1..n.
The positive-root closure decides finite type: RootSystem raises
NotFiniteType when it passes n^2 + 56 roots, which no finite type of
rank n exceeds.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import GuardrailExceeded, NotDominant, NotFiniteType

Weight = tuple[int, ...]


def require_int(x, what: str) -> int:
    """x as an int by operator.index; ValueError naming x for a float, a string or any
    other value, which truncating would silently turn into a neighbouring integer."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def guard_rank(n: int) -> None:
    """GuardrailExceeded if a rank-n root closure may pass 10^6 coordinates: it keeps
    three rank-n vectors for each of up to n^2 + 56 roots, so memory grows as n^3."""
    if (n * n + 56) * n > 10 ** 6:
        raise GuardrailExceeded(f"rank {n} refused: its root closure may hold ({n}^2 + 56) x {n} > 10^6 coordinates")


class CartanMatrix:
    """Integer Cartan matrix with entries[i][j] = <alpha_j, alpha_i^vee>, from any iterable of rows."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        entries = tuple(tuple(require_int(x, "a Cartan matrix entry") for x in row) for row in entries)
        n = len(entries)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for row in entries:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError(f"diagonal entry at node {i + 1} must be 2")
            for j in range(n):
                if i != j:
                    if entries[i][j] > 0:
                        raise ValueError(f"off-diagonal entry ({i + 1},{j + 1}) must be <= 0")
                    if (entries[i][j] == 0) != (entries[j][i] == 0):
                        raise ValueError(f"zero pattern must be symmetric at ({i + 1},{j + 1})")
        self.entries: tuple[tuple[int, ...], ...] = entries

    @property
    def rank(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> Weight:
        """Coordinates of the simple root alpha_j (1-based j)."""
        return tuple(self.entries[i][j - 1] for i in range(self.rank))


def chain_pairings(chain: tuple[tuple[int, int], ...], lam: Weight) -> list[int]:
    """<lam, a^vee> for the coroots of a chain in its order, one addition each."""
    out = [0]  # <lam, 0>
    for p, i in chain:
        out.append(out[p] + lam[i])
    del out[0]
    return out


class PositiveRoot(NamedTuple):
    """A positive root with its three exact coordinate vectors."""

    weight: Weight        # pairings <alpha, alpha_i^vee>
    simple_coords: Weight  # alpha = sum_j simple_coords[j] * alpha_j
    coroot: Weight        # <lam, alpha^vee> = sum_j coroot[j] * lam[j]

    @property
    def height(self) -> int:
        return sum(self.simple_coords)


class SubRoots(NamedTuple):
    """The positive roots of a subsystem, and its coroot chain: the positive
    coroots ordered by height, the k-th (from 1; 0 is the zero coroot) stored
    as (p, i), the p-th plus the simple coroot of zero-based node i.  Its symmetrizer is
    d_j = sum_b <alpha_j, b^vee>^2 over the gcd, 0 off its nodes: sum_b <x, b^vee><y, b^vee>
    is W-invariant (Bourbaki VI.1.12), so d_j is (alpha_j, alpha_j) up to a scale per factor.
    Its one memo, irreducible characters by part, lives as long as it: a part is a highest
    weight with its coordinates off the nodes set to 0, and a twist of it is a shift."""

    roots: tuple[PositiveRoot, ...]
    chain: tuple[tuple[int, int], ...]
    coroot_heights: tuple[int, ...]  # <rho, a^vee>, in chain order
    rho_product: int                 # their product, the Weyl denominator
    symmetrizer: tuple[int, ...]     # d, one entry per node of the whole system
    chars: dict[Weight, dict[Weight, int]]  # irreducible characters, by part


class Subsystem:
    """Simple nodes (1-based) in increasing order, closed under nothing: just a label set."""

    __slots__ = ("nodes", "index")

    def __init__(self, nodes: tuple[int, ...]) -> None:
        self.nodes = nodes
        # The same nodes zero-based, as the Weyl walks index weights.
        self.index = tuple(i - 1 for i in nodes)

    @classmethod
    def full(cls, rank: int) -> "Subsystem":
        return cls(tuple(range(1, rank + 1)))

    @classmethod
    def levi(cls, rank: int, crossed: int) -> "Subsystem":
        crossed = require_int(crossed, "crossed node")
        if not 1 <= crossed <= rank:
            raise ValueError(f"crossed node {crossed} outside 1..{rank}")
        return cls(tuple(i for i in range(1, rank + 1) if i != crossed))


class RootSystem:
    """Positive roots and Weyl-group operations for a finite-type Cartan matrix."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        self.rho: Weight = (1,) * self.rank
        self.full = Subsystem.full(self.rank)  # built once; every full-system caller shares it
        # Sparse columns: for node i (1-based), the nonzero (j0, a_j0i) pairs.
        self._columns: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((j, cartan.entries[j][i]) for j in range(self.rank) if cartan.entries[j][i] != 0)
            for i in range(self.rank)
        )
        self.positive_roots: tuple[PositiveRoot, ...] = self._generate()
        # 2 rho^vee, the sum of the positive coroots: <alpha_i, 2 rho^vee> = 2
        # for every simple root, so <lam, 2 rho^vee> is twice the height of lam.
        self.two_rho_vee: Weight = tuple(
            sum(col) for col in zip(*(r.coroot for r in self.positive_roots))
        )
        # Each subsystem's record by its nodes, with its character memo; a fresh
        # root system starts cold, and clearing this forgets every record and memo.
        self.memo: dict[tuple[int, ...], SubRoots] = {}

    # -- construction -------------------------------------------------

    def _generate(self) -> tuple[PositiveRoot, ...]:
        """Close the simple roots under the simple reflections, keeping the
        positive ones; each root carries its weight and its coroot along.

        A generalized Cartan matrix is of finite type exactly when its Weyl
        group, and so its set of real roots, is finite (Kac, ch. 4).  So the
        closure is the finite-type test: it stops at a bound that no finite type
        passes.  A connected finite type of rank k has at most k^2 positive
        roots, or k^2 + 14, 56, 8, 2 for E7, E8, F4, G2; components add, and the
        cross terms of n^2 cover any second exceptional component.
        """
        n = self.rank
        guard_rank(n)
        max_roots = n * n + 56
        # simple coordinates -> (weight, coroot in the simple coroots)
        seen: dict[Weight, tuple[Weight, Weight]] = {}
        queue: deque[Weight] = deque()
        for j in range(n):
            unit = tuple(1 if k == j else 0 for k in range(n))
            seen[unit] = (self.cartan.column(j + 1), unit)
            queue.append(unit)
        while queue:
            coords = queue.popleft()
            weight, coroot = seen[coords]
            for i in range(n):
                c = weight[i]
                if c == 0 or coords[i] < c:
                    continue
                new_coords = coords[:i] + (coords[i] - c,) + coords[i + 1:]
                if new_coords in seen:
                    continue
                # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i and
                # s_i(beta^vee) = beta^vee - <alpha_i, beta^vee> alpha_i^vee.
                new_weight = list(weight)
                pairing = 0
                for j0, a in self._columns[i]:
                    new_weight[j0] -= c * a
                    pairing += coroot[j0] * a
                new_coroot = list(coroot)
                new_coroot[i] -= pairing
                seen[new_coords] = (tuple(new_weight), tuple(new_coroot))
                queue.append(new_coords)
                if len(seen) > max_roots:
                    raise NotFiniteType(
                        f"Cartan matrix is not of finite type: its positive-root "
                        f"closure passed {n}^2 + 56 = {max_roots} roots"
                    )
        roots = [PositiveRoot(w, coords, cv) for coords, (w, cv) in seen.items()]
        roots.sort(key=lambda r: (r.height, r.simple_coords))
        return tuple(roots)

    # -- subsystem plumbing -------------------------------------------

    def sub_roots(self, sub: Subsystem) -> SubRoots:
        """Positive roots supported on the given nodes, with their coroot chain and character memo."""
        found = self.memo.get(sub.nodes)
        if found is None:
            off = [j for j in range(self.rank) if j not in sub.index]
            roots = tuple(r for r in self.positive_roots if not any(r.simple_coords[j] for j in off))
            order = sorted(roots, key=lambda r: sum(r.coroot))
            at = {(0,) * self.rank: 0, **{r.coroot: k for k, r in enumerate(order, 1)}}
            # The coroots form a root system, so each positive coroot above
            # height 1 is a positive coroot plus a simple coroot.
            chain = tuple(next(
                (at[low], i) for i, c in enumerate(r.coroot)
                if c and (low := r.coroot[:i] + (c - 1,) + r.coroot[i + 1:]) in at
            ) for r in order)
            heights = tuple(sum(r.coroot) for r in order)
            d = [sum(x * x for x in chain_pairings(chain, self.cartan.column(j + 1))) if j in sub.index else 0
                 for j in range(self.rank)]
            g = math.gcd(*d) or 1  # a subsystem with no roots has d = 0
            found = SubRoots(roots, chain, heights, math.prod(heights), tuple(x // g for x in d), {})
            self.memo[sub.nodes] = found
        return found

    def is_dominant(self, sub: Subsystem, lam: Weight) -> bool:
        for i in sub.index:
            if lam[i] < 0:
                return False
        return True

    def check_rank(self, lam: Weight) -> Weight:
        """lam as a tuple of ints of this rank; ValueError for any other coordinate."""
        try:
            lam = tuple(map(operator.index, lam))
        except TypeError:
            raise ValueError(f"weight {lam!r} must have integer coordinates") from None
        if len(lam) != self.rank:
            raise ValueError(f"weight has length {len(lam)}, expected {self.rank}")
        return lam

    def require_dominant(self, sub: Subsystem, lam: Weight) -> Weight:
        """lam as a weight of this rank; NotDominant unless dominant on sub."""
        lam = self.check_rank(lam)
        if not self.is_dominant(sub, lam):
            raise NotDominant(f"{lam} is not dominant on nodes {list(sub.nodes)}")
        return lam

    # -- Weyl-group operations ----------------------------------------

    def reflect(self, i: int, lam: Weight) -> Weight:
        """Simple reflection s_i (1-based i): lam - lam_i * alpha_i."""
        c = lam[i - 1]
        if c == 0:
            return tuple(lam)
        out = list(lam)
        for j0, a in self._columns[i - 1]:
            out[j0] -= c * a
        return tuple(out)

    def _walk(self, index: tuple[int, ...], cur: list[int]) -> int:
        """Reflect cur in place at the lowest-index negative node of index
        (zero-based) until none is negative; return the reflections made.

        The lowest-index rule makes the count reproducible; on regular orbits
        it equals the Weyl-group length of the minimal word.
        """
        columns = self._columns
        count = 0
        while True:
            for i in index:
                c = cur[i]
                if c < 0:
                    for j0, a in columns[i]:
                        cur[j0] -= c * a
                    count += 1
                    break
            else:
                return count

    def make_dominant(self, sub: Subsystem, lam: Weight) -> tuple[int, Weight]:
        """Dominant representative of the sub-Weyl orbit and reflections used."""
        cur = list(lam)
        count = self._walk(sub.index, cur)
        return count, tuple(cur)

    def dotted_to_dominant(self, sub: Subsystem, lam: Iterable[int]) -> Optional[tuple[int, Weight]]:
        """Dotted action w . lam = w(lam + rho) - rho driven to dominance.

        Returns None when lam + rho is singular for the subsystem (some
        coordinate at a sub node vanishes), else (length, dominant weight).
        lam is read once, so a one-pass iterable such as a map will do: it is
        shifted by rho into one list, walked in place and shifted back.
        """
        index = sub.index
        cur = [x + 1 for x in lam]
        count = self._walk(index, cur)
        for i in index:
            if not cur[i]:
                return None
        return count, tuple([x - 1 for x in cur])

    def orbit_layers(self, sub: Subsystem, top: Weight) -> Iterator[set[Weight]]:
        """The sub-Weyl orbit of a sub-dominant top, one length at a time.

        The next layer is {s_i w : w in this one, w_i > 0}: s_i w is one step
        longer than w, so an element can repeat only within its own layer."""
        columns = self._columns
        index = sub.index
        layer = {top}
        while layer:
            yield layer
            found = set()
            for w in layer:
                for i in index:
                    c = w[i]
                    if c > 0:
                        out = list(w)
                        for j0, a in columns[i]:
                            out[j0] -= c * a
                        found.add(tuple(out))
            layer = found

    def dual_dominant(self, sub: Subsystem, lam: Weight) -> Weight:
        """Highest weight of the dual: dominant representative of -lam."""
        lam = self.require_dominant(sub, lam)
        return self.make_dominant(sub, tuple(-x for x in lam))[1]

    # -- orderings ----------------------------------------------------

    def height_of(self, lam: Weight) -> int:
        """<lam, 2 rho^vee>: twice the sum of simple-root coordinates of lam."""
        return sum(h * x for h, x in zip(self.two_rho_vee, lam))

    def sort_key(self, lam: Weight) -> tuple[int, Weight]:
        return (self.height_of(lam), lam)

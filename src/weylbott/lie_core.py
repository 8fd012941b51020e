"""Exact root-system combinatorics in the fundamental-weight basis.

A weight is a tuple of integers: its pairings with the simple coroots.
Column j of the Cartan matrix is then the coordinate vector of the
simple root alpha_j, so reflections, root generation and dominance
tests are all integer arithmetic on tuples.  Nodes are numbered 1..n.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Optional

from .errors import EngineError, NotDominant, NotFiniteType

Weight = tuple[int, ...]


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix with entries[i][j] = <alpha_j, alpha_i^vee>."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise ValueError(f"diagonal entry at node {i + 1} must be 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] > 0:
                        raise ValueError(f"off-diagonal entry ({i + 1},{j + 1}) must be <= 0")
                    if (self.entries[i][j] == 0) != (self.entries[j][i] == 0):
                        raise ValueError(f"zero pattern must be symmetric at ({i + 1},{j + 1})")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "CartanMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rank(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> Weight:
        """Coordinates of the simple root alpha_j (1-based j)."""
        return tuple(self.entries[i][j - 1] for i in range(self.rank))


def _symmetrizer(cartan: CartanMatrix) -> tuple[int, ...]:
    """Coprime positive integers d with d_i * a_ij symmetric, by graph propagation.

    Raises NotFiniteType when no consistent choice exists.
    """
    n = cartan.rank
    a = cartan.entries
    d: list[Optional[Q]] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if i == j or a[i][j] == 0:
                    continue
                # d_i a_ij = d_j a_ji fixes d_j from d_i.
                want = d[i] * a[i][j] / a[j][i]
                if d[j] is None:
                    d[j] = want
                    queue.append(j)
                elif d[j] != want:
                    raise NotFiniteType("Cartan matrix is not symmetrizable")
    lcm = math.lcm(*(x.denominator for x in d))
    scaled = [int(x * lcm) for x in d]
    g = math.gcd(*scaled)
    return tuple(x // g for x in scaled)


def _is_positive_definite(cartan: CartanMatrix, d: tuple[int, ...]) -> bool:
    """Sylvester criterion for the symmetrized matrix, in exact arithmetic."""
    n = cartan.rank
    m = [[Q(d[i] * cartan.entries[i][j]) for j in range(n)] for i in range(n)]
    # Fraction Gaussian elimination; all leading pivots must stay positive.
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return True


@dataclass(frozen=True)
class PositiveRoot:
    """A positive root with its three exact coordinate vectors."""

    weight: Weight        # pairings <alpha, alpha_i^vee>
    simple_coords: Weight  # alpha = sum_j simple_coords[j] * alpha_j
    coroot: Weight        # <lam, alpha^vee> = sum_j coroot[j] * lam[j]

    @property
    def height(self) -> int:
        return sum(self.simple_coords)


@dataclass(frozen=True)
class Subsystem:
    """Simple nodes (1-based) in increasing order, closed under nothing: just a label set."""

    nodes: tuple[int, ...]

    @classmethod
    def full(cls, rank: int) -> "Subsystem":
        return cls(tuple(range(1, rank + 1)))

    @classmethod
    def levi(cls, rank: int, crossed: int) -> "Subsystem":
        if not 1 <= crossed <= rank:
            raise ValueError(f"crossed node {crossed} outside 1..{rank}")
        return cls(tuple(i for i in range(1, rank + 1) if i != crossed))


class RootSystem:
    """Positive roots and Weyl-group operations for a finite-type Cartan matrix."""

    def __init__(self, cartan: CartanMatrix):
        self.cartan = cartan
        self.rank = cartan.rank
        self.symmetrizer_int: tuple[int, ...] = _symmetrizer(cartan)
        if not _is_positive_definite(cartan, self.symmetrizer_int):
            raise NotFiniteType("symmetrized Cartan matrix is not positive definite")
        self.rho: Weight = (1,) * self.rank
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
        self._sub_roots: dict[tuple[int, ...], tuple[PositiveRoot, ...]] = {}
        # Irreducible characters by (sub.nodes, highest weight), filled by
        # characters.irrep_character; a fresh root system starts cold.
        self.char_memo: dict[tuple[tuple[int, ...], Weight], dict[Weight, int]] = {}
        # Weyl dimensions by the same key, filled by characters.weyl_dim.
        self.dim_memo: dict[tuple[tuple[int, ...], Weight], int] = {}

    # -- construction -------------------------------------------------

    def _generate(self) -> tuple[PositiveRoot, ...]:
        n = self.rank
        # Safety stop: a connected finite type of rank k has at most k^2 positive
        # roots, or k^2 + 14, 56, 8, 2 for E7, E8, F4, G2; components add, and the
        # cross terms of n^2 cover any second exceptional component.
        max_roots = n * n + 56
        seen: dict[Weight, Weight] = {}
        queue: deque[Weight] = deque()
        for j in range(n):
            coords = tuple(1 if k == j else 0 for k in range(n))
            seen[coords] = self.cartan.column(j + 1)
            queue.append(coords)
        while queue:
            coords = queue.popleft()
            weight = seen[coords]
            for i in range(n):
                c = weight[i]
                if c == 0:
                    continue
                new_coords = tuple(
                    coords[k] - c if k == i else coords[k] for k in range(n)
                )
                if any(x < 0 for x in new_coords) or all(x == 0 for x in new_coords):
                    continue
                if new_coords in seen:
                    continue
                new_weight = list(weight)
                for j0, a in self._columns[i]:
                    new_weight[j0] -= c * a
                seen[new_coords] = tuple(new_weight)
                queue.append(new_coords)
                if len(seen) > max_roots:
                    raise NotFiniteType("positive-root closure exceeded the safety bound")
        roots = []
        for coords, weight in seen.items():
            roots.append(PositiveRoot(weight, coords, self._coroot(coords, weight)))
        roots.sort(key=lambda r: (r.height, r.simple_coords))
        return tuple(roots)

    def _coroot(self, coords: Weight, weight: Weight) -> Weight:
        """alpha^vee = 2 alpha / (alpha, alpha) in the simple coroots."""
        d = self.symmetrizer_int
        norm = sum(c * di * w for c, di, w in zip(coords, d, weight))
        out = []
        for c, di in zip(coords, d):
            e, rem = divmod(2 * c * di, norm)
            if rem:
                raise EngineError(f"coroot of the root {coords} is not integral")
            out.append(e)
        return tuple(out)

    # -- subsystem plumbing -------------------------------------------

    def sub_positive_roots(self, sub: Subsystem) -> tuple[PositiveRoot, ...]:
        """Positive roots supported on the given nodes."""
        key = sub.nodes
        cached = self._sub_roots.get(key)
        if cached is None:
            zero_based = {i - 1 for i in key}
            cached = tuple(
                r for r in self.positive_roots
                if all(c == 0 or j in zero_based for j, c in enumerate(r.simple_coords))
            )
            self._sub_roots[key] = cached
        return cached

    def is_dominant(self, sub: Subsystem, lam: Weight) -> bool:
        return all(lam[i - 1] >= 0 for i in sub.nodes)

    def check_rank(self, lam: Weight) -> Weight:
        lam = tuple(int(x) for x in lam)
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

    def make_dominant(self, sub: Subsystem, lam: Weight) -> tuple[int, Weight]:
        """Dominant representative of the sub-Weyl orbit and reflections used.

        Always reflects at the lowest-index negative node, so the count is
        reproducible; on regular orbits it equals the Weyl-group length of
        the minimal word.
        """
        cur = list(lam)
        count = 0
        while True:
            for i in sub.nodes:
                c = cur[i - 1]
                if c < 0:
                    for j0, a in self._columns[i - 1]:
                        cur[j0] -= c * a
                    count += 1
                    break
            else:
                return count, tuple(cur)

    def dotted_to_dominant(self, sub: Subsystem, lam: Weight) -> Optional[tuple[int, Weight]]:
        """Dotted action w . lam = w(lam + rho) - rho driven to dominance.

        Returns None when lam + rho is singular for the subsystem (some
        coordinate at a sub node vanishes), else (length, dominant weight).
        """
        shifted = tuple(x + 1 for x in lam)
        count, dom = self.make_dominant(sub, shifted)
        if any(dom[i - 1] == 0 for i in sub.nodes):
            return None
        return count, tuple(x - 1 for x in dom)

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

"""Seeded inputs for the benchmark workloads.

Imported by the benchmark process and by the set-up probe, so it loads
nothing beyond `weylbott` and the standard library: its import cost is
part of `setup_s`.
"""

from __future__ import annotations

import hashlib
import json
import random

from weylbott import RootSystem, get_preset
from weylbott.ledger import builtin_ledger, identity_to_obj
from weylbott.parabolic import bundle_rank, make_setup
from weylbott.verify import builtin_collection, collection_from_obj, collection_to_obj

# random-collections size class.  Every seed draws the same number of
# collections and bundles from the same rank-capped pools, one bundle per
# rank stratum, so the work per seed stays in one size class; without the
# strata and the cap, work varied by several times between seeds.
RANDOM_SETUPS = (("E6-paper", 1), ("E6-paper", 6), ("D5", 5), ("B4", 1))
RANK_CAP = 1000
BUNDLES_PER_COLLECTION = 6
COLLECTIONS_PER_SETUP = 6
TWIST_RANGE = (-3, 3)


def digest(obj) -> str:
    """sha256 of the canonical JSON of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def levi_pool(setup, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """Levi-dominant weights with crossed coordinate 0 and rank <= cap, by (rank, weight).

    The Weyl dimension grows with every dominant coordinate, so a search
    that stops at the cap visits the whole pool and nothing beyond it.
    """
    n = setup.rs.rank
    zero = (0,) * n
    ranks = {zero: 1}
    stack = [zero]
    while stack:
        w = stack.pop()
        for i in sorted(setup.levi.nodes):
            v = w[: i - 1] + (w[i - 1] + 1,) + w[i:]
            if v in ranks:
                continue
            r = bundle_rank(setup, v)
            if r <= cap:
                ranks[v] = r
                stack.append(v)
    return sorted((r, w) for w, r in ranks.items())


def random_collection_objs(seed: int, per_setup: int) -> list[dict]:
    """Collection JSON objects for the random-collections workload.

    The pool of each setup is cut into BUNDLES_PER_COLLECTION rank strata
    and every collection takes one bundle from each, so the Levi parts
    within a collection are distinct and few ordered pairs share a twist
    class.  A stratum's members are dealt out in shuffled rounds, so every
    seed uses nearly the same multiset of Levi parts.
    """
    rng = random.Random(seed)
    n = BUNDLES_PER_COLLECTION
    out = []
    for preset, crossed in RANDOM_SETUPS:
        setup = make_setup(RootSystem(get_preset(preset)), crossed)
        pool = levi_pool(setup, RANK_CAP)
        dealt = []
        for k in range(n):
            stratum = pool[k * len(pool) // n:(k + 1) * len(pool) // n]
            deck: list = []
            while len(deck) < per_setup:
                deck += rng.sample(stratum, len(stratum))
            dealt.append(deck[:per_setup])
        for c in range(per_setup):
            bundles = []
            for k in range(n):
                w = list(dealt[k][c][1])
                w[crossed - 1] = rng.randint(*TWIST_RANGE)
                bundles.append({"weight": w})
            out.append(
                {
                    "name": f"random-{preset}-{crossed}-{seed}-{c}",
                    "preset": preset,
                    "crossed": crossed,
                    "bundles": bundles,
                }
            )
    return out


def build(workload: str, seed: int, per_setup: int):
    """Root systems, parabolic setups and inputs of one workload.

    per_setup is the number of random collections on each setup.  Returns
    (inputs, digest of the inputs).  cayley27 and ledger do not depend on
    the seed; random-collections does.
    """
    if workload == "cayley27":
        coll = builtin_collection("cayley27")
        return coll, digest(collection_to_obj(coll))
    if workload == "random-collections":
        objs = random_collection_objs(seed, per_setup)
        colls = [collection_from_obj(o) for o in objs]
        return (objs, colls), digest(objs)
    if workload == "ledger":
        setup = make_setup(RootSystem(get_preset("E6-paper")), 1)
        identities = builtin_ledger()
        return (setup, identities), digest([identity_to_obj(i) for i in identities])
    raise ValueError(f"unknown workload {workload!r}")

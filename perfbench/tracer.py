"""In-memory spans around the public functions of each weylbott layer.

The benchmark wraps the functions from outside; the engine is not
modified.  A wrapper replaces the function under every name it is bound
to in a loaded `weylbott` module, because modules import functions by
name (`weyl_dim` is bound in `characters`, `bbw`, `parabolic` and `cli`)
and wrapping only the original would let those calls bypass the span.

Spans are aggregated as they close: a span's self time is its duration
minus the time covered by the spans it caused, and the wrapper's own
bookkeeping after a call is also kept out of the caller's self time.
The benchmark calls the engine from one thread, so one stack suffices.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.active = False  # spans record only inside a timed region
        self.reset()

    def reset(self) -> None:
        """Start a new aggregation window (one cycle of the workload)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = [[0.0]]

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, key=None, post=None):
        """Wrap fn in a timed span; key(args) records distinct arguments,
        post(tracer, result) records counts derived from the result."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.self_s[name] += t1 - t0 - frame[0]
                tracer.calls[name] += 1
            if key is not None:
                tracer.keys[name].add(key(args))
            if post is not None:
                post(tracer, result)
            stack[-1][0] += perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap fn to count calls only; its time stays with the caller."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------

    def patch_function(self, fn, wrapper) -> None:
        """Rebind fn to wrapper in every loaded weylbott module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "weylbott" or mod_name.startswith("weylbott.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public calls of lie_core, characters, parabolic, bbw,
        verify and ledger."""
        import weylbott.bbw as bbw
        import weylbott.characters as characters
        import weylbott.cli  # noqa: F401  (binds names that must be patched too)
        import weylbott.ledger as ledger
        import weylbott.parabolic as parabolic
        import weylbott.verify as verify
        from weylbott.lie_core import RootSystem

        def levi_part(setup, w):
            i = setup.crossed - 1
            return tuple(w[:i]) + tuple(w[i + 1:])

        def twist_class(args):
            setup, a, b = args[:3]
            return (id(setup.rs), setup.crossed, levi_part(setup, a), levi_part(setup, b))

        def weight_key(args):
            rs, sub, lam = args[:3]
            return (id(rs), sub.nodes, tuple(lam))

        def count_summands(tracer, result):
            tracer.counts["parabolic.tensor_summands"] += len(result)

        def count_regular(tracer, result):
            if not result.is_zero:
                tracer.counts["bbw.cohomology_regular"] += 1

        def count_bytes(tracer, result):
            tracer.counts["verify.report_bytes"] += len(result.encode())

        self.patch_method(RootSystem, "__init__", self.span("lie_core.root_system", RootSystem.__init__))
        self.patch_method(RootSystem, "make_dominant", self.counter("lie_core.make_dominant", RootSystem.make_dominant))
        self.patch_method(RootSystem, "height_of", self.span("lie_core.height_of", RootSystem.height_of))
        for fn, name, key, post in (
            (characters.weyl_dim, "characters.weyl_dim", weight_key, None),
            (characters.irrep_character, "characters.irrep_character", weight_key, None),
            (characters.char_mul, "characters.char_mul", None, None),
            (characters.power_op, "characters.power_op", None, None),
            (parabolic.levi_tensor, "parabolic.levi_tensor", twist_class, count_summands),
            (bbw.cohomology, "bbw.cohomology", None, count_regular),
            (verify.verify_strong_exceptional, "verify.verify", None, None),
            (verify.report_to_json, "verify.serialize", None, count_bytes),
            (verify.render_report_text, "verify.render_text", None, None),
            (ledger.parse_expr, "ledger.parse", None, None),
            (ledger.eval_expr, "ledger.eval", None, None),
        ):
            self.patch_function(fn, self.span(name, fn, key, post))

    # -- results --------------------------------------------------------

    def distinct(self, name: str) -> int:
        return len(self.keys.get(name, ()))

    def ratio(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.distinct(name) / calls if calls else 0.0

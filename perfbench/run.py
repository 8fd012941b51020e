"""weylbott benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload cayley27 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing.  The
load is a closed loop with one client: each CLI command
(`python -m weylbott.cli ...` with PYTHONPATH=src) or in-process
operation starts only after the previous one has finished.  Every output
is checked.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its unit and sample count, and the run context.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 7         # set-up probes per run; setup_s is their median
STARTUP_RUNS = 7       # import-only probes per traced run
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10       # cli_tail_s has at least this many samples above it


class Child:
    """One finished child process, timed from spawn to exit."""

    def __init__(self, argv: list[str], env: dict) -> None:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.timed_out = False
        out, err = self._drain(proc, t0 + CHILD_TIMEOUT_S)
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
        # the maximum over every child reaped so far.
        _, status, usage = os.wait4(proc.pid, 0)
        self.elapsed = perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.out_bytes = len(out)
        self.out = out.decode("utf-8", "replace")
        self.err = err.decode("utf-8", "replace")

    def _drain(self, proc, deadline: float) -> tuple[bytes, bytes]:
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - perf_counter()
                if left <= 0 and not self.timed_out:
                    self.timed_out = True
                    proc.kill()
                for key, _ in sel.select(timeout=max(left, 0.1)):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])

    def problem(self) -> str | None:
        if self.timed_out:
            return f"timed out after {CHILD_TIMEOUT_S} s"
        if "Traceback (most recent call last)" in self.err:
            return "traceback: " + self.err.strip().splitlines()[-1]
        return None


class Run:
    def __init__(self, workload) -> None:
        self.wl = workload
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0

    # -- bookkeeping ----------------------------------------------------

    def attempt(self, what: str, fn):
        """Run one operation; any exception or failed check counts as a failure."""
        from workloads import CheckFailed

        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            msg = str(exc)
        except Exception:  # a traceback from the engine is a failure, not a crash
            msg = traceback.format_exc().strip().splitlines()[-1]
        self.failed += 1
        print(f"FAILED {what}: {msg}", file=sys.stderr)
        return None

    def child(self, what: str, argv: list[str], check) -> Child | None:
        """Run and check one child; a child that ran is returned even if its check failed."""
        ran = []

        def go():
            from workloads import CheckFailed

            c = Child([sys.executable, *argv], self.env)
            ran.append(c)
            problem = c.problem()
            if problem:
                raise CheckFailed(problem)
            check(c)

        self.attempt(what, go)
        if not ran or ran[0].timed_out:
            return None
        ran[0].out = ran[0].err = ""  # keep only the measurements
        return ran[0]

    def op(self, what: str, op) -> tuple[int, float] | None:
        """Run and check one in-process operation; its timing counts even if its check failed."""
        timing = []

        def go():
            items, seconds, check = op()
            timing.append((items, seconds))
            check()

        self.attempt(what, go)
        return timing[0] if timing else None

    # -- phases ---------------------------------------------------------

    def setup_probes(self, runs: int) -> list[float]:
        """Wall time of fresh processes that build the workload's inputs and exit."""
        from workloads import require

        def check(c):
            require(c.code == 0, f"set-up probe exit code {c.code}")
            require(c.out.strip() == self.wl.input_digest, "set-up probe built other inputs")

        argv = [os.path.join(HERE, "probe.py"), self.wl.name, str(self.wl.seed), str(self.wl.per_setup)]
        probes = [self.child("setup", argv, check) for _ in range(runs + 1)]
        return [c.elapsed for c in probes[1:] if c is not None]  # the first one warms up

    def startup_probes(self, runs: int) -> list[float]:
        from workloads import require

        def check(c):
            require(c.code == 0, f"import probe exit code {c.code}")

        probes = [self.child("startup", ["-c", "import weylbott.cli"], check) for _ in range(runs + 1)]
        return [c.elapsed for c in probes[1:] if c is not None]

    def measure(self, seconds: float):
        """Interleave CLI commands and in-process cycles for `seconds`.

        Returns (CLI children, in-process items per second of each complete cycle).
        """
        wl = self.wl
        children, rates = [], []
        t_cli = t_ops = 0.0
        n_cmd = n_op = 0
        cycle_items, cycle_time, cycle_ok = 0, 0.0, True
        end = perf_counter() + seconds
        hard_end = end + 3 * seconds + 60
        while True:
            now = perf_counter()
            enough = rates and len(children) >= len(wl.commands)
            if now >= hard_end or (now >= end and (enough or self.failed)):
                break
            if t_cli <= wl.cli_share * (t_cli + t_ops):
                argv, check = wl.commands[n_cmd % len(wl.commands)]
                n_cmd += 1
                c = self.child(f"cli {' '.join(argv[2:])}", list(argv), lambda c: check(c.out, c.code))
                if c is not None:
                    children.append(c)
                t_cli += perf_counter() - now
            else:
                op = wl.ops[n_op % len(wl.ops)]
                n_op += 1
                res = self.op(f"op {n_op}", op)
                if res is None:
                    cycle_ok = False
                else:
                    cycle_items += res[0]
                    cycle_time += res[1]
                if n_op % len(wl.ops) == 0:
                    if cycle_ok:
                        rates.append(cycle_items / cycle_time)
                    cycle_items, cycle_time, cycle_ok = 0, 0.0, True
                t_ops += perf_counter() - now
        return children, rates

    def cycle(self, what: str) -> float | None:
        """One complete pass over the in-process operations; items per second."""
        results = [self.op(f"{what} op {i}", op) for i, op in enumerate(self.wl.ops)]
        if any(r is None for r in results):
            return None
        return sum(r[0] for r in results) / sum(r[1] for r in results)

    def traced(self, seconds: float) -> dict:
        """Per-layer metrics from spans around the in-process calls.

        Untraced and traced cycles alternate, so the tracing overhead is
        measured under the same conditions on both sides.
        """
        import inputs
        from tracer import Tracer

        wl = self.wl
        tracer = Tracer()
        setup_spans, cycles, plain, traced = [], [], [], []
        end = perf_counter() + seconds
        while not cycles or perf_counter() < end:
            rate = self.cycle("untraced")
            if rate is None:
                break
            plain.append(rate)
            tracer.install()
            wl.tracer = tracer
            try:
                tracer.reset()
                tracer.active = True
                try:
                    inputs.build(wl.name, wl.seed, wl.per_setup)
                finally:
                    tracer.active = False
                setup_spans.append(dict(tracer.self_s))
                tracer.reset()
                rate = self.cycle("traced")
            finally:
                wl.tracer = None
                tracer.uninstall()
            if rate is None:
                break
            traced.append(rate)
            cycles.append(dict(layer_metrics(tracer), **wl.layer_metrics()))
        if not cycles:
            return {}
        # Times vary between cycles, so take their median; counts repeat exactly.
        m = {k: statistics.median(c[k] for c in cycles) if k.endswith("_s") else v
             for k, v in cycles[0].items()}
        m["lie_core.root_system_s"] = statistics.median(s.get("lie_core.root_system", 0.0) for s in setup_spans)
        m["ledger.parse_s"] = statistics.median(s.get("ledger.parse", 0.0) for s in setup_spans)
        m["trace.overhead_items_per_s"] = statistics.median(plain) - statistics.median(traced)
        return m


def layer_metrics(t) -> dict:
    """Per-layer metrics of one traced cycle."""
    coh_calls = t.calls.get("bbw.cohomology", 0)
    return {
        "lie_core.make_dominant_calls": t.calls.get("lie_core.make_dominant", 0),
        "lie_core.height_of_s": t.self_s.get("lie_core.height_of", 0.0),
        "characters.weyl_dim_s": t.self_s.get("characters.weyl_dim", 0.0),
        "characters.weyl_dim_calls": t.calls.get("characters.weyl_dim", 0),
        "characters.weyl_dim_distinct_ratio": t.ratio("characters.weyl_dim"),
        "characters.irrep_character_s": t.self_s.get("characters.irrep_character", 0.0),
        "characters.irrep_character_calls": t.calls.get("characters.irrep_character", 0),
        "characters.irrep_character_distinct_ratio": t.ratio("characters.irrep_character"),
        "characters.char_mul_s": t.self_s.get("characters.char_mul", 0.0),
        "characters.power_op_s": t.self_s.get("characters.power_op", 0.0),
        "parabolic.levi_tensor_s": t.self_s.get("parabolic.levi_tensor", 0.0),
        "parabolic.levi_tensor_calls": t.calls.get("parabolic.levi_tensor", 0),
        "parabolic.twist_classes": t.distinct("parabolic.levi_tensor"),
        "parabolic.twist_class_ratio": t.ratio("parabolic.levi_tensor"),
        "parabolic.tensor_summands": t.counts.get("parabolic.tensor_summands", 0),
        "bbw.cohomology_s": t.self_s.get("bbw.cohomology", 0.0),
        "bbw.cohomology_calls": coh_calls,
        "bbw.regular_ratio": t.counts.get("bbw.cohomology_regular", 0) / coh_calls if coh_calls else 0.0,
        "verify.verify_s": t.self_s.get("verify.verify", 0.0),
        "verify.serialize_s": t.self_s.get("verify.serialize", 0.0),
        "verify.report_bytes": t.counts.get("verify.report_bytes", 0),
        "verify.render_text_s": t.self_s.get("verify.render_text", 0.0),
        "ledger.eval_s": t.self_s.get("ledger.eval", 0.0),
    }


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it
    (the maximum if there are too few): (value, percentile, samples above)."""
    s = sorted(samples)
    i = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[i], 100 * (i + 1) // len(s), len(s) - 1 - i


def run_context(seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            if name.endswith(".py"):
                lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_py_lines": lines,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "weylbott", "__init__.py")):
        print(f"error: no weylbott sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import weylbott

    if os.path.dirname(os.path.abspath(weylbott.__file__)) != os.path.join(SRC, "weylbott"):
        print(f"error: imported weylbott from {weylbott.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        run = Run(wl)
        context = dict(run_context(args.seed), workload=wl.name, **wl.context())
        for name, check in wl.extra_checks():
            run.attempt(name, check)
        if args.trace:
            # Per-layer numbers only; the CLI commands run once each for their output size.
            children = [run.child(f"cli {' '.join(a[2:])}", list(a), lambda c, chk=chk: chk(c.out, c.code))
                        for a, chk in wl.commands]
            layers = run.traced(args.seconds)
            startup = run.startup_probes(STARTUP_RUNS)
            complete = all(children) and layers and startup
        else:
            setup = run.setup_probes(SETUP_RUNS)
            children, rates = run.measure(args.seconds)
            complete = setup and children and rates

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("context " + json.dumps(context, sort_keys=True))
    if not complete:
        print("error: no complete measurement", file=sys.stderr)
        return 1
    if args.trace:
        layers["cli.startup_s"] = statistics.median(startup)
        layers["cli.output_bytes"] = statistics.median(c.out_bytes for c in children)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
        for k, v in metrics.items():
            print(f"{k:44s} {v['value']:.6g} {v['unit']}")
    else:
        walls = [c.elapsed for c in children]
        tail_s, pct, above = tail(walls)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cli_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "cli_tail_s": {"value": tail_s, "unit": "s"},
            "inproc_items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(c.rss_mb for c in children), "unit": "MB"},
        }
        notes = {
            "setup_s": f"median of {len(setup)} set-up processes",
            "cli_p50_s": f"median of {len(walls)} CLI runs",
            "cli_tail_s": f"p{pct} of {len(walls)} CLI runs, {above} above it",
            "inproc_items_per_s": f"{wl.item}_per_s, median of {len(rates)} cold in-process cycles",
            "peak_rss_mb": f"median over {len(children)} CLI children",
        }
        for k, v in metrics.items():
            print(f"{k:20s} {v['value']:12.6g} {v['unit']:4s} ({notes[k]})")
    print(f"{'error_rate':20s} {run.failed / run.attempted:12.6g} {'1':4s} "
          f"({run.failed} failed of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of cuntzlim: one single-threaded process, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cuntzlim from `src/` there.
The seed fixes every input.  The run repeats one pass over the workload's
operations until S seconds have gone by, checks every verdict against a
known answer, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference machine speed.  Other tenants of a small VM
change its speed by up to 2x within seconds, so between operations the run
times a calibration unit about every 0.05 s: a fixed product in the
benchmark's own reference calculus, which uses no cuntzlim code.  Every time
measured in a pass is multiplied, and every rate divided, by
CALIBRATION_REF_S / median(calibration unit times in that pass); set-up time
uses the samples taken around the set-up probes.  The factors and the
unscaled end-to-end values go to standard error.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 untraced
and traced passes alternate; the metrics are per layer (calls, self time,
useful/attempt ratios) plus the tracing overhead, and the spans of the last
traced pass are written to .bench_out/trace-<workload>.tsv.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("decomposition", "inverse-system", "calculus")

OP_LIMIT_S = 30.0         # one operation; ops take milliseconds to seconds
RUN_LIMIT_S = 150.0       # the whole run, set-up included
MEMORY_LIMIT = 2 << 30    # address space, so runaway work fails with MemoryError
SETUP_PROBES = 6          # fresh processes timing import + input generation
PROBE_LIMIT_S = 20.0      # one set-up probe
MAX_TRACEBACKS = 3
CALIBRATE_EVERY_S = 0.05
CALIBRATION_REF_S = 0.0018 # median calibration unit on a 2-vCPU VM, Python 3.11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "build_p50_ms": "ms",
    "query_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, kind, span or counter name)
PER_LAYER = {
    "scalars.ops": ("count", "calls", "scalars.op"),
    "scalars.self_s": ("s", "self", "scalars.op"),
    "algebra.multiply.calls": ("count", "calls", "algebra.multiply"),
    "algebra.multiply.self_s": ("s", "self", "algebra.multiply"),
    "algebra.multiply.terms_out": ("count", "counter", "algebra.multiply.terms_out"),
    "algebra.add.calls": ("count", "calls", "algebra.add"),
    "algebra.scale.calls": ("count", "calls", "algebra.scale"),
    "algebra.adjoint.calls": ("count", "calls", "algebra.adjoint"),
    "algebra.normalize.calls": ("count", "calls", "algebra.normalize"),
    "algebra.normalize.self_s": ("s", "self", "algebra.normalize"),
    "algebra.normalize.useful_ratio": ("ratio", "ratio", "algebra.normalize"),
    "algebra.equals.calls": ("count", "calls", "algebra.equals"),
    "algebra.equals.self_s": ("s", "self", "algebra.equals"),
    "algebra.check_word.calls": ("count", "counter", "algebra.check_word"),
    "homs.apply.calls": ("count", "calls", "homs.apply"),
    "homs.apply.self_s": ("s", "self", "homs.apply"),
    "homs.compose.self_s": ("s", "self", "homs.compose"),
    "homs.image.calls": ("count", "calls", "homs.image"),
    "homs.make_hom.self_s": ("s", "self", "homs.make_hom"),
    "homs.validate.self_s": ("s", "self", "homs.validate"),
    "homs.build.self_s": ("s", "self", "homs.build"),
    "limits.classify_monomial.self_s": ("s", "self", "limits.classify_monomial"),
    "limits.decompose_element.self_s": ("s", "self", "limits.decompose_element"),
    "limits.psi.self_s": ("s", "self", "limits.psi"),
    "limits.check_coherent.self_s": ("s", "self", "limits.check_coherent"),
    "limits.state_omega.self_s": ("s", "self", "limits.state_omega"),
    "gauge.uhf_chain_check.self_s": ("s", "self", "gauge.uhf_chain_check"),
    "parser.parse.calls": ("count", "calls", "parser.parse"),
    "parser.parse.self_s": ("s", "self", "parser.parse"),
    "parser.render.calls": ("count", "calls", "parser.render"),
    "parser.render.self_s": ("s", "self", "parser.render"),
    "cli.verify.decomposition.s": ("s", "inclusive", "cli.verify.decomposition"),
    "cli.verify.inverse_system.s": ("s", "inclusive", "cli.verify.inverse_system"),
    "cli.verify.state.s": ("s", "inclusive", "cli.verify.state"),
    "trace.overhead_s": ("s", "overhead", None),
}


def _calibration_table(k):
    """A fixed 12-term table over O_3 words."""
    return reference.table(
        ((Fraction(i % 7 - 3, i % 4 + 1), Fraction(i % 5 - 2, i % 3 + 1)),
         tuple(1 + (i * j + k) % 3 for j in range(i % 4)),
         tuple(1 + (i + j * k) % 3 for j in range((i // 3) % 4)))
        for i in range(12))


CALIBRATION_TABLES = (_calibration_table(1), _calibration_table(2))


def calibration_unit():
    return reference.multiply(*CALIBRATION_TABLES)


class Speed:
    """Calibration samples taken between operations."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self, force=False):
        if force or time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            t = time.perf_counter()
            calibration_unit()
            self.last = time.perf_counter()
            self.samples.append(self.last - t)

    def factor(self, since=0):
        """Multiplier from this machine's times to reference-speed times,
        from the samples taken since the given sample count (1 if none)."""
        samples = self.samples[since:] or self.samples
        return CALIBRATION_REF_S / statistics.median(samples) if samples else 1.0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past its limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def setup(workload, seed):
    """Import cuntzlim from the checkout and generate the workload's inputs.
    Returns (workloads module, operations, seconds taken)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cuntzlim
    import workloads

    if Path(cuntzlim.__file__).resolve().parent != (SRC / "cuntzlim").resolve():
        raise ImportError("cuntzlim was imported from %s, not %s" % (cuntzlim.__file__, SRC))
    ops = workloads.WORKLOADS[workload](seed)
    return workloads, ops, time.perf_counter() - t0


def probe_setup(workload, seed):
    """Set-up time measured in a fresh interpreter (interpreter start excluded)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_LIMIT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1])


class Pass:
    """Outcome of one pass; `factor` scales its times to reference speed."""

    def __init__(self):
        self.wall = 0.0
        self.cases = 0
        self.attempted = 0
        self.failed = 0
        self.aborted = False
        self.samples = {"op": [], "build": [], "query": []}
        self.factor = 1.0


def run_pass(ops, deadline, tracer=None, log=None, op_limit=OP_LIMIT_S, speed=None):
    """One closed-loop pass over `ops`, timing each step.  An operation that
    raises, times out or gives a wrong verdict fails."""
    signal.signal(signal.SIGALRM, _on_alarm)
    res = Pass()
    first_sample = len(speed.samples) if speed is not None else 0
    for op in ops:
        res.attempted += 1
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            res.failed += 1
            res.aborted = True
            continue
        ok, spent = False, 0.0
        root = tracer.begin("op", is_root=True) if tracer else None
        signal.setitimer(signal.ITIMER_REAL, min(op_limit, remaining))
        try:
            state = None
            for label, fn in op.steps:
                t = time.perf_counter()
                try:
                    state = fn(state)
                finally:
                    dt = time.perf_counter() - t
                    spent += dt
                if label:
                    res.samples[label].append(dt)
            if op.request:
                res.samples["op"].append(spent)
            signal.setitimer(signal.ITIMER_REAL, 0)
            ok = bool(op.check(state))
            if not ok and log is not None:
                log.append("wrong verdict %r on %r" % (state, op.spec))
        except OpTimeout:
            if log is not None:
                log.append("timed out: %r" % (op.spec,))
        except Exception:
            if log is not None:
                log.append("%r raised:\n%s" % (op.spec, traceback.format_exc()))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.finish(root, is_root=True)
        if speed is not None:
            speed.sample()
        res.wall += spent
        if ok:
            res.cases += op.cases
        else:
            res.failed += 1
    if speed is not None:
        res.factor = speed.factor(first_sample)
    return res


def _ms(values, q=50):
    """q-th percentile in milliseconds; None when nothing completed."""
    if len(values) < 2:
        return 1e3 * values[0] if values else None
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(passes, setup_s, scaled=True):
    """Medians over passes; with `scaled`, each pass's times are scaled by
    its own speed factor."""
    f = {id(p): (p.factor if scaled else 1.0) for p in passes}
    samples = {k: [dt * f[id(p)] for p in passes for dt in p.samples[k]]
               for k in ("op", "build", "query")}
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall * f[id(p)] for p in passes),
        "cases_per_s": statistics.median(
            p.cases / (p.wall * f[id(p)]) if p.wall else 0.0 for p in passes),
        "op_p50_ms": _ms(samples["op"]),
        "op_p90_ms": _ms(samples["op"], 90),
        "build_p50_ms": _ms(samples["build"]),
        "query_p50_ms": _ms(samples["query"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(traced, untraced):
    """Counts come from the first traced pass (every pass runs the same
    operations); times are medians over traced passes, each scaled by its
    pass's speed factor."""
    calls0, _, _, counters0 = traced[0][1]
    out = {}
    for metric, (_, kind, name) in PER_LAYER.items():
        if kind == "calls":
            out[metric] = calls0[name]
        elif kind == "counter":
            out[metric] = counters0[name]
        elif kind == "ratio":
            out[metric] = counters0[name + ".changed"] / calls0[name] if calls0[name] else 0.0
        elif kind == "self":
            out[metric] = statistics.median(p.factor * s[1][name] for p, s in traced) / 1e9
        elif kind == "inclusive":
            out[metric] = statistics.median(p.factor * s[2][name] for p, s in traced) / 1e9
    out["trace.overhead_s"] = (statistics.median(p.factor * p.wall for p, _ in traced)
                               - statistics.median(p.factor * p.wall for p in untraced))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "cuntzlim" / "__init__.py").is_file():
        print("error: no cuntzlim sources under %s; run from a checkout root" % SRC,
              file=sys.stderr)
        return 2
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))

    workloads, ops, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_speed, speed = Speed(), Speed()
    setups = [setup_s]
    for _ in range(SETUP_PROBES):
        for _ in range(2):
            setup_speed.sample(force=True)
        setups.append(probe_setup(args.workload, args.seed))
        for _ in range(2):
            setup_speed.sample(force=True)
    setup_s = statistics.median(setups)

    from tracing import Tracer, summarize

    tracer = Tracer() if args.trace else None
    untraced, traced, log = [], [], []
    deadline = started + RUN_LIMIT_S
    measure_until = time.perf_counter() + args.seconds
    while True:
        # trace mode alternates untraced and traced passes
        gc.collect()
        if args.trace and len(untraced) > len(traced):
            tracer.install(also=(workloads,))
            try:
                res = run_pass(ops, deadline, tracer, log, speed=speed)
            finally:
                tracer.uninstall()
            traced.append((res, summarize(tracer) + (Counter(tracer.counts),)))
        else:
            res = run_pass(ops, deadline, None, log, speed=speed)
            untraced.append(res)
        if res.aborted:
            break
        if time.perf_counter() >= measure_until and (traced or not args.trace):
            break

    passes = untraced + [p for p, _ in traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for line in log[:MAX_TRACEBACKS]:
        print(line, file=sys.stderr)
    setup_factor = setup_speed.factor()
    print("speed factor %.4f per pass (median), %.4f for set-up; unscaled: %s"
          % (statistics.median(p.factor for p in passes), setup_factor,
             json.dumps(end_to_end_metrics(untraced, setup_s, scaled=False))), file=sys.stderr)
    if not args.trace:
        values = end_to_end_metrics(untraced, setup_s * setup_factor)
        units = END_TO_END
    elif traced:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("trace-%s.tsv" % args.workload))
        values = per_layer_metrics(traced, untraced)
        units = {m: u for m, (u, _, _) in PER_LAYER.items()}
    else:
        values, units = {}, {}
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

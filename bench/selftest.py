#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a checkout.  Checks that
  - the same seed gives identical inputs, also in interpreters with other
    hash seeds, and another seed gives other inputs;
  - self time is duration minus the union of child intervals, on a
    synthetic span tree;
  - the tracer wraps every name bound to a traced function, records nested
    spans, and restores every original;
  - a verifier that stops checking shows up as failed operations, and
    runaway work is stopped within its limit and counted as failed;
  - count metrics of two traced runs with the same seed are identical;
  - BENCHMARK.json lists the workloads and metrics run.py prints, with the
    same units;
  - without the sources the benchmark exits non-zero and prints no result.
Exits 0 when every check passes.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracing

HERE = Path(__file__).resolve().parent
FAILURES = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def fingerprint(workload, seed):
    _, ops, _ = run.setup(workload, seed)
    data = repr([(op.kind, op.cases, op.request, op.spec) for op in ops])
    return hashlib.sha256(data.encode()).hexdigest()


def _python(args, **kwargs):
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          cwd=str(run.ROOT), timeout=300, **kwargs)


def test_inputs_deterministic():
    for workload in run.WORKLOADS:
        here = fingerprint(workload, 7)
        others = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = _python([str(HERE / "selftest.py"), "--fingerprint", workload, "7"], env=env)
            others.append(proc.stdout.strip())
        check(others == [here, here], "%s: seed 7 gives identical inputs in three interpreters" % workload)
        check(fingerprint(workload, 8) != here, "%s: seed 8 gives other inputs" % workload)


def test_self_time():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 30, 0),
        ("c", 20, 50, 0),    # overlaps b: together they cover 10..50
        ("d", 90, 120, 0),   # reaches past its parent: only 90..100 counts
        ("e", 12, 18, 1),
        ("f", 200, 210, -1),
    ]
    _, start, end, parent = zip(*spans)
    check(list(tracing.self_times(start, end, parent)) == [50, 14, 30, 30, 6, 10],
          "self time on a synthetic span tree")


def test_tracer_patching():
    run.setup("calculus", 0)
    import cuntzlim
    from cuntzlim import algebra, homs, limits, scalars

    originals = (algebra.multiply, homs.multiply, limits.apply, homs.apply,
                 scalars.GaussianRational.__radd__, homs.GenHom.image)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = all(getattr(x, "__wrapped__", None) is not None
                      for x in (algebra.multiply, homs.multiply, limits.apply, cuntzlim.apply,
                                scalars.GaussianRational.__radd__, homs.GenHom.image))
        check(wrapped, "tracer wraps functions in every namespace that binds them")
        root = tracer.begin("op", is_root=True)
        homs.apply(homs.f(1, 2), cuntzlim.mono(cuntzlim.O(3), (3,), (1,), 2))
        tracer.finish(root, is_root=True)
    finally:
        tracer.uninstall()
    calls, self_ns, incl_ns = tracing.summarize(tracer)
    spans = list(tracer.spans())
    names = tracer.names
    apply_idx = [i for i, sp in enumerate(spans) if names[sp[0]] == "homs.apply"]
    children = {names[sp[0]] for sp in spans if apply_idx and sp[3] == apply_idx[0]}
    check(calls["homs.apply"] == 1 and {"algebra.multiply", "homs.image"} <= children,
          "spans nest: multiply and image under apply")
    check(all(sp[4] == 0 for sp in spans), "every span carries its request's root")
    check(sum(self_ns.values()) == incl_ns["op"], "self times add up to the root's duration")
    restored = (algebra.multiply, homs.multiply, limits.apply, homs.apply,
                scalars.GaussianRational.__radd__, homs.GenHom.image)
    check(all(a is b for a, b in zip(originals, restored)), "uninstall restores every original")


def test_broken_verifier_fails():
    for workload in run.WORKLOADS:
        wl, ops, _ = run.setup(workload, 3)
        res = run.run_pass(ops, time.perf_counter() + 120)
        check(res.failed == 0, "%s: every verdict right at this commit" % workload)
        from cuntzlim import algebra

        patcher = tracing.Tracer()
        patcher._patch_everywhere(algebra.equals, lambda a, b: True, (wl,))
        try:
            res = run.run_pass(ops, time.perf_counter() + 120)
        finally:
            patcher.uninstall()
        check(res.failed > 0, "%s: an equals() that always agrees fails %d operations"
              % (workload, res.failed))


def test_runaway_work_stopped():
    run.setup("calculus", 0)
    from cuntzlim import q
    from workloads import Op

    op = Op("runaway", [(None, lambda _: q(2, 5))], lambda v: True, 1)
    t0 = time.perf_counter()
    res = run.run_pass([op], t0 + 60, op_limit=0.5)
    took = time.perf_counter() - t0
    check(res.failed == 1 and took < 5, "q(2,5) stopped after %.2f s and counted as failed" % took)


def _traced_counts(workload, seed):
    proc = _python([str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", "1"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_counts_repeat():
    for workload in run.WORKLOADS:
        first, a = _traced_counts(workload, 5)
        second, b = _traced_counts(workload, 5)
        check(first["correct"] and second["correct"] and a and a == b,
              "%s: %d count metrics identical across two traced runs" % (workload, len(a)))
        missing = set(run.PER_LAYER) - set(first["metrics"])
        check(not missing, "%s: traced run reports every per-layer metric" % workload)


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end-to-end metrics match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]}
          == {k: v[0] for k, v in run.PER_LAYER.items()},
          "BENCHMARK.json per-layer metrics match run.py")


def test_fails_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / HERE.name).mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*"):
        if f.is_file():
            shutil.copy(f, bare / HERE.name)
    proc = subprocess.run([sys.executable, str(Path(HERE.name) / "run.py"), "--workload",
                           "calculus", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=str(bare), timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "exits %d with no result where the sources are missing" % proc.returncode)


def main():
    if sys.argv[1:2] == ["--fingerprint"]:
        print(fingerprint(sys.argv[2], int(sys.argv[3])))
        return 0
    for test in (test_self_time, test_inputs_deterministic, test_tracer_patching,
                 test_broken_verifier_fails, test_runaway_work_stopped, test_benchmark_json,
                 test_fails_without_sources, test_counts_repeat):
        test()
    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

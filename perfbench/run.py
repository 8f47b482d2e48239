"""Time-to-verdict benchmark for quadpres.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; quadpres is imported from its ``src``
directory and nowhere else, so a directory without it fails with exit code 2.

Load model: one caller in one process, closed loop -- the next op starts only
after the previous verdict returned.  The seed generates one cycle of ops; a
run repeats the cycle until ``--seconds`` of wall time have passed, and at
least one whole cycle and MIN_OPS ops.  Every verdict is checked against an
independent reference outside the timed region (see workloads.py).

Times are reported at a fixed reference speed.  The host's speed drifts by up
to 2x over seconds to minutes, so the run times a fixed pure-Python loop
(``calibrate``, which uses nothing from quadpres) at most CAL_INTERVAL_S before
each op, and scales each op's time by CAL_REFERENCE_S over that loop's time.
An op's time is the median of its scaled repetitions.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` runs TRACE_CYCLES cycles untraced and then the same ops traced,
and reports per-layer metrics from the spans (see spans.py) plus the tracing
overhead.  Either way the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it, and a JSON file
under perfbench/out/, give the seed, the digest of the op cycle, the digest of
the verdicts, the sample count and the fail ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, OVERHEAD_METRIC, Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = Path("perfbench") / "out"  # relative to ROOT, so reports do not embed the checkout path
SETUP_REPEATS = 11  # setup_s is the median of this many full set-ups
MIN_OPS = 100  # so at least ten samples lie beyond verdict_p90_ms
KEPT_CYCLES = 64  # an op keeps its times from at most this many cycles, spread over the run
CAL_REFERENCE_S = 1.5e-3  # calibrate()'s time at the reference speed, about its time on a quiet 2-vCPU VM
CAL_INTERVAL_S = 0.1  # the speed is measured again once this much time has passed
TRACE_CYCLES = {"witt-cold": 1, "isom-warm": 4, "table-build": 1, "cli-verify": 1}

END_TO_END_UNITS = {
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "agree_ratio": "ratio",
}


class MissingProgram(Exception):
    pass


def calibrate():
    """Seconds taken by a fixed pure-Python loop of dict, tuple and sort
    work, which uses nothing from quadpres: the machine's speed right now."""
    start = perf_counter()
    counts, acc = {}, 0
    for i in range(3000):
        key = (i % 17, i % 13, i % 11)
        counts[key] = counts.get(key, 0) + 1
        acc += len(sorted(key))
    return perf_counter() - start


def load_quadpres():
    """Import quadpres afresh from ROOT/src: earlier imports are dropped first,
    so each set-up pays for the import."""
    src = ROOT / "src"
    if not (src / "quadpres" / "__init__.py").is_file():
        raise MissingProgram(f"no quadpres package under {src}")
    for name in [n for n in sys.modules if n == "quadpres" or n.startswith("quadpres.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("quadpres")
    if Path(pkg.__file__).resolve().parent != (src / "quadpres").resolve():
        raise MissingProgram(f"quadpres imported from {pkg.__file__}, not from {src}")
    mods = {layer: importlib.import_module(f"quadpres.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def canonical(x):
    """A repr-stable form of a verdict: sets sorted, dict items sorted."""
    if isinstance(x, (set, frozenset)):
        return tuple(sorted((canonical(v) for v in x), key=repr))
    if isinstance(x, dict):
        return tuple(sorted(((canonical(k), canonical(v)) for k, v in x.items()), key=repr))
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    return x


def digest(obj):
    return hashlib.sha256(repr(canonical(obj)).encode()).hexdigest()[:16]


class Checker:
    """Turns each op's outcome into a verdict and compares it with the
    reference, which is computed once per op of the cycle and cached."""

    def __init__(self, workload, state, tracer=None):
        self.w, self.st, self.tracer = workload, state, tracer
        self.expected = {}
        self.failed = 0
        self.first_cycle = []  # verdicts of the first pass over the cycle
        self.failures = []  # (op index, what differed), first few only

    def mismatch(self, i, op, raw, err):
        """(verdict, fields that differ from the reference)."""
        if err is not None:
            return {"error": repr(err)}, {"error": (repr(err), None)}
        verdict = self.w.observe(self.st, op, raw)
        if i not in self.expected:
            self.expected[i] = self.w.expect(self.st, op)
        return verdict, {k: (verdict.get(k), v) for k, v in self.expected[i].items() if verdict.get(k) != v}

    def __call__(self, i, op, raw, err, first_pass):
        if self.tracer:
            self.tracer.active = False
        verdict, mismatch = self.mismatch(i, op, raw, err)
        if mismatch:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append((i, repr(op)[:200], repr(mismatch)[:400]))
        if first_pass:
            self.first_cycle.append(verdict)
        if self.tracer:
            self.tracer.active = True


def run_cycles(workload, state, ops, check, seconds=None, cycles=None, tracer=None):
    """Closed loop over the cycle; returns (op seconds, ops run, time of each
    op of the cycle at the reference speed).

    Runs ``cycles`` whole cycles, or else until ``seconds`` of wall time
    (checks included) have passed, at least one whole cycle and MIN_OPS ops.
    Only the library call sits inside the timed region; ``calibrate`` runs
    between ops.  Each op keeps its scaled times from every stride-th cycle,
    and the stride doubles whenever KEPT_CYCLES cycles are kept, so memory
    stays bounded while the kept cycles span the whole run.
    """
    n = len(ops)
    kept = [array("d") for _ in range(n)]
    stride, keep = 1, True
    total, attempted = 0.0, 0
    limit = cycles * n if cycles is not None else max(n, MIN_OPS)
    began = cal_at = perf_counter()
    cal = calibrate()
    while attempted < limit or (cycles is None and perf_counter() - began < seconds):
        i = attempted % n
        if i == 0:
            if len(kept[0]) == KEPT_CYCLES:
                kept = [a[::2] for a in kept]
                stride *= 2
            keep = (attempted // n) % stride == 0
        op = ops[i]
        if perf_counter() - cal_at > CAL_INTERVAL_S:
            cal, cal_at = calibrate(), perf_counter()
        if tracer:
            tracer.op_id = attempted
        err = raw = None
        start = perf_counter()
        try:
            raw = workload.run(state, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            err = exc
        dt = perf_counter() - start
        total += dt
        if keep:
            kept[i].append(dt / cal)
        check(i, op, raw, err, attempted < n)
        attempted += 1
    return total, attempted, [statistics.median(a) * CAL_REFERENCE_S for a in kept]


def set_up(workload, seed, workdir):
    """One full set-up: import, input generation, fixed structures, documents
    and warm-up.  Returns (wall seconds, modules, ops, state)."""
    start = perf_counter()
    qp = load_quadpres()
    ops = workload.make_ops(random.Random(f"{workload.name}:{seed}"))
    state = workload.setup(qp, ops, str(workdir))
    return perf_counter() - start, qp, ops, state


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{workload.name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result, record = (traced if args.trace else measured)(workload, args, workdir)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                  fail_ratio=result["failed"] / result["attempted"])
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"workload {workload.name}  seed {args.seed}  ops digest {record['ops_digest']}  "
          f"verdicts digest {record['verdicts_digest']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  fail_ratio {record['fail_ratio']:.6f}")
    for failure in record["unexpected_failures"]:
        print(f"UNEXPECTED FAILURE op {failure[0]}: {failure[1]} -> {failure[2]}")
    for line in record.get("known_defect", []):
        print(f"known defect, untimed: {line}")
    for name, m in result["metrics"].items():
        extra = (f"  (n = {record['samples']} samples: {record['cycle_ops']} ops x {record['cycles']:.2f} cycles)"
                 if name == "verdict_p50_ms" else "")
        print(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps(result))
    return 0


def _result(checker, attempted, metrics, units):
    result = {
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "unexpected_failures": checker.failures,
        "verdicts_digest": digest(checker.first_cycle),
    }
    return result, record


def probe_known_defect(workload, state):
    """Runs the workload's known-defect ops once, untimed and outside the
    op counts.  Returns (report lines, whether every outcome was expected):
    the known mismatch, or none once the defect is fixed."""
    probe = getattr(workload, "defect_probe", None)
    if probe is None:
        return [], True
    check = Checker(workload, state)
    lines, expected = [], True
    for i, op in enumerate(probe()):
        err = raw = None
        try:
            raw = workload.run(state, op)
        except Exception as exc:
            err = exc
        _, mismatch = check.mismatch(i, op, raw, err)
        if not mismatch:
            lines.append(f"{op[0]}: agrees with the reference, defect no longer shows")
        elif workload.known_defect(op, mismatch):
            lines.append(f"{op[0]}: {mismatch} (program, reference)")
        else:
            expected = False
            lines.append(f"{op[0]}: UNEXPECTED {mismatch}")
    return lines, expected


def measured(workload, args, workdir):
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        state = None  # the previous set-up is garbage before the next starts
        gc.collect()
        cal = calibrate()
        seconds, _, ops, state = set_up(workload, args.seed, workdir)
        cal = (cal + calibrate()) / 2
        setup_times.append(seconds)
        setup_scaled.append(seconds / cal * CAL_REFERENCE_S)
    check = Checker(workload, state)
    gc.collect()
    total, attempted, times = run_cycles(workload, state, ops, check, seconds=args.seconds)
    metrics = {
        "verdict_p50_ms": statistics.median(times) * 1e3,
        "verdict_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "verdicts_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "agree_ratio": (attempted - check.failed) / attempted,
    }
    result, record = _result(check, attempted, metrics, END_TO_END_UNITS)
    record["known_defect"], expected = probe_known_defect(workload, state)
    result["correct"] = result["correct"] and expected
    record.update(ops_digest=digest(ops), cycle_ops=len(ops), cycles=attempted / len(ops),
                  samples=attempted, wall_setup_times_s=setup_times, op_seconds=total,
                  wall_verdicts_per_s=attempted / total)
    return result, record


def traced(workload, args, workdir):
    _, qp, ops, state = set_up(workload, args.seed, workdir)
    cycles = TRACE_CYCLES[workload.name]
    plain = Checker(workload, state)
    gc.collect()
    untraced_s, _, _ = run_cycles(workload, state, ops, plain, cycles=cycles)
    with Tracer(qp) as tracer:
        check = Checker(workload, state, tracer)
        check.expected = plain.expected
        gc.collect()
        traced_s, attempted, _ = run_cycles(workload, state, ops, check, cycles=cycles, tracer=tracer)
    metrics = tracer.metrics(traced_s)
    metrics[OVERHEAD_METRIC[0]] = untraced_s / traced_s  # traced over untraced verdicts_per_s
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv")
    result, record = _result(check, attempted, metrics, metric_units())
    if digest(plain.first_cycle) != record["verdicts_digest"]:
        result["correct"] = False
        record["unexpected_failures"].append((-1, "traced pass", "verdicts differ from the untraced pass"))
    record.update(ops_digest=digest(ops), cycle_ops=len(ops), cycles=cycles, samples=attempted,
                  untraced_op_seconds=untraced_s, traced_op_seconds=traced_s)
    return result, record


if __name__ == "__main__":
    sys.exit(main())

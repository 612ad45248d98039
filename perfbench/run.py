#!/usr/bin/env python3
"""Benchmark of the involutive package, end to end and per layer.

    python3 perfbench/run.py --workload spencer-koszul --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in one process and one thread.  A run repeats passes
over the workload's tasks while set-up and tasks fit in ``--seconds`` (at
least one pass).  Every pass starts with a fresh set-up: the
``involutive`` package is imported anew from ``src/`` (so no cache
survives from the previous pass), the four built-in examples are built
and the seeded inputs are generated.  The answers of the first pass are
checked by the untimed oracles of ``workloads.py``; later passes must
reproduce them digest for digest, and with the default seed the digests
must equal ``golden_seed0.json``.

Every task and set-up time is corrected for host interference with a
reference probe (see ``corrected``); raw times are printed next to the
corrected ones.  wall_s is the median over the untraced passes, the task
percentiles pool every untraced task latency of the run, and setup_s is
the median of at least seven set-ups.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced (see
``tracer.py``) and the last line reports the per-layer metrics, including
the tracing overhead.  Spans of a traced run are written to
``.perfbench-out/`` at the root of the checkout.  ``spec.json`` holds the
expected failures, the seeds and the map from layer metrics to the
end-to-end metrics they should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracer  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402

# The probe and the time it takes on an uncontended 2-vCPU Xeon guest with
# Python 3.11.  Each task time is scaled by PROBE_REF_S over the mean of
# the probes run just before and just after it, which takes out the
# minutes-long slowdowns that other tenants of a shared host cause.
PROBE_OPS = 1000
PROBE_REF_S = 0.0048

MODULES = ("errors", "linalg", "poly", "bases", "tableau", "spencer",
           "guillemin", "liealg", "systems", "cauchy", "cli")
SETUP_SAMPLES = 7
GOLDEN = os.path.join(HERE, "golden_seed0.json")

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
DEFAULT_SEED = SPEC["seeds"]["default"]


class ProgramMissing(Exception):
    pass


class Lib:
    """The modules of one fresh import of the package."""

    def __init__(self, modules):
        self.modules = modules
        for name, mod in modules.items():
            setattr(self, name, mod)


def fresh_import():
    for name in list(sys.modules):
        if name == "involutive" or name.startswith("involutive."):
            del sys.modules[name]
    try:
        mods = {m: importlib.import_module("involutive." + m) for m in MODULES}
    except ImportError as exc:
        raise ProgramMissing("cannot import involutive: %s" % exc) from exc
    where = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if where != os.path.join(SRC, "involutive"):
        raise ProgramMissing("involutive was imported from %s, not %s" % (where, SRC))
    return Lib(mods)


def probe():
    """Time a fixed piece of stdlib Fraction arithmetic (about 5 ms)."""
    start = time.perf_counter()
    x = Fraction(0)
    for k in range(1, PROBE_OPS + 1):
        x += Fraction(k % 7 - 3, k % 5 + 1) * Fraction(k % 3 + 1, 7)
    return time.perf_counter() - start


def corrected(seconds, before, after):
    """seconds as they would read with the probe at its reference time."""
    return seconds * PROBE_REF_S * 2.0 / (before + after)


def setup(workload, seed, workdir):
    """Import, build the four built-in examples, generate the inputs."""
    before = probe()
    start = time.perf_counter()
    lib = fresh_import()
    examples = {name: lib.cli.build_example(name)
                for name in workloads.EXAMPLE_NAMES}
    inputs = workload.generate(lib, seed, examples, workdir)
    raw = time.perf_counter() - start
    return lib, inputs, (raw, corrected(raw, before, probe()))


def run_pass(lib, workload, inputs, tr):
    """Run every task once, with a probe between tasks.

    Returns the task ids, answers, errors, and per task the raw and the
    corrected latency.
    """
    tasks = workload.tasks(lib, inputs)
    answers, errors, raw, fixed = {}, {}, [], []
    clock = time.perf_counter
    before = probe()
    for tid, call in tasks:
        if tr is not None:
            tr.begin(tid)
        t0 = clock()
        try:
            answers[tid] = call()
        except Exception as exc:  # a failed task is counted, the run goes on
            errors[tid] = "%s: %s" % (type(exc).__name__, exc)
        seconds = clock() - t0
        after = probe()
        raw.append(seconds)
        fixed.append(corrected(seconds, before, after))
        if tr is not None:
            tr.end(fixed[-1] / seconds if seconds else 1.0)
        before = after
    return [tid for tid, _ in tasks], answers, errors, raw, fixed


def check_pass(lib, workload, inputs, answers, seed, reference, golden):
    """Problems per task: the oracle on the first pass; later passes keep
    the first pass's verdicts where their answers have the same digest."""
    digests = {tid: workloads.digest(ans) for tid, ans in answers.items()}
    problems = {}
    if reference is None:
        try:
            problems = workload.oracle(lib, inputs, answers, seed)
        except Exception as exc:  # an oracle that cannot read an answer
            problems = {"oracle": ["oracle raised %s: %s" % (type(exc).__name__, exc)]}
        if golden is not None:
            for tid, d in digests.items():
                if tid not in SPEC["expected_failures"] and golden.get(tid) != d:
                    problems.setdefault(tid, []).append("digest differs from golden")
    else:
        ref_digests, ref_problems = reference
        problems = {tid: list(p) for tid, p in ref_problems.items()}
        for tid, d in digests.items():
            if ref_digests.get(tid) != d:
                problems.setdefault(tid, []).append("answer differs from pass 1")
    return digests, problems


def classify(tids, answers, errors, problems):
    """(failed, unexpected) task ids; expected failures are the recorded
    known defects failing the recorded way."""
    failed, unexpected = [], []
    for tid in tids:
        if tid not in errors and tid not in problems:
            continue
        failed.append(tid)
        known = SPEC["expected_failures"].get(tid)
        ans = answers.get(tid)
        if not (known and ans is not None and ans.get("exit") == known["exit"]):
            unexpected.append(tid)
    if "oracle" in problems:
        unexpected.append("oracle")
    return failed, unexpected


def measure(args, workdir):
    workload = workloads.WORKLOADS[args.workload]
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh).get(args.workload)
    tr = tracer.Tracer() if args.trace else None
    start = time.perf_counter()
    setups, passes, notes = [], [], []
    reference = None
    attempted = failed = 0
    correct = True
    measured = checking = 0.0
    while True:
        cycle = time.perf_counter()
        lib, inputs, setup_s = setup(workload, args.seed, workdir)
        setups.append(setup_s)
        traced = tr is not None and len(passes) % 2 == 1
        if traced:
            tr.install(lib)
        tids, answers, errors, raw, fixed = run_pass(
            lib, workload, inputs, tr if traced else None)
        checked = time.perf_counter()
        digests, problems = check_pass(lib, workload, inputs, answers, args.seed,
                                       reference, golden)
        checking += time.perf_counter() - checked
        if reference is None:
            reference = (digests, problems)
        bad, unexpected = classify(tids, answers, errors, problems)
        attempted += len(tids)
        failed += len(bad)
        if unexpected:
            correct = False
            for tid in unexpected[:5]:
                notes.append("%s: %s" % (tid, errors.get(tid) or problems.get(tid)))
        passes.append({"traced": traced, "raw": raw, "fixed": fixed,
                       "tasks": len(tids), "failed": bad})
        del lib, inputs, answers
        # The budget counts set-up and tasks; the untimed checks come on top.
        last = checked - cycle
        measured += last
        need_traced = tr is not None and not any(p["traced"] for p in passes)
        if not need_traced and measured + last > args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup(workload, args.seed, workdir)[2])
    if args.record_golden:
        if not correct or args.seed != DEFAULT_SEED:
            raise SystemExit("refusing to record digests: answers are not "
                             "correct or the seed is not the default")
        record_golden(args.workload, reference[0])
    return {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "setups": setups, "attempted": attempted, "failed": failed,
        "correct": correct, "notes": notes, "tracer": tr,
        "seconds": time.perf_counter() - start, "checking": checking,
    }


def record_golden(name, digests):
    data = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data[name] = {tid: d for tid, d in sorted(digests.items())
                  if tid not in SPEC["expected_failures"]}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def end_to_end(run, key="fixed"):
    """The end-to-end metrics from corrected (or, with key="raw", raw) times."""
    plain = [p for p in run["passes"] if not p["traced"]]
    lat = sorted(x for p in plain for x in p[key])
    values = {
        "wall_s": statistics.median(sum(p[key]) for p in plain),
        "task_s.p50": statistics.median(lat),
        "task_s.p90": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(s[1 if key == "fixed" else 0]
                                     for s in run["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - run["failed"] / run["attempted"],
    }
    units = {"wall_s": "s", "task_s.p50": "s", "task_s.p90": "s",
             "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, len(lat)


def per_layer(run):
    tr = run["tracer"]
    traced = [sum(p["fixed"]) for p in run["passes"] if p["traced"]]
    plain = [sum(p["fixed"]) for p in run["passes"] if not p["traced"]]
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    return tr.metrics(len(traced), overhead)


def report(args, run):
    e2e, samples = end_to_end(run)
    passes = run["passes"]
    lines = [
        "workload %s, seed %d: %d pass(es) of %d tasks (%d traced), %.1f s"
        " of which %.1f s untimed checks"
        % (run["workload"], run["seed"], len(passes), passes[0]["tasks"],
           sum(p["traced"] for p in passes), run["seconds"], run["checking"]),
        "  pass wall times, raw / corrected: %s" % ", ".join(
            "%.3f/%.3f%s" % (sum(p["raw"]), sum(p["fixed"]),
                             " (traced)" if p["traced"] else "")
            for p in passes),
        "  tasks attempted %d, failed %d, error_rate %.6f%s"
        % (run["attempted"], run["failed"], run["failed"] / run["attempted"],
           "" if run["correct"] else "  (UNEXPECTED FAILURES)"),
    ]
    expected = sorted(set(t for p in passes for t in p["failed"])
                      & set(SPEC["expected_failures"]))
    if expected:
        lines.append("  expected failures (known defects): %s" % ", ".join(expected))
    lines += ["  unexpected: %s" % n for n in run["notes"]]
    lines.append("  task latency samples %d, %d beyond p90"
                 % (samples, samples - int(0.9 * samples)))
    raw, _ = end_to_end(run, "raw")
    for name, m in e2e.items():
        lines.append("  %-14s %.6f %s   (raw %.6f)"
                     % (name, m["value"], m["unit"], raw[name]["value"]))
    metrics = e2e
    if args.trace:
        metrics = per_layer(run)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "%s-seed%d.spans.jsonl"
                            % (run["workload"], run["seed"]))
        run["tracer"].write(path)
        lines.append("  spans written to %s" % os.path.relpath(path, ROOT))
        for name, m in metrics.items():
            lines.append("  %-42s %.6g %s" % (name, m["value"], m["unit"]))
    return lines, {"correct": run["correct"], "attempted": run["attempted"],
                   "failed": run["failed"], "metrics": metrics}


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store the answer digests of this run (default seed only)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "involutive", "__init__.py")):
        print("error: no involutive package under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench-work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        run = measure(args, workdir)
    except ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines, result = report(args, run)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

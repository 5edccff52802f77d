"""itpencil benchmark runner.

    python3 perfbench/run.py --workload {library,cli-batch} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is imported from ./src.  With
--trace 0 the run sets up its inputs at least three times (setup_s is the
median), then runs closed-loop passes over the workload's fixed case list
for about --seconds seconds and prints the end-to-end metrics.  With --trace 1 it runs
one untraced pass, one traced pass and one traced pass in a child process
with BLAS pinned to one thread, and prints the per-layer metrics.  The last
line of standard output is a JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report.  Full
results, the environment record and the spans go to .bench_out/.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sysinfo import BLAS_THREAD_VARS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_MIN_REPS = 3  # setup_s is the median of at least this many set-ups,
SETUP_MIN_S = 2.0  # repeated until they took this long in total,
SETUP_MAX_REPS = 15  # but no more often than this
MIN_PASSES = 3  # pass_s and op_s.geomean average at least this many passes
CHILD_TIMEOUT_S = 150.0
WORKLOADS = ("library", "cli-batch")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke sizes: one small case")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at smoke sizes, traced and untraced, "
                        "and check that every metric of BENCHMARK.json is emitted")
    p.add_argument("--one-thread-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def _prepare_environment(one_thread):
    """Measure the program's own BLAS thread default, or pin one thread.

    Must run before numpy is imported: OpenBLAS reads these at load time.
    """
    for var in BLAS_THREAD_VARS:
        if one_thread:
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)


def _import_package():
    """Import itpencil from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "itpencil" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no itpencil sources under {src}")
    sys.path.insert(0, str(src))
    import itpencil

    if Path(itpencil.__file__).resolve().parent != (src / "itpencil").resolve():
        raise SystemExit(f"benchmark: itpencil imported from {itpencil.__file__}, not {src}")
    return itpencil


# ---------------------------------------------------------------------------
# running passes


def run_pass(workload, state, tracer=None):
    """One closed-loop pass; returns (seconds, op records)."""
    records = []
    t_pass = time.perf_counter()
    for op in workload.ops(state):
        if tracer is not None:
            tracer.case = op.case
        t0 = time.perf_counter()
        try:
            facts, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            facts, error = {}, f"{type(exc).__name__}: {exc}"
        records.append({"case": op.case, "label": op.label,
                        "seconds": time.perf_counter() - t0,
                        "ok": error is None, "error": error, "facts": facts})
    if tracer is not None:
        tracer.case = None
    return time.perf_counter() - t_pass, records


def timed_passes(workload, state, seconds, min_passes):
    """Passes until about `seconds` elapsed; a pass is never cut short.

    A new pass starts only if one more median-length pass should end within
    10% of the budget, so long passes do not overshoot by a whole pass, or
    if fewer than `min_passes` passes have run.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, state))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(p[0] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > 1.1 * seconds:
            return passes


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def per_label(records):
    groups = {}
    for r in records:
        groups.setdefault(r["label"], []).append(r["seconds"])
    return {k: {"n": len(v), "mean_s": statistics.fmean(v), "median_s": _median(v),
                "p90_s": _p90(v)}
            for k, v in groups.items()}


def workload_figures(name, records):
    """The workload-specific end-to-end figures, from untraced op records."""
    figs = {}
    labels = per_label(records)
    if name == "library":
        for label, key in (("solve.n48", "solve_s.n48"), ("solve.n96", "solve_s.n96"),
                           ("solve2d.8x8", "solve2d_s"), ("eigen.n48", "eigen_s.n48")):
            if label in labels:
                figs[key] = (labels[label]["median_s"], "s", labels[label]["n"])
        passes = {r["pass"] for r in records}
        trusted = sum(r["facts"].get("trusted", 0) for r in records if not r["facts"].get("two_d"))
        figs["trusted_eigs"] = (trusted / max(len(passes), 1), "count", len(passes))
        two_d = [r["facts"]["trusted"] for r in records if r["facts"].get("two_d")]
        if two_d:
            figs["trusted_2d"] = (_median(two_d), "count", len(two_d))
        scans = [r for r in records if "samples" in r["facts"]]
        samples = sum(r["facts"]["samples"] for r in scans)
        busy = sum(r["seconds"] for r in scans)
        figs["samples_per_s"] = (samples / busy if busy else 0.0, "1/s", samples)
    elif name == "cli-batch":
        secs = [r["seconds"] for r in records]
        figs["command_s.p50"] = (_median(secs), "s", len(secs))
        figs["command_s.p90"] = (_p90(secs), "s", len(secs))
    failed = sum(not r["ok"] for r in records)
    figs["failed_share"] = (failed / max(len(records), 1), "ratio", len(records))
    return figs


def _geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# modes


def untraced(args, workload):
    setups = []
    while len(setups) < SETUP_MIN_REPS or (
            sum(setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed, args.tiny)
        setups.append(time.perf_counter() - t0)
    workload.warmup(state)
    t0 = time.perf_counter()
    passes = timed_passes(workload, state, args.seconds, 1 if args.tiny else MIN_PASSES)
    measured = time.perf_counter() - t0
    records = [dict(r, **{"pass": i}) for i, (_s, recs) in enumerate(passes) for r in recs]
    labels = per_label(records)
    # Means over the whole run, not medians of its few passes: the host's
    # speed drifts in phases of seconds to minutes, and a mean over every
    # pass of the run averages across more of them.
    metrics = {
        "setup_s": (_median(setups), "s", len(setups)),
        "pass_s": (statistics.fmean(s for s, _r in passes), "s", len(passes)),
        "op_s.geomean": (_geomean([v["mean_s"] for v in labels.values()]), "s", len(labels)),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    detail = {
        "setup_s": setups, "pass_s": [s for s, _r in passes], "measured_s": measured,
        "labels": labels, "figures": workload_figures(workload.name, records),
        "records": records,
    }
    return metrics, records, detail, state


def traced(args, workload):
    """Per-layer metrics: untraced pass, traced setup + pass, one-thread child."""
    import layers
    from tracer import Tracer

    state = workload.setup(args.seed, args.tiny)
    workload.warmup(state)
    plain_s, plain_records = 0.0, []
    if not args.one_thread_child:
        plain_s, plain_records = run_pass(workload, state)

    tracer = Tracer()
    tracer.install(layers.HOOKS)
    try:
        tracer.case = "setup"
        state = workload.setup(args.seed, args.tiny)
        traced_s, traced_records = run_pass(workload, state, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    suffix = "-1thread" if args.one_thread_child else ""
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}{suffix}.jsonl")

    metrics = layers.per_layer(tracer.spans, traced_records)
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.untraced_pass_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    figs = workload_figures(workload.name, [dict(r, **{"pass": 0}) for r in plain_records])
    metrics.update(layers.op_figures(figs))
    records = plain_records + traced_records

    if args.one_thread_child:
        return metrics, records, {}, state
    child = one_thread_child(args)
    if child is None:
        records.append({"case": "one-thread-pass", "label": "one-thread", "seconds": 0.0,
                        "ok": False, "error": "one-thread child failed", "facts": {}})
        child = {}
    else:
        records.extend(child["records"])
    metrics.update(layers.one_thread_metrics(child.get("metrics", {})))
    from sysinfo import blas_threads

    metrics["blas.threads"] = (blas_threads(), "count")
    detail = {"plain_pass_s": plain_s, "traced_pass_s": traced_s,
              "case_kernels": layers.case_kernels(tracer.spans),
              "records": records, "one_thread": child}
    return metrics, records, detail, state


def one_thread_child(args):
    """The same traced pass in a child process with BLAS pinned to one thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1", "--one-thread-child"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("# one-thread child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
        return None
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# reporting


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(args, workload, metrics, detail, env, records):
    failed = sum(not r["ok"] for r in records)
    print(f"# itpencil benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, closed loop, 1 caller, cli --threads 1")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}, caches {env['caches']}")
    for lib in env["openblas"]:
        print(f"# env: {lib['library']}: {lib['config']} (threads {lib['threads']})")
    if args.trace == 0:
        print(f"# passes: {len(detail['pass_s'])} in {detail['measured_s']:.2f} s, "
              f"wall {', '.join(f'{s:.3f}' for s in detail['pass_s'])} s")
        for name, (value, unit, n) in metrics.items():
            print(f"# e2e {name:<16} {_fmt(value):>12} {unit:<6} (n={n})")
        for name, (value, unit, n) in detail["figures"].items():
            print(f"# fig {name:<16} {_fmt(value):>12} {unit:<6} (n={n})")
        for label, st in sorted(detail["labels"].items()):
            print(f"# op  {label:<18} mean {st['mean_s']:.4f} s  median {st['median_s']:.4f} s  "
                  f"p90 {st['p90_s']:.4f} s  (n={st['n']})")
    else:
        for case, counts in detail["case_kernels"].items():
            print(f"# kernels {case}: {counts}")
        for name, (value, unit) in metrics.items():
            print(f"# layer {name:<40} {_fmt(value):>12} {unit}")
    notes = sorted({r["facts"]["note"] for r in records if "note" in r["facts"]})
    for note in notes:
        print(f"# note: {note}")
    for r in records:
        if not r["ok"]:
            print(f"# FAILED {r['case']}: {r['error']}")
    print(f"# attempted {len(records)}, failed {failed}")


def main(argv=None):
    args = _parse(argv)
    if args.smoke:
        import smoke

        return smoke.main(ROOT, WORKLOADS)
    _prepare_environment(args.one_thread_child)
    _import_package()
    import workloads
    from sysinfo import record

    workload = workloads.make(args.workload, OUT)
    if args.trace == 0:
        metrics, records, detail, state = untraced(args, workload)
    else:
        metrics, records, detail, state = traced(args, workload)
    if hasattr(workload, "cleanup"):
        workload.cleanup(state)
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    if args.one_thread_child:
        result["records"] = records
        print(json.dumps(result))
        return 0
    env = record(args.seed)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "result": result, "detail": detail}, fh, indent=1, default=str)
    report(args, workload, metrics, detail, env, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""epmodes benchmark: one workload per invocation, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. The
process runs one workload with numpy's BLAS pinned to one thread, so no
extra threads start. It repeats the timed phase until the next repetition
would overrun --seconds (at least once), checks every repetition's outputs,
and sets the workload up again between repetitions (setup_s is the import
time plus the median set-up). wall_s is the mean repetition, total timed
time over repetitions: on a shared host the speed switches between two
levels up to 1.7x apart, for a fraction of a second up to minutes at a
time, so the median repetition jumps between the levels where the mean
over the whole run moves smoothly. With --trace 1 it then repeats the timed phase with
span wrappers installed (see tracing.py) and reports per-layer figures
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with the
machine's metadata and every repetition, goes to
`perfbench/out/<workload>/result-s<seed>-t<trace>.json`; a traced run also
writes its spans there as gzipped JSON lines.

A run also fails (`correct` false) when its CSV digest differs between its
own repetitions, or from an earlier run of the same workload, seed and
`src/` contents in the same checkout (criterion 8's rerun check).
"""

from __future__ import annotations

import os

# one BLAS thread: the timed code is single-threaded numpy, and an idle
# BLAS pool would only add threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5     # set-ups at least, the median of which is reported
SETUP_SHARE = 0.1  # set-up time per timed time, spread over the run
TRACED_REPS = 3  # spans of more repetitions add memory, not information

# the span each workload was chosen to stress; None where the workload must
# make no LU call at all
STRESSED = {"open_pair": "linalg.Factorization.solve", "analyze_modes": None}


def import_program():
    """Import epmodes from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import epmodes
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import epmodes from {src}: {exc}")
    if Path(epmodes.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: epmodes came from {epmodes.__file__}, "
                 f"not from {src}")


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        cfg = np.show_config(mode="dicts")
        build = {k: cfg.get(k) for k in ("Build Dependencies",
                                         "SIMD Extensions", "Compilers")}
    except TypeError:  # numpy < 1.26 has no dict form
        build = None
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numpy_build": build,
            "git_commit": git_commit(),
            "src_sha256": src_digest()}


def measure(wl, st, budget: float, tracer=None, max_reps=None,
            set_up=None, setup_times=()) -> list:
    """Timed repetitions, each checked outside its timing.

    With `set_up`, the workload is set up afresh before a repetition while
    the set-ups so far (`setup_times`) took less than SETUP_SHARE of the
    timed time. The set-ups are then spread over the whole run, so that
    their median, like wall_s, averages the host's speed over the run.
    """
    reps = []
    spent = 0.0
    while True:
        if set_up is not None and sum(setup_times) < SETUP_SHARE * spent:
            st = set_up()
        with tracer or contextlib.nullcontext():
            t0 = perf_counter()
            output = wl.timed(st)
            dt = perf_counter() - t0
        outcome = wl.check(st, output)
        reps.append((dt, outcome))
        spent += dt
        if max_reps is not None and len(reps) >= max_reps:
            break
        if spent + spent / len(reps) > budget:
            break
    return reps


def check_digests(key: str, digests: set) -> list:
    """Problems if repetitions disagree or an earlier run's digest differs."""
    problems = []
    if len(digests) != 1:
        problems.append(f"CSV differs between repetitions: {sorted(digests)}")
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    digest = min(digests)
    if known.setdefault(key, digest) != digest:
        problems.append(f"CSV digest {digest} differs from an earlier run's "
                        f"{known[key]}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def summarize(reps: list, unit: str) -> dict:
    times = [dt for dt, _ in reps]
    attempted = sum(o.attempted for _, o in reps)
    failed = sum(o.failed for _, o in reps)
    return {"times_s": times,
            "wall_s": sum(times) / len(times),
            "attempted": attempted, "failed": failed,
            "flagged": sum(o.flagged for _, o in reps),
            "points_per_s": (attempted - failed) / sum(times),
            "unit": unit,
            "worst_residual": max(o.worst_residual for _, o in reps),
            "digests": sorted({o.digest for _, o in reps}),
            "problems": [p for _, o in reps for p in o.problems]}


def stress(ix, span, traced: dict) -> dict:
    """Whether the traced phase stressed the layer the workload is for.

    With a span name: that span has the largest total self time of all
    spans. Without: the phase made no LU call (lu_factor or solve).
    """
    linalg = {name: ix.count(name) for name in sorted(ix.by_name)
              if name.startswith("linalg.")}
    if span is None:
        lu = ix.count("linalg.lu_factor") + ix.count(
            "linalg.Factorization.solve")
        return {"layer": "no LU calls", "holds": lu == 0,
                "linalg_calls": linalg}
    totals = {}
    for i, s in enumerate(ix.spans):
        totals[s[0]] = totals.get(s[0], 0.0) + ix.self_time[i]
    return {"layer": span, "holds": max(totals, key=totals.get) == span,
            "share": totals.get(span, 0.0) / sum(traced["times_s"]),
            "linalg_calls": linalg}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import_program()
    import_s = perf_counter() - t0
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    workdir = OUT / wl.name
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times = []

    def set_up():
        t0 = perf_counter()
        state = wl.setup(args.seed, workdir)
        setup_times.append(perf_counter() - t0)
        return state

    plain = summarize(measure(wl, set_up(), args.seconds, set_up=set_up,
                              setup_times=setup_times), wl.unit)
    while len(setup_times) < SETUP_REPS:
        set_up()
    setup_s = import_s + statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = {"untraced": plain}
    result = {"workload": wl.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "import_s": import_s,
              "setup_times_s": setup_times}

    if args.trace:
        setup_tracer = tracing.Tracer()
        with setup_tracer:
            st = wl.setup(args.seed, workdir)
        tracer = tracing.Tracer()
        traced = summarize(measure(wl, st, args.seconds, tracer,
                                   TRACED_REPS), wl.unit)
        phases["traced"] = traced
        ix = tracing.SpanIndex(tracer.spans)
        layers = tracing.layer_metrics(ix, tracing.SpanIndex(
            setup_tracer.spans))
        layers["trace.overhead_frac"] = (traced["wall_s"] - plain["wall_s"]) \
            / plain["wall_s"]
        if tracing.is_patched():
            traced["problems"].append("a span wrapper was left installed")
        result["stress"] = stress(ix, STRESSED[wl.name], traced)
        if ix.count("linalg.lu_factor"):
            result["baseline_row"] = tracing.baseline_row(ix)
        tracer.write(workdir / f"spans-s{args.seed}.jsonl.gz")
        figures = layers
    else:
        figures = {"setup_s": setup_s, "wall_s": plain["wall_s"],
                   "points_per_s": plain["points_per_s"],
                   "peak_rss_mb": peak_rss_mb,
                   "completed_frac": 1.0 - plain["failed"] / plain["attempted"],
                   "trusted_frac": 1.0 - plain["flagged"] / plain["attempted"]}
    # names and units come from BENCHMARK.json, the one list of metrics
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: figures[name] for name in units}

    digests = {d for ph in phases.values() for d in ph["digests"]}
    key = f"{wl.name} seed={args.seed} src={result['machine']['src_sha256']}"
    problems = [p for ph in phases.values() for p in ph["problems"]]
    problems += check_digests(key, digests)
    attempted = sum(ph["attempted"] for ph in phases.values())
    failed = sum(ph["failed"] for ph in phases.values())
    result.update(phases=phases, metrics=metrics, problems=problems)
    path = workdir / f"result-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str))

    report(result, plain, units)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def report(result: dict, plain: dict, units: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    m = result["machine"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={result['trace']}: {m['cpu_model']}, "
          f"{m['cpus_usable']}/{m['nproc']} cpus, python {m['python']}, "
          f"numpy {m['numpy']}, commit {m['git_commit']}")
    print(f"# untraced: {len(plain['times_s'])} repetitions, "
          f"{plain['attempted']} {plain['unit']} attempted, "
          f"{plain['failed']} failed, {plain['flagged']} flagged ambiguous, "
          f"worst cavity residual {plain['worst_residual']:.3e}")
    rows = dict(result["metrics"])
    if not result["trace"]:
        rows["failed_frac"] = plain["failed"] / plain["attempted"]
        rows["ambiguous_frac"] = plain["flagged"] / plain["attempted"]
        units = dict(units, failed_frac="frac", ambiguous_frac="frac")
    for k, v in rows.items():
        print(f"{k:40s} {v:14.6g} {units[k]}")
    if "stress" in result:
        s = result["stress"]
        share = (f", {100 * s['share']:.0f}% of traced time"
                 if "share" in s else "")
        calls = ", ".join(f"{k}={v}" for k, v in s["linalg_calls"].items())
        print(f"# stresses {s['layer']}: {'yes' if s['holds'] else 'NO'}"
              f"{share} (linalg calls: {calls or 'none'})")
    if "baseline_row" in result:
        b = result["baseline_row"]
        print("# | points | n | half-bandwidth | factor | one LU solve | "
              "solves | Hessenberg | diagnostics/mode | total solve |")
        print(f"# | {b['points']} | {b['n']} | {b['half_bandwidth']} | "
              f"{b['factor_s']:.2f} s | {b['lu_solve_ms']:.0f} ms | "
              f"{b['solves']:g} | {b['hessenberg_s']:.3f} s | "
              f"{b['diagnostics_ms_per_mode']:.0f} ms | "
              f"{b['total_solve_s']:.2f} s |")
    for p in result["problems"]:
        print(f"# FAILED CHECK: {p}")


if __name__ == "__main__":
    sys.exit(main())

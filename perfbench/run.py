"""esikit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload infer --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload runs a closed loop of rounds of ``esi``
requests for ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json``:

* ``setup_s``: median over several set-ups, spread over the run, of a
  fresh interpreter's ``import esikit.cli`` (process start to exit) plus
  writing the workload's inputs.
* ``samples_per_s``: median over the timed rounds of the samples a round
  simulated, trained on, scored or localized per second of its wall time.
* ``peak_rss_mb``: the process's peak resident set size.

It also prints, per phase of a round, ``<phase>_samples_per_s`` and, where
a round has several phases, ``<phase>_share`` of the round's wall time
(medians over rounds); for ``localize`` the median and tail latency; and
``failed_frac``: failed operations over attempted ones. Every request is an
operation, and the run-level checks together are one more; a non-zero exit
code or a failed output check is a failure.

With ``--trace 1`` a fixed number of rounds runs four times, alternating
untraced passes with passes in which every layer function is wrapped (see
``tracer.py``). It reports the per-layer metrics of the first traced pass,
checks that the exact counts repeat in the second, and reports the extra
wall time of the traced passes as ``trace.overhead_frac``. Spans go to
``.perfbench/results/``, with a JSON record of every run.

Lines before the last describe the run; the last line is the JSON result.
"""

import time

T0 = time.perf_counter()

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


def _import_program():
    """Import esikit from this checkout's ``src/``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import esikit.cli
    except ImportError as err:
        sys.exit(f"perfbench: cannot import esikit from {SRC}: {err}")
    if Path(esikit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: esikit resolved to {esikit.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment


def _blas():
    import numpy
    info = dict(numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}))
    blas = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs = {line.split()[-1] for line in open("/proc/self/maps")
            if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                blas["threads"] = fn()
                return blas
    return blas


def _threads():
    for line in open("/proc/self/status"):
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def environment():
    import numpy
    files = sorted((SRC / "esikit").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + data)
        loc += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_esikit_loc": loc,
        "platform": platform.platform(),
    }


def environment_problems(env):
    threads = _threads()
    if threads is not None and threads > env["nproc"]:
        return [f"{threads} threads in use, more than nproc={env['nproc']}"]
    return []


# ---------------------------------------------------------------------------
# measurement


def fresh_import():
    """Start a new interpreter that imports ``esikit.cli``; wait for it.

    No timeout: with one, ``subprocess`` polls the child every 50 ms, which
    would round the measured set-up time up by as much."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                      env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import esikit.cli"], env=env,
                   cwd=ROOT, check=True)


def closed_loop(workload, seconds=None, rounds=None, tracer=None, first=0):
    """Round after round until ``seconds`` of wall time have passed (at
    least one round), or for ``rounds`` rounds, numbering rounds from
    ``first``. Returns per round a list of (phase, duration_s, samples,
    failures), one per request."""
    from workloads import esi
    out = []
    start = time.perf_counter()
    while (len(out) < rounds if rounds is not None
           else not out or time.perf_counter() - start < seconds):
        i = first + len(out)
        done = []
        for phase, argv, samples, check in workload.requests(i):
            t = time.perf_counter()
            rc = esi(argv)
            duration = time.perf_counter() - t
            with tracer.pause() if tracer else contextlib.nullcontext():
                try:
                    bad = check(rc)
                except Exception:
                    bad = [f"check raised {traceback.format_exc()}"]
            done.append((phase, duration, samples,
                         [f"{phase} in round {i}: {b}" for b in bad]))
        out.append(done)
    return out


def _requests(rounds, phase=None):
    return [r for rnd in rounds for r in rnd if phase in (None, r[0])]


def _rate(requests):
    return sum(r[2] for r in requests) / sum(r[1] for r in requests)


def _wall(rounds):
    return sum(r[1] for r in _requests(rounds))


def tail(values):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    import numpy
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(numpy.percentile(values, p))
    return None, None


def outcome(rounds, workload, env, extra=()):
    """(attempted, failed, problems): each request is one operation, and
    the run-level checks together are one more."""
    try:
        run_problems = workload.check_run() + environment_problems(env)
    except Exception:
        run_problems = [f"run check raised {traceback.format_exc()}"]
    run_problems += list(extra)
    requests = _requests(rounds)
    failed = sum(1 for r in requests if r[3]) + bool(run_problems)
    problems = [b for r in requests for b in r[3]] + run_problems
    return len(requests) + 1, failed, problems


def measure(args, sizes, work, env):
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    # The set-ups are spread over the run, one before each equal slice of
    # the timed loop, so that their median spans the same stretch of the
    # machine's speed as the loop's. Each slice runs on the inputs its
    # set-up wrote, which the seed makes identical.
    setups, rounds, looped = [], [], 0.0
    n = sizes.setup_repeats
    for k in range(n):
        start = time.perf_counter()
        fresh_import()
        workload = cls(sizes, args.seed)
        workload.prepare(work / f"setup{k}")
        setups.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(work / f"setup{k - 1}")
        start = time.perf_counter()
        rounds += closed_loop(workload, seconds=(k + 1) * args.seconds / n - looped,
                              first=len(rounds))
        looped += time.perf_counter() - start
    timed = rounds[1:] if workload.warmup and len(rounds) > 1 else rounds
    metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": statistics.median(_rate(r) for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {}
    phases = list(dict.fromkeys(r[0] for r in _requests(timed)))
    for phase in phases:
        notes[f"{phase}_samples_per_s"] = (statistics.median(
            _rate(_requests([r], phase)) for r in timed), "1/s")
        if len(phases) > 1:
            notes[f"{phase}_share"] = (statistics.median(
                sum(q[1] for q in _requests([r], phase)) / _wall([r])
                for r in timed), "ratio")
    ms = [1e3 * r[1] for r in _requests(timed, "localize")]
    if ms:
        notes["localize_ms_p50"] = (statistics.median(ms), "ms")
        p, value = tail(ms)
        if p is not None:
            notes[f"localize_ms_tail(p{p:g},n={len(ms)})"] = (value, "ms")
    notes["rounds_timed"] = (len(timed), "count")
    notes["warmup_rounds_excluded"] = (len(rounds) - len(timed), "count")
    notes["in_process_import_s"] = (IMPORT_S, "s")
    attempted, failed, problems = outcome(rounds, workload, env)
    raw = {"setups_s": setups,
           "rounds": [[(r[0], r[1], r[2]) for r in rnd] for rnd in rounds]}
    return metrics, notes, attempted, failed, problems, raw


def trace(args, sizes, work, env, layers):
    from tracer import Tracer, exact_counts
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](sizes, args.seed)
    workload.prepare(work / "setup")
    n = dict(sizes.trace_rounds)[args.workload]
    rounds = closed_loop(workload, rounds=1) if workload.warmup else []
    untraced, traced = [], []
    for k in (1, 2):
        untraced.append(closed_loop(workload, rounds=n))
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pass{k}")
        tracer.install(layers)
        try:
            traced.append((tracer, closed_loop(workload, rounds=n, tracer=tracer)))
        finally:
            tracer.uninstall()
    for passed in untraced + [t[1] for t in traced]:
        rounds += passed
    wall = [_wall(p) for p in untraced + [t[1] for t in traced]]
    (first, _), (second, _) = traced
    metrics = first.layer_metrics(layers, wall[2])
    again = second.layer_metrics(layers, wall[3])
    metrics["trace.overhead_frac"] = (wall[2] + wall[3]) / (wall[0] + wall[1]) - 1.0
    counts, counts_again = exact_counts(metrics), exact_counts(again)
    differ = {k: (v, counts_again[k]) for k, v in counts.items()
              if counts_again[k] != v}
    attempted, failed, problems = outcome(
        rounds, workload, env,
        [f"exact counts differ between traced passes: {differ}"] if differ else [])
    spans = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(spans, "w") as fh:
        first.write_spans(fh)
        second.write_spans(fh)
    notes = {"spans_file": (str(spans.relative_to(ROOT)), ""),
             "untraced_pass_s": ((wall[0] + wall[1]) / 2, "s"),
             "traced_pass_s": ((wall[2] + wall[3]) / 2, "s"),
             "exact_counts_repeat": ("yes" if not differ else "no", "")}
    return metrics, notes, attempted, failed, problems, {"pass_wall_s": wall}


def unit_of(name):
    if name.endswith(".calls") or name.endswith(".errors") or name.endswith("_steps") \
            or name.endswith("_created") or name.endswith("_nodes"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes") or ".bytes_" in name:
        return "B"
    return "ratio"


RESULTS = ROOT / ".perfbench" / "results"
IMPORT_S = None


def main(argv=None, sizes=None):
    global IMPORT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    IMPORT_S = time.perf_counter() - T0
    from workloads import WORKLOADS, Sizes
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    sizes = sizes or Sizes()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    env = environment()
    if "ESI_THREADS" in os.environ:
        sys.exit("perfbench: ESI_THREADS is set; unset it to measure the default")

    RESULTS.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, notes, attempted, failed, problems, raw = trace(
                args, sizes, work, env, layers)
            wanted = bench["per_layer"]
        else:
            metrics, notes, attempted, failed, problems, raw = measure(
                args, sizes, work, env)
            wanted = bench["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for p in problems:
        print(f"FAILED {p}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {units.get(name) or unit_of(name)}")
    for name, (value, unit) in notes.items():
        print(f"{name} {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, env=env, args=vars(args), notes=notes,
                  all_metrics=metrics, problems=problems, raw=raw)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

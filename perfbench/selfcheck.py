"""Fast self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with ``workloads.TINY``
sizes, and checks that each result line carries exactly the metrics that
``BENCHMARK.json`` names, with their units, and that the per-workload names
(``failed_frac``, ``<workload>_samples_per_s``, ``localize_ms_p50``) are
printed. Then it makes ``esi localize`` write a wrong estimate and checks
that the output check catches it: the run must report a failed operation.
Exits non-zero on the first problem.
"""

import contextlib
import io
import json
import math
import sys

import numpy as np

import run

run._import_program()
from workloads import TINY, WORKLOADS  # noqa: E402  (needs esikit on the path)


def run_once(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace)], sizes=TINY)
    lines = out.getvalue().splitlines()
    if rc != 0:
        raise SystemExit(f"{workload} trace {trace}: exit code {rc}")
    return lines, json.loads(lines[-1])


def check_result(workload, trace, lines, result, bench):
    where = f"{workload} trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{where}: not correct:\n" + "\n".join(lines))
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        if m["unit"] != wanted[name] or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            raise SystemExit(f"{where}: bad metric {name}: {m}")
    printed = {line.split()[0] for line in lines[:-1] if line}
    named = {"failed_frac"}
    if not trace:
        named |= ({"eval_fair_samples_per_s", "eval_sloreta_samples_per_s",
                   "localize_ms_p50"} if workload == "infer"
                  else {f"{workload}_samples_per_s"})
    if not named <= printed:
        raise SystemExit(f"{where}: did not print {sorted(named - printed)}")


def check_injected_failure():
    """A wrong estimate on disk must be caught by the localize check."""
    import esikit.cli as cli
    save = cli.save_tensor
    cli.save_tensor = lambda arr, path: save(np.asarray(arr) + 1.0, path)
    try:
        lines, result = run_once("infer", 0)
    finally:
        cli.save_tensor = save
    frac = [line for line in lines if line.startswith("failed_frac ")]
    if result["correct"] or result["failed"] < 1 or frac[0].split()[1] == "0":
        raise SystemExit("an injected wrong estimate was not reported as failed")


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            lines, result = run_once(workload, trace)
            check_result(workload, trace, lines, result, bench)
            print(f"ok {workload} trace {trace}: {len(result['metrics'])} metrics",
                  flush=True)
    check_injected_failure()
    print("ok injected failure is counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())

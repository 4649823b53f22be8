"""Cold-process benchmark of spmatroids.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(`child.py`), started one at a time, because the package keeps process-wide
memo caches that every `spm` invocation pays to fill.

With `--trace 0` it runs as many cold samples as fit in `--seconds` (at
least one) and reports the end-to-end metrics named in BENCHMARK.json: the
mean `run_s` and the median `setup_s` and `peak_rss_mib` of its samples.
With `--trace 1` it runs one untraced and one traced sample and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it give every sample, the environment and the failures.
A full record of the run, environment included, is written to
`perfbench/out/<workload>-seed<n>-trace<t>-<start time>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
import time
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# import-only children before each sample, on top of the import each sample
# times: a run has only 2 to 4 samples on tables-n60 and oracle-n7, and one
# import varies within a run as much as the run medians vary between runs
SETUP_IMPORTS = 3
# no single run may take longer than this, whatever the load
RUN_BUDGET_S = 170.0
RATIOS = {"oracle.catalog_per_signature": ("oracle.catalog_entries", "oracle.signature.calls")}


class BenchError(Exception):
    pass


def _read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SPM_FIXTURES")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py with `args` in a fresh interpreter and return its JSON line."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"run budget of {RUN_BUDGET_S} s exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} did not finish within the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_metrics(spec: list[dict], traced: dict, untraced_run_s: float) -> tuple[dict, list]:
    """Per-layer values named in BENCHMARK.json, from one traced sample.

    Names read `<module>.self_s`, `<module>.<function>[.<label>].{self_s,calls,s}`
    (`s` is inclusive time) or a counter name.  A metric whose function or
    module no longer exists is reported as 0 and listed as absent.
    """
    summary, counters, wrapped = traced["summary"], traced["counters"], set(traced["wrapped"])
    values, absent = {}, []
    for m in spec:
        name = m["name"]
        head, _, stat = name.rpartition(".")
        value = None
        if name == "trace.overhead_s":
            value = traced["run_s"] - untraced_run_s
        elif name in counters:
            value = counters[name]
        elif name in RATIOS:
            continue
        elif stat == "self_s" and "." not in head:
            if any(w.startswith(head + ".") for w in wrapped):
                value = sum(r["self_s"] for n, r in summary.items() if n.startswith(head + "."))
        elif stat in ("self_s", "calls", "s"):
            if head in wrapped or head.rpartition(".")[0] in wrapped:
                rec = summary.get(head, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
                value = rec["incl_s" if stat == "s" else stat]
        if value is None:
            absent.append(name)
            value = 0
        values[name] = value
    for name, (num, den) in RATIOS.items():
        if any(m["name"] == name for m in spec):
            if num in absent or den in absent or not values.get(den):
                absent.append(name)
                values[name] = 0
            else:
                values[name] = values[num] / values[den]
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spmatroids" / "cli.py").is_file() or not bench_json.is_file():
        sys.stderr.write(f"error: {ROOT} needs src/spmatroids/ and BENCHMARK.json\n")
        return 2
    spec = json.loads(bench_json.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    deadline = perf_counter() + RUN_BUDGET_S
    started = time.time()
    env = {
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": _read_loadavg(),
    }
    seed = str(args.seed)
    try:
        run_child(["--setup-only"], deadline)  # writes bytecode caches; not timed
        samples, imports = [], []
        t0 = perf_counter()
        elapsed = last = 0.0
        # start another sample only if one as long as the last ends in time
        while not samples or (not args.trace and elapsed + last <= args.seconds):
            start = perf_counter()
            imports += [run_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_IMPORTS)]
            samples.append(run_child([args.workload, seed, "0"], deadline))
            last = perf_counter() - start
            elapsed = perf_counter() - t0
        traced = None
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}.tsv.gz"  # the latest traced run only
            traced = run_child([args.workload, seed, "1", str(spans)], deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    env["loadavg_end"] = _read_loadavg()

    setup = imports + [s["setup_s"] for s in samples]
    # the mean, not the median: with 2 to 10 samples a run, the mean of a
    # run spread about half as much between runs on a noisy shared host
    run_s = statistics.mean(s["run_s"] for s in samples)
    everything = samples + ([traced] if traced else [])
    attempted = sum(s["ops"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    absent = []
    if args.trace:
        values, absent = layer_metrics(spec["per_layer"], traced, run_s)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in samples),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"workload {args.workload} seed {seed} trace {args.trace}: {len(samples)} untraced cold samples")
    print("run_s samples: " + " ".join(f"{s['run_s']:.4f}" for s in samples))
    print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setup))
    if traced:
        print(f"traced run_s {traced['run_s']:.4f} with {traced['spans']} spans written to {spans}")
    print(f"ops {attempted}, failed {failed}, ops_failed_frac {failed / attempted}")
    for s in everything:
        for line in s["failures"]:
            print(f"FAILED {line}")
    if absent:
        print("absent: " + " ".join(absent))
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "samples": samples, "setup_imports": imports, "traced": traced, "absent": absent,
        "metrics": metrics,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(started))
    (OUT_DIR / f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

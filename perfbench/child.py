"""One cold sample of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/child.py WORKLOAD SEED TRACE [SPANS_PATH]
    python3 perfbench/child.py --setup-only

Times `import spmatroids.cli` from the checkout's `src/`, runs the workload
once (optionally traced), stops the timer, checks the outputs and prints one
JSON line.  Nothing but `sys` and `os`, which the interpreter has already
loaded, is imported before the timed import, so `setup_s` includes every
standard-library module the package pulls in.
"""

import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

_t0 = perf_counter()
import spmatroids.cli  # noqa: E402

SETUP_S = perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

if not os.path.abspath(spmatroids.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"spmatroids was imported from {spmatroids.cli.__file__}, not from {SRC}")


def _coefficients(_args, result) -> int:
    if type(result).__name__ == "BivariateSeries":
        return sum(len(row) for row in result.rows)
    return 0


_CATALOG_SEEN: set = set()


def _new_catalog_entries(args, result) -> int:
    # enumerate_connected(n) returns the whole catalog for n: count each n once
    if args[0] in _CATALOG_SEEN:
        return 0
    _CATALOG_SEEN.add(args[0])
    return len(result)


def _build_tables_family(args, kwargs) -> str:
    return kwargs["family"] if "family" in kwargs else args[1]


TRACE_LABELS = {"spcounts.build_tables": _build_tables_family}
TRACE_COUNTERS = {
    "powerseries.*": ("powerseries.coeffs_out", _coefficients),
    "oracle.extend": ("oracle.graphs_generated", lambda _args, result: len(result)),
    "oracle.two_cycle": ("oracle.graphs_generated", lambda _args, _result: 1),
    "oracle.enumerate_connected": ("oracle.catalog_entries", _new_catalog_entries),
}


def traced_names() -> set:
    """`module.function` for every function a per-layer metric of
    BENCHMARK.json names (`oracle.signature.calls`, `spcounts.build_tables.E.s`)
    and every function a counter needs.  Names that are not functions, such
    as `oracle.self_s`, match nothing."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {".".join(m["name"].split(".")[:2]) for m in spec["per_layer"]}
    return names | {name for name in TRACE_COUNTERS if not name.endswith(".*")}


def main(argv) -> int:
    if argv == ["--setup-only"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spans_path = argv[3] if len(argv) > 3 else None

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracer import Tracer

    spec = workloads.WORKLOADS[workload]
    expected = workloads.load_expected(workload)
    if trace:
        tracer = Tracer()
        tracer.install("spmatroids", traced_names(), TRACE_LABELS, TRACE_COUNTERS)

    error = None
    t0 = perf_counter()
    try:
        outputs = spec.run(seed)
    except Exception:  # a crash of the program is a failed run, reported below
        outputs, error = None, traceback.format_exc()
    run_s = perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if error is None:
        ops = workloads.check(spec, outputs, expected)
    else:
        ops = [("workload raised", False, error)]
    record = {
        "setup_s": SETUP_S,
        "run_s": run_s,
        "peak_rss_mib": peak_rss_mib,
        "ops": len(ops),
        "failed": sum(1 for _name, ok, _detail in ops if not ok),
        "failures": [f"{name}: {detail}" for name, ok, detail in ops if not ok][:20],
    }
    if trace:
        record["spans"] = len(tracer.span_start)
        record["summary"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
        record["wrapped"] = sorted(tracer.wrapped)
        if spans_path:
            tracer.write_spans(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

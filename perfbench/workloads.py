"""The three benchmark workloads and the checks on their outputs.

Each workload's `run(seed)` makes only calls into the public functions of
`spmatroids`, looked up through the module at call time so the tracer's
wrappers see them.  `check(spec, outputs, expected)` compares the outputs
with the expected outputs stored under `expected/` and returns one
`(name, ok, detail)` per independently checked output: a mismatch is a
failed operation, never an exception.

    PYTHONPATH=src python3 perfbench/workloads.py

regenerates `expected/` from the current tree (run it only when an output
change is intended, and say so in the change).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from spmatroids import cli, oeis, oracle, spcounts
from spmatroids.config import RunConfig

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

TABLE_MAX_N = 60
TABLE_FAMILIES = ("E", "C", "G", "A", "S")
ORACLE_MAX_N = 7
ORACLE_ARGV = ["oracle", "--max-n", str(ORACLE_MAX_N), "--compare"]
N7_SAMPLE = 500
DIRECT_SUMS = 200


@dataclass(frozen=True)
class Workload:
    run: Callable[[int], dict]
    checks: Callable[[dict, dict], list]
    expected_file: str


def _cli(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    return buf.getvalue(), status


# ---------------------------------------------------------------------------
# tables-n60
# ---------------------------------------------------------------------------

def run_tables(seed: int) -> dict:
    # build_tables is called directly: `spm table` refuses --max-n above the
    # truncation order 12
    tables, csv = {}, {}
    for family in TABLE_FAMILIES:
        tables[family] = spcounts.build_tables(TABLE_MAX_N, family)
        csv[family] = cli.render_csv(tables[family])
    config = RunConfig()
    reports = {}
    for seq_id, mapping in config.sequence_map.items():
        text = oeis.bfile_path(config, seq_id).read_text(encoding="utf-8")
        entries = oeis.parse_bfile(text)
        reports[seq_id] = oeis.compare_with_bfile(mapping, tables[mapping.family], entries)
    return {"tables": tables, "csv": csv, "reports": reports}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expected_tables(out: dict) -> dict:
    return {
        "csv_sha256": {f: _sha256(text) for f, text in out["csv"].items()},
        "bfile_reports": {i: r.render() for i, r in out["reports"].items()},
    }


def _c_equals_shifted_g(out: dict):
    c, g = out["tables"]["C"], out["tables"]["G"]
    for n in range(2, TABLE_MAX_N + 1):
        for l in range(n + 1):
            if c.value(n, l) != g.value(n - 1, l - 1):
                return f"C({n},{l}) = {c.value(n, l)} != G({n - 1},{l - 1}) = {g.value(n - 1, l - 1)}"
    return None


def _digest_differs(out: dict, family: str, digest: str):
    got = _sha256(out["csv"][family])
    return None if got == digest else f"digest {got} != {digest}"


def _report_differs(out: dict, seq_id: str, text: str):
    report = out["reports"][seq_id]
    return None if report.ok and report.render() == text else f"report {report.render()!r}"


def checks_tables(out: dict, expected: dict) -> list:
    checks = [
        (f"csv sha256 {family}", partial(_digest_differs, out, family, digest))
        for family, digest in expected["csv_sha256"].items()
    ]
    checks += [
        (f"b-file {seq_id}", partial(_report_differs, out, seq_id, text))
        for seq_id, text in expected["bfile_reports"].items()
    ]
    checks.append(("C(n,l) = G(n-1,l-1)", partial(_c_equals_shifted_g, out)))
    return checks


# ---------------------------------------------------------------------------
# verify-o12
# ---------------------------------------------------------------------------

def run_verify(seed: int) -> dict:
    text, status = _cli(["verify"])
    return {"text": text, "status": status}


def _differs(got, want):
    return None if got == want else f"got {got!r}, expected {want!r}"


def _line_checks(text: str, expected_text: str, status: int) -> list:
    got, want = text.splitlines(), expected_text.splitlines()
    checks = [
        (f"line {i + 1}", partial(_differs, got[i] if i < len(got) else None,
                                  want[i] if i < len(want) else None))
        for i in range(max(len(got), len(want)))
    ]
    checks.append(("exit code", partial(_differs, status, 0)))
    return checks


def checks_verify(out: dict, expected: dict) -> list:
    return _line_checks(out["text"], expected["text"], out["status"])


# ---------------------------------------------------------------------------
# oracle-n7
# ---------------------------------------------------------------------------

def oracle_sample(rng: random.Random) -> list:
    """Every connected matroid with n <= 6, a sample of those with n = 7, and
    direct sums of catalog entries with total size <= 7."""
    catalog = {n: oracle.enumerate_connected(n) for n in range(1, ORACLE_MAX_N + 1)}
    sample = [e.sig for n in range(1, ORACLE_MAX_N) for e in catalog[n]]
    sample += rng.sample([e.sig for e in catalog[ORACLE_MAX_N]], N7_SAMPLE)
    for _ in range(DIRECT_SUMS):
        n1 = rng.randint(1, ORACLE_MAX_N - 1)
        n2 = rng.randint(1, ORACLE_MAX_N - n1)
        sample.append(oracle.direct_sum(rng.choice(catalog[n1]).sig, rng.choice(catalog[n2]).sig))
    return sample


def run_oracle(seed: int) -> dict:
    text, status = _cli(ORACLE_ARGV)
    rng = random.Random(seed)
    sample = oracle_sample(rng)
    minor = [oracle.minor_check(m) for m in sample]
    exchange = [oracle.check_basis_exchange(m, rng) for m in sample]
    return {"text": text, "status": status, "minor": minor, "exchange": exchange}


def checks_oracle(out: dict, expected: dict) -> list:
    # series-parallel matroids and their direct sums have neither excluded
    # minor and, like every matroid, satisfy basis exchange
    checks = _line_checks(out["text"], expected["text"], out["status"])
    for kind in ("minor", "exchange"):
        checks += [(f"{kind} #{i}", partial(_differs, ok, True)) for i, ok in enumerate(out[kind])]
    return checks


WORKLOADS = {
    "tables-n60": Workload(run_tables, checks_tables, "tables-n60.json"),
    "verify-o12": Workload(run_verify, checks_verify, "verify-o12.txt"),
    "oracle-n7": Workload(run_oracle, checks_oracle, "oracle-n7.txt"),
}


def load_expected(name: str) -> dict:
    path = EXPECTED_DIR / WORKLOADS[name].expected_file
    text = path.read_text(encoding="utf-8")
    return json.loads(text) if path.suffix == ".json" else {"text": text}


def check(spec: Workload, outputs: dict, expected: dict) -> list[tuple[str, bool, str]]:
    """Run every check; an exception inside one check fails only that check,
    and outputs too malformed to list the checks are one failed op."""
    try:
        checks = spec.checks(outputs, expected)
    except Exception as exc:  # e.g. a missing output
        return [("outputs", False, f"{type(exc).__name__}: {exc}")]
    ops = []
    for name, fn in checks:
        try:
            detail = fn()
        except Exception as exc:  # a malformed output fails its own check
            detail = f"{type(exc).__name__}: {exc}"
        ops.append((name, detail is None, detail or ""))
    return ops


def write_expected() -> None:
    EXPECTED_DIR.mkdir(parents=True, exist_ok=True)
    tables = expected_tables(run_tables(0))
    (EXPECTED_DIR / "tables-n60.json").write_text(json.dumps(tables, indent=2) + "\n", encoding="utf-8")
    (EXPECTED_DIR / "verify-o12.txt").write_text(run_verify(0)["text"], encoding="utf-8")
    (EXPECTED_DIR / "oracle-n7.txt").write_text(_cli(ORACLE_ARGV)[0], encoding="utf-8")


if __name__ == "__main__":
    write_expected()

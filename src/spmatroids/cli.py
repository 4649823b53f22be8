"""Command-line front end.

    spm table  --family {E|C|A|S|G} --max-n INT --format {csv|json|bfile} [--out PATH]
    spm verify [--order INT]
    spm oracle --max-n INT [--compare] [--dump PATH]
    spm oeis   --id AXXXXXX [--bfile PATH]

`spm table` accepts --max-n from 1 to 150, `spm oracle` from 1 to 8, and
`spm verify` accepts --order from 1 to 30.
--out and --dump refuse any path inside the fixtures directory.
Exit codes: 0 all checks pass, 1 verification or comparison failure,
2 usage or configuration error.  Output is deterministic for a given
configuration.
"""

from __future__ import annotations

# the package modules load first, in this order: peak RSS moves with load order
from . import combinum, powerseries, spcounts, oracle, verify

import argparse
import sys
from pathlib import Path

from .config import RunConfig, default_fixtures_dir
from .oeis import bfile_last_row, bfile_path, compare_with_bfile, parse_bfile, render_bfile
from .spcounts import FAMILIES, FAMILY_START_N, TriangularCountTable, build_tables
from .verify import run_verify

USAGE_ERROR = 2
# Largest `spm table --max-n`.  A cold `spm table` at n = 150 takes
# 0.11-0.25 s for E, 0.14-0.33 s for C or G and 0.75-1.9 s for S or A,
# mostly in egf_exp, with a peak RSS of at most 26 MiB (medians of 3-5 cold
# runs, Python 3.11, on two shared 2-vCPU hosts).
TABLE_MAX_N = 150
# Largest `spm verify --order`.  A cold run takes 0.06-0.12 s at order 12
# and 0.17-0.39 s at 30, with a peak RSS of 17 MiB (the same hosts); both
# inversion routes run at the full order.  Past 30 the composition's
# integers grow long: run_verify() takes 1.4 s at order 40 and 5.0 s at 50
# (one run each).
VERIFY_MAX_ORDER = 30


def render_csv(table: TriangularCountTable) -> str:
    lines = ["n,k,value"]
    for i, row in enumerate(table.rows):
        n = table.start_n + i
        for k, value in enumerate(row):
            lines.append(f"{n},{k},{value}")
    return "\n".join(lines) + "\n"


def render_json(table: TriangularCountTable) -> str:
    import json  # only `spm table --format json` loads it

    obj = {
        "family": table.family,
        "start_n": table.start_n,
        "max_n": table.max_n,
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(obj, indent=2) + "\n"


RENDERERS = {"csv": render_csv, "json": render_json, "bfile": render_bfile}


def _check_range(option: str, command: str, name: str, value: int, cap: int) -> None:
    """Raise, naming the user's option, unless 1 <= value <= cap."""
    if value < 1:
        raise ValueError(f"{option}: {command} needs {name} >= 1, got {value}")
    if value > cap:
        raise ValueError(f"{option}: {command} {name} capped at {cap}, got {value}")


def run_table(family: str, max_n: int, fmt: str) -> str:
    """Render one family's triangle in the requested format."""
    _check_range("--max-n", "table", "max_n", max_n, TABLE_MAX_N)
    return RENDERERS[fmt](build_tables(max_n, family))


def _refuse_fixture_path(option: str, path: Path | None) -> None:
    """Raise if `path` resolves inside the fixtures directory, so no output
    of the tool can overwrite a committed fixture."""
    if path is None:
        return
    fixtures = default_fixtures_dir().resolve()
    if path.resolve().is_relative_to(fixtures):
        raise ValueError(f"{option}: refusing to write {path} inside the fixtures directory")


def run_oracle(max_n: int, compare: bool, dump_path: Path | None) -> tuple[str, int]:
    """Print each family's enumerated rows, from its first row to max_n,
    and with `compare` diff them against the formula tables in the same pass."""
    _refuse_fixture_path("--dump", dump_path)
    _check_range("--max-n", "oracle", "max_n", max_n, oracle.HARD_CAP)
    lines = [f"exhaustive enumeration up to n = {max_n}"]
    mismatches = []
    for family in oracle.FAMILIES:
        start = FAMILY_START_N[family]
        rows = oracle.count_rows(family, max_n)[start:]
        wants = build_tables(max_n, family).rows if compare else rows
        for n, (got, want) in enumerate(zip(rows, wants), start):
            lines.append(f"{family} n={n}: " + " ".join(map(str, got)))
            if got != list(want):
                mismatches.append(f"{family} n={n}: enumerated {got}, formula {list(want)}")
    if mismatches:
        lines.append("COMPARE: MISMATCH")
        lines.extend("  " + m for m in mismatches)
    elif compare:
        lines.append("COMPARE: formula tables match enumeration for all four families")
    if dump_path is not None:
        _write_file("--dump", dump_path, oracle.dump_catalog(max_n))
        lines.append(f"catalog dumped to {dump_path}")
    return "\n".join(lines) + "\n", 1 if mismatches else 0


def run_oeis_compare(sequence_id: str, bfile: Path | None) -> tuple[str, int]:
    """Compare one sequence's b-file against the formula table."""
    config = RunConfig()
    mapping = config.sequence_map.get(sequence_id)
    if mapping is None:
        raise ValueError(f"--id: no sequence mapping configured for {sequence_id!r}; "
                         f"configured: {', '.join(config.sequence_map)}")
    option, path = (("--bfile", bfile) if bfile is not None
                    else ("--id", bfile_path(config, sequence_id)))
    try:
        entries = parse_bfile(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{option}: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # UnicodeDecodeError, or BFileParseError naming the line
        raise ValueError(f"{option}: cannot read {path}: {exc}") from None
    last = bfile_last_row(mapping.family, len(entries))  # so every entry is compared
    if last > TABLE_MAX_N:
        raise ValueError(
            f"{option}: {path} runs to row n = {last}, past the table cap of {TABLE_MAX_N}"
        )
    table = build_tables(max(last, 1), mapping.family)
    report = compare_with_bfile(mapping, table, entries)
    return report.render(), 0 if report.ok else 1


def _write_file(option: str, path: Path, text: str) -> None:
    """Write `text` to `path`, naming the user's option if that fails."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{option}: cannot write {path}: {exc.strerror}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spm",
        description="Exact count tables for series-parallel matroids, "
        "with verification and brute-force comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit one family's count triangle")
    p_table.add_argument("--family", required=True, choices=FAMILIES)
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--format", choices=tuple(RENDERERS), default="csv")
    p_table.add_argument("--out", type=Path)

    p_verify = sub.add_parser("verify", help="run the identity verification suites")
    p_verify.add_argument("--order", type=int, default=12)

    p_oracle = sub.add_parser("oracle", help="exhaustive enumeration and comparison")
    p_oracle.add_argument("--max-n", type=int, required=True)
    p_oracle.add_argument("--compare", action="store_true")
    p_oracle.add_argument("--dump", type=Path)

    p_oeis = sub.add_parser("oeis", help="compare a table against an OEIS b-file")
    p_oeis.add_argument("--id", required=True)
    p_oeis.add_argument("--bfile", type=Path)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "table":
            _refuse_fixture_path("--out", args.out)
            text = run_table(args.family, args.max_n, args.format)
            if args.out is None:
                sys.stdout.write(text)
            else:
                _write_file("--out", args.out, text)
            return 0
        if args.command == "verify":
            _check_range("--order", "verify", "order", args.order, VERIFY_MAX_ORDER)
            report = run_verify(args.order)
            sys.stdout.write(report.render())
            return 0 if report.ok else 1
        if args.command == "oracle":
            text, status = run_oracle(args.max_n, args.compare, args.dump)
            sys.stdout.write(text)
            return status
        # "oeis" is all that is left: the subparsers are required
        text, status = run_oeis_compare(args.id, args.bfile)
        sys.stdout.write(text)
        return status
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

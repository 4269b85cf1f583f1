"""Benchmark regression guard: fresh smoke results vs committed ones.

Compares a fresh ``--smoke --out`` benchmark JSON against the committed
full-corpus envelope in ``benchmarks/results/<bench>.json`` and fails
with a distinct exit code on a geomean slowdown beyond the threshold.

Only host-independent *ratio* columns are compared (speedups of one
engine over another measured on the same host in the same run), never
absolute MIPS — CI runners differ wildly in single-core throughput, but
a speedup ratio moves only when the code's relative cost moves.

Usage (CI smoke jobs)::

    python benchmarks/bench_uarch_sweep.py --smoke --out fresh.json
    python benchmarks/check_regression.py --bench uarch_sweep \
        --fresh fresh.json [--threshold 0.20]

Exit codes: 0 no regression (or nothing comparable), 2 usage/unreadable
fresh input, 5 regression beyond threshold.
"""

import argparse
import json
import math
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REGRESSION = 5

#: Per-bench comparison spec: which row tables to walk and which
#: columns of each row are host-independent speedup ratios.  Row
#: format is ``[kernel, instructions, ...columns...]``.
SPECS = {
    "uarch_sweep": [
        ("rows", {4: "cold", 5: "warm"}),
    ],
    "trace_acquisition": [
        ("acquisition_rows", {5: "vs_interp"}),
    ],
    "incremental_resim": [
        ("grid_rows", {4: "cold"}),
        ("knob_rows", {4: "incremental"}),
    ],
    "static_lint": [
        ("rows", {4: "static"}),
    ],
    "fleet_throughput": [
        ("rows", {4: "fleet"}),
    ],
}


def _load_json(path, label):
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        return None, f"cannot read {label} {path!r}: {exc}"
    except ValueError as exc:
        return None, f"corrupt {label} JSON {path!r}: {exc}"
    if not isinstance(payload, dict):
        return None, f"{label} {path!r} is not a JSON object"
    data = payload.get("data")
    if not isinstance(data, dict):
        return None, f"{label} {path!r} has no 'data' block"
    return data, None


def _ratio_table(data, spec):
    """``{(table, kernel, column-label): ratio}`` for one result set."""
    ratios = {}
    for table, columns in spec:
        rows = data.get(table)
        if not isinstance(rows, list):
            continue
        for row in rows:
            if not isinstance(row, list) or not row:
                continue
            kernel = row[0]
            for column, label in columns.items():
                if column >= len(row):
                    continue
                value = row[column]
                if isinstance(value, (int, float)) and value > 0:
                    ratios[(table, kernel, label)] = float(value)
    return ratios


def compare(bench, fresh_data, committed_data, threshold):
    """(geomean fresh/committed over common ratios, per-key detail).

    Returns ``(None, [])`` when the two result sets share no comparable
    entries (e.g. a brand-new bench with no committed baseline rows).
    """
    spec = SPECS[bench]
    fresh = _ratio_table(fresh_data, spec)
    committed = _ratio_table(committed_data, spec)
    common = sorted(set(fresh) & set(committed))
    if not common:
        return None, []
    detail = []
    log_sum = 0.0
    for key in common:
        relative = fresh[key] / committed[key]
        log_sum += math.log(relative)
        detail.append((key, committed[key], fresh[key], relative))
    return math.exp(log_sum / len(common)), detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, choices=sorted(SPECS),
                        help="which benchmark's spec to apply")
    parser.add_argument("--fresh", required=True,
                        help="JSON from the bench's --out flag")
    parser.add_argument("--committed", default=None,
                        help="baseline JSON (default: "
                             "benchmarks/results/<bench>.json)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed geomean slowdown fraction "
                             "(default 0.20 = 20%%)")
    args = parser.parse_args(argv)

    fresh_data, error = _load_json(args.fresh, "fresh results")
    if error:
        print(f"check_regression: {error}", file=sys.stderr)
        return EXIT_USAGE

    committed_path = args.committed or os.path.join(
        RESULTS_DIR, f"{args.bench}.json")
    committed_data, error = _load_json(committed_path, "committed results")
    if error:
        # A missing or unreadable baseline is not a regression — warn
        # and pass so new benches can land before their first results.
        print(f"check_regression: {error} — nothing to compare, passing",
              file=sys.stderr)
        return EXIT_OK

    geomean, detail = compare(args.bench, fresh_data, committed_data,
                              args.threshold)
    if geomean is None:
        print("check_regression: no comparable speedup entries — passing",
              file=sys.stderr)
        return EXIT_OK

    for (table, kernel, label), base, now, relative in detail:
        print(f"  {table}/{kernel}/{label}: committed {base:.2f}x, "
              f"fresh {now:.2f}x ({relative:.2f} relative)")
    slowdown = 1.0 - geomean
    print(f"check_regression[{args.bench}]: geomean fresh/committed = "
          f"{geomean:.3f} over {len(detail)} entries "
          f"(threshold: {args.threshold:.0%} slowdown)")
    if slowdown > args.threshold:
        print(f"check_regression: REGRESSION — {slowdown:.1%} geomean "
              f"slowdown exceeds {args.threshold:.0%}", file=sys.stderr)
        return EXIT_REGRESSION
    print("check_regression: OK")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

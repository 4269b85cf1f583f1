"""End-to-end performance benchmark of the cloning reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload repro-warm --seed 1 --seconds 10 --trace 0

Each repetition runs in a fresh child process (set-up, timed region,
output checks); repetitions repeat until ``--seconds`` of timed work
has been measured.  ``--trace 1`` alternates untraced and traced
repetitions and reports per-layer metrics from the traced ones.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.

``--record-reference`` re-records ``reference.json`` (the output digests
and accuracy figures the checks compare against) from one cold and one
warm repetition; do so only when a change is meant to alter results.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCE_DIR = os.path.join(ROOT, "src")
sys.path[:0] = [ROOT, SOURCE_DIR]

from perfbench import checks, report  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set-ups measured per run (repetitions plus set-up-only children).
SETUP_SAMPLES = 11

#: Repetitions a run makes at least: the shorter workloads take the
#: median of several, within the same time per run as one cold one.
MIN_REPETITIONS = {"repro-warm": 2, "design-sweep": 3}

#: Every run ends within this many seconds (priming excepted).
RUN_BUDGET_S = 170
PRIME_BUDGET_S = 850


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _run_child(spec, timeout):
    """Run one child to completion; its record, or None if it failed.

    The child gets its own session so that on a timeout the whole
    process group (fleet workers, compilers) is killed and reaped.
    """
    os.makedirs(spec["work_dir"], exist_ok=True)
    spec = dict(spec, out=os.path.join(spec["work_dir"], "record.json"))
    spec_path = os.path.join(spec["work_dir"], "spec.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    # Temporary files stay inside the checkout too.
    tmp_dir = os.path.join(spec["work_dir"], "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir,
               REPRO_CACHE_DIR=os.path.join(spec["work_dir"], "cache"))
    spawned = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", spec_path],
        stdout=sys.stderr, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: child timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    finally:
        # Anything the child left behind in its group goes too.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0 or not os.path.exists(spec["out"]):
        print(f"perfbench: child exited with code {code}", file=sys.stderr)
        return None
    with open(spec["out"]) as handle:
        record = json.load(handle)
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
        record["setup_norm_s"] = record["setup_s"] * record["speed"]
    return record


def child_main(spec_path):
    from perfbench import workloads
    with open(spec_path) as handle:
        spec = json.load(handle)
    if spec["mode"] == "prime":
        workloads.prime(spec["prime_dir"])
        record = {}
    elif spec["mode"] == "setup":
        record = workloads.set_up_only(spec)
    else:
        record = workloads.run_repetition(spec)
    with open(spec["out"], "w") as handle:
        json.dump(record, handle)


# ----------------------------------------------------------------------
# Priming: once per checkout and source tree
# ----------------------------------------------------------------------
def _source_key():
    """Hash of the sources a primed cache reflects: the program and the
    benchmark module that fills the caches."""
    paths = [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads.py")]
    for directory, dirnames, filenames in os.walk(
            os.path.join(SOURCE_DIR, "repro")):
        dirnames[:] = [name for name in dirnames if name != "__pycache__"]
        paths += [os.path.join(directory, name) for name in filenames
                  if name.endswith(".py")]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def ensure_primed():
    """The primed-cache directory for this source tree, built if absent."""
    prime_dir = os.path.join(STATE_DIR, f"prime-{_source_key()}")
    if os.path.isdir(prime_dir):
        return prime_dir
    os.makedirs(STATE_DIR, exist_ok=True)
    for name in os.listdir(STATE_DIR):
        if name.startswith("prime-"):
            shutil.rmtree(os.path.join(STATE_DIR, name), ignore_errors=True)
    staging = f"{prime_dir}.tmp-{os.getpid()}"
    started = time.monotonic()
    record = _run_child({"mode": "prime", "prime_dir": staging,
                         "work_dir": staging}, PRIME_BUDGET_S)
    if record is None:
        shutil.rmtree(staging, ignore_errors=True)
        raise SystemExit("perfbench: priming the caches failed")
    for leftover in ("record.json", "spec.json", "tmp"):
        path = os.path.join(staging, leftover)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
    os.rename(staging, prime_dir)
    print(f"perfbench: primed caches in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    return prime_dir


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
def fingerprint(records):
    """Host and build facts recorded with every result."""
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "nproc": os.cpu_count(),
        "cc": cc,
        "native": all(record["native"] for record in records),
        "python": platform.python_version(),
        "numpy": records[0]["numpy"] if records else None,
        "git_rev": rev,
    }


def run_benchmark(workload, seed, seconds, trace):
    """Measure one run; returns ``(result, run record)``."""
    prime_dir = ensure_primed()
    started = time.monotonic()
    work_root = os.path.join(STATE_DIR, "work", str(os.getpid()))

    def child(mode, traced):
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        work_dir = os.path.join(work_root, mode)
        record = _run_child({"mode": mode, "workload": workload,
                             "seed": seed, "trace": traced,
                             "prime_dir": prime_dir,
                             "work_dir": work_dir}, remaining)
        shutil.rmtree(work_dir, ignore_errors=True)
        return record

    records, setups, raw_setups = [], [], []
    crashed = 0
    measured = longest = 0.0
    while True:
        traced = bool(trace) and len(records) % 2 == 1
        rep_started = time.monotonic()
        record = child("run", traced)
        if record is None:
            crashed += 1
            break
        longest = max(longest, time.monotonic() - rep_started)
        record["traced"] = traced
        records.append(record)
        setups.append(record["setup_norm_s"])
        raw_setups.append(record["setup_s"])
        measured += record["wall_s"]
        needed = max(MIN_REPETITIONS.get(workload, 1), 2 if trace else 1)
        if measured >= seconds and len(records) >= needed:
            break
        if time.monotonic() - started + 2 * longest > RUN_BUDGET_S:
            break  # another repetition could overrun the run's budget
    while records and len(setups) < SETUP_SAMPLES:
        record = child("setup", False)
        if record is None:
            break
        setups.append(record["setup_norm_s"])
        raw_setups.append(record["setup_s"])
    shutil.rmtree(work_root, ignore_errors=True)

    untraced = [record for record in records if not record["traced"]]
    traced = [record for record in records if record["traced"]]
    if not untraced or (trace and not traced):
        raise SystemExit("perfbench: no repetition completed")
    wall = statistics.median(record["wall_s"] for record in untraced)
    norm_wall = [record["norm_wall_s"] for record in untraced]
    if trace:
        per_rep = [report.layer_metrics(record["trace"], record["wall_s"],
                                        wall) for record in traced]
        values = {name: statistics.median(rep[name] for rep in per_rep)
                  for name in report.PER_LAYER}
        units = report.PER_LAYER
    else:
        # Host time at reference host speed (perfbench/pace.py).
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(norm_wall),
            "cells_per_s": statistics.median(
                record["cells"] / seconds
                for record, seconds in zip(untraced, norm_wall)),
            "minstr_per_s": statistics.median(
                record["instructions"] / seconds / 1e6
                for record, seconds in zip(untraced, norm_wall)),
            "peak_rss_mb": statistics.median(
                record["peak_rss_mb"] for record in untraced),
        }
        units = report.END_TO_END
    attempted = sum(record["attempted"] for record in records) + crashed
    failed = sum(record["failed"] for record in records) + crashed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    run_record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "fingerprint": fingerprint(records),
        # Traced repetitions keep their spans: written out at the end.
        "setups_s": setups, "raw_setups_s": raw_setups,
        "raw_wall_s": wall, "result": result, "repetitions": records,
    }
    return result, run_record


def print_summary(result, run_record):
    host = run_record["fingerprint"]
    print(f"perfbench {run_record['workload']} seed={run_record['seed']} "
          f"repetitions={len(run_record['repetitions'])} "
          f"trace={run_record['trace']}")
    print("host " + " ".join(f"{key}={value}" for key, value in host.items()))
    print(f"  raw host time: wall_s {run_record['raw_wall_s']:.4g} s, "
          f"setup_s {statistics.median(run_record['raw_setups_s']):.4g} s "
          "(metrics below are at reference host speed)")
    if not host["native"]:
        print("NOTE native engines unavailable: not comparable with "
              "native runs")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    fidelity = [rep["fidelity"] for rep in run_record["repetitions"]
                if "fidelity" in rep]
    if fidelity:
        for name, unit in report.FIDELITY.items():
            print(f"  fidelity {name:23s} {fidelity[0][name]:14.6g} {unit}"
                  " (sim)")
    for rep in run_record["repetitions"]:
        for mismatch in rep["mismatches"]:
            print(f"  OUTPUT MISMATCH {mismatch}")
    print(f"  checks: {result['attempted'] - result['failed']} of "
          f"{result['attempted']} outputs correct")


def record_reference():
    """Re-record reference.json from one cold and one warm repetition."""
    prime_dir = ensure_primed()
    found = {}
    for workload in ("repro-cold", "repro-warm"):
        work_dir = os.path.join(STATE_DIR, "work", f"reference-{workload}")
        record = _run_child({"mode": "run", "workload": workload, "seed": 0,
                             "trace": False, "record": True,
                             "prime_dir": prime_dir,
                             "work_dir": work_dir}, RUN_BUDGET_S)
        shutil.rmtree(work_dir, ignore_errors=True)
        if record is None:
            raise SystemExit(f"perfbench: {workload} failed")
        found[workload] = record
    rows = found["repro-warm"]["digests"]
    for study, per_kernel in found["repro-cold"]["digests"].items():
        for kernel, digest in per_kernel.items():
            if rows[study][kernel] != digest:
                raise SystemExit(f"perfbench: cold and warm disagree on "
                                 f"{study}/{kernel}")
    reference = {"rows": rows,
                 "fidelity": {workload: record["fidelity"]
                              for workload, record in found.items()}}
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"perfbench: wrote {checks.REFERENCE_PATH}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child_main(args.child)
        return 0
    # Terminating the parent must still reap the child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SOURCE_DIR, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SOURCE_DIR}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, run_record = run_benchmark(args.workload, args.seed,
                                       args.seconds, args.trace)
    results_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    native = "native" if run_record["fingerprint"]["native"] else "nonative"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{native}.json"
    with open(os.path.join(results_dir, name), "w") as handle:
        json.dump(run_record, handle, indent=1)
    print_summary(result, run_record)
    if not result["correct"]:
        print("perfbench: OUTPUT CHECK FAILED", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload run, checked, as one JSON line.

    python3 perfbench/run.py --workload kv-paging --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  Each run measures in a fresh child
process (fixed ``PYTHONHASHSEED``, ``src/`` on the path).  The last
line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run, whose overhead is measured against an untraced run of the
same work.  The exit code is non-zero when a fingerprint, a regime
guard or an invariant fails; the metric list and the workload
rationale are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from harness.measure import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, PER_LAYER, end_to_end, measure,
    per_layer, setup_times, verdict, window_rates,
)

ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch output (extracted corpus, span files), listed in .gitignore.
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = HERE / "fingerprints.json"
WORKLOAD_NAMES = ("kv-paging", "kv-resident", "service-pool", "analyze")
#: Wall-clock budget for every child of one run together.
DEADLINE_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the measuring child.
    parser.add_argument("--child", choices=("measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--fixed", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child_main(args):
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")
    payload = measure(
        args.workload, args.seed, args.seconds, OUT,
        trace=args.child == "trace", fixed=args.fixed,
    )
    print(json.dumps(payload))
    return 0


def run_child(args, mode, deadline, fixed=False):
    """Run one measuring child; returns its payload or raises."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--child", mode]
    if fixed:
        cmd.append("--fixed")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          cwd=str(ROOT), text=True) as proc:
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{mode} child exceeded the time budget")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(
            f"{mode} child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def expected_fingerprint(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads(FINGERPRINTS.read_text())
    return recorded["workloads"][workload]


def fmt(value):
    return f"{value:,.6g}" if isinstance(value, float) else f"{value:,}"


def report_run(payload, expected, attempted, failed, problems, metrics,
               units):
    name = payload["workload"]
    print(f"perfbench {name} seed={payload['seed']}")
    for metric, value in metrics.items():
        print(f"  {metric:<42} {fmt(value):>16} {units[metric]}")
    if payload["sim"]:
        print("  simulated (deterministic for the seed):")
        for metric, value in payload["sim"].items():
            print(f"    {metric:<40} {fmt(value):>16}")
    rates = window_rates(payload)
    if len(rates) >= 2:
        q1, _, q3 = statistics.quantiles(rates, n=4)
        print(f"  windows: {len(rates)}, ops_per_s quartiles "
              f"{fmt(q1)} .. {fmt(q3)}")
    print(f"  setup_s samples: "
          f"{', '.join(f'{s:.3f}' for s in setup_times(payload))}")
    host = end_to_end(payload, host=True)
    print(f"  in host seconds: setup {fmt(host['setup_s'])} s, "
          f"{fmt(host['ops_per_s'])} ops/s")
    print(f"  attempted {attempted:,}, failed {failed:,}")
    if expected is None:
        print("  fingerprint: not recorded for this seed; "
              "invariants and regime guards checked")
    elif not any(p.startswith("fingerprint") for p in problems):
        print("  fingerprint: matches fingerprints.json")
    print(f"  fingerprint: {json.dumps(payload['fingerprint'])}")
    for problem in problems:
        print(f"  FAIL: {problem}")


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    expected = expected_fingerprint(args.workload, args.seed)
    try:
        if args.trace:
            base = run_child(args, "measure", deadline, fixed=True)
            payload = run_child(args, "trace", deadline, fixed=True)
        else:
            payload = run_child(args, "measure", deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    runs = [base, payload] if args.trace else [payload]
    errors = [run["error"] for run in runs if run["error"]]
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    attempted, failed, problems = verdict(payload, expected)
    if args.trace:
        problems += [f"untraced: {p}" for p in verdict(base, expected)[2]]
        if base["fingerprint"] != payload["fingerprint"]:
            problems.append("traced fingerprint differs from the "
                            "untraced run's")
            failed = attempted
    if args.trace:
        metrics, units = per_layer(payload, base), PER_LAYER
        print(f"  traced {payload['n_spans']:,} spans; spans written to "
              f"{OUT.name}/")
    else:
        metrics, units = end_to_end(payload), END_TO_END
    report_run(payload, expected, attempted, failed, problems, metrics,
               units)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

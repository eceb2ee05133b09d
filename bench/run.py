"""The torusvc benchmark.

One run measures one workload in this process and prints, as its last
stdout line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``::

    python3 bench/run.py --workload construct --seed 1 --seconds 56 --trace 0

With ``--trace 0`` the metrics are the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, taken
from one extra pass under the outside-in tracer, together with the
tracing overhead.

``wall_s`` and ``setup_s`` are scaled to a fixed machine speed (see
harness.py): every step and set-up is timed between runs of a reference
kernel, which also runs every half second inside long steps, and divided
by their mean.  ``wall_s`` sums each step's
median over the run's passes; ``setup_s`` is the median set-up.  The
per-layer ``raw.wall_s`` is the unscaled median pass wall time and
``raw.ref_s`` the median kernel time, the machine's speed in that run.

Failed steps are listed on stderr and make the exit code 1; they never
stop the run.

Two further modes serve maintainers:

``--freeze``
    Re-run every workload instance once, check the anchors and the
    brute-force growth counts from tests/bruteforce.py, and rewrite
    bench/expected.json.  Needed only when an output changes on purpose.
``--record PATH``
    Run every workload ``REPEATS`` times on ``--seed`` in fresh processes,
    plus two traced runs on that seed and one gate run on the next seed,
    and write the run record: machine, commit, seed, repeat count, median
    and quartiles of each end-to-end metric, per-layer metrics and tracing
    overhead.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from harness import EXPECTED, ROOT, frozen_records, load_program, measure
from workloads import POOL, SIZES, WORKLOADS

DEFAULT_SEED = 1
REPEATS = 10  # untraced runs of each workload in a run record
SPEC = ROOT / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    return statistics.quantiles(values, n=4)


def metric_block(declared, values) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_once(args, spec) -> int:
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for label, step, problem in result.problems:
        print(f"FAILED {args.workload} {label} step {step}: {problem}", file=sys.stderr)
    if args.trace:
        # steps of other workloads run no span here, so their cli./api. times are 0
        values = {m["name"]: 0.0 for m in spec["per_layer"] if m["name"].startswith(("cli.", "api."))}
        values.update(result.layers)
        metrics = metric_block(spec["per_layer"], values)
    else:
        metrics = metric_block(spec["end_to_end"], {
            "wall_s": result.wall_s,
            "setup_s": result.setup_s,
            "peak_rss_mb": result.peak_rss_mb,
        })
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


def freeze() -> int:
    """Rewrite expected.json from one pass of every workload instance at every size."""
    frozen = {}
    for size in SIZES:
        for workload in WORKLOADS.values():
            frozen.setdefault(size, {})[workload.name] = {
                str(i): frozen_records(workload, size, i) for i in range(POOL)
            }
            print(f"froze {size} {workload.name}", file=sys.stderr)
    cross_check_growth(frozen)
    EXPECTED.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    return 0


def cross_check_growth(frozen) -> None:
    """Compare frozen box and cube growth counts with the brute-force oracles."""
    package = load_program()
    sys.path.insert(0, str(ROOT / "tests"))
    from bruteforce import brute_box_masks, brute_cube_masks

    oracles = {"boxes": brute_box_masks, "cubes": brute_cube_masks}
    workload = WORKLOADS["count-bound"]
    for size in SIZES:
        for instance in range(POOL):
            inputs, steps = workload.build(size, instance)
            for step in steps:
                if step.argv[:1] != ("growth",) or step.argv[3] not in oracles:
                    continue
                _, file, _, family = step.argv
                header, *rows = inputs[file].splitlines()
                dim, _, denom = map(int, header.split())
                points = tuple(tuple(Fraction(int(v), denom) for v in row.split()) for row in rows)
                want = len(oracles[family](package.PointSet(dim, denom, points)))
                got = frozen[size][workload.name][str(instance)][step.id]["stdout"]
                if got != f"{want}\n":
                    raise RuntimeError(f"{size} instance {instance} {step.id}: "
                                       f"program printed {got!r}, brute force counts {want}")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True, check=True).stdout
        commit += "-dirty" if dirty.strip() else ""
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "commit": commit}


def child_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(argv)} printed no result:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(args, spec) -> int:
    """Repeat each workload on one seed, so the spread is run-to-run noise alone."""
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    other_seed = args.seed + 1
    out = dict(machine(), seed=args.seed, repeats=REPEATS, run_seconds=args.seconds,
               other_seed=other_seed, workloads={})
    for name in chosen:
        runs = [child_run(name, args.seed, args.seconds, 0) for _ in range(REPEATS)]
        traced = [child_run(name, args.seed, args.seconds, 1) for _ in range(2)]
        # the gate must also pass on other inputs; this run is not part of the spread
        other = child_run(name, other_seed, args.seconds, 0)
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        entry = {"attempted": attempted, "failed": failed, "fail_share": failed / attempted,
                 "other_seed": {"attempted": other["attempted"], "failed": other["failed"],
                                "metrics": {k: v["value"] for k, v in other["metrics"].items()}},
                 "end_to_end": {}, "per_layer": traced[0]["metrics"]}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
                  for t in traced]
        entry["counts_repeat"] = counts[0] == counts[1]
        entry["trace_overhead_s"] = [t["metrics"]["trace.overhead_s"]["value"] for t in traced]
        out["workloads"][name] = entry
        print(json.dumps({name: {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()}}),
              file=sys.stderr)
    Path(args.record).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true", help="rewrite bench/expected.json")
    parser.add_argument("--record", metavar="PATH", help="write a run record of repeated runs")
    args = parser.parse_args(argv)
    if args.freeze:
        return freeze()
    if args.record:
        return record(args, spec)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""altproj benchmark: one seeded workload per call, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an altproj checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Steps:

1. generate the workload's configs from the seed (``workloads.py``);
2. run two timed interpreters, each for as many whole passes over the
   ops as fit in S/2 seconds (at least one): with ``--trace 0`` both take
   only per-op timestamps, with ``--trace 1`` the second one is traced;
3. before, between and after them, time set-up in SETUP_ROUNDS_PER_GAP
   fresh interpreters each (import, config load, instance build for
   every op) and keep the median, so that a slow spell of the machine
   hits only some rounds;
4. check every op's output (``checks.py``) and, on perturbed_mix, audit
   every logged projection (``audit.py``), outside the timed region;
5. print one line per metric, then the result as one JSON line.

An op fails when its exit code is not 0, its output check fails, or the
audit finds one of its projections off by more than 1e-8.  ``correct`` is
false when an output check or exit code fails; projection mismatches the
audit finds are counted in ``failed`` and in the ``sets.audit.*`` metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_ROUNDS_PER_GAP = 4
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))


class BenchError(RuntimeError):
    pass


def _import_altproj():
    if not (SRC / "altproj" / "__init__.py").is_file():
        raise BenchError(f"no altproj sources under {SRC}; run from an altproj checkout")
    sys.path.insert(0, str(SRC))
    import altproj
    if not Path(altproj.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"altproj imported from {altproj.__file__}, not from {SRC}")
    return altproj


def _worker(ops_path, mode, seconds, tag, deadline):
    result = WORK / f"{tag}.json"
    log = WORK / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--ops",
           str(ops_path), "--mode", mode, "--seconds", str(seconds), "--result", str(result)]
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{tag} worker ran past the deadline")
    if rc != 0:
        raise BenchError(f"{tag} worker exited {rc}: {log.read_text()[-2000:]}")
    return json.loads(result.read_text())


def _check(ops, rows, workload):
    """Per-op failures (exit codes, output checks, audit) and the audit itself."""
    from audit import Audit, audit_trace
    from checks import check_output

    audit = Audit()
    failures = {}
    for op in ops:
        problems = [f"exit {row['rc']!r}" for row in rows
                    if row["name"] == op.name and row["rc"] != 0]
        out_dir = WORK / "out" / op.name
        if not problems:
            problems = check_output(op, out_dir)
        if problems:
            failures[op.name] = ("output", problems[:3])
        elif workload == "perturbed_mix" and "trace_json" in op.config["output"]:
            found = audit_trace(op.config, out_dir / op.config["output"]["trace_json"], audit)
            if found:
                failures[op.name] = ("audit", [f"{found} projections off by > 1e-8"])
    return failures, audit


def run(workload, seed, seconds, trace):
    import workloads
    from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, per_op

    deadline = time.monotonic() + DEADLINE_S
    altproj = _import_altproj()
    import numpy
    import scipy

    shutil.rmtree(WORK, ignore_errors=True)
    ops = workloads.generate(workload, seed)
    paths = workloads.write_configs(ops, WORK / "configs")
    ops_path = WORK / "ops.json"
    ops_path.write_text(json.dumps([
        {**op.as_dict(), "config": str(path), "out": str(WORK / "out" / op.name)}
        for op, path in zip(ops, paths)]))
    unit = workloads.UNIT[workload]

    def setup_rounds(gap):
        return [_worker(ops_path, "setup", 0, f"setup{gap}_{i}", deadline)
                for i in range(SETUP_ROUNDS_PER_GAP)]

    setups, timed = [], []
    for i, mode in enumerate(("run", "trace" if trace else "run")):
        setups += setup_rounds(i)
        timed.append(_worker(ops_path, mode, seconds / 2, f"{mode}{i}", deadline))
    setups += setup_rounds(len(timed))
    if trace:
        untraced, measured = timed
    else:
        measured = {"passes": sum(r["passes"] for r in timed),
                    "ops": [op for r in timed for op in r["ops"]],
                    "maxrss_kb": max(r["maxrss_kb"] for r in timed)}
    failures, audit = _check(ops, [op for r in timed for op in r["ops"]], workload)

    if trace:
        values = per_layer(setups, untraced, measured, unit, audit)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = end_to_end(setups, measured, unit)
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"altproj={altproj.__version__}")
    print(f"workload={workload} seed={seed} trace={trace} passes={measured['passes']} "
          f"op_calls={len(measured['ops'])}")
    if not trace:
        work_name = {"steps": "steps_per_s", "samples": "samples_per_s"}[unit]
        print(f"  work_per_s is {work_name} on this workload ({unit}/s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (work, work_s, wall_s) in per_op(measured, unit).items():
        rate = f", {1e6 * work_s / work:.4g} us per {unit[:-1]}" if work else ""
        print(f"  op {name}: {work:g} {unit}, median wall {wall_s:.4g} s, "
              f"work {work_s:.4g} s{rate}")
    print(f"  error_rate = {len(failures) / len(ops):.4g} ratio "
          f"({len(failures)} of {len(ops)} ops failed)")
    for name, (why, problems) in failures.items():
        print(f"  FAILED {name} [{why}]: {'; '.join(problems)}")

    correct = not any(why == "output" for why, _ in failures.values())
    return {"correct": correct, "attempted": len(ops), "failed": len(failures),
            "metrics": metrics}


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

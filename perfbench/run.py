"""Benchmark entry point.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The runner starts the workload in a fresh
child process (so ``peak_rss_mb`` belongs to that workload alone) with one
BLAS/OpenMP thread, keeps the child's temporary corpora and bundles in a
per-run directory under ``.bench_tmp/`` that it deletes afterwards, prints
the child's report and, as the last line, one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``.bench_out/``).  A failed
correctness check prints ``"correct": false`` and exits 1; a crash prints
no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

#: the child must finish well inside the 180 s a run may take
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args) -> int:
    """Inside the child: run the workload, print its report and result."""
    from perfbench.workloads import run

    tmp = Path(args.child)
    result = run(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        tmp=tmp, out=ROOT / ".bench_out",
    )
    print(json.dumps(result), flush=True)
    return 0


def parent_main(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--child", str(tmp),
    ]
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {completed.returncode}", file=sys.stderr)
        return completed.returncode or 4
    result = json.loads(lines[-1])
    return report(args, result)


def report(args, result: dict) -> int:
    """Print the human-readable report and the final JSON line."""
    layers = {layer.name: layer for layer in spec.LAYERS}
    wanted = spec.LAYERS if args.trace else spec.END_TO_END
    metrics = result["metrics"]
    missing = [metric.name for metric in wanted if metric.name not in metrics]
    if missing:
        print(f"perfbench: result lacks metrics {missing}", file=sys.stderr)
        return 5
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in result["report"]:
        print(f"   {line}")
    for name, ok in result["checks"].items():
        print(f"   check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        untraced = result["untraced"]
        for name in ("train_samples_per_s", "lat_p50_ms"):
            print(f"   untraced half of the traced run: {name} {untraced[name]:.4f}")
    for metric in wanted:
        where = f"  -> {layers[metric.name].moves} on {layers[metric.name].on}" if args.trace else ""
        print(f"   {metric.name:32s} {metrics[metric.name]:14.4f} {metric.unit}{where}")
    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            metric.name: {"value": float(metrics[metric.name]), "unit": metric.unit} for metric in wanted
        },
    }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child is not None:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())

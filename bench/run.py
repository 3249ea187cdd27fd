"""borndisp benchmark: runs one workload's CLI operations and prints metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each operation is one ``borndisp`` experiment
in a fresh interpreter (``python3 -m borndisp.cli CONFIG``), started one at
a time until S seconds have passed and at least three have run. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced operations with ``--trace 1``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from workloads import CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_OPERATIONS = 3
# A stalled operation is killed, and no operation starts after DEADLINE_S of
# operations, so that a run ends within 180 s.
OP_TIMEOUT_S = 100.0
DEADLINE_S = 60.0
# Pin BLAS and OpenMP pools to one thread: every operation is single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "max_rel_err": "1", "ok_frac": "1"}


def child_env(root: Path) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env.pop("BORN_DISPERSION_OUT", None)
    return env


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one process to completion: (wall seconds, peak RSS in MB, exit
    code). Output goes to ``log``; the process is killed after OP_TIMEOUT_S."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(env: dict, log: Path) -> list[float]:
    """Wall times of fresh interpreters importing borndisp.cli."""
    argv = [sys.executable, "-c", "import borndisp.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, code = spawn(argv, env, log)
        if code != 0:
            raise RuntimeError(f"importing borndisp.cli failed; see {log}")
        times.append(wall)
    return times


_NUMBER = re.compile(r"[-+]?\d+(\.\d*)?([eE][-+]?\d+)?")


def warning_groups(text: str) -> dict[str, int]:
    """Warning and error lines of an operation's output, grouped by message
    with the numbers masked."""
    groups: dict[str, int] = {}
    for line in text.splitlines():
        if line.startswith(("WARNING", "ERROR", "error:")):
            key = _NUMBER.sub("#", line)
            groups[key] = groups.get(key, 0) + 1
    return groups


@dataclass
class Operation:
    """Outcome of one CLI run."""

    wall: float
    rss_mb: float
    err: float | None = None
    failure: str | None = None
    stats: dict | None = None
    warnings: dict = field(default_factory=dict)
    check_s: float = 0.0


def run_operation(env: dict, workload: str, cfg: dict, cfg_path: Path, op_dir: Path,
                  traced: bool, seed: int) -> tuple[Operation, dict]:
    """Run one operation and check its outputs; also return its artifacts."""
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    out = op_dir / "out"
    cli_args = [str(cfg_path)]
    if traced:
        stats_path = op_dir / "stats.json"
        argv = [sys.executable, str(BENCH_DIR / "tracing.py"), "--stats", str(stats_path),
                "--seed", str(seed), "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "borndisp.cli", *cli_args]
    wall, rss, code = spawn(argv, dict(env, BORN_DISPERSION_OUT=str(out)), op_dir / "log.txt")
    warnings = warning_groups((op_dir / "log.txt").read_text(errors="replace"))
    produced = {}
    if code != 0:
        return Operation(wall, rss, failure=f"exit code {code}", warnings=warnings), produced
    try:
        check_start = time.perf_counter()
        err = workloads.check(workload, out, cfg)
        check_s = time.perf_counter() - check_start
        produced = workloads.artifacts(out)
        stats = json.loads(stats_path.read_text()) if traced else None
    except (CheckFailed, OSError, KeyError, json.JSONDecodeError) as exc:
        return Operation(wall, rss, failure=str(exc), warnings=warnings), produced
    return Operation(wall, rss, err=err, stats=stats, warnings=warnings,
                     check_s=check_s), produced


def layer_metrics(op: Operation, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced operation. A name missing from the
    program is left out, as is a metric whose counting hook failed; a name
    present but not reached reads 0."""
    st = op.stats
    names, values, nested = st["names"], st["values"], st["nested"]
    installed, hook_failed = set(st["installed"]), set(st["hook_failed"])
    m: dict[str, tuple[float, str]] = {}

    def agg(name, field):
        return names.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def put(metric, name, value, unit, hook=None):
        if name in installed and f"{name}.{hook}" not in hook_failed:
            m[metric] = (value, unit)

    F, G, E, C = ("spectral.fourier", "potentials.make_gbeta",
                  "geometry.ewald_nodes", "geometry.chart")
    S, PV, B = ("dispersion.spherical_op", "dispersion.principal_value_op",
                "dispersion.b_theta2")
    QE, GS = "potentials.fourier_eval", "analysis.gain_scan"
    put("spectral.fourier.calls", F, agg(F, "calls"), "count")
    put("spectral.fourier.self_s", F, agg(F, "self_s"), "s")
    put("spectral.fourier.bytes_computed", F, agg(F, "points"), "B", "points")
    put("potentials.make_gbeta.self_s", G, agg(G, "self_s"), "s")
    put("potentials.make_gbeta.tail_exp_err", G, values.get(f"{G}.tail_exp_err", 0.0), "1",
        "after")
    put("potentials.fourier_eval.points", QE, agg(QE, "points"), "count", "points")
    put("potentials.fourier_eval.self_s", QE, agg(QE, "self_s"), "s")
    put("potentials.fourier_eval.ns_per_point", QE,
        1e9 * ratio(agg(QE, "self_s"), agg(QE, "points")), "ns", "points")
    for name in (E, C):
        put(f"{name}.calls", name, agg(name, "calls"), "count")
        put(f"{name}.self_s", name, agg(name, "self_s"), "s")
    put(f"{S}.calls", S, agg(S, "calls"), "count")
    put(f"{S}.self_s", S, agg(S, "self_s"), "s")
    put(f"{S}.us_per_call", S, 1e6 * ratio(agg(S, "dur_s"), agg(S, "calls")), "us")
    put(f"{PV}.calls", PV, agg(PV, "calls"), "count")
    put(f"{PV}.self_s", PV, agg(PV, "self_s"), "s")
    if S in installed:
        put(f"{PV}.s_per_pv", PV, ratio(nested.get(f"{S}<{PV}", 0), agg(PV, "calls")), "count")
    put(f"{PV}.err_e1", PV, values.get(f"{PV}.err_e1", 0.0), "1")
    put(f"{B}.calls", B, agg(B, "calls"), "count")
    put(f"{B}.useful_ratio", B, ratio(agg(B, "points"), agg(B, "calls")), "1", "points")
    put(f"{B}.rel_err_oracle", B, values.get(f"{B}.rel_err_oracle", 0.0), "1", "after")
    put(f"{GS}.self_s", GS, agg(GS, "self_s"), "s")
    put(f"{GS}.points", GS, nested.get(f"dispersion.q_theta2_hat<{GS}", 0), "count")
    put("cli.run.self_s", "cli.run", agg("cli.run", "self_s"), "s")
    m["cli.warnings"] = (sum(op.warnings.values()), "count")
    m["oracle.ref_s"] = (values.get("oracle.ref_s", 0.0) + op.check_s, "s")
    m["trace.overhead_frac"] = (overhead_frac, "1")
    m["trace.spans"] = (st["spans"], "count")
    return m


def run_record(root: Path, args) -> dict:
    def cpu_model() -> str:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "borndisp" / "cli.py").is_file():
        print(f"error: {root} holds no borndisp source (src/borndisp); run from the "
              "repository root", file=sys.stderr)
        return 2
    env = child_env(root)
    base = root / ".bench_out" / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    record = run_record(root, args)
    cfg = workloads.make_config(args.workload, args.seed)
    cfg_path = base / "config.json"
    cfg_path.write_bytes(workloads.config_bytes(cfg))
    record["config_sha256"] = hashlib.sha256(cfg_path.read_bytes()).hexdigest()
    (base / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print("run record: " + json.dumps(record, sort_keys=True))

    try:
        setup = measure_setup(env, base / "setup.log")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops: list[Operation] = []
    traced: list[Operation] = []
    overheads: list[float] = []
    baseline: dict = {}
    start = time.perf_counter()
    while True:
        i = len(ops) + len(traced)
        # with --trace 1 untraced and traced operations alternate: the first
        # is the reference for byte identity, and each traced one is timed
        # against the untraced one just before it
        tracing = bool(args.trace) and i % 2 == 1
        op, produced = run_operation(env, args.workload, cfg, cfg_path, base / f"op{i}",
                                     tracing, args.seed)
        if tracing:
            traced.append(op)
            if op.failure is None and baseline and produced != baseline:
                op.failure = "traced artifacts differ from the untraced run"
            if op.failure is None and ops[-1].failure is None:
                # the traced process also runs the oracle checks; leave them out
                ref_s = op.stats["values"].get("oracle.ref_s", 0.0)
                overheads.append((op.wall - ref_s) / ops[-1].wall - 1.0)
        else:
            ops.append(op)
            if op.failure is None and i == 0:
                baseline = produced
        if op.failure:
            print(f"operation {i} failed: {op.failure}", file=sys.stderr)
        # span counts repeat exactly, so one traced operation suffices
        done = len(traced) >= 1 if args.trace else len(ops) >= MIN_OPERATIONS
        elapsed = time.perf_counter() - start
        if (done and elapsed >= args.seconds) or elapsed >= DEADLINE_S:
            break

    every = ops + traced
    failed = sum(op.failure is not None for op in every)
    groups: dict[str, int] = {}
    for op in every:
        for k, v in op.warnings.items():
            groups[k] = groups.get(k, 0) + v

    if args.trace:
        good = [op for op in traced if op.failure is None]
        metrics = {}
        for label in sorted({h for op in good for h in op.stats["hook_failed"]}):
            print(f"counting hook {label} failed; its metrics are left out", file=sys.stderr)
        if good and overheads:
            overhead = statistics.median(overheads)
            per_op = [layer_metrics(op, overhead) for op in good]
            for name in per_op[0]:
                vals = [p[name][0] for p in per_op if name in p]
                metrics[name] = {"value": statistics.median(vals), "unit": per_op[0][name][1]}
    else:
        errs = [op.err for op in ops if op.failure is None]
        values = {
            "wall_s": statistics.median(op.wall for op in ops),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
            "max_rel_err": max(errs) if errs else 1.0,
            "ok_frac": 1.0 - failed / len(ops),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"{args.workload} seed {args.seed}: {len(every)} operations, {failed} failed "
          f"(fail_frac {failed / len(every):.3g}); walls "
          + ", ".join(f"{op.wall:.3f}" for op in every) + " s")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    for msg, count in sorted(groups.items(), key=lambda kv: -kv[1]):
        print(f"  warnings x{count}: {msg}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer (bench/tracing.py) wraps program functions by
name. A traced run must find every function that a per-layer metric of
BENCHMARK.json names, and every counting hook must fit the function it
watches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import borndisp

ROOT = Path(borndisp.__file__).resolve().parents[2]


def test_tracer_finds_every_per_layer_function(tmp_path):
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps({
        "experiment": "qfull-radial", "n": 2, "a": 0.5, "eta_norm": 4.0,
        "angles_deg": [1.40625], "rule_level": 1, "theta_rule_level": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    env.pop("BORN_DISPERSION_OUT", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), "--stats", str(stats),
         "--seed", "1", "--", str(cfg)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    st = json.loads(stats.read_text())
    assert st["hook_failed"] == []
    # "module.function.metric" names a function; "cli.warnings" and the
    # like name no function
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    functions = {m["name"].rsplit(".", 1)[0] for m in per_layer}
    functions = {f for f in functions if "." in f}
    assert functions - set(st["installed"]) == set()
    assert st["names"]["dispersion.b_theta2"]["calls"] > 0

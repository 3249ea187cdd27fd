import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import borndisp
from borndisp.cli import main, run


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_missing_config(tmp_path, capsys):
    assert run(str(tmp_path / "nope.json")) == 1
    assert "not found" in capsys.readouterr().err


def test_schema_violation_names_field(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "experiment": "lemma52", "n": 2, "grid": {"N": 256, "L": 16.0},
        "theta": [-1, 0],
        "ray": {"direction": [1, 0], "t_min": 8, "t_max": 48, "count": 16},
        "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "beta" in capsys.readouterr().err


def test_bad_field_type_reports_path(tmp_path, capsys):
    cfg = _write(tmp_path, "bad2.json", {
        "experiment": "bounds-table", "n": 3, "betas": "oops",
        "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "betas" in capsys.readouterr().err


def _ray_config(tmp_path, **overrides):
    return {
        "experiment": "dispersion-ray", "n": 2, "a": 0.5, "theta": [-1, 0],
        "ray": {"direction": [1, 0], "t_min": 3, "t_max": 8, "count": 6},
        "out_dir": str(tmp_path / "out"), **overrides,
    }


def test_vector_length_must_match_n(tmp_path, capsys):
    bad_theta = _write(tmp_path, "t.json", _ray_config(tmp_path, theta=[-1, 0, 0]))
    assert run(bad_theta) == 1
    assert "'theta'" in capsys.readouterr().err
    ray = {"direction": [1, 0, 0], "t_min": 3, "t_max": 8, "count": 6}
    bad_dir = _write(tmp_path, "d.json", _ray_config(tmp_path, ray=ray))
    assert run(bad_dir) == 1
    assert "'ray/direction'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lemma52_needs_eight_ray_samples(tmp_path, capsys):
    cfg = _write(tmp_path, "l.json", {
        "experiment": "lemma52", "n": 2, "beta": 1.0,
        "grid": {"N": 256, "L": 16.0}, "theta": [-1, 0],
        "ray": {"direction": [1, 0], "t_min": 8, "t_max": 48, "count": 7},
        "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "'ray/count'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pv_delta_out_of_range(tmp_path, capsys):
    cfg = _write(tmp_path, "p.json", _ray_config(tmp_path, pv={"delta": 1.5}))
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert "'pv'" in err and "delta" in err
    assert not (tmp_path / "out").exists()


def test_removed_pv_fields_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "r.json", _ray_config(tmp_path, pv={"r_max": 8.0}))
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert "'pv'" in err and "r_max" in err
    assert not (tmp_path / "out").exists()


def test_gain_scan_level_below_radial_step(tmp_path, capsys):
    cfg = _write(tmp_path, "g.json", {
        "experiment": "gain-scan", "n": 2, "beta": 1.0,
        "grid": {"N": 64, "L": 16.0}, "theta": [-1, 0], "alphas": [1.0],
        "levels": [1, 4, 8], "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "'levels'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_qfull_radial_needs_an_angle(tmp_path, capsys):
    cfg = _write(tmp_path, "q.json", {
        "experiment": "qfull-radial", "n": 2, "eta_norm": 4.0,
        "angles_deg": [], "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "'angles_deg'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_import_leaves_out_scipy_integrate():
    # every CLI run pays for its imports; only oracle-fixtures needs
    # scipy.integrate
    src = str(Path(borndisp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, borndisp.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def test_chart_selftest(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "c.json", {
        "experiment": "chart-selftest", "n": 2, "seed": 3, "out_dir": str(out),
    })
    assert main([cfg]) == 0
    assert "max reconstruction error" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert len(manifest["config_sha256"]) == 64


def test_bounds_table(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "b.json", {
        "experiment": "bounds-table", "n": 3, "betas": [0.5, 1.0, 2.0],
        "out_dir": str(out),
    })
    assert run(cfg) == 0
    lines = (out / "bounds_table.csv").read_text().strip().splitlines()
    assert lines[0].startswith("beta,m,alpha0")
    assert len(lines) == 4


def test_lemma52_experiment_and_determinism(tmp_path):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"out{i}"
        cfg = _write(tmp_path, f"l{i}.json", {
            "experiment": "lemma52", "n": 2, "beta": 1.0,
            "grid": {"N": 256, "L": 16.0}, "theta": [-1, 0],
            "ray": {"direction": [1, 0], "t_min": 8, "t_max": 48, "count": 16},
            "out_dir": str(out),
        })
        assert run(cfg) == 0
        outs.append(out)
    a = (outs[0] / "lemma52_samples.csv").read_bytes()
    b = (outs[1] / "lemma52_samples.csv").read_bytes()
    assert a == b
    verdict = json.loads((outs[0] / "lemma52_verdict.json").read_text())
    assert verdict["pass"] is True


def test_dispersion_ray_thread_independence(tmp_path):
    csvs = []
    for i, threads in ((1, 1), (2, 4)):
        out = tmp_path / f"ray{i}"
        cfg = _write(tmp_path, f"r{i}.json", {
            "experiment": "dispersion-ray", "n": 2, "a": 0.5, "theta": [-1, 0],
            "ray": {"direction": [1, 0], "t_min": 3, "t_max": 8, "count": 6},
            "out_dir": str(out),
        })
        assert run(cfg, threads=threads) == 0
        csvs.append((out / "dispersion_ray.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_out_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("BORN_DISPERSION_OUT", str(override))
    cfg = _write(tmp_path, "e.json", {
        "experiment": "bounds-table", "n": 2, "betas": [1.0],
        "out_dir": str(tmp_path / "ignored"),
    })
    assert run(cfg) == 0
    assert (override / "bounds_table.csv").exists()
    assert not (tmp_path / "ignored").exists()

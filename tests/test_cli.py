import ast
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import borndisp
from borndisp import cli
from borndisp.cli import _load_config, main, run


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


# a norm that is 0, or whose square overflows to inf or underflows to 0 or
# to a subnormal
_NORMLESS = [[0, 0], [1e308, 1e308], [-1e308, -1e308], [1e-200, 1e-200], [-1e-160, 0]]


def test_zero_theta_rejected(tmp_path, capsys):
    # unchecked, [-1e308, -1e308] fails part-way with a traceback
    for theta in _NORMLESS:
        cfg = _write(tmp_path, "t.json", _ray_config(tmp_path, theta=theta))
        assert run(cfg) == 1
        assert "field 'theta': its norm" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_zero_ray_direction_rejected(tmp_path, capsys):
    # unchecked, a zero vector gives a dispersion_ray.csv of NaN rows and
    # exit 0, and so do [1e308, 1e308] (eta = 0 rows) and [1e-200, 1e-200];
    # a lemma52 ray [1e308, 1e307] passed the cone check as d / inf = 0 and
    # died part-way with NotInHalfSpace
    ray = {"t_min": 8, "t_max": 48, "count": 16}
    configs = [_ray_config(tmp_path, ray=dict(ray, direction=d)) for d in _NORMLESS]
    configs.append(_lemma52_config(tmp_path, ray=dict(ray, direction=[1e308, 1e307])))
    for cfg in configs:
        assert run(_write(tmp_path, "d.json", cfg)) == 1
        assert "field 'ray/direction': its norm" in capsys.readouterr().err
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
    # the whole 'pv' object is refused before any of its fields is read, so
    # a delta outside (0, 1) never reaches PVParams
    cfg = _write(tmp_path, "p.json", _ray_config(tmp_path, pv={"delta": 1.5}))
    assert run(cfg) == 1
    assert "unexpected key 'pv'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pv_rule_built_only_where_configured_or_used(tmp_path, monkeypatch):
    # a PVParams builds its quadrature rule; B comes from the bipolar rule
    # and 'pv' is refused, so no run of the CLI builds one
    from borndisp import dispersion

    built = []
    post_init = dispersion.PVParams.__post_init__

    def recording(self):
        built.append((self.delta, self.inner_nodes))
        post_init(self)

    monkeypatch.setattr(dispersion.PVParams, "__post_init__", recording)
    dispersion.PVParams(delta=0.3)
    assert built == [(0.3, 64)]
    built.clear()
    gbeta = _write(tmp_path, "g.json", {
        "experiment": "gbeta", "n": 2, "beta": 1.0, "grid": {"N": 128, "L": 8.0},
        "out_dir": str(tmp_path / "g"),
    })
    assert main([gbeta]) == 0
    assert main([_write(tmp_path, "r.json", _ray_config(tmp_path))]) == 0
    pv = {"delta": 0.4}
    assert main([_write(tmp_path, "p.json", _ray_config(tmp_path, pv=pv))]) == 1
    assert built == []


def test_removed_pv_fields_rejected(tmp_path, capsys):
    # B comes from the bipolar rule in every dimension, so the settings of
    # the r principal value set nothing: 'pv' is an unexpected key, whatever
    # it holds
    for n in (2, 3):
        for pv in ({}, {"delta": 0.5}, {"delta": 1.5}, {"inner_nodes": 8.0},
                   {"r_max": 8.0}):
            ray = {"direction": [1] + [0] * (n - 1), "t_min": 3, "t_max": 8, "count": 6}
            cfg = _ray_config(tmp_path, n=n, theta=[-1] + [0] * (n - 1), ray=ray, pv=pv)
            assert run(_write(tmp_path, "p.json", cfg)) == 1
            assert "unexpected key 'pv'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["dispersion-ray", "gain-scan"])
def test_pv_rejected_in_n3(tmp_path, capsys, experiment):
    # every experiment that evaluates B refuses the pv settings, here in n = 3
    cfg = {"experiment": experiment, "n": 3, "a": 0.5, "theta": [-1, 0, 0],
           "pv": {"delta": 0.5}, "out_dir": str(tmp_path / "out")}
    if experiment == "gain-scan":
        cfg.update(beta=1.0, grid={"N": 128, "L": 16.0}, alphas=[1.7],
                   levels=[4.0, 6.0, 8.0])
    else:
        cfg["ray"] = {"direction": [1, 0, 0], "t_min": 3, "t_max": 8, "count": 3}
    assert run(_write(tmp_path, "p.json", cfg)) == 1
    assert "unexpected key 'pv'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _qfull_config(tmp_path, **overrides):
    return {
        "experiment": "qfull-radial", "n": 2, "a": 0.5, "eta_norm": 4.0,
        "angles_deg": [1.40625], "rule_level": 1, "theta_rule_level": 1,
        "out_dir": str(tmp_path / "out"), **overrides,
    }


@pytest.mark.parametrize("config, field", [
    (lambda p: _ray_config(p, rule_level=2.0), "'rule_level'"),
    (lambda p: _qfull_config(p, theta_rule_level=3.0), "'theta_rule_level'"),
    (lambda p: _ray_config(p, ray={"direction": [1, 0], "t_min": 3, "t_max": 8,
                                   "count": 3.0}), "'ray/count'"),
    (lambda p: _ray_config(p, pv={"inner_nodes": 8.0}), "unexpected key 'pv'"),
    (lambda p: _qfull_config(p, n=2.0), "'n'"),
    (lambda p: {"experiment": "chart-selftest", "n": 2, "seed": 3.0,
                "out_dir": str(p / "out")}, "'seed'"),
], ids=["rule_level", "theta_rule_level", "ray_count", "pv_inner_nodes", "n", "seed"])
def test_integral_float_rejected_in_integer_field(tmp_path, capsys, config, field):
    # JSON Schema counts 3.0 as an integer; numpy does not, so each of these
    # would pass validation and fail part-way through the run. The pv object
    # that held inner_nodes is now refused as a whole
    assert run(_write(tmp_path, "f.json", config(tmp_path))) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, field, token", [
    (lambda p: {"experiment": "gbeta", "n": 2, "beta": math.nan,
                "grid": {"N": 128, "L": 8.0}, "out_dir": str(p / "out")},
     "'beta'", "NaN"),
    (lambda p: _ray_config(p, ray={"direction": [1, 0], "t_min": 3,
                                   "t_max": math.inf, "count": 6}),
     "'ray/t_max'", "Infinity"),
    (lambda p: _ray_config(p, theta=[-math.inf, 0]), "'theta/0'", "-Infinity"),
    (lambda p: {"experiment": "bounds-table", "n": 3, "betas": [1.0, 10**400],
                "out_dir": str(p / "out")}, "'betas/1'", "1" + "0" * 400),
], ids=["beta", "ray_t_max", "theta_0", "betas_1"])
def test_non_finite_number_rejected(tmp_path, capsys, config, field, token):
    # json.load reads NaN and the infinities, and each passes every bound:
    # unchecked, they run to exit 0 with NaN or inf in the artifacts. An
    # integer past float range fails part-way through the run instead
    cfg = _write(tmp_path, "n.json", config(tmp_path))
    assert token in Path(cfg).read_text()
    assert run(cfg) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_past_the_parser_limit_rejected(tmp_path, capsys):
    # json.load refuses an integer of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    cfg = tmp_path / "b.json"
    cfg.write_text('{"experiment": "bounds-table", "n": 3, "betas": [1' + "0" * 5000
                   + '], "out_dir": "%s"}' % (tmp_path / "out"))
    assert run(str(cfg)) == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ray_t_max_must_be_positive(tmp_path, capsys):
    ray = {"direction": [1, 0], "t_min": 3, "t_max": -8, "count": 3}
    cfg = _write(tmp_path, "t.json", _ray_config(tmp_path, ray=ray))
    assert run(cfg) == 1
    assert "'ray/t_max'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _lemma52_config(tmp_path, **overrides):
    return {
        "experiment": "lemma52", "n": 2, "beta": 1.0,
        "grid": {"N": 256, "L": 16.0}, "theta": [-1, 0],
        "ray": {"direction": [1, 0], "t_min": 8, "t_max": 48, "count": 16},
        "out_dir": str(tmp_path / "out"), **overrides,
    }


def test_cone_aperture_out_of_range(tmp_path, capsys):
    for a in (0.0, 1.0, 1.5):
        cfg = _write(tmp_path, "a.json", _lemma52_config(tmp_path, cone_aperture=a))
        assert run(cfg) == 1
        assert "'cone_aperture'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lemma52_ray_outside_cone(tmp_path, capsys):
    # [0, 1] is orthogonal to theta = [-1, 0]: outside D_theta for any aperture
    ray = {"direction": [0, 1], "t_min": 8, "t_max": 48, "count": 16}
    cfg = _write(tmp_path, "c.json", _lemma52_config(tmp_path, ray=ray))
    assert run(cfg) == 1
    assert "'ray/direction'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lemma52_t_min_above_t_max(tmp_path, capsys):
    ray = {"direction": [1, 0], "t_min": 48, "t_max": 8, "count": 16}
    cfg = _write(tmp_path, "t.json", _lemma52_config(tmp_path, ray=ray))
    assert run(cfg) == 1
    assert "'ray/t_max'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_samples_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, "s.json", _lemma52_config(tmp_path, samples=16))
    assert run(cfg) == 1
    assert "'samples'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oracle_fixtures_rejects_n(tmp_path, capsys):
    cfg = _write(tmp_path, "o.json", {
        "experiment": "oracle-fixtures", "n": 3, "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "'n'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a value the schema accepts for each top-level field, which together pass
# the load step's other checks on every experiment
_FIELD_VALUES = {
    "n": 2, "beta": 1.0, "a": 0.5, "bump_radius": 2.0, "theta": [-1, 0], "C0": 2.0,
    "grid": {"N": 256, "L": 16.0}, "rule_level": 3, "theta_rule_level": 3,
    "ray": {"direction": [1, 0], "t_min": 8, "t_max": 48, "count": 16},
    "alphas": [1.7], "levels": [4.0, 6.0, 8.0], "betas": [1.0], "cone_aperture": 0.5,
    "eta_norm": 4.0, "angles_deg": [1.40625], "seed": 3,
}


def _full_config(experiment: str, out_dir) -> dict:
    """The experiment's config with every field it requires or reads, but
    'a' where it reads 'beta': beta chooses g_beta, which does not read a."""
    _, requires, reads = cli._EXPERIMENTS[experiment]
    fields = [f for f in requires + reads if f != "a" or "beta" not in requires + reads]
    return {"experiment": experiment, "out_dir": str(out_dir),
            **{f: _FIELD_VALUES[f] for f in fields}}


_REQUIRED_CASES = [(name, f) for name, (_, requires, _) in cli._EXPERIMENTS.items()
                   for f in requires]
_UNREAD_CASES = [(name, f) for name, (_, requires, reads) in cli._EXPERIMENTS.items()
                 for f in _FIELD_VALUES if f not in requires + reads]


@pytest.mark.parametrize("experiment", list(cli._EXPERIMENTS))
def test_full_config_loads(tmp_path, experiment):
    cfg = _full_config(experiment, tmp_path / "out")
    assert _load_config(_write(tmp_path, "c.json", cfg)) == cfg


@pytest.mark.parametrize("experiment, field", _REQUIRED_CASES,
                         ids=[f"{e}-{f}" for e, f in _REQUIRED_CASES])
def test_missing_required_field_rejected(tmp_path, capsys, experiment, field):
    cfg = _full_config(experiment, tmp_path / "out")
    del cfg[field]
    assert run(_write(tmp_path, "r.json", cfg)) == 1
    assert f"invalid config at field '{field}': experiment '{experiment}' requires it" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, field", _UNREAD_CASES,
                         ids=[f"{e}-{f}" for e, f in _UNREAD_CASES])
def test_unread_field_rejected(tmp_path, capsys, experiment, field):
    # a field the experiment does not read, such as rule_level on gbeta,
    # would otherwise be taken and silently ignored
    cfg = dict(_full_config(experiment, tmp_path / "out"), **{field: _FIELD_VALUES[field]})
    assert run(_write(tmp_path, "u.json", cfg)) == 1
    assert (f"invalid config at field '{field}': experiment '{experiment}' does not "
            "read it") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_OTHER_FAMILY_CASES = [(e, f) for e in ("dispersion-ray", "qfull-radial")
                       for f in ("grid", "bump_radius", "a")]


@pytest.mark.parametrize("experiment, field", _OTHER_FAMILY_CASES,
                         ids=[f"{e}-{f}" for e, f in _OTHER_FAMILY_CASES])
def test_other_potential_family_field_rejected(tmp_path, capsys, experiment, field):
    # beta chooses g_beta, else the Gaussian exp(-a |x|^2); unchecked, a
    # config with the other family's field ran to exit 0 and ignored it
    cfg = _full_config(experiment, tmp_path / "out")
    if field == "a":
        cfg["a"] = _FIELD_VALUES["a"]
        why = "with 'beta' the potential is g_beta"
    else:
        for f in ("beta", "grid", "bump_radius"):
            del cfg[f]
        cfg[field] = _FIELD_VALUES[field]
        why = "without 'beta' the potential is the Gaussian"
    assert run(_write(tmp_path, "f.json", cfg)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid config at field '{field}': {why}, which does not read it"]
    assert not (tmp_path / "out").exists()


def test_readme_experiment_table_matches_the_cli():
    # the README's table of required and read fields is the CLI's table
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = readme.split("| experiment | requires | also reads |\n|---|---|---|\n", 1)[1]
    table = {}
    for row in rows.split("\n\n", 1)[0].splitlines():
        name, requires, reads = (cell.strip() for cell in row.strip("|").split("|"))
        table[name.strip("`")] = tuple(
            () if cell == "none" else tuple(f.strip().strip("`") for f in cell.split(","))
            for cell in (requires, reads))
    assert list(table.items()) == [(name, (requires, reads)) for name, (_, requires, reads)
                                   in cli._EXPERIMENTS.items()]


@pytest.mark.parametrize("field, cap, config", [
    ("rule_level", 8, _ray_config), ("theta_rule_level", 7, _qfull_config),
])
def test_rule_levels_capped(tmp_path, capsys, field, cap, config):
    # past the cap a run grows out of reach: a 2-point n = 2 ray takes 6.7 s
    # and 487 MB at rule level 9, and each level has up to 4 times the nodes
    # of the one before
    cfg = config(tmp_path, **{field: cap})
    assert _load_config(_write(tmp_path, "c.json", cfg)) == cfg
    assert run(_write(tmp_path, "c.json", dict(cfg, **{field: cap + 1}))) == 1
    assert (f"invalid config at field '{field}': {cap + 1} is greater than the maximum "
            f"{cap}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, field, cap", [
    ("dispersion-ray", "ray/count", 256), ("gain-scan", "alphas", 32),
    ("qfull-radial", "angles_deg", 32),
])
def test_list_sizes_capped(tmp_path, capsys, experiment, field, cap):
    # a run's cost grows with each of these sizes; each cap is 16 times the
    # largest size a shipped config uses, and README gives a run's cost there
    def sized(size):
        cfg = _full_config(experiment, tmp_path / "out")
        if field == "ray/count":
            cfg["ray"] = dict(cfg["ray"], count=size)
        else:
            cfg[field] = cfg[field][:1] * size
        return cfg

    assert _load_config(_write(tmp_path, "c.json", sized(cap))) == sized(cap)
    assert run(_write(tmp_path, "c.json", sized(cap + 1))) == 1
    err = capsys.readouterr().err
    why = "is greater than the maximum" if field == "ray/count" else "has more items than"
    assert f"invalid config at field '{field}': " in err and f" {why} {cap}\n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, size", [("alphas", 33), ("angles_deg", 10_000)])
def test_refusal_of_a_long_list_is_one_short_line(tmp_path, capsys, field, size):
    # the message names the list by its length, not by its items
    cfg = _full_config("gain-scan" if field == "alphas" else "qfull-radial", tmp_path / "out")
    cfg[field] = cfg[field][:1] * size
    assert run(_write(tmp_path, "c.json", cfg)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid config at field '{field}': an array of length {size} has more "
        "items than 32"]
    assert not (tmp_path / "out").exists()


def test_refusal_cuts_a_long_scalar_short(tmp_path, capsys):
    cfg = _full_config("gbeta", tmp_path / "out")
    assert run(_write(tmp_path, "c.json", dict(cfg, experiment="x" * 10_000))) == 1
    assert run(_write(tmp_path, "c.json", dict(cfg, **{"y" * 10_000: 1}))) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("error: invalid config at field 'experiment': 'xxxx")
    assert lines[0].endswith(f"... (10002 characters) is not one of {list(cli._EXPERIMENTS)}")
    assert lines[1] == ("error: invalid config at field '(root)': unexpected key "
                        "'yyyyyyyyyyyyyyyyyyyyyyy... (10002 characters)")


@pytest.mark.parametrize("n, cap", [(2, 4096), (3, 512)])
def test_gbeta_grid_capped(tmp_path, capsys, n, cap):
    # the synthesis's time grows about as N^3; README gives its cost at the cap
    cfg = dict(_full_config("gbeta", tmp_path / "out"), n=n, grid={"N": cap, "L": 16.0})
    assert _load_config(_write(tmp_path, "c.json", cfg)) == cfg
    assert run(_write(tmp_path, "c.json", dict(cfg, grid={"N": cap + 2, "L": 16.0}))) == 1
    assert (f"invalid config at field 'grid/N': the g_beta synthesis in n = {n} takes N "
            f"up to {cap}, got {cap + 2}\n") in capsys.readouterr().err
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


@pytest.mark.parametrize("levels, C0", [
    ([2.0, 4.0, 6.0], None), ([3.0, 4.0, 6.0], None), ([4.0, 6.0, 8.0], 4.0),
])
def test_gain_scan_level_without_a_sample_past_C0(tmp_path, capsys, levels, C0):
    # |Q| is 0 up to C0, so such a level has norm 0 and the next growth
    # ratio divided by it: refused at load, naming the field, before any
    # synthesis
    cfg = {"experiment": "gain-scan", "n": 2, "beta": 1.0,
           "grid": {"N": 256, "L": 16.0}, "theta": [-1, 0], "alphas": [1.7],
           "levels": levels, "out_dir": str(tmp_path / "out")}
    if C0 is not None:
        cfg["C0"] = C0
    assert run(_write(tmp_path, "g.json", cfg)) == 1
    err = capsys.readouterr().err
    assert "invalid config at field 'levels'" in err
    assert f"C0 = {C0 or 2.0:g}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha, weight", [(200, "inf"), (-400, "0")])
def test_gain_scan_alpha_weight_out_of_float_range(tmp_path, capsys, alpha, weight):
    # unchecked, alpha = 200 wrote Infinity and NaN into gain_scan.json and
    # exited 0, and alpha = -400 died after every B evaluation on a 0 norm
    cfg = {"experiment": "gain-scan", "n": 2, "beta": 1.0,
           "grid": {"N": 256, "L": 16.0}, "theta": [-1, 0], "alphas": [1.7, alpha],
           "levels": [4.0, 6.0, 8.0], "out_dir": str(tmp_path / "out")}
    assert run(_write(tmp_path, "g.json", cfg)) == 1
    err = capsys.readouterr().err
    assert "invalid config at field 'alphas/1'" in err
    assert f"T = 8 is {weight}," in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alphas, levels", [([0, -400], [4, 6, 1e200]), ([0], [4, 6, 1e100])])
def test_gain_scan_level_past_the_radius_cap(tmp_path, capsys, alphas, levels):
    # unchecked, 1e200 was refused as 'alphas/0' (T^(n - 1) overflows even
    # at alpha = 0), and 1e100 died after the synthesis asking np.arange for
    # 5e99 radii
    cfg = {"experiment": "gain-scan", "n": 3, "beta": 1.0,
           "grid": {"N": 64, "L": 16.0}, "theta": [-1, 0, 0], "alphas": alphas,
           "levels": levels, "out_dir": str(tmp_path / "out")}
    assert run(_write(tmp_path, "g.json", cfg)) == 1
    assert "invalid config at field 'levels': level 1e+" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_example_config_loads(tmp_path):
    # the documented example goes through the same load step as any config
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Example config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = json.loads(block)
    assert _load_config(_write(tmp_path, "example.json", cfg)) == cfg


def test_qfull_radial_needs_an_angle(tmp_path, capsys):
    cfg = _write(tmp_path, "q.json", {
        "experiment": "qfull-radial", "n": 2, "eta_norm": 4.0,
        "angles_deg": [], "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "'angles_deg'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eta_norm, C0", [(1.5, None), (2.0, None), (3.0, 3.0)])
def test_qfull_radial_eta_norm_inside_the_cutoff(tmp_path, capsys, eta_norm, C0):
    # the cutoff is 0 up to C0, so every value would be 0 and the relative
    # spread a perfect 0: refused at load, naming the field
    cfg = _qfull_config(tmp_path, eta_norm=eta_norm)
    if C0 is not None:
        cfg["C0"] = C0
    assert run(_write(tmp_path, "q.json", cfg)) == 1
    err = capsys.readouterr().err
    assert "invalid config at field 'eta_norm'" in err
    assert f"C0 = {C0 or 2.0:g}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    lambda p: _qfull_config(p, a=1e-320),
    lambda p: _qfull_config(p, n=3, a=1e-250),
    lambda p: _ray_config(p, a=1e-320),
    lambda p: {"experiment": "oracle-fixtures", "a": 1e-320, "out_dir": str(p / "out")},
], ids=["qfull-n2", "qfull-n3", "dispersion-ray", "oracle-fixtures"])
def test_gaussian_amplitude_past_float_range_rejected(tmp_path, capsys, config):
    # (pi/a)^(n/2) is inf, or overflows a float power: unchecked, the n = 2
    # runs wrote NaN artifacts and exited 0, and the n = 3 run failed part-way
    # after out_dir was made
    assert run(_write(tmp_path, "a.json", config(tmp_path))) == 1
    assert "invalid config at field 'a': " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a small a whose amplitude fits is taken: its q_hat underflows to 0
    cfg = _qfull_config(tmp_path, n=3, a=1e-150)
    assert _load_config(_write(tmp_path, "s.json", cfg)) == cfg


def test_json_artifact_refuses_a_non_finite_number(tmp_path, capsys):
    with pytest.raises(ValueError, match="v.json not written"):
        cli._write_json({"abs": math.nan}, tmp_path / "v.json")
    assert not (tmp_path / "v.json").exists()
    # near the hyperplane the theta rule's k squares past float range, and
    # Q_F is NaN: unchecked, the run wrote "abs": NaN and exited 0
    cfg = _qfull_config(tmp_path, eta_norm=1e153, angles_deg=[10])
    assert run(_write(tmp_path, "q.json", cfg)) == 1
    assert ("error: qfull_radial.json not written: Out of range float values are not "
            "JSON compliant") in capsys.readouterr().err
    assert not (tmp_path / "out" / "qfull_radial.json").exists()


def test_bounds_table_negative_beta_rejected(tmp_path, capsys):
    # unchecked, it fails part-way through the table, after out_dir is made
    cfg = _write(tmp_path, "b.json", {
        "experiment": "bounds-table", "n": 3, "betas": [1.0, -0.5],
        "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "'betas/1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, field", [
    ({"grid": {"N": 129, "L": 16.0}}, "'grid/N'"),
    ({"grid": {"N": 32, "L": 16.0}}, "'grid/N'"),
    ({"bump_radius": 5.0}, "'bump_radius'"),
    ({"bump_radius": 0.05}, "'bump_radius': bump_radius = 0.05 is not resolved by "
                            "the lattice spacing h = 0.25"),
    ({"bump_radius": 0.25}, "'bump_radius': bump_radius = 0.25 is not resolved by "
                            "the lattice spacing h = 0.25"),
], ids=["odd_N", "too_coarse", "bump_too_wide", "bump_below_h", "bump_at_h"])
def test_gbeta_grid_checked_at_load(tmp_path, capsys, overrides, field):
    # odd N, a lattice too coarse for G_beta_hat, a bump that does not fit
    # the default grid (L = 16), and bumps that no sample of its spacing
    # h = 0.25 resolves, where g_beta_hat would be flat
    cfg = _write(tmp_path, "g.json", {
        "experiment": "dispersion-ray", "n": 3, "beta": 1.0, "theta": [-1, 0, 0],
        "ray": {"direction": [1, 0, 0], "t_min": 3, "t_max": 8, "count": 2},
        "out_dir": str(tmp_path / "out"), **overrides,
    })
    assert run(cfg) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_run_names_an_exception_without_a_message(tmp_path, capsys, monkeypatch):
    # str(MemoryError()) is empty, which left a bare 'error:' line
    def out_of_memory(cfg, out):
        raise MemoryError()

    _, requires, reads = cli._EXPERIMENTS["bounds-table"]
    monkeypatch.setitem(cli._EXPERIMENTS, "bounds-table", (out_of_memory, requires, reads))
    cfg = _write(tmp_path, "b.json", {
        "experiment": "bounds-table", "n": 3, "betas": [1.0],
        "out_dir": str(tmp_path / "out"),
    })
    assert run(cfg) == 1
    assert "error: MemoryError" in capsys.readouterr().err.splitlines()


def test_usage_errors_exit_1(tmp_path, capsys):
    # exit 2 means a failed verdict, so a usage error exits 1 and names the
    # bad argument: --threads, which the CLI no longer takes, an unknown flag
    # and a missing config
    cfg = _write(tmp_path, "b.json", {
        "experiment": "bounds-table", "n": 3, "betas": [1.0],
        "out_dir": str(tmp_path / "out"),
    })
    for argv, named in ((["--threads", "2", cfg], "--threads"),
                        (["--bogus", cfg], "--bogus"), ([], "config")):
        assert main(argv) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["-h"]) == 0
    assert "usage: borndisp" in capsys.readouterr().out


def _subprocess_env(**extra: str) -> dict:
    """The environment of a fresh interpreter that imports this borndisp."""
    src = str(Path(borndisp.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_leaves_out_scipy_integrate():
    # every CLI run pays for its imports; only oracle-fixtures needs
    # scipy.integrate
    env = _subprocess_env()
    code = "import sys, borndisp.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


# jsonschema is only the tests' reference for the config check
_HEAVY_SCIPY = ("scipy.interpolate", "scipy.fft", "scipy.special", "scipy.linalg",
                "scipy.optimize", "jsonschema")
_LIBRARY = tuple(f"borndisp.{m}" for m in ("analysis", "bounds", "dispersion", "geometry",
                                             "oracle", "potentials", "spectral"))


def _loaded(watched: tuple, code: str, *args: str) -> list:
    """Run code in a fresh interpreter with args as sys.argv[1:]; return the
    modules of watched that it loaded."""
    env = _subprocess_env()
    env.pop("BORN_DISPERSION_OUT", None)
    code = (f"import json, sys; {code}; "
            f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_import_leaves_out_heavy_scipy():
    # the spline and the DCT-I are numpy code, and the manifest names scipy's
    # version only when the run loaded it, so no scipy is on the start-up path
    assert _loaded(_HEAVY_SCIPY, "import borndisp.cli") == []


def test_cli_import_loads_no_library_module():
    # each runner imports the modules it calls, and the package's exports
    # load on first use
    assert _loaded(("scipy", *_LIBRARY), "import borndisp.cli") == []


def test_cli_import_loads_only_the_standard_library():
    # the manifest names numpy's version only when the run loaded it, so
    # numpy too is off the start-up path
    assert _loaded(("numpy",), "import borndisp.cli") == []


@pytest.mark.parametrize("argv, cfg, code", [
    (["--help"], None, 0),
    ([], {"experiment": "bounds-table", "n": 3, "betas": [1.0], "bogus": 1}, 1),
    ([], {"experiment": "bounds-table", "n": 3, "betas": [0.0, 0.5, 1.0]}, 0),
], ids=["help", "schema-refusal", "bounds-table"])
def test_cli_loads_no_numpy_before_a_library_rule(tmp_path, argv, cfg, code):
    # usage, the schema check and the closed-form bounds are standard library
    if cfg is not None:
        argv = [_write(tmp_path, "c.json", dict(cfg, out_dir=str(tmp_path / "out")))]
    script = f"from borndisp.cli import main; assert main(sys.argv[1:]) == {code}"
    assert _loaded(("numpy",), script, *argv) == []


def test_manifest_names_numpy_only_when_the_run_loaded_it(tmp_path):
    # bounds-table goes first: after a gbeta run numpy stays loaded
    bounds = _write(tmp_path, "b.json", {"experiment": "bounds-table", "n": 2,
                                         "betas": [1.0], "out_dir": str(tmp_path / "b")})
    gbeta = _write(tmp_path, "g.json", {
        "experiment": "gbeta", "n": 2, "beta": 1.0, "grid": {"N": 128, "L": 8.0},
        "out_dir": str(tmp_path / "g"),
    })
    code = "from borndisp.cli import main; assert [main([c]) for c in sys.argv[1:]] == [0, 0]"
    assert _loaded(("numpy",), code, bounds, gbeta) == ["numpy"]
    versions = [json.loads((tmp_path / d / "manifest.json").read_text())["numpy_version"]
                for d in ("b", "g")]
    assert versions == [None, np.__version__]


@pytest.mark.parametrize("cfg, not_loaded", [
    ({"experiment": "gbeta", "n": 2, "beta": 1.0, "grid": {"N": 128, "L": 8.0}},
     ("scipy", "borndisp.analysis", "borndisp.bounds", "borndisp.dispersion",
      "borndisp.geometry")),
    ({"experiment": "qfull-radial", "n": 2, "a": 0.5, "eta_norm": 4.0,
      "angles_deg": [1.40625], "rule_level": 1, "theta_rule_level": 1},
     ("scipy", "borndisp.analysis", "borndisp.bounds")),
], ids=["gbeta", "qfull-radial"])
def test_run_loads_only_the_modules_it_calls(tmp_path, cfg, not_loaded):
    path = _write(tmp_path, "c.json", dict(cfg, out_dir=str(tmp_path / "out")))
    code = "from borndisp.cli import main; assert main(sys.argv[1:]) == 0"
    assert _loaded(not_loaded, code, path) == []
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["scipy_version"] is None


def test_cli_runs_leave_out_heavy_scipy(tmp_path):
    # a run that builds a g_beta table and one that reads Q_F: a scipy import
    # that is only deferred to the run fails here
    gbeta = _write(tmp_path, "g.json", {
        "experiment": "gbeta", "n": 2, "beta": 1.0, "grid": {"N": 128, "L": 8.0},
        "out_dir": str(tmp_path / "g"),
    })
    qfull = _write(tmp_path, "q.json", {
        "experiment": "qfull-radial", "n": 2, "a": 0.5, "eta_norm": 4.0,
        "angles_deg": [1.40625], "rule_level": 1, "theta_rule_level": 1,
        "out_dir": str(tmp_path / "q"),
    })
    code = "from borndisp.cli import main; assert [main([c]) for c in sys.argv[1:]] == [0, 0]"
    assert _loaded(_HEAVY_SCIPY, code, gbeta, qfull) == []
    assert (tmp_path / "g" / "gbeta.json").exists()
    assert (tmp_path / "q" / "manifest.json").exists()


def test_oracle_fixtures_run_leaves_out_scipy_interpolate(tmp_path):
    # oracle-fixtures needs scipy.integrate (and what it pulls in), but no
    # oracle check reads a lattice by interpolation
    cfg = _write(tmp_path, "o.json", {"experiment": "oracle-fixtures",
                                      "out_dir": str(tmp_path / "o")})
    code = "from borndisp.cli import main; assert main(sys.argv[1:]) == 0"
    assert "scipy.interpolate" not in _loaded(_HEAVY_SCIPY, code, cfg)
    assert (tmp_path / "o" / "oracle_fixtures.json").exists()
    # the one experiment that loads scipy names its version in the manifest
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["scipy_version"] == scipy.__version__


# the names the package exports, by the submodule that holds each
_EXPORTS = {
    "analysis": ("DecayFit", "RefinementScan", "Verdict", "fit_decay", "gain_scan",
                 "lemma52_check"),
    "bounds": ("alpha0", "alpha_j", "m_threshold"),
    "dispersion": ("CutoffSpec", "DispersionSample", "PVParams", "b_theta2", "cutoff_chi",
                   "dispersion_batch", "principal_value_op", "q_full2_hat",
                   "spherical_op"),
    "geometry": ("Chart", "Direction", "NotInHalfSpace", "SphereRule", "chart",
                 "ewald_nodes", "in_cone", "in_half_space", "sphere_rule"),
    "potentials": ("GBetaSpec", "GridTooCoarseError", "Potential", "gaussian_potential",
                   "make_gbeta"),
    "spectral": ("Domain", "Field", "Grid", "RadialProfile", "TransformDirection",
                 "field_from_function", "fourier", "make_grid"),
}


def test_package_exports_resolve_to_their_submodules():
    names = [name for names in _EXPORTS.values() for name in names]
    assert len(names) == 40 and sorted(borndisp.__all__) == sorted(names)
    for module, exported in _EXPORTS.items():
        for name in exported:
            scope = {}
            exec(f"from borndisp import {name}", scope)
            assert scope[name] is getattr(importlib.import_module(f"borndisp.{module}"), name)
    assert set(names) <= set(dir(borndisp))
    assert not hasattr(borndisp, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        borndisp.no_such_name


def test_package_loads_a_submodule_on_first_use():
    assert _loaded(_LIBRARY, "import borndisp") == []
    loaded = _loaded(_LIBRARY, "import borndisp; assert borndisp.dispersion.bipolar_b")
    assert "borndisp.dispersion" in loaded and "borndisp.analysis" not in loaded
    code = "from borndisp import make_gbeta"
    assert _loaded(_LIBRARY, code) == ["borndisp.potentials", "borndisp.spectral"]


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
    assert manifest["peak_rss_mb"] > 0 and isinstance(manifest["minor_page_faults"], int)


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


def test_oracle_fixtures(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "o.json", {"experiment": "oracle-fixtures",
                                      "out_dir": str(out)})
    assert run(cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["oracle_fixtures.json"]
    fixtures = json.loads((out / "oracle_fixtures.json").read_text())
    e1 = 0.21938393439552029  # E_1(1)
    assert fixtures["exp1_at_1"] == pytest.approx(e1, abs=1e-12)
    # PV integral_0^inf exp(-(1 - r)^2) / (1 - r) dr = -E_1(1) / 2
    assert fixtures["pv_gaussian_shift"] == pytest.approx(-e1 / 2, abs=1e-9)
    assert set(fixtures["brute_b"]) == {"eta_3e1", "eta_5e1", "eta_8e1"}


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


@pytest.mark.parametrize("n, grid_n, direction", [(2, 256, [1, 0]), (3, 128, [1, 0.2, 0.1])])
def test_lemma52_reads_the_rays_S(tmp_path, n, grid_n, direction):
    # lemma52's samples are the S_re column of dispersion-ray on the same
    # potential and ray, to the bit
    base = {"n": n, "beta": 1.0, "grid": {"N": grid_n, "L": 16.0},
            "theta": [-1] + [0] * (n - 1),
            "ray": {"direction": direction, "t_min": 8, "t_max": 48, "count": 16}}
    for name in ("lemma52", "dispersion-ray"):
        cfg = {"experiment": name, **base, "out_dir": str(tmp_path / name)}
        assert run(_write(tmp_path, f"{name}.json", cfg)) == 0
    lemma = np.genfromtxt(tmp_path / "lemma52" / "lemma52_samples.csv", delimiter=",",
                          names=True)
    ray = np.genfromtxt(tmp_path / "dispersion-ray" / "dispersion_ray.csv", delimiter=",",
                        names=True)
    np.testing.assert_array_equal(lemma["value"], ray["S_re"])


def test_dispersion_ray_repeated_runs_identical(tmp_path):
    csvs = []
    for i in (1, 2):
        out = tmp_path / f"ray{i}"
        cfg = _write(tmp_path, f"r{i}.json", {
            "experiment": "dispersion-ray", "n": 2, "a": 0.5, "theta": [-1, 0],
            "ray": {"direction": [1, 0], "t_min": 3, "t_max": 8, "count": 6},
            "out_dir": str(out),
        })
        assert run(cfg) == 0
        csvs.append((out / "dispersion_ray.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_gbeta_blas_thread_independence(tmp_path):
    # the DCT-I is a BLAS matrix product, whose work split follows the
    # thread count; the g_beta artifacts must not
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"g{threads}"
        cfg = _write(tmp_path, f"g{threads}.json", {
            "experiment": "gbeta", "n": 3, "beta": 1.0, "bump_radius": 2.0,
            "grid": {"N": 128, "L": 16.0}, "out_dir": str(out),
        })
        env = _subprocess_env(OPENBLAS_NUM_THREADS=threads)
        env.pop("BORN_DISPERSION_OUT", None)
        subprocess.run([sys.executable, "-m", "borndisp.cli", cfg], env=env,
                       check=True, capture_output=True, timeout=300)
        artifacts.append([(out / name).read_bytes()
                          for name in ("gbeta.json", "gbeta_profile.csv")])
    assert artifacts[0] == artifacts[1]


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


def test_artifact_formats(tmp_path):
    from borndisp.cli import _write_csv, _write_json

    _write_json({"b": [1, 0.5], "a": {"y": None, "x": 0.1}}, tmp_path / "a.json")
    assert (tmp_path / "a.json").read_bytes() == (
        b'{\n  "a": {\n    "x": 0.1,\n    "y": null\n  },\n'
        b'  "b": [\n    1,\n    0.5\n  ]\n}\n')
    _write_csv(tmp_path / "a.csv", ["x", "y"], [[0.1, None], [3, np.float64(2 / 3)]])
    assert (tmp_path / "a.csv").read_bytes() == (
        b"x,y\r\n0.10000000000000001,\r\n3,0.66666666666666663\r\n")


def test_only_cli_knows_the_artifact_formats():
    # only cli imports csv or json or sets the %.17g number format, so the
    # artifact formats stay one module's decision
    package = Path(borndisp.__file__).parent
    knowers = set()
    for path in package.glob("*.py"):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] in ("csv", "json") for name in names):
                knowers.add(path.stem)
        if ".17g" in text:
            knowers.add(path.stem)
    assert knowers == {"cli"}


def _schema_keywords(schema: dict):
    yield from schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_keywords(sub)
    if "items" in schema:
        yield from _schema_keywords(schema["items"])


def test_validate_implements_every_schema_keyword():
    from borndisp import cli

    assert set(_schema_keywords(cli._SCHEMA)) <= cli._KEYWORDS
    with pytest.raises(TypeError, match="pattern"):
        cli._validate("x", {"type": "string", "pattern": "^x$"})


def _base_configs() -> list:
    ray = {"direction": [1, 0], "t_min": 3, "t_max": 8, "count": 6}
    return [
        {"experiment": "chart-selftest", "n": 2, "seed": 3, "out_dir": "o"},
        {"experiment": "gbeta", "n": 3, "beta": 1.0, "bump_radius": 2.0,
         "grid": {"N": 128, "L": 16.0}, "out_dir": "o"},
        {"experiment": "dispersion-ray", "n": 2, "a": 0.5, "theta": [-1, 0], "ray": ray,
         "rule_level": 4, "C0": 2.0,
         "out_dir": "o"},
        {"experiment": "lemma52", "n": 2, "beta": 1.0, "grid": {"N": 256, "L": 16.0},
         "theta": [-1, 0], "ray": dict(ray, count=16), "cone_aperture": 0.5,
         "out_dir": "o"},
        {"experiment": "gain-scan", "n": 3, "beta": 1.0, "theta": [-1.0, 0.0, 0.0],
         "alphas": [1.7, 2.3], "levels": [4.0, 6.0, 8.0], "rule_level": 3, "out_dir": "o"},
        {"experiment": "qfull-radial", "n": 2, "a": 0.5, "eta_norm": 4.0,
         "angles_deg": [1.40625, 73.0], "theta_rule_level": 3, "out_dir": "o"},
        {"experiment": "bounds-table", "n": 3, "betas": [0.5, 1.0], "out_dir": "o"},
        {"experiment": "oracle-fixtures", "a": 0.5, "out_dir": "o"},
    ]


_ODD_VALUES = ("x", "", None, True, False, 0, 1, 2, 3, 7, 8, 64, -1, 2.0, 3.0, 8.0,
               0.0, 0.5, 1.0, 1.5, -0.5, 1e9, 129, [], [1.0], [1, 0], [1, 0, 0, 1],
               ["a", 1], {}, {"N": 64}, "gbeta")


def _mutate(cfg, rng) -> None:
    """One random edit of cfg in place: a value replaced, a key removed, a key
    added (unknown or from the schema), or an item added to or taken from an
    array. A value put in is a copy, so that no later edit reaches
    _ODD_VALUES or puts a container inside itself."""
    import copy

    from borndisp import cli

    containers = [(cfg, cli._SCHEMA)]
    stack = [(cfg, cli._SCHEMA)]
    while stack:
        node, schema = stack.pop()
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            sub = (schema.get("properties", {}).get(key, {}) if isinstance(node, dict)
                   else schema.get("items", {}))
            if isinstance(value, (dict, list)):
                containers.append((value, sub))
                stack.append((value, sub))
    node, schema = rng.choice(containers)
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    edit = rng.choice(["replace", "replace", "remove", "add"])
    if edit == "replace" and keys:
        node[rng.choice(keys)] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif edit == "remove" and keys:
        node.pop(rng.choice(keys))
    elif isinstance(node, dict):
        known = list(schema.get("properties", {}))
        key = rng.choice(known + ["extra"]) if known else "extra"
        node[key] = copy.deepcopy(rng.choice(_ODD_VALUES))
    else:
        node.append(copy.deepcopy(rng.choice(_ODD_VALUES)))


def _integral_float_field(cfg, path: str) -> bool:
    """Whether the field at path holds a float with an integral value where the
    schema wants an integer, by type or by an integer enum."""
    from borndisp import cli

    value, schema = cfg, cli._SCHEMA
    for part in [p for p in path.split("/") if p != "(root)"]:
        value = value[int(part)] if isinstance(value, list) else value[part]
        schema = (schema["items"] if "items" in schema
                  else schema["properties"][part])
    integer = schema.get("type") == "integer" or any(
        type(e) is int for e in schema.get("enum", ()))
    return integer and isinstance(value, float) and value.is_integer()


def test_validate_agrees_with_jsonschema():
    # the same verdict as jsonschema on mutated configs, naming a field that
    # jsonschema names too; the only difference allowed is an integral float
    # in an integer field, which _validate refuses. jsonschema also accepts
    # NaN, the infinities and integers past float range in a number field,
    # which _validate refuses, but the corpus holds none, so they decide no
    # verdict here
    import copy
    import random
    import re

    from borndisp import cli

    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.validators.validator_for(cli._SCHEMA)(cli._SCHEMA)
    rng = random.Random(20261019)
    verdicts = {"accepted": 0, "rejected": 0, "integral float": 0}
    for _ in range(2000):
        cfg = copy.deepcopy(rng.choice(_base_configs()))
        for _ in range(rng.choice([1, 1, 2, 3])):
            _mutate(cfg, rng)
        paths = {"/".join(map(str, e.absolute_path)) or "(root)"
                 for e in validator.iter_errors(cfg)}
        try:
            cli._validate(cfg, cli._SCHEMA)
        except cli.ConfigError as exc:
            path = re.match(r"invalid config at field '([^']*)'", str(exc)).group(1)
            if _integral_float_field(cfg, path):
                verdicts["integral float"] += 1
            else:
                assert path in paths, (cfg, str(exc), paths)
                verdicts["rejected"] += 1
        else:
            assert not paths, (cfg, paths)
            verdicts["accepted"] += 1
    # the corpus reaches every verdict
    assert min(verdicts.values()) >= 50, verdicts

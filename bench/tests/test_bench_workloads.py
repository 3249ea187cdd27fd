import json

import numpy as np
import pytest

import workloads
from workloads import CheckFailed, make_config


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_config_bytes(name):
    assert workloads.config_bytes(make_config(name, 7)) == workloads.config_bytes(
        make_config(name, 7))


@pytest.mark.parametrize("name", ["scan-n3", "qfull-n2"])
def test_seed_changes_the_inputs(name):
    assert make_config(name, 1) != make_config(name, 2)


def test_scan_theta_is_a_unit_vector():
    for seed in range(50):
        theta = np.array(make_config("scan-n3", seed)["theta"])
        assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-14)


def test_qfull_angles_are_the_base_pair_turned_by_rule_steps():
    step = workloads.qfull_step_deg()
    for seed in range(50):
        angles = make_config("qfull-n2", seed)["angles_deg"]
        for base, a in zip(workloads.QFULL["base_angles_deg"], angles):
            shift = (a - base) / step
            assert abs(shift - round(shift)) < 1e-9


def _write_synth(out, exponent, ghat_min=1e-4):
    r = np.linspace(0.5, 30.0, 120)
    rows = ["radius,value"] + [f"{x:.17g},{x ** exponent:.17g}" for x in r]
    (out / "gbeta_profile.csv").write_text("\n".join(rows) + "\n")
    (out / "gbeta.json").write_text(json.dumps(
        {"meta": {"ghat_min": ghat_min, "ghat_zero": 0.2}}))


def test_synth_check_measures_tail_exponent(tmp_path):
    _write_synth(tmp_path, -2.45)
    assert workloads.check("synth-n3", tmp_path, {}) == pytest.approx(0.05 / 2.5)


@pytest.mark.parametrize("exponent,ghat_min", [(-2.3, 1e-4), (-2.5, -1e-6)])
def test_synth_check_fails_out_of_tolerance(tmp_path, exponent, ghat_min):
    _write_synth(tmp_path, exponent, ghat_min)
    with pytest.raises(CheckFailed):
        workloads.check("synth-n3", tmp_path, {})


def test_missing_artifact_fails(tmp_path):
    with pytest.raises(CheckFailed):
        workloads.check("qfull-n2", tmp_path, {"angles_deg": [0.0, 73.0]})


def test_qfull_check_is_radiality_spread(tmp_path):
    values = [{"re": 0.5, "im": 0.0}, {"re": 0.0, "im": 0.50001}]
    (tmp_path / "qfull_radial.json").write_text(json.dumps({"values": values}))
    err = workloads.check("qfull-n2", tmp_path, {"angles_deg": [0.0, 73.0]})
    assert err == pytest.approx(0.00001 / 0.50001)
    values[1]["im"] = 0.51
    (tmp_path / "qfull_radial.json").write_text(json.dumps({"values": values}))
    with pytest.raises(CheckFailed):
        workloads.check("qfull-n2", tmp_path, {"angles_deg": [0.0, 73.0]})

"""The benchmark workloads: seeded config generation and output checks.

Each operation is one ``borndisp <config>`` run. The seed chooses theta for
scan-n3 and the turn of the qfull-n2 angle pair; every other input is fixed
so that the work and the accuracy of an operation do not depend on the seed:

- scan-n3's potential is radial, so its norms do not depend on theta, and
  one stored reference serves every seed;
- each qfull-n2 angle is a fixed base angle turned by a seeded multiple of
  the theta-rule step. That turn maps the theta rule onto itself, so the
  radiality error is the same for every seed. A free angle would swing it
  between 1e-6 and 3.5e-4 with the angle's phase against the rule. The base
  pair keeps that error near its largest, and keeps rule nodes off the
  hemisphere boundary, where rounding decides whether a node counts (see
  README.md).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

GBETA_N3 = {"n": 3, "beta": 1.0, "bump_radius": 2.0}
SCAN = {"alphas": [1.7, 2.3], "levels": [4.0, 6.0, 8.0], "rule_level": 3, "ref_rule_m": 96}
# theta-rule level 3 has a 2.8125 degree step; the base pair sits at phases
# 0.5 and 0.956 of a step, where the phase error is near its largest (3e-4)
QFULL = {"eta_norm": 4.0, "theta_rule_level": 3, "base_angles_deg": [1.40625, 73.0]}

# Per-operation tolerances on max_rel_err. The scan tolerance sits ten times
# above the known r_max = 8 truncation error (about 1e-4), so that error
# shows in max_rel_err without failing the operation.
TOLERANCE = {
    "synth-n3": 0.1 / 2.5,   # criterion 2: tail exponent -2.5 +/- 0.1
    "scan-n3": 1e-3,
    # criterion 10 allows a radiality spread of 1e-4 at theta-rule level 5;
    # at level 3 the spread reaches 3.5e-4 for some angle phases
    "qfull-n2": 1e-3,
}

WORKLOADS = tuple(TOLERANCE)


class CheckFailed(ValueError):
    """An operation's artifacts are missing, non-finite or out of tolerance."""


def qfull_step_deg() -> float:
    """Spacing of the n = 2 theta rule: 2^(level + 4) equispaced angles."""
    return 360.0 / 2 ** (QFULL["theta_rule_level"] + 4)


def make_config(workload: str, seed: int) -> dict:
    """The config of one operation; the same seed gives the same config."""
    rng = np.random.default_rng(seed)
    base = {"out_dir": "bench-out"}
    if workload == "synth-n3":
        return {**base, "experiment": "gbeta", **GBETA_N3, "grid": {"N": 192, "L": 16.0}}
    if workload == "scan-n3":
        theta = rng.normal(size=3)
        theta /= np.linalg.norm(theta)
        return {**base, "experiment": "gain-scan", **GBETA_N3, "grid": {"N": 128, "L": 16.0},
                "theta": theta.tolist(), "rule_level": SCAN["rule_level"],
                "alphas": SCAN["alphas"], "levels": SCAN["levels"]}
    if workload == "qfull-n2":
        steps = 2 ** (QFULL["theta_rule_level"] + 4)
        shifts = rng.integers(0, steps, size=2)
        angles = [(a + int(s) * qfull_step_deg()) % 360.0
                  for a, s in zip(QFULL["base_angles_deg"], shifts)]
        return {**base, "experiment": "qfull-radial", "n": 2, "a": 0.5,
                "eta_norm": QFULL["eta_norm"],
                "theta_rule_level": QFULL["theta_rule_level"], "angles_deg": angles}
    raise KeyError(f"unknown workload {workload!r}")


def config_bytes(cfg: dict) -> bytes:
    return (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()


def artifacts(out: Path) -> dict[str, bytes]:
    """Deterministic artifacts of one operation: everything but the
    manifest, which holds timings."""
    manifest = json.loads((out / "manifest.json").read_text())
    return {name: (out / name).read_bytes() for name in manifest["artifacts"]}


def _finite(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed("non-finite value in artifacts")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_synth(out: Path, cfg: dict) -> float:
    rows = _read_csv(out / "gbeta_profile.csv")
    r = np.array([float(x["radius"]) for x in rows])
    v = np.array([float(x["value"]) for x in rows])
    meta = json.loads((out / "gbeta.json").read_text())["meta"]
    _finite(*r, *v, meta["ghat_min"], meta["ghat_zero"])
    if meta["ghat_min"] < -1e-8 * meta["ghat_zero"]:
        raise CheckFailed(f"ghat_min {meta['ghat_min']:.3e} is negative beyond 1e-8 ghat(0)")
    return abs(tail_exponent(r, v) + 2.5) / 2.5


def tail_exponent(radii: np.ndarray, values: np.ndarray) -> float:
    """Criterion 2's fit: slope of log value against log radius on [8, 25]."""
    keep = (radii >= 8.0) & (radii <= 25.0) & (values > 0)
    if keep.sum() < 8:
        raise CheckFailed("fewer than 8 positive profile samples in [8, 25]")
    return float(np.polyfit(np.log(radii[keep]), np.log(values[keep]), 1)[0])


def _check_scan(out: Path, cfg: dict) -> float:
    ref = json.loads((REFERENCE_DIR / "scan_n3.json").read_text())
    scans = json.loads((out / "gain_scan.json").read_text())
    if sorted(f"{s['alpha']:g}" for s in scans) != sorted(ref["norms"]):
        raise CheckFailed("gain_scan.json does not list the configured alphas")
    worst = 0.0
    for s in scans:
        got = [lv["norm"] for lv in s["levels"]]
        want = ref["norms"][f"{s['alpha']:g}"]
        _finite(*got)
        if len(got) != len(want):
            raise CheckFailed("gain_scan.json does not list the configured levels")
        worst = max(worst, max(abs(g - w) / w for g, w in zip(got, want)))
    return worst


def _check_qfull(out: Path, cfg: dict) -> float:
    values = json.loads((out / "qfull_radial.json").read_text())["values"]
    mags = [abs(complex(v["re"], v["im"])) for v in values]
    _finite(*mags)
    if len(mags) != len(cfg["angles_deg"]) or min(mags) <= 0:
        raise CheckFailed("qfull_radial.json does not hold one nonzero value per angle")
    return (max(mags) - min(mags)) / max(mags)


_CHECKS = {"synth-n3": _check_synth, "scan-n3": _check_scan, "qfull-n2": _check_qfull}


def check(workload: str, out: Path, cfg: dict) -> float:
    """Return the operation's max_rel_err; raise CheckFailed when the
    artifacts are missing or malformed or the error exceeds the tolerance."""
    try:
        err = _CHECKS[workload](out, cfg)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        if isinstance(exc, CheckFailed):
            raise
        raise CheckFailed(f"unreadable artifacts: {exc!r}") from exc
    if not err <= TOLERANCE[workload]:
        raise CheckFailed(f"max_rel_err {err:.3e} exceeds tolerance {TOLERANCE[workload]:.1e}")
    return err

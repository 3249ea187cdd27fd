"""
Experiment runner: JSON config in, CSV/JSON artifacts plus a run manifest out.

Exit codes: 0 success, 2 a verdict failed, 1 configuration or runtime error.
Outputs are deterministic for a fixed config (no wall-clock data outside the
manifest); BORN_DISPERSION_OUT overrides the configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, analysis, bounds, dispersion, potentials
from .geometry import Direction, chart, in_cone, in_half_space, sphere_rule
from .potentials import GBetaSpec, GridTooCoarseError, gaussian_potential, make_gbeta
from .spectral import make_grid

log = logging.getLogger(__name__)

EXPERIMENTS = (
    "chart-selftest",
    "gbeta",
    "dispersion-ray",
    "lemma52",
    "gain-scan",
    "qfull-radial",
    "bounds-table",
    "oracle-fixtures",
)

_SCHEMA = {
    "type": "object",
    "required": ["experiment", "out_dir"],
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "n": {"enum": [2, 3]},
        "beta": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": 0},
        "bump_radius": {"type": "number", "exclusiveMinimum": 0},
        "theta": {"type": "array", "items": {"type": "number"},
                  "minItems": 2, "maxItems": 3},
        "C0": {"type": "number", "exclusiveMinimum": 1},
        "grid": {
            "type": "object",
            "required": ["N", "L"],
            "additionalProperties": False,
            "properties": {
                # the g_beta synthesis works on the first-orthant block
                "N": {"type": "integer", "minimum": 8, "multipleOf": 2},
                "L": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "rule_level": {"type": "integer", "minimum": 1},
        "theta_rule_level": {"type": "integer", "minimum": 1},
        "pv": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delta": {"type": "number"},
                "inner_nodes": {"type": "integer"},
            },
        },
        "ray": {
            "type": "object",
            "required": ["direction", "t_min", "t_max", "count"],
            "additionalProperties": False,
            "properties": {
                "direction": {"type": "array", "items": {"type": "number"}},
                "t_min": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "count": {"type": "integer", "minimum": 2},
            },
        },
        "alphas": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "levels": {"type": "array", "items": {"type": "number"}, "minItems": 3},
        "betas": {"type": "array", "items": {"type": "number"}},
        "cone_aperture": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 1},
        "eta_norm": {"type": "number", "exclusiveMinimum": 0},
        "angles_deg": {"type": "array", "items": {"type": "number"},
                       "minItems": 1},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
    },
}

# The JSON Schema keywords that _validate implements. "type" takes the JSON
# types below, except that an "integer" (and an integer in an "enum") is a
# JSON integer only: 3.0 is not one, since a level, a count or a node number
# given as 3.0 fails part-way through a run.
_KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "exclusiveMinimum", "exclusiveMaximum",
    "multipleOf",
})
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}


def _validate(value, schema: dict, path: str = "") -> None:
    """Check value against schema, in the subset of JSON Schema named by
    _KEYWORDS (multipleOf on integers only); raise ConfigError naming the
    field of the first failure, as a '/'-separated path."""
    def fail(why: str):
        raise ConfigError(f"invalid config at field '{path or '(root)'}': {why}")

    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise TypeError(f"schema keywords {sorted(unknown)} are not implemented")
    kind = schema.get("type")
    # bool is an int in Python, never a number in JSON
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind])):
        fail(f"{value!r} is not of type '{kind}'")
    if "enum" in schema and not any(type(value) is type(e) and value == e
                                    for e in schema["enum"]):
        fail(f"{value!r} is not one of {schema['enum']}")
    for key, bad, why in (
        ("minimum", lambda m: value < m, "is less than the minimum"),
        ("exclusiveMinimum", lambda m: value <= m, "is not above"),
        ("exclusiveMaximum", lambda m: value >= m, "is not below"),
        ("multipleOf", lambda m: value % m != 0, "is not a multiple of"),
        ("minItems", lambda m: len(value) < m, "has fewer items than"),
        ("maxItems", lambda m: len(value) > m, "has more items than"),
    ):
        if key in schema and bad(schema[key]):
            fail(f"{value!r} {why} {schema[key]}")
    for i, item in enumerate(value if "items" in schema else ()):
        _validate(item, schema["items"], f"{path}/{i}" if path else str(i))
    for key in schema.get("required", ()):
        if key not in value:
            fail(f"required key '{key}' is missing")
    fields = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        for key in value:
            if key not in fields:
                fail(f"unexpected key '{key}'")
    for key, sub in fields.items():
        if key in value:
            _validate(value[key], sub, f"{path}/{key}" if path else key)


_REQUIRED = {
    "gbeta": ["n", "beta", "grid"],
    "dispersion-ray": ["n", "theta", "ray"],
    "lemma52": ["n", "beta", "grid", "theta", "ray"],
    "gain-scan": ["n", "beta", "grid", "theta", "alphas", "levels"],
    "qfull-radial": ["n", "eta_norm", "angles_deg"],
    "bounds-table": ["n", "betas"],
}


# experiments that build the configured potential (g_beta when beta is set)
_POTENTIAL_EXPERIMENTS = ("gbeta", "dispersion-ray", "lemma52", "gain-scan", "qfull-radial")


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _validate(cfg, _SCHEMA)
    for field in _REQUIRED.get(cfg["experiment"], []):
        if field not in cfg:
            raise ConfigError(
                f"experiment '{cfg['experiment']}' requires field '{field}'"
            )
    _check_runtime_constraints(cfg)
    return cfg


def _check_runtime_constraints(cfg: dict) -> None:
    """Constraints that the schema cannot express, checked before any work."""
    vectors = {"theta": cfg.get("theta"), "ray/direction": cfg.get("ray", {}).get("direction")}
    for where, v in vectors.items():
        if v is not None and "n" in cfg and len(v) != cfg["n"]:
            raise ConfigError(
                f"invalid config at field '{where}': length {len(v)} does not "
                f"match n = {cfg['n']}"
            )
        if v is not None and not any(v):
            raise ConfigError(f"invalid config at field '{where}': zero vector")
    # the fixtures have fixed dimensions: 2 for B and the PV, 3 for the trace
    if cfg["experiment"] == "oracle-fixtures" and "n" in cfg:
        raise ConfigError(
            "invalid config at field 'n': oracle-fixtures has fixed "
            "dimensions and takes no 'n'"
        )
    # fit_decay needs 8 samples on a nonempty window, on a ray in D_theta
    if cfg["experiment"] == "lemma52":
        ray, a = cfg["ray"], cfg.get("cone_aperture", 0.5)
        d = np.asarray(ray["direction"], dtype=float)
        for where, bad, why in (
            ("ray/count", ray["count"] < 8, f"needs at least 8 samples, got {ray['count']}"),
            ("ray/t_max", ray["t_max"] <= ray["t_min"], "must exceed t_min"),
            ("ray/direction", not in_cone(d / np.linalg.norm(d), _theta(cfg), a),
             f"the ray is outside the cone D_theta of aperture {a:g}"),
        ):
            if bad:
                raise ConfigError(f"invalid config at field '{where}': {why}")
    # the gain scan samples |Q| from one radial step outwards
    if cfg["experiment"] == "gain-scan" and min(cfg["levels"]) < analysis.RADIAL_STEP:
        raise ConfigError(
            "invalid config at field 'levels': every level must be at least "
            f"the radial step {analysis.RADIAL_STEP:g}, got {min(cfg['levels']):g}"
        )
    # in n = 3, B comes from the bipolar rule, which has no principal value
    # over r
    if "pv" in cfg and cfg.get("n") == 3:
        raise ConfigError(
            "invalid config at field 'pv': n = 3 takes no principal-value "
            "settings (B comes from the bipolar rule of rule_level)"
        )
    # the defaults are valid, and a PVParams builds its quadrature rule (and
    # loads numpy.polynomial), so only a configured 'pv' is built here
    if "pv" in cfg:
        try:
            _pv(cfg)
        except ValueError as exc:
            raise ConfigError(f"invalid config at field 'pv': {exc}")
    if cfg["experiment"] in _POTENTIAL_EXPERIMENTS and "beta" in cfg:
        try:
            _gbeta_spec(cfg)
        except GridTooCoarseError as exc:
            raise ConfigError(f"invalid config at field 'grid/N': {exc}")
        except ValueError as exc:
            raise ConfigError(f"invalid config at field 'bump_radius': {exc}")


def _out_dir(cfg: dict) -> Path:
    out = Path(os.environ.get("BORN_DISPERSION_OUT", cfg["out_dir"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _theta(cfg: dict) -> Direction:
    return Direction.normalized(cfg["theta"])


def _grid(cfg: dict):
    g = cfg.get("grid", {"N": 128, "L": 16.0})
    return make_grid(cfg["n"], g["N"], g["L"])


def _gbeta_spec(cfg: dict) -> GBetaSpec:
    return GBetaSpec(beta=cfg["beta"], bump_radius=cfg.get("bump_radius", 2.0),
                     grid=_grid(cfg))


def _potential(cfg: dict):
    """gbeta when beta is configured, else the analytic Gaussian family."""
    if "beta" in cfg:
        return make_gbeta(_gbeta_spec(cfg))
    return gaussian_potential(cfg.get("a", 0.5), _grid(cfg))


def _pv(cfg: dict) -> dispersion.PVParams:
    return dispersion.PVParams(**cfg.get("pv", {}))


def _cut(cfg: dict) -> dispersion.CutoffSpec:
    return dispersion.CutoffSpec(C0=cfg.get("C0", 2.0))


def _write_json(payload, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Experiments. Each returns (exit_code, list of output filenames).


def _run_chart_selftest(cfg: dict, out: Path, threads: int):
    rng = np.random.default_rng(cfg.get("seed", 0))
    worst_recon, worst_unit = 0.0, 0.0
    for n in ([cfg["n"]] if "n" in cfg else [2, 3]):
        for _ in range(1000):
            theta = Direction.normalized(rng.normal(size=n))
            eta = rng.normal(size=n) * rng.uniform(0.1, 20.0)
            eta = eta if in_half_space(eta, theta) else -eta
            if not in_half_space(eta, theta):
                continue
            ch = chart(eta, theta)
            recon = ch.k * (ch.theta_prime.components - theta.components)
            worst_recon = max(
                worst_recon,
                float(np.linalg.norm(recon - eta) / np.linalg.norm(eta)),
            )
            worst_unit = max(
                worst_unit, abs(float(np.linalg.norm(ch.theta_prime.components)) - 1.0)
            )
            if 2.0 * ch.k < np.linalg.norm(eta) * (1.0 - 1e-12):
                raise RuntimeError("2k >= |eta| violated")
    print(f"chart selftest: max reconstruction error {worst_recon:.3e}, "
          f"max |theta'| deviation {worst_unit:.3e}")
    _write_json(
        {"max_reconstruction_error": worst_recon, "max_unit_deviation": worst_unit},
        out / "chart_selftest.json",
    )
    return 0, ["chart_selftest.json"]


def _run_gbeta(cfg: dict, out: Path, threads: int):
    q = _potential(cfg)
    potentials.export_potential(q, out / "gbeta.json", out / "gbeta_profile.csv")
    print(f"gbeta: ghat(0) = {q.meta['ghat_zero']:.6g}, "
          f"min ghat = {q.meta['ghat_min']:.3e}, "
          f"tail exponent = {q.fourier_profile.tail_exponent:.4f}")
    return 0, ["gbeta.json", "gbeta_profile.csv"]


def _run_dispersion_ray(cfg: dict, out: Path, threads: int):
    theta = _theta(cfg)
    q = _potential(cfg)
    ray = cfg["ray"]
    d = np.asarray(ray["direction"], dtype=float)
    d = d / np.linalg.norm(d)
    ts = np.geomspace(ray["t_min"], ray["t_max"], ray["count"])
    etas = [t * d for t in ts]
    rule = sphere_rule(cfg["n"], cfg.get("rule_level", 4))
    samples = dispersion.dispersion_batch(
        q, theta, etas, rule, _pv(cfg), _cut(cfg), threads=threads
    )
    dispersion.write_samples_csv(samples, out / "dispersion_ray.csv")
    print(f"dispersion-ray: {len(samples)} samples along {d.tolist()}")
    return 0, ["dispersion_ray.csv"]


def _run_lemma52(cfg: dict, out: Path, threads: int):
    theta = _theta(cfg)
    q = _potential(cfg)
    ray = cfg["ray"]
    rule = sphere_rule(cfg["n"], cfg.get("rule_level", 4))
    verdict, data = analysis.lemma52_check(
        q, cfg["beta"], theta, cfg.get("cone_aperture", 0.5),
        (ray["t_min"], ray["t_max"]), rule, _cut(cfg),
        direction=ray["direction"], samples=ray["count"],
    )
    with open(out / "lemma52_samples.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in data:
            writer.writerow([f"{t:.17g}", f"{v:.17g}"])
    _write_json(verdict.to_dict(), out / "lemma52_verdict.json")
    print(f"lemma52: pass = {verdict.passed}, {verdict.details}")
    return (0 if verdict.passed else 2), ["lemma52_samples.csv", "lemma52_verdict.json"]


def _run_gain_scan(cfg: dict, out: Path, threads: int):
    theta = _theta(cfg)
    q = _potential(cfg)
    scans = analysis.gain_scan(
        q, theta, cfg["alphas"], cfg["levels"], _pv(cfg), _cut(cfg),
        rule_level=cfg.get("rule_level", 4),
    )
    with open(out / "gain_scan.json", "w") as fh:
        fh.write(analysis.scans_to_json(scans))
        fh.write("\n")
    with open(out / "gain_scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "extent", "norm"])
        for s in scans:
            for T, v in s.levels:
                writer.writerow([f"{s.alpha:.17g}", f"{T:.17g}", f"{v:.17g}"])
    for s in scans:
        print(f"gain-scan: alpha = {s.alpha}, ratios = "
              + ", ".join(f"{r:.4f}" for r in s.growth_ratios))
    return 0, ["gain_scan.json", "gain_scan.csv"]


def _run_qfull_radial(cfg: dict, out: Path, threads: int):
    n = cfg["n"]
    q = _potential(cfg)
    rule = sphere_rule(n, cfg.get("rule_level", 4))
    theta_rule = sphere_rule(n, cfg.get("theta_rule_level", 5))
    pv, cut = _pv(cfg), _cut(cfg)
    t = cfg["eta_norm"]
    rows = []
    for ang in cfg["angles_deg"]:
        rad = np.deg2rad(ang)
        eta = np.zeros(n)
        eta[0], eta[1] = t * np.cos(rad), t * np.sin(rad)
        val = dispersion.q_full2_hat(q, eta, theta_rule, rule, pv, cut)
        rows.append({"angle_deg": ang, "re": val.real, "im": val.imag,
                     "abs": abs(val)})
    mags = [r["abs"] for r in rows]
    spread = (max(mags) - min(mags)) / max(mags) if max(mags) > 0 else 0.0
    _write_json({"eta_norm": t, "values": rows, "relative_spread": spread},
                out / "qfull_radial.json")
    print(f"qfull-radial: |eta| = {t}, relative spread {spread:.3e}")
    return 0, ["qfull_radial.json"]


def _run_bounds_table(cfg: dict, out: Path, threads: int):
    n = cfg["n"]
    with open(out / "bounds_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "m", "alpha0", "thm11_max", "thm13_sup",
                         "alpha_2", "alpha_3", "alpha_4"])
        for beta in cfg["betas"]:
            rep = bounds.thm_limits(n, beta)
            row = [beta, rep.m, rep.alpha0, rep.thm11_max, rep.thm13_sup,
                   rep.alpha_j.get(2), rep.alpha_j.get(3), rep.alpha_j.get(4)]
            writer.writerow(["" if v is None else f"{v:.17g}" for v in row])
    print(f"bounds-table: n = {n}, {len(cfg['betas'])} beta values")
    return 0, ["bounds_table.csv"]


def _run_oracle_fixtures(cfg: dict, out: Path, threads: int):
    # imported here: oracle pulls in scipy.integrate, which no other
    # experiment needs
    from . import oracle

    grid = make_grid(2, 64, 16.0)
    q = gaussian_potential(cfg.get("a", 0.5), grid)
    theta = Direction(np.array([-1.0, 0.0]))
    fixtures = {
        "pv_gaussian_shift": oracle.pv_1d(
            lambda r: float(np.exp(-((1.0 - r) ** 2))) / (1.0 - r),
            1.0, (0.0, np.inf),
        ),
        "exp1_at_1": oracle.exp1_series(1.0),
        "gaussian_trace_ratio_rho1_n3": oracle.trace_ratio(
            gaussian_potential(0.5, make_grid(3, 64, 16.0)), 1.0
        ),
        "brute_b": {},
    }
    for t in (3.0, 5.0, 8.0):
        val = oracle.brute_b_theta2(q, theta, np.array([t, 0.0]))
        fixtures["brute_b"][f"eta_{t:g}e1"] = {"re": val.real, "im": val.imag}
    oracle.dump_fixtures(fixtures, out / "oracle_fixtures.json")
    print("oracle-fixtures: wrote oracle_fixtures.json")
    return 0, ["oracle_fixtures.json"]


_RUNNERS = {
    "chart-selftest": _run_chart_selftest,
    "gbeta": _run_gbeta,
    "dispersion-ray": _run_dispersion_ray,
    "lemma52": _run_lemma52,
    "gain-scan": _run_gain_scan,
    "qfull-radial": _run_qfull_radial,
    "bounds-table": _run_bounds_table,
    "oracle-fixtures": _run_oracle_fixtures,
}


def run(config_path, threads: int = 1) -> int:
    if threads < 1:
        print(f"error: --threads must be at least 1, got {threads}", file=sys.stderr)
        return 1
    try:
        cfg = _load_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(cfg)
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    start = time.monotonic()
    try:
        code, artifacts = _RUNNERS[cfg["experiment"]](cfg, out, threads)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        log.exception("experiment failed")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "experiment": cfg["experiment"],
        "config_sha256": digest,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "elapsed_seconds": time.monotonic() - start,
        "threads": threads,
        "artifacts": artifacts,
        "exit_code": code,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_page_faults": usage.ru_minflt,
    }
    _write_json(manifest, out / "manifest.json")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="borndisp",
        description="Run a fixed-angle double-dispersion experiment from a "
                    "JSON config.",
    )
    parser.add_argument("config", help="path to the experiment config (JSON)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap for batch evaluation (default 1)")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return run(args.config, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())

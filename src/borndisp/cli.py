"""
Experiment runner: JSON config in, CSV/JSON artifacts plus a run manifest out.

Exit codes: 0 success, 2 a verdict failed, 1 a usage, configuration or
runtime error. Outputs are deterministic for a fixed config (no wall-clock
data outside the manifest); BORN_DISPERSION_OUT overrides the configured
output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import logging
import math
import os
import resource
import sys
import time
from pathlib import Path

# Only the standard library loads with this module. Each runner and each
# branch of _check_runtime_constraints imports what it calls, so numpy loads
# with the first library module a run calls: a refusal before a library rule
# and a bounds-table run load no numpy, a gbeta run loads no dispersion,
# geometry or analysis, and no run but oracle-fixtures loads scipy.
from . import __version__

log = logging.getLogger(__name__)

# The JSON Schema keywords that _validate implements. "type" takes the JSON
# types below, except that an "integer" (and an integer in an "enum") is a
# JSON integer only: 3.0 is not one, since a level, a count or a node number
# given as 3.0 fails part-way through a run; and a "number" must convert to
# a finite float: json.load reads NaN and Infinity, which pass every
# comparison below and run to NaN artifacts, and integers past float range,
# which fail part-way through a run.
_KEYWORDS = frozenset({
    "type", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
    "exclusiveMaximum", "multipleOf",
})
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}


def _shown(value) -> str:
    """The value as a refusal message names it: a list or an object by its
    JSON type and length, a scalar by its repr, cut short past 40 characters."""
    if isinstance(value, (list, dict)):
        kind = "array" if isinstance(value, list) else "object"
        return f"an {kind} of length {len(value)}"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


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
        fail(f"{_shown(value)} is not of type '{kind}'")
    if isinstance(value, float) and not math.isfinite(value):
        fail(f"{_shown(value)} is not a finite number")
    if kind == "number" and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            fail("the integer does not fit a float")
    if "enum" in schema and not any(type(value) is type(e) and value == e
                                    for e in schema["enum"]):
        fail(f"{_shown(value)} is not one of {schema['enum']}")
    for key, bad, why in (
        ("minimum", lambda m: value < m, "is less than the minimum"),
        ("maximum", lambda m: value > m, "is greater than the maximum"),
        ("exclusiveMinimum", lambda m: value <= m, "is not above"),
        ("exclusiveMaximum", lambda m: value >= m, "is not below"),
        ("multipleOf", lambda m: value % m != 0, "is not a multiple of"),
        ("minItems", lambda m: len(value) < m, "has fewer items than"),
        ("maxItems", lambda m: len(value) > m, "has more items than"),
    ):
        if key in schema and bad(schema[key]):
            fail(f"{_shown(value)} {why} {schema[key]}")
    for i, item in enumerate(value if "items" in schema else ()):
        _validate(item, schema["items"], f"{path}/{i}" if path else str(i))
    for key in schema.get("required", ()):
        if key not in value:
            fail(f"required key '{key}' is missing")
    fields = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        for key in value:
            if key not in fields:
                fail(f"unexpected key {_shown(key)}")
    for key, sub in fields.items():
        if key in value:
            _validate(value[key], sub, f"{path}/{key}" if path else key)


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:  # a JSONDecodeError, or an integer past 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}")
    _validate(cfg, _SCHEMA)
    _, requires, reads = _EXPERIMENTS[cfg["experiment"]]
    for field in requires:
        if field not in cfg:
            raise ConfigError(f"invalid config at field '{field}': experiment "
                              f"'{cfg['experiment']}' requires it")
    for field in cfg:
        if field not in ("experiment", "out_dir", *requires, *reads):
            raise ConfigError(f"invalid config at field '{field}': experiment "
                              f"'{cfg['experiment']}' does not read it")
    _check_runtime_constraints(cfg)
    return cfg


def _check_runtime_constraints(cfg: dict) -> None:
    """Constraints that the schema cannot express, checked before any work."""
    # beta chooses g_beta, else the Gaussian; a field of the other family
    # would be taken and ignored
    gbeta = "beta" in cfg
    for key in ("a",) if gbeta else ("grid", "bump_radius"):
        if key in cfg:
            raise ConfigError(f"invalid config at field '{key}': with{'' if gbeta else 'out'} "
                              f"'beta' the potential is {'g_beta' if gbeta else 'the Gaussian'}, "
                              "which does not read it")
    # "a" sets the Gaussian, whose amplitude must be a float; oracle-fixtures
    # builds it in n = 2
    if "a" in cfg:
        from .potentials import gaussian_potential

        with _field("a"):
            gaussian_potential(cfg["a"], _grid({"n": cfg.get("n", 2)}))
    vectors = {"theta": cfg.get("theta"), "ray/direction": cfg.get("ray", {}).get("direction")}
    directions = {}
    for where, v in vectors.items():
        if v is None:
            continue
        from .geometry import Direction

        with _field(where):
            if len(v) != cfg["n"]:
                raise ValueError(f"length {len(v)} does not match n = {cfg['n']}")
            directions[where] = Direction.normalized(v)
    # fit_decay needs 8 samples on a nonempty window, on a ray in D_theta
    if cfg["experiment"] == "lemma52":
        from .geometry import in_cone

        ray, a = cfg["ray"], cfg.get("cone_aperture", 0.5)
        for where, bad, why in (
            ("ray/count", ray["count"] < 8, f"needs at least 8 samples, got {ray['count']}"),
            ("ray/t_max", ray["t_max"] <= ray["t_min"], "must exceed t_min"),
            ("ray/direction", not in_cone(directions["ray/direction"].components,
                                          directions["theta"], a),
             f"the ray is outside the cone D_theta of aperture {a:g}"),
        ):
            if bad:
                raise ConfigError(f"invalid config at field '{where}': {why}")
    # gain_scan's radial plan and weights, which gain_scan checks after the synthesis
    if cfg["experiment"] == "gain-scan":
        from . import analysis

        with _field("levels"):
            radii = analysis.radial_plan(cfg["levels"], _cut(cfg))[0]
        for i, alpha in enumerate(cfg["alphas"]):
            with _field(f"alphas/{i}"):
                analysis.radial_weights(radii, alpha, cfg["n"])
    # Q_F carries the cutoff, which is 0 up to C0: every value at such an
    # eta_norm is 0, and their relative spread reads a perfect 0
    if cfg["experiment"] == "qfull-radial":
        t, c0 = cfg["eta_norm"], _cut(cfg).C0
        if t <= c0:
            raise ConfigError(
                f"invalid config at field 'eta_norm': Q_F is 0 up to C0 = {c0:g}, so "
                f"eta_norm must exceed C0, got {t:g}"
            )
    if "beta" in cfg:
        from .potentials import GridTooCoarseError

        N, cap = _grid(cfg).samples_per_axis, _GBETA_MAX_N[cfg["n"]]
        if N > cap:
            raise ConfigError(f"invalid config at field 'grid/N': the g_beta synthesis "
                              f"in n = {cfg['n']} takes N up to {cap}, got {N}")
        try:
            _gbeta_spec(cfg)
        except GridTooCoarseError as exc:
            raise ConfigError(f"invalid config at field 'grid/N': {exc}")
        except ValueError as exc:
            raise ConfigError(f"invalid config at field 'bump_radius': {exc}")


@contextlib.contextmanager
def _field(where: str):
    """Refuse the config, naming the field, on a library rule's ValueError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid config at field '{where}': {exc}") from None


def _out_dir(cfg: dict) -> Path:
    out = Path(os.environ.get("BORN_DISPERSION_OUT", cfg["out_dir"]))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid(cfg: dict):
    from .spectral import make_grid

    g = cfg.get("grid", {"N": 128, "L": 16.0})
    return make_grid(cfg["n"], g["N"], g["L"])


def _gbeta_spec(cfg: dict):
    from .potentials import GBetaSpec

    return GBetaSpec(beta=cfg["beta"], bump_radius=cfg.get("bump_radius", 2.0),
                     grid=_grid(cfg))


def _potential(cfg: dict):
    """gbeta when beta is configured, else the analytic Gaussian family."""
    from .potentials import gaussian_potential, make_gbeta

    if "beta" in cfg:
        return make_gbeta(_gbeta_spec(cfg))
    return gaussian_potential(cfg.get("a", 0.5), _grid(cfg))


def _cut(cfg: dict):
    from .dispersion import CutoffSpec

    return CutoffSpec(C0=cfg.get("C0", 2.0))


def _write_json(payload, path: Path) -> None:
    """A JSON artifact: sorted keys, indent 2, a trailing newline. A payload
    that holds NaN or an infinity, which JSON has no number for, is refused
    before the file is opened."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path.name} not written: {exc}") from None
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """A CSV artifact: the header, then each row's numbers at full precision
    (%.17g), None as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else f"{v:.17g}" for v in row] for row in rows)


# ---------------------------------------------------------------------------
# Experiments. Each returns (exit_code, list of output filenames).


def _run_chart_selftest(cfg: dict, out: Path):
    import numpy as np

    from .geometry import Direction, chart, in_half_space

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


def _run_gbeta(cfg: dict, out: Path):
    from .potentials import make_gbeta

    q = make_gbeta(_gbeta_spec(cfg))
    profile = q.fourier_profile
    _write_json({
        "label": q.label,
        "dimension": q.dimension,
        "support_radius": q.support_radius,
        # g_beta is real and radial with a nonnegative q_hat
        "is_real": True,
        "is_radial": True,
        "fourier_nonneg": True,
        "meta": q.meta,
        "tail_exponent": profile.tail_exponent,
        "tail_coefficient": profile.tail_coefficient,
    }, out / "gbeta.json")
    _write_csv(out / "gbeta_profile.csv", ["radius", "value"],
               zip(profile.radii, profile.values))
    print(f"gbeta: ghat(0) = {q.meta['ghat_zero']:.6g}, "
          f"min ghat = {q.meta['ghat_min']:.3e}, "
          f"tail exponent = {profile.tail_exponent:.4f}")
    return 0, ["gbeta.json", "gbeta_profile.csv"]


def _run_dispersion_ray(cfg: dict, out: Path):
    import numpy as np

    from . import dispersion
    from .geometry import Direction

    theta = Direction.normalized(cfg["theta"])
    q = _potential(cfg)
    ray = cfg["ray"]
    d = Direction.normalized(ray["direction"]).components
    ts = np.geomspace(ray["t_min"], ray["t_max"], ray["count"])
    etas = [t * d for t in ts]
    samples = dispersion.dispersion_batch(q, theta, etas, cfg.get("rule_level", 4), _cut(cfg))
    header = [f"eta_{i + 1}" for i in range(cfg["n"])] + [
        "k", "S_re", "S_im", "P_re", "P_im", "B_re", "B_im", "Q_re", "Q_im"]
    rows = []
    for s in samples:
        row = [*s.eta, s.k]
        for z in (s.S, s.P, s.B, s.Q):
            row += [complex(z).real, complex(z).imag]
        rows.append(row)
    _write_csv(out / "dispersion_ray.csv", header, rows)
    print(f"dispersion-ray: {len(samples)} samples along {d.tolist()}")
    return 0, ["dispersion_ray.csv"]


def _run_lemma52(cfg: dict, out: Path):
    from . import analysis
    from .geometry import Direction

    theta = Direction.normalized(cfg["theta"])
    q = _potential(cfg)
    ray = cfg["ray"]
    verdict, data = analysis.lemma52_check(
        q, cfg["beta"], theta, cfg.get("cone_aperture", 0.5),
        (ray["t_min"], ray["t_max"]), cfg.get("rule_level", 4), _cut(cfg),
        direction=ray["direction"], samples=ray["count"],
    )
    _write_csv(out / "lemma52_samples.csv", ["t", "value"], data)
    _write_json(verdict.to_dict(), out / "lemma52_verdict.json")
    print(f"lemma52: pass = {verdict.passed}, {verdict.details}")
    return (0 if verdict.passed else 2), ["lemma52_samples.csv", "lemma52_verdict.json"]


def _run_gain_scan(cfg: dict, out: Path):
    from . import analysis
    from .geometry import Direction

    theta = Direction.normalized(cfg["theta"])
    q = _potential(cfg)
    scans = analysis.gain_scan(
        q, theta, cfg["alphas"], cfg["levels"], _cut(cfg),
        rule_level=cfg.get("rule_level", 4),
    )
    _write_json([{"alpha": s.alpha,
                  "levels": [{"extent": T, "norm": v} for T, v in s.levels],
                  "growth_ratios": s.growth_ratios} for s in scans],
                out / "gain_scan.json")
    _write_csv(out / "gain_scan.csv", ["alpha", "extent", "norm"],
               ([s.alpha, T, v] for s in scans for T, v in s.levels))
    for s in scans:
        print(f"gain-scan: alpha = {s.alpha}, ratios = "
              + ", ".join(f"{r:.4f}" for r in s.growth_ratios))
    return 0, ["gain_scan.json", "gain_scan.csv"]


def _run_qfull_radial(cfg: dict, out: Path):
    import numpy as np

    from . import dispersion
    from .geometry import sphere_rule

    n = cfg["n"]
    q = _potential(cfg)
    theta_rule = sphere_rule(n, cfg.get("theta_rule_level", 5))
    level, cut = cfg.get("rule_level", 4), _cut(cfg)
    t = cfg["eta_norm"]
    rows = []
    for ang in cfg["angles_deg"]:
        rad = np.deg2rad(ang)
        eta = np.zeros(n)
        eta[0], eta[1] = t * np.cos(rad), t * np.sin(rad)
        val = dispersion.q_full2_hat(q, eta, theta_rule, level, cut)
        rows.append({"angle_deg": ang, "re": val.real, "im": val.imag,
                     "abs": abs(val)})
    mags = [r["abs"] for r in rows]
    spread = (max(mags) - min(mags)) / max(mags) if max(mags) > 0 else 0.0
    _write_json({"eta_norm": t, "values": rows, "relative_spread": spread},
                out / "qfull_radial.json")
    print(f"qfull-radial: |eta| = {t}, relative spread {spread:.3e}")
    return 0, ["qfull_radial.json"]


def _run_bounds_table(cfg: dict, out: Path):
    from . import bounds

    def alpha_j(beta, j):
        # an empty field where beta is below the series' convergence threshold
        try:
            return bounds.alpha_j(n, beta, j)
        except bounds.OutOfRange:
            return None

    n = cfg["n"]
    rows = [[beta, bounds.m_threshold(n), bounds.alpha0(n, beta), bounds.thm11_max(n, beta),
             bounds.thm13_sup(n, beta), *(alpha_j(beta, j) for j in (2, 3, 4))]
            for beta in cfg["betas"]]
    header = ["beta", "m", "alpha0", "thm11_max", "thm13_sup",
              "alpha_2", "alpha_3", "alpha_4"]
    _write_csv(out / "bounds_table.csv", header, rows)
    print(f"bounds-table: n = {n}, {len(cfg['betas'])} beta values")
    return 0, ["bounds_table.csv"]


def _run_oracle_fixtures(cfg: dict, out: Path):
    import numpy as np

    from . import oracle
    from .geometry import Direction
    from .potentials import gaussian_potential
    from .spectral import make_grid

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
    _write_json(fixtures, out / "oracle_fixtures.json")
    print("oracle-fixtures: wrote oracle_fixtures.json")
    return 0, ["oracle_fixtures.json"]


# One row per experiment: its runner, the fields it requires and the other
# fields it reads. The load step refuses a config that lacks a required field
# or holds a field its experiment does not read.
_EXPERIMENTS = {
    "chart-selftest": (_run_chart_selftest, (), ("n", "seed")),
    "gbeta": (_run_gbeta, ("n", "beta", "grid"), ("bump_radius",)),
    "dispersion-ray": (_run_dispersion_ray, ("n", "theta", "ray"),
                       ("beta", "grid", "bump_radius", "a", "rule_level", "C0")),
    "lemma52": (_run_lemma52, ("n", "beta", "grid", "theta", "ray"),
                ("bump_radius", "cone_aperture", "rule_level", "C0")),
    "gain-scan": (_run_gain_scan, ("n", "beta", "grid", "theta", "alphas", "levels"),
                  ("bump_radius", "rule_level", "C0")),
    "qfull-radial": (_run_qfull_radial, ("n", "eta_norm", "angles_deg"),
                     ("beta", "grid", "bump_radius", "a", "rule_level",
                      "theta_rule_level", "C0")),
    "bounds-table": (_run_bounds_table, ("n", "betas"), ()),
    "oracle-fixtures": (_run_oracle_fixtures, (), ("a",)),
}

# The largest grid.N of a g_beta synthesis, per n. Its time grows about as
# N^3, and most at the widest bump that the grid admits (L/4); README gives
# the cost at each cap, which is at least twice the most that a config in the
# tests, demos, benchmark or README uses (256).
_GBETA_MAX_N = {2: 4096, 3: 512}

_SCHEMA = {
    "type": "object",
    "required": ["experiment", "out_dir"],
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(_EXPERIMENTS)},
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
        # each level has up to 4 times the nodes of the one before; README
        # gives the cost of a run at each cap, and at the caps on ray/count,
        # alphas and angles_deg, which are 16 times the most that a config
        # in the tests, demos, benchmark or README uses (grid/N: _GBETA_MAX_N)
        "rule_level": {"type": "integer", "minimum": 1, "maximum": 8},
        "theta_rule_level": {"type": "integer", "minimum": 1, "maximum": 7},
        "ray": {
            "type": "object",
            "required": ["direction", "t_min", "t_max", "count"],
            "additionalProperties": False,
            "properties": {
                "direction": {"type": "array", "items": {"type": "number"}},
                "t_min": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "count": {"type": "integer", "minimum": 2, "maximum": 256},
            },
        },
        "alphas": {"type": "array", "items": {"type": "number"}, "minItems": 1,
                   "maxItems": 32},
        "levels": {"type": "array", "items": {"type": "number"}, "minItems": 3},
        "betas": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "cone_aperture": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 1},
        "eta_norm": {"type": "number", "exclusiveMinimum": 0},
        "angles_deg": {"type": "array", "items": {"type": "number"},
                       "minItems": 1, "maxItems": 32},
        "seed": {"type": "integer", "minimum": 0},
        "out_dir": {"type": "string"},
    },
}


def run(config_path) -> int:
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
        code, artifacts = _EXPERIMENTS[cfg["experiment"]][0](cfg, out)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        log.exception("experiment failed")
        # str(MemoryError()) is empty
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "experiment": cfg["experiment"],
        "config_sha256": digest,
        "package_version": __version__,
        # only a run that loaded numpy (all but bounds-table) or scipy
        # (oracle-fixtures) names its version
        "numpy_version": getattr(sys.modules.get("numpy"), "__version__", None),
        "scipy_version": getattr(sys.modules.get("scipy"), "__version__", None),
        "elapsed_seconds": time.monotonic() - start,
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
    parser.add_argument("-v", "--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a failed verdict here
        return 1 if exc.code else 0
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return run(args.config)


if __name__ == "__main__":
    sys.exit(main())

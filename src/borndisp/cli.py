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
import math
import os
import resource
import sys
import time
from pathlib import Path

# Only the standard library loads with this module. Each runner and each
# branch of _inputs imports what it calls, so numpy loads with the first
# library module a run calls: a refusal before a library rule and a
# bounds-table run load no numpy, a gbeta run loads no dispersion, geometry
# or analysis, and no run loads scipy.
from . import __version__

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


def _load_config(path) -> tuple[dict, dict, str]:
    """The checked config, the run's inputs that _inputs builds from it, and
    the SHA-256 of the bytes it was parsed from."""
    try:
        raw = Path(path).read_bytes()
        cfg = json.loads(raw.decode("utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"config file not readable: {path}: {exc.strerror}")
    except ValueError as exc:  # a JSONDecodeError, bad UTF-8, or an integer past 4300 digits
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
    return cfg, _inputs(cfg, reads), hashlib.sha256(raw).hexdigest()


def _inputs(cfg: dict, reads: tuple) -> dict:
    """The run's inputs: the config with each optional field it leaves out at
    its default, and each field that sets a library object as that object,
    built once: 'theta' and 'ray/direction' as Directions, 'C0' as the
    CutoffSpec and 'potential' as the Gaussian or g_beta's spec, which the
    runner synthesizes. Checks what the schema cannot express, before any work."""
    inputs = {**{f: d for f, d in _DEFAULTS.items() if f in reads}, **cfg}
    # beta chooses g_beta, else the Gaussian; a field of the other family
    # would be taken and ignored
    gbeta = "beta" in cfg
    for key in ("a",) if gbeta else ("grid", "bump_radius"):
        if key in cfg:
            raise ConfigError(f"invalid config at field '{key}': with{'' if gbeta else 'out'} "
                              f"'beta' the potential is {'g_beta' if gbeta else 'the Gaussian'}, "
                              "which does not read it")
    if "grid" in inputs:  # every experiment but bounds-table
        from .spectral import make_grid

        grid = make_grid(cfg["n"], inputs["grid"]["N"], inputs["grid"]["L"])
    # the Gaussian's amplitude must be a float
    if "a" in inputs and not gbeta:
        from .potentials import gaussian_potential

        with _field("a"):
            inputs["potential"] = gaussian_potential(inputs["a"], grid)
    vectors = {"theta": cfg.get("theta"), "ray/direction": cfg.get("ray", {}).get("direction")}
    for where, v in vectors.items():
        if v is None:
            continue
        from .geometry import Direction

        with _field(where):
            if len(v) != cfg["n"]:
                raise ValueError(f"length {len(v)} does not match n = {cfg['n']}")
            inputs[where] = Direction.normalized(v)
    if "C0" in inputs:
        from .dispersion import CutoffSpec

        inputs["C0"] = CutoffSpec(C0=inputs["C0"])
    # fit_decay needs 8 samples on a nonempty window, on a ray in D_theta
    if cfg["experiment"] == "lemma52":
        from .geometry import in_cone

        ray, a = cfg["ray"], inputs["cone_aperture"]
        for where, bad, why in (
            ("ray/count", ray["count"] < 8, f"needs at least 8 samples, got {ray['count']}"),
            ("ray/t_max", ray["t_max"] <= ray["t_min"], "must exceed t_min"),
            ("ray/direction", not in_cone(inputs["ray/direction"].components,
                                          inputs["theta"], a),
             f"the ray is outside the cone D_theta of aperture {a:g}"),
        ):
            if bad:
                raise ConfigError(f"invalid config at field '{where}': {why}")
    # gain_scan's radial plan and weights, which gain_scan checks after the synthesis
    if cfg["experiment"] == "gain-scan":
        from . import analysis

        with _field("levels"):
            radii = analysis.radial_plan(cfg["levels"], inputs["C0"])[0]
        for i, alpha in enumerate(cfg["alphas"]):
            with _field(f"alphas/{i}"):
                analysis.radial_weights(radii, alpha, cfg["n"])
    # Q_F carries the cutoff, which is 0 up to C0: every value at such an
    # eta_norm is 0, and their relative spread reads a perfect 0
    if cfg["experiment"] == "qfull-radial":
        t, c0 = cfg["eta_norm"], inputs["C0"].C0
        if t <= c0:
            raise ConfigError(
                f"invalid config at field 'eta_norm': Q_F is 0 up to C0 = {c0:g}, so "
                f"eta_norm must exceed C0, got {t:g}"
            )
    if gbeta:
        from .potentials import GBetaSpec, GridTooCoarseError

        N, cap = grid.samples_per_axis, _GBETA_MAX_N[cfg["n"]]
        if N > cap:
            raise ConfigError(f"invalid config at field 'grid/N': the g_beta synthesis "
                              f"in n = {cfg['n']} takes N up to {cap}, got {N}")
        try:
            inputs["potential"] = GBetaSpec(beta=cfg["beta"], bump_radius=inputs["bump_radius"],
                                            grid=grid)
        except GridTooCoarseError as exc:
            raise ConfigError(f"invalid config at field 'grid/N': {exc}")
        except ValueError as exc:
            raise ConfigError(f"invalid config at field 'bump_radius': {exc}")
    # off H_theta the chart has no k and B is 0
    if cfg["experiment"] == "dispersion-ray":
        from .geometry import in_half_space

        if not in_half_space(inputs["ray/direction"].components, inputs["theta"]):
            raise ConfigError("invalid config at field 'ray/direction': the ray is not in the "
                              "half space H_theta = {eta : eta.theta < 0}, off which B is 0")
    return inputs


@contextlib.contextmanager
def _field(where: str):
    """Refuse the config, naming the field, on a library rule's ValueError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid config at field '{where}': {exc}") from None


def _out_dir(cfg: dict) -> Path:
    out = Path(os.environ.get("BORN_DISPERSION_OUT", cfg["out_dir"]))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise ConfigError(f"output directory not made: {out}: {exc.strerror}")
    return out


def _potential(inputs: dict):
    """g_beta synthesized from the load step's spec, else the load step's Gaussian."""
    from .potentials import make_gbeta

    return make_gbeta(inputs["potential"]) if "beta" in inputs else inputs["potential"]


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
# Experiments. Each takes the run's inputs (see _inputs) and the output
# directory, and returns (exit_code, list of output filenames).


def _run_gbeta(inputs: dict, out: Path):
    q = _potential(inputs)
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


def _run_dispersion_ray(inputs: dict, out: Path):
    import numpy as np

    from . import dispersion

    q = _potential(inputs)
    ray, d = inputs["ray"], inputs["ray/direction"].components
    ts = np.geomspace(ray["t_min"], ray["t_max"], ray["count"])
    etas = [t * d for t in ts]
    ks, Bs = dispersion.dispersion_batch(q, inputs["theta"], etas, inputs["rule_level"])
    header = [f"eta_{i + 1}" for i in range(inputs["n"])] + [
        "k", "S_re", "S_im", "P_re", "P_im", "B_re", "B_im", "Q_re", "Q_im"]
    rows = []
    for eta, k, B in zip(etas, ks.tolist(), Bs.tolist()):
        # S = Im B / pi and P = Re B are real; Q = chi B
        Q = complex(dispersion.cutoff_chi(eta, inputs["C0"])) * B
        rows.append([*eta, k, B.imag / np.pi, 0.0, B.real, 0.0, B.real, B.imag, Q.real, Q.imag])
    _write_csv(out / "dispersion_ray.csv", header, rows)
    print(f"dispersion-ray: {len(rows)} samples along {d.tolist()}")
    return 0, ["dispersion_ray.csv"]


def _run_lemma52(inputs: dict, out: Path):
    from . import analysis

    q = _potential(inputs)
    ray = inputs["ray"]
    verdict, data = analysis.lemma52_check(
        q, inputs["beta"], inputs["theta"], inputs["cone_aperture"],
        (ray["t_min"], ray["t_max"]), inputs["rule_level"],
        direction=ray["direction"], samples=ray["count"],
    )
    _write_csv(out / "lemma52_samples.csv", ["t", "value"], data)
    _write_json(verdict.to_dict(), out / "lemma52_verdict.json")
    print(f"lemma52: pass = {verdict.passed}, {verdict.details}")
    return (0 if verdict.passed else 2), ["lemma52_samples.csv", "lemma52_verdict.json"]


def _run_gain_scan(inputs: dict, out: Path):
    from . import analysis

    q = _potential(inputs)
    scans = analysis.gain_scan(
        q, inputs["theta"], inputs["alphas"], inputs["levels"], inputs["C0"],
        rule_level=inputs["rule_level"],
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


def _run_qfull_radial(inputs: dict, out: Path):
    import numpy as np

    from . import dispersion
    from .geometry import sphere_rule

    n, t = inputs["n"], inputs["eta_norm"]
    q = _potential(inputs)
    theta_rule = sphere_rule(n, inputs["theta_rule_level"])
    rows = []
    for ang in inputs["angles_deg"]:
        rad = np.deg2rad(ang)
        eta = np.zeros(n)
        eta[0], eta[1] = t * np.cos(rad), t * np.sin(rad)
        val = dispersion.q_full2_hat(q, eta, theta_rule, inputs["rule_level"], inputs["C0"])
        rows.append({"angle_deg": ang, "re": val.real, "im": val.imag,
                     "abs": abs(val)})
    mags = [r["abs"] for r in rows]
    # where every value is 0 (q_hat underflows) there is no spread to read:
    # 0 would report perfect radiality
    spread = (max(mags) - min(mags)) / max(mags) if max(mags) > 0 else None
    _write_json({"eta_norm": t, "values": rows, "relative_spread": spread},
                out / "qfull_radial.json")
    print(f"qfull-radial: |eta| = {t}, " + (f"relative spread {spread:.3e}" if spread is not None
                                            else "every |Q_F| is 0, so no relative spread"))
    return 0, ["qfull_radial.json"]


def _run_bounds_table(inputs: dict, out: Path):
    from . import bounds

    def alpha_j(beta, j):
        # an empty field where beta is below the series' convergence threshold
        try:
            return bounds.alpha_j(n, beta, j)
        except bounds.OutOfRange:
            return None

    n = inputs["n"]
    rows = [[beta, bounds.m_threshold(n), bounds.alpha0(n, beta), bounds.thm11_max(n, beta),
             bounds.thm13_sup(n, beta), *(alpha_j(beta, j) for j in (2, 3, 4))]
            for beta in inputs["betas"]]
    header = ["beta", "m", "alpha0", "thm11_max", "thm13_sup",
              "alpha_2", "alpha_3", "alpha_4"]
    _write_csv(out / "bounds_table.csv", header, rows)
    print(f"bounds-table: n = {n}, {len(inputs['betas'])} beta values")
    return 0, ["bounds_table.csv"]


# One row per experiment: its runner, the fields it requires and the other
# fields it reads. The load step refuses a config that lacks a required field
# or holds a field its experiment does not read.
_EXPERIMENTS = {
    "gbeta": (_run_gbeta, ("n", "beta", "grid"), ("bump_radius",)),
    "dispersion-ray": (_run_dispersion_ray, ("n", "theta", "ray"),
                       ("beta", "grid", "bump_radius", "a", "rule_level", "C0")),
    "lemma52": (_run_lemma52, ("n", "beta", "grid", "theta", "ray"),
                ("bump_radius", "cone_aperture", "rule_level")),
    "gain-scan": (_run_gain_scan, ("n", "beta", "grid", "theta", "alphas", "levels"),
                  ("bump_radius", "rule_level", "C0")),
    "qfull-radial": (_run_qfull_radial, ("n", "eta_norm", "angles_deg"),
                     ("beta", "grid", "bump_radius", "a", "rule_level",
                      "theta_rule_level", "C0")),
    "bounds-table": (_run_bounds_table, ("n", "betas"), ()),
}

# The largest grid.N of a g_beta synthesis, per n. Its time grows about as
# N^3, and most at the widest bump that the grid admits (L/4); README gives
# the cost at each cap, which is at least twice the most that a config in the
# tests, demos, benchmark or README uses (256).
_GBETA_MAX_N = {2: 4096, 3: 512}

# The value of each optional field that a config leaves out
_DEFAULTS = {"grid": {"N": 128, "L": 16.0}, "bump_radius": 2.0, "a": 0.5, "C0": 2.0,
             "rule_level": 4, "theta_rule_level": 5, "cone_aperture": 0.5}

# The largest |eta| a config may ask for. A point that the half-space slack
# admits has k < |eta| / (16 eps), so the rule's (2k - e)(2k + e) stays finite
# below about 2.4e139; at 1e153 it overflows and Q_F reads NaN.
_MAX_ETA = 1e100
# The smallest |eta| of a ray. Below about 1.5e-154 eta.eta is subnormal and
# k loses digits, then 0, where the chart cannot normalize theta'; at 1e-100
# every value matches a run at 1e-140 to rounding.
_MIN_ETA = 1e-100

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
                "t_min": {"type": "number", "minimum": _MIN_ETA, "maximum": _MAX_ETA},
                "t_max": {"type": "number", "minimum": _MIN_ETA, "maximum": _MAX_ETA},
                "count": {"type": "integer", "minimum": 2, "maximum": 256},
            },
        },
        "alphas": {"type": "array", "items": {"type": "number"}, "minItems": 1,
                   "maxItems": 32},
        "levels": {"type": "array", "items": {"type": "number"}, "minItems": 3},
        "betas": {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
        "cone_aperture": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 1},
        "eta_norm": {"type": "number", "exclusiveMinimum": 0, "maximum": _MAX_ETA},
        "angles_deg": {"type": "array", "items": {"type": "number"},
                       "minItems": 1, "maxItems": 32},
        "out_dir": {"type": "string"},
    },
}


def run(config_path) -> int:
    try:
        cfg, inputs, digest = _load_config(config_path)
        out = _out_dir(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    start = time.monotonic()
    try:
        code, artifacts = _EXPERIMENTS[cfg["experiment"]][0](inputs, out)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        import traceback

        traceback.print_exc()
        # str(MemoryError()) is empty
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "experiment": cfg["experiment"],
        "config_sha256": digest,
        "package_version": __version__,
        # only a run that loaded numpy (all but bounds-table) names its version
        "numpy_version": getattr(sys.modules.get("numpy"), "__version__", None),
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; 2 is a failed verdict here
        return 1 if exc.code else 0
    return run(args.config)


if __name__ == "__main__":
    sys.exit(main())

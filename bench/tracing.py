"""Span tracing of one ``borndisp`` CLI run, installed from outside the program.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/tracing.py --stats OUT.json --seed N -- CONFIG [--threads K]

Every public function of the layer modules (spectral, potentials, geometry,
dispersion, analysis) and ``cli.run`` is replaced, at each module attribute
that refers to it, by a wrapper that records a span: name, parent span in the
same thread, start and end. Each potential's ``fourier_eval`` closure is
wrapped when the potential is built. Spans stay in memory; when the run ends
they are reduced to per-name counts and times and written to OUT.json.

A span's self time is its duration minus the durations of its child spans in
the same thread; work handed to other threads appears there as root spans.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import random
import sys
import threading
import time

import numpy as np

from workloads import tail_exponent

LAYERS = ("spectral", "potentials", "geometry", "dispersion", "analysis")
PATCHED_MODULES = LAYERS + ("cli",)
# Span of each potential's q-hat evaluator, wrapped per instance.
FOURIER_EVAL = "potentials.fourier_eval"

# b_theta2 calls compared with oracle.brute_b_theta2 per operation.
ORACLE_SAMPLES = 3

# Span record fields.
NAME, PARENT, T0, T1, CHILD, POINTS = range(6)


class Recorder:
    """Spans of one process, one list per thread."""

    def __init__(self):
        self._local = threading.local()
        self.threads: list[list] = []
        self.enabled = True
        # labels ("<span name>.points" or ".after") of hooks that raised
        self.hook_failed: set[str] = set()

    def _spans(self) -> list:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            self.threads.append(spans)  # list.append is atomic
        return spans

    def wrap(self, fn, name: str, points=None, after=None):
        """Wrapper that records a span around fn. ``points(args, kwargs)``
        gives the span's work count; ``after(args, kwargs, result)`` runs
        outside the span once fn returns."""
        perf = time.perf_counter
        probe = self._probe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans = self._spans()
            stack = self._local.stack
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0, 0.0,
                    probe(points, f"{name}.points", args, kwargs) or 0 if points else 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[T0] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[T1] = end = perf()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[T0]
                stack.pop()
            if after is not None:
                probe(after, f"{name}.after", args, kwargs, result)
            return result

        traced.__bench_name__ = name
        return traced

    def _probe(self, fn, label: str, *args):
        """Run a counting hook. A hook that no longer fits the function it
        watches does not break the run: its label goes to ``hook_failed``,
        and the metrics that depend on it are left out."""
        try:
            return fn(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            self.hook_failed.add(label)
            return None


def _fourier_eval_points(args, kwargs) -> int:
    xi = np.asarray(args[0])
    return xi.size // xi.shape[-1] if xi.ndim else 1


def _fourier_bytes(args, kwargs) -> int:
    return 16 * int(args[0].samples.size)  # complex128 output array


def _useful(args, kwargs) -> int:
    theta, eta = args[1], np.asarray(args[2], dtype=float)
    return int(float(eta @ theta.components) < 0)


class Tracer:
    """Installs the wrappers and reduces the spans to per-name statistics."""

    def __init__(self, seed: int):
        self.rec = Recorder()
        self.values: dict[str, float] = {}
        self.installed: list[str] = []
        self._rng = random.Random(seed)
        self._b_calls: list = []
        self._b_seen = 0

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        mods = {m: importlib.import_module(f"borndisp.{m}") for m in PATCHED_MODULES}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self.rec.wrap(fn, name, **self._hooks(name))
        run = getattr(mods["cli"], "run", None)
        if inspect.isfunction(run):
            wrappers[run] = self.rec.wrap(run, "cli.run")
        self.installed = sorted(w.__bench_name__ for w in wrappers.values())
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _hooks(self, name: str) -> dict:
        if name == "spectral.fourier":
            return {"points": _fourier_bytes}
        if name == "potentials.make_gbeta":
            return {"after": self._after_gbeta}
        if name == "potentials.gaussian_potential":
            return {"after": self._wrap_fourier_eval}
        if name == "dispersion.b_theta2":
            return {"points": _useful, "after": self._after_b_theta2}
        return {}

    def _wrap_fourier_eval(self, args, kwargs, q) -> None:
        fe = q.fourier_eval
        if hasattr(fe, "__bench_name__"):
            return
        # object.__setattr__ also reaches a frozen dataclass
        object.__setattr__(q, "fourier_eval",
                           self.rec.wrap(fe, FOURIER_EVAL, points=_fourier_eval_points))
        if FOURIER_EVAL not in self.installed:
            self.installed.append(FOURIER_EVAL)

    def _after_gbeta(self, args, kwargs, q) -> None:
        self._wrap_fourier_eval(args, kwargs, q)
        profile = q.fourier_profile
        exponent = tail_exponent(np.asarray(profile.radii), np.asarray(profile.values))
        self.values["potentials.make_gbeta.tail_exp_err"] = abs(
            exponent + (q.dimension / 2.0 + q.meta["beta"]))

    def _after_b_theta2(self, args, kwargs, result) -> None:
        q, theta, eta = args[0], args[1], np.asarray(args[2], dtype=float)
        if not (getattr(q, "analytic_fourier", False) and eta.shape == (2,)
                and float(eta @ theta.components) < 0):
            return
        # reservoir sample of the useful n = 2 analytic calls
        self._b_seen += 1
        item = (q, theta, eta.copy(), complex(result))
        if len(self._b_calls) < ORACLE_SAMPLES:
            self._b_calls.append(item)
        else:
            j = self._rng.randrange(self._b_seen)
            if j < ORACLE_SAMPLES:
                self._b_calls[j] = item

    # -- checks run after the traced work --------------------------------
    def oracle_checks(self) -> None:
        """Accuracy figures for the layers, computed outside every span."""
        self.rec.enabled = False
        start = time.perf_counter()
        oracle = importlib.import_module("borndisp.oracle")
        if self._b_calls:
            self.values["dispersion.b_theta2.rel_err_oracle"] = max(
                abs(val - oracle.brute_b_theta2(q, theta, eta)) / abs(val)
                for q, theta, eta, val in self._b_calls)
        self.values["dispersion.principal_value_op.err_e1"] = _pv_e1_error(oracle)
        self.values["oracle.ref_s"] = time.perf_counter() - start

    # -- reduction ----------------------------------------------------------
    def stats(self) -> dict:
        per = {}
        for spans in self.rec.threads:
            for s in spans:
                a = per.setdefault(s[NAME], {"calls": 0, "dur_s": 0.0, "self_s": 0.0,
                                             "points": 0})
                dur = s[T1] - s[T0]
                a["calls"] += 1
                a["dur_s"] += dur
                a["self_s"] += dur - s[CHILD]
                a["points"] += s[POINTS]
        return {"names": per, "nested": self._nested(),
                "values": self.values, "installed": self.installed,
                "hook_failed": sorted(self.rec.hook_failed),
                "spans": sum(len(s) for s in self.rec.threads)}

    def _nested(self) -> dict:
        """Counts of spans with a given ancestor, for the ratios measured
        where the work happens."""
        pairs = {("dispersion.spherical_op", "dispersion.principal_value_op"): 0,
                 ("dispersion.q_theta2_hat", "analysis.gain_scan"): 0}
        for spans in self.rec.threads:
            for s in spans:
                for (child, ancestor) in pairs:
                    if s[NAME] != child:
                        continue
                    p = s[PARENT]
                    while p >= 0 and spans[p][NAME] != ancestor:
                        p = spans[p][PARENT]
                    if p >= 0:
                        pairs[(child, ancestor)] += 1
        return {f"{c}<{a}": n for (c, a), n in pairs.items()}


def _pv_e1_error(oracle) -> float:
    """principal_value_op at its default parameters on exp(-(1-r)^2), whose
    p.v. integral over (0, infinity) is -E1(1)/2."""
    disp = importlib.import_module("borndisp.dispersion")
    target = -0.5 * oracle.exp1_series(1.0)
    provider = lambda r: np.exp(-((1.0 - r) ** 2))  # noqa: E731
    pv = inspect.unwrap(disp.principal_value_op)
    try:
        value = pv(provider, 1.0, disp.PVParams())
    except TypeError:
        value = pv(provider, disp.PVParams())
    return abs(complex(value).real - target) / abs(target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write the span statistics")
    parser.add_argument("--seed", type=int, default=0, help="seed of the oracle sampling")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments of the borndisp CLI, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.seed)
    tracer.install()
    cli = importlib.import_module("borndisp.cli")
    code = cli.main(cli_args)
    if code == 0:
        tracer.oracle_checks()
    with open(args.stats, "w") as fh:
        json.dump(tracer.stats(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

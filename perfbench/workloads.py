"""The benchmark's four workloads: seeded inputs, the task each input drives
through the package, and the checks applied to every output.

Each workload is a list of tasks that one pass runs in order.  Tasks marked
``panel`` have the same inputs for every seed; the end-to-end ``err_max`` is
taken over them only, so that it compares across seeds (the error of a
random input set is heavy-tailed).  The seeded tasks feed the timings, the
checks and the per-layer error metrics.

Why these workloads (each puts a different layer at the top of the profile):

* certify    -- the README's CLI certificates, the same for every seed;
                eigensolver.lambda1 on stiff 201-cell spike trains, plus the
                only use of cli and jsonio.
* crosscheck -- random step potentials, half with point masses, solved by
                shooting and by the finite-element oracle, which dominates.
* search     -- coordinate search at the iteration counts its callers use
                (500 in max mode, 150 in min mode): hundreds of warm-started
                small solves.
* limits     -- norms and negative-norm distances of the singular families;
                potentials and sobolev at the top, no eigensolver at all.

The exact references (exact.py, which loads scipy.optimize) are imported by
the Checker only, so that the timed set-up does not pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import contextlib
import hashlib
import io
import json
import math

import numpy as np

__all__ = ["Task", "WORKLOADS", "CRITERIA", "build", "run_task", "Checker"]

CRITERIA = {
    "certify": ["05", "06"],
    "crosscheck": ["03"],
    "search": ["11"],
    "limits": ["01", "07", "09"],
}

FD_NODES = 4096
# max_iters of the package's own search callers: the README and acceptance
# criterion 11 run max mode for 500 iterations, criterion 11 and demos/06
# run min mode for 150
SEARCH_ITERS = {"max": 500, "min": 150}
CROSS_SEEDED = 10
SPIKE_NS = [10**k for k in range(2, 7)]
LADDER = [0.5 * k for k in range(-6, 7)]  # p in [-3, 3], p = 0 included
TRAIN_GRID = 2**17
TRAIN_MS = (10**2, 10**3, 10**4)
README_Q = ([0.0, 0.2, 0.7, 1.0], [8.0, 1.0, 3.0])
# (gamma, rho*, spike height) for statement-2 trains over the floor 0.1: the
# heights verify_thm1 picks at the README's certificate levels (the `height`
# of its details), for any spike count.  A train's norm budget only shrinks
# as rho* drops, so each height also serves every level below its rho*.
TRAINS = [(0.5, 10.0, 1e5), (0.5, 100.0, 1e9), (0.5, 1000.0, 1e13),
          (0.25, 10.0, 1e3), (0.25, 100.0, 1e6), (0.25, 1000.0, 1e9),
          (-1.0, 10.0, 1e3), (-1.0, 100.0, 1e5), (-1.0, 1000.0, 1e7)]


@dataclass
class Task:
    kind: str
    params: dict  # plain data: the digest and the checks read it
    panel: bool
    inp: dict = field(default_factory=dict, repr=False)  # package objects


# --- input generation ---------------------------------------------------------

def _random_step(rng, max_height=50.0, max_cells=10, min_height=0.0, cells=None):
    """The distribution of tests/conftest.py::random_step (or a fixed cell count)."""
    k = int(rng.integers(2, max_cells + 1)) if cells is None else cells
    inner = np.sort(rng.uniform(0.02, 0.98, size=k - 1))
    bps = [0.0] + [float(x) for x in inner] + [1.0]
    return bps, [float(h) for h in rng.uniform(min_height, max_height, size=k)]


def _certify(rng):
    tasks = []
    for gamma in ("0.5", "0.25", "-1"):
        for rho in ("10", "100", "1000"):
            argv = ["verify-thm1", "--gamma", gamma, "--k0sq", "0", "--k1sq", "0",
                    "--rho", rho, "--format", "json"]
            tasks.append(Task("thm1", {"argv": argv, "gamma": float(gamma),
                                       "rho": float(rho), "bc": [0.0, 0.0]}, True))
    ns = ",".join(str(10**k) for k in range(1, 8))
    for gamma in ("2", "1.5"):
        argv = ["verify-thm2", "--gamma", gamma, "--k0sq", "1", "--k1sq", "1",
                "--n", ns, "--format", "json"]
        tasks.append(Task("thm2", {"argv": argv, "gamma": float(gamma),
                                   "bc": [1.0, 1.0]}, True))
    return tasks


def _crosscheck(rng):
    bps, hs = README_Q
    # Panel: the README potential alone, and with the largest point mass the
    # workload draws, halfway between two oracle nodes.
    tasks = [
        Task("cross", {"bps": bps, "hs": hs, "deltas": [], "bc": [1.0, 4.0]}, True),
        Task("cross", {"bps": bps, "hs": hs, "deltas": [[0.5, 10.0]], "bc": [1.0, 4.0]}, True),
    ]
    for i in range(CROSS_SEEDED):
        bps, hs = _random_step(rng)
        bc = [float(rng.uniform(0, 10)), float(rng.uniform(0, 10))]
        deltas = []
        if i % 2:
            deltas = [[float(rng.uniform(0, 1)), float(rng.uniform(0.1, 10))]
                      for _ in range(int(rng.integers(1, 4)))]
        tasks.append(Task("cross", {"bps": bps, "hs": hs, "deltas": deltas, "bc": bc}, False))
    return tasks


def _search_task(mode, start, cap, panel):
    if mode == "max":
        params = {"mode": "max", "gamma": 2.0, "cells": 8, "bc": [1.0, 1.0],
                  "step_init": 1.0, "cap": None}
    else:
        params = {"mode": "min", "gamma": 0.5, "cells": 16, "bc": [0.0, 0.0],
                  "step_init": 2.0, "cap": cap}
    params.update(iters=SEARCH_ITERS[mode], start=start)
    return Task("search", params, panel)


def _search(rng):
    def start(cells):
        return _random_step(rng, max_height=5.0, min_height=0.2, cells=cells)

    return [
        _search_task("max", None, None, True),
        _search_task("min", None, 32.0, True),
        _search_task("max", start(8), None, False),
        _search_task("min", start(16), float(rng.choice([8.0, 16.0, 32.0])), False),
    ]


def _train_task(m, gamma, rho, height, panel):
    nu = 0.5 * (max(gamma, 0.0) + 1.0)  # verify_thm1's default
    return Task("train", {"rho": rho, "floor": 0.1, "m": m, "gamma": gamma, "nu": nu,
                          "height": height, "grid": TRAIN_GRID}, panel)


def _limits(rng):
    # Panel: criterion 07's spike at zeta = 0.5 against the unit point mass,
    # and one train per spike count at the README's top level rho* = 1000.
    tasks = [Task("spike_delta", {"zeta": 0.5, "gamma": 0.25, "n": n, "grid": 2 ** (16 + i)}, True)
             for i, n in enumerate(SPIKE_NS)]
    top = [t for t in TRAINS if t[1] == 1000.0]
    tasks += [_train_task(m, *t, True) for m, t in zip(TRAIN_MS, top)]
    zetas = 0.1 + 0.2 * (np.arange(4) + rng.uniform(0, 1, size=4))  # one per stratum
    rng.shuffle(zetas)
    for i, n in enumerate(SPIKE_NS[:-1]):
        tasks.append(Task("spike_pair", {"zeta": float(zetas[i]),
                                         "gamma": float(rng.choice([0.25, 0.5, 0.75])),
                                         "n": n, "m": 10 * n, "grid": 2 ** (14 + i)}, False))
    for m in TRAIN_MS:
        gamma, rho, height = TRAINS[int(rng.integers(len(TRAINS)))]
        tasks.append(_train_task(m, gamma, rho * 10.0 ** -rng.uniform(0, 1), height, False))
    return tasks


WORKLOADS = {"certify": _certify, "crosscheck": _crosscheck, "search": _search,
             "limits": _limits}


def build(name, seed, lib):
    """Generate the workload's tasks from ``seed`` and build the package
    objects each task passes in.

    The order is fixed, panel tasks first: a task's time depends on what ran
    before it (the limits tasks by up to a third), so a seeded order would
    move the per-task times from seed to seed.
    """
    rng = np.random.default_rng(seed)
    tasks = WORKLOADS[name](rng)
    for t in tasks:
        p = t.params
        if t.kind == "cross":
            t.inp = {"q": lib.Potential(lib.StepPotential(p["bps"], p["hs"]),
                                        [tuple(d) for d in p["deltas"]]),
                     "bc": lib.RobinBC(*p["bc"])}
        elif t.kind == "search":
            start = None if p["start"] is None else lib.StepPotential(*p["start"])
            spec = lib.ExtremumSearchSpec(
                gamma=p["gamma"], mode=p["mode"], cells=p["cells"], max_iters=p["iters"],
                step_init=p["step_init"],
                height_cap=math.inf if p["cap"] is None else p["cap"], start=start)
            t.inp = {"spec": spec, "bc": lib.RobinBC(*p["bc"])}
        elif t.kind == "spike_delta":
            t.inp = {"delta": lib.Potential.pure_delta(p["zeta"], 1.0)}
        elif t.kind == "train":
            t.inp = {"spec": lib.SpikeTrainSpec(p["rho"], p["floor"], p["m"], p["height"], p["nu"])}
    return tasks


# --- running a task -------------------------------------------------------------

def run_task(task, api):
    """Drive one task through ``api`` and return its outputs."""
    p, inp = task.params, task.inp
    if task.kind in ("thm1", "thm2"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli_main(list(p["argv"]))
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if task.kind == "cross":
        return {"shoot": api.lambda1(inp["q"], inp["bc"]).lambda1,
                "fem": api.lambda1_fd(inp["q"], inp["bc"], FD_NODES)}
    if task.kind == "search":
        return {"result": api.search_extremum(inp["spec"], inp["bc"])}
    if task.kind == "spike_delta":
        q, _ = api.statement1_family(p["zeta"], p["n"], p["gamma"])
        return {"norms": [api.pnorm(q, p["gamma"])],
                "dist": api.wminus1_dist(q, inp["delta"], p["grid"])}
    if task.kind == "spike_pair":
        qa, _ = api.statement1_family(p["zeta"], p["n"], p["gamma"])
        qb, _ = api.statement1_family(p["zeta"], p["m"], p["gamma"])
        return {"norms": [api.pnorm(qa, p["gamma"]), api.pnorm(qb, p["gamma"])],
                "dist": api.wminus1_dist(qa, qb, p["grid"])}
    if task.kind == "train":
        q, kappa = api.statement2_family(inp["spec"], p["gamma"])
        ladder = [api.pnorm(q, x) for x in LADDER]
        level = api.StepPotential.constant(p["rho"] / kappa)
        return {"q": q, "kappa": kappa, "ladder": ladder,
                "dist": api.wminus1_dist(q, level, p["grid"])}
    raise ValueError(f"unknown task kind {task.kind}")


# --- checks ---------------------------------------------------------------------

def eig_err(value, ref):
    return abs(value - ref) / max(1.0, abs(ref))


def norm_err(value, ref):
    """Norms are scale quantities, often far below 1: compare relatively."""
    return abs(value - ref) / abs(ref)


def step_data(q):
    """(breakpoints, heights, deltas) of a StepPotential or Potential."""
    step = getattr(q, "step", q)
    deltas = [(d.site, d.weight) for d in getattr(q, "deltas", ())]
    return list(step.breakpoints), list(step.heights), deltas


def _key(*parts):
    """A compact memo key: potentials can have 20 001 cells."""
    digest = hashlib.sha1()
    for part in parts:
        digest.update(np.asarray(part, dtype=float).tobytes())
        digest.update(b"|")
    return digest.digest()


class Checker:
    """Exact references, memoised, and the per-task checks.

    ``check`` returns (failures, errors): failures are broken checks, errors
    are (label, relative error) pairs against exact references.
    """

    def __init__(self, lib, validator):
        import exact

        self.exact = exact
        self.lib = lib
        self.validator = validator
        self._lam = {}
        self._norm = {}

    def lam(self, bps, hs, deltas, k0sq, k1sq):
        key = _key(bps, hs, deltas, [k0sq, k1sq])
        if key not in self._lam:
            self._lam[key] = self.exact.lambda1(bps, hs, deltas, k0sq, k1sq)
        return self._lam[key]

    def lam0(self, bc):
        return self.lam([0.0, 1.0], [0.0], [], *bc)

    def norm(self, bps, hs, p):
        key = _key(bps, hs, [p])
        if key not in self._norm:
            self._norm[key] = self.exact.pnorm_fsum(bps, hs, p)
        return self._norm[key]

    def check(self, task, out):
        return getattr(self, "_" + task.kind)(task.params, out)

    def _cli_doc(self, out, fails):
        if out["code"] != 0 or out["stderr"]:
            fails.append(f"exit {out['code']}: {out['stderr'].strip()}")
            return None
        doc = json.loads(out["stdout"])
        if not self.validator.is_valid(doc):
            fails.append("output does not match schemas/cli-output.schema.json")
        return doc

    def _thm1(self, p, out):
        fails, errs = [], []
        doc = self._cli_doc(out, fails)
        if doc is None:
            return fails, errs
        (row,), (detail,) = doc["rows"], doc["details"]
        gamma, rho = p["gamma"], p["rho"]
        lam0 = self.lam0(p["bc"])
        spec = self.lib.SpikeTrainSpec(rho, 0.1, detail["spikes"], detail["height"], detail["nu"])
        q, _ = self.lib.statement2_family(spec, gamma)
        bps, hs, _ = step_data(q)
        membership = abs(self.norm(bps, hs, gamma) - 1.0)
        if membership > 1e-10 or detail["gamma_norm_error"] > 1e-10:
            fails.append(f"A_gamma membership off by {membership:.3e}")
        if not row["lambda1"] <= lam0 - rho + 0.5 * rho:
            fails.append(f"lambda1 {row['lambda1']!r} above the certified bound at rho* {rho}")
        errs.append(("lambda1", eig_err(row["lambda1"], self.lam(bps, hs, [], *p["bc"]))))
        errs.append(("reference", eig_err(row["reference"], lam0 - rho)))
        return fails, errs

    def _thm2(self, p, out):
        fails, errs = [], []
        doc = self._cli_doc(out, fails)
        if doc is None:
            return fails, errs
        lam0 = self.lam0(p["bc"])
        for row in doc["rows"]:
            n = row["n_or_rho"]
            if not row["lambda1"] <= lam0:
                fails.append(f"lambda1 {row['lambda1']!r} above lambda1(0) at n = {n}")
            ref = self.lam([0.0, 1.0 / n, 1.0], [n ** (1.0 / p["gamma"]), 0.0], [], *p["bc"])
            errs.append(("lambda1", eig_err(row["lambda1"], ref)))
            errs.append(("reference", eig_err(row["reference"], lam0)))
        return fails, errs

    def _cross(self, p, out):
        fails = []
        ref = self.lam(p["bps"], p["hs"], p["deltas"], *p["bc"])
        shoot, fem = out["shoot"], out["fem"]
        if not (math.isfinite(shoot) and math.isfinite(fem)):
            fails.append("non-finite eigenvalue")
        elif not p["deltas"] and abs(shoot - fem) > 1e-4:
            fails.append(f"|shoot - fem| = {abs(shoot - fem):.3e} > 1e-4")
        return fails, [("shoot", eig_err(shoot, ref)), ("fem", eig_err(fem, ref))]

    def _search(self, p, out):
        fails = []
        res = out["result"]
        bps, hs, _ = step_data(res.best_q)
        if p["mode"] == "max":
            lam0 = self.lam0(p["bc"])
            if any(not v <= lam0 for _, v in res.trace):
                fails.append("max-mode search went above lambda1(0)")
        membership = abs(self.norm(bps, hs, p["gamma"]) - 1.0)
        if membership > 1e-10:
            fails.append(f"A_gamma membership off by {membership:.3e}")
        ref = self.lam(bps, hs, [], *p["bc"])
        return fails, [("best_lambda", eig_err(res.best_lambda, ref))]

    def _spikes(self, p, out, ns):
        fails, errs = [], []
        gamma = p["gamma"]
        for n, value in zip(ns, out["norms"]):
            errs.append(("spike_norm", norm_err(value, float(n) ** ((gamma - 1.0) / gamma))))
        envelope = math.sqrt(1.0 / min(ns)) + 2.0 / p["grid"]
        if not 0.0 <= out["dist"] <= envelope:
            fails.append(f"W^-1 distance {out['dist']!r} outside the envelope {envelope!r}")
        return fails, errs

    def _spike_delta(self, p, out):
        return self._spikes(p, out, [p["n"]])

    def _spike_pair(self, p, out):
        return self._spikes(p, out, [p["n"], p["m"]])

    def _train(self, p, out):
        fails, errs = [], []
        bps, hs, _ = step_data(out["q"])
        membership = abs(self.norm(bps, hs, p["gamma"]) - 1.0)
        if membership > 1e-10:
            fails.append(f"A_gamma membership off by {membership:.3e}")
        ladder = out["ladder"]
        if any(not a <= b * (1.0 + 1e-12) for a, b in zip(ladder, ladder[1:])):
            fails.append("norm family not monotone in p")
        for x, value in zip(LADDER, ladder):
            errs.append(("pnorm", norm_err(value, self.norm(bps, hs, x))))
        if not (math.isfinite(out["dist"]) and out["dist"] >= 0.0):
            fails.append(f"W^-1 distance to the level is {out['dist']!r}")
        return fails, errs

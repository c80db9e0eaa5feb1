"""The benchmark's three workloads on the packaged 39-bus case.

Each workload makes its inputs from a seed (``setup``), runs one round of
its job through gridfreq's public functions (``job``), and checks the
round's outputs against computations written here in plain NumPy or against
properties the method must have (``check``).  The size of a round follows
the run length in seconds, so ``--seconds 1`` gives a tiny run.

Workloads call gridfreq through module attributes (``dynamics.simulate``)
at call time, so a tracer that swaps those attributes sees every call.
"""

from __future__ import annotations

import json
import os
import time
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np

from gridfreq import (cli, controller, costs as costs_mod, dynamics,
                      equilibrium, lyapunov, network, training)

MODULES = (network, costs_mod, controller, equilibrium, dynamics, lyapunov,
           training, cli)

H = 5e-4                   # integration step (s) of sim39 and train39
D = 20                     # hidden pairs per controller
BATCH = 64                 # TrainConfig's default batch size
COMM_Q = 50.0              # communication weight on every line
DEFAULT_BUSES = (13, 21, 27)
LOSS_PU = -3.0             # generation lost at each disturbed bus
FD_EPS = 1e-7              # step of the directional finite difference
FD_TOL = 1e-3              # agreement, as a share of |grad J|_2
SVG_NS = "{http://www.w3.org/2000/svg}"


class OpFailed(RuntimeError):
    """A program call returned a failure instead of raising one."""


class Round:
    """Times and counts the program calls of one round."""

    def __init__(self):
        self.seconds = 0.0
        self.done = 0

    def call(self, fn, *args, expect=None, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds += time.perf_counter() - t0
        if expect is not None and not expect(out):
            raise OpFailed(f"{fn.__name__} returned {out!r}")
        self.done += 1
        return out


# --------------------------------------------------------------------------
# shared inputs
# --------------------------------------------------------------------------

def case39_doc():
    """The packaged 39-bus case with weight COMM_Q on every line's comm edge."""
    doc = json.loads((resources.files("gridfreq") / "data" / "case39.json").read_text())
    doc["comm"] = [{"i": ln["i"], "j": ln["j"], "Q": COMM_Q} for ln in doc["lines"]]
    return doc


def disturbance_buses(ids, rng, seed):
    """DEFAULT_BUSES for seed 0, else three distinct buses drawn from rng."""
    if seed == 0:
        return DEFAULT_BUSES
    return tuple(int(b) for b in rng.choice(ids, 3, replace=False))


class DenseCase:
    """Dense matrices of the case, built from the network document alone."""

    def __init__(self, doc):
        ids = sorted(b["id"] for b in doc["buses"])
        index = {b: k for k, b in enumerate(ids)}
        by_id = {b["id"]: b for b in doc["buses"]}
        n = len(ids)
        v = np.array([by_id[b].get("v", 1.0) for b in ids])
        w = np.zeros((n, n))
        for ln in doc["lines"]:
            i, j = index[ln["i"]], index[ln["j"]]
            w[i, j] = w[j, i] = v[i] * v[j] * ln["B"]
        self.n = n
        self.w = w                                   # v_i v_j B_ij
        self.alpha = np.array([by_id[b]["alpha"] for b in ids])
        self.m = np.array([by_id[b].get("m", dynamics.DEFAULT_LOAD_INERTIA)
                           for b in ids])            # primary-mode inertia

    def flows(self, delta):
        """sum_j w_ij sin(delta_i - delta_j)."""
        return np.sum(self.w * np.sin(delta[:, None] - delta[None, :]), axis=1)

    def jacobian(self, delta):
        """Weighted Laplacian with off-diagonals -w_ij cos(delta_i - delta_j)."""
        h = -self.w * np.cos(delta[:, None] - delta[None, :])
        np.fill_diagonal(h, 0.0)
        np.fill_diagonal(h, -h.sum(axis=1))
        return h

    def q_matrix(self, delta, eps):
        """The 2n x 2n matrix of the primary-mode decrease form."""
        n = self.n
        dmat = np.diag(self.alpha)
        hm = self.jacobian(delta) * self.m
        q = np.empty((2 * n, 2 * n))
        q[:n, :n] = eps * np.eye(n)
        q[:n, n:] = q[n:, :n] = 0.5 * eps * dmat
        q[n:, n:] = dmat - 0.5 * eps * (hm + hm.T)
        return q


def _network(tmpdir):
    doc = case39_doc()
    path = os.path.join(tmpdir, "case39_q50.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc, network.load_network(path)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Sim39:
    """Simulate one disturbance, solve and check the equilibrium, score and
    certify W, write and read the CSV, plot the frequencies."""

    name = "sim39"
    ops_per_round = 7
    reference = "interp"
    work_unit = "trajectory steps"

    def __init__(self, seed, seconds, tmpdir):
        self.seed, self.tmpdir = seed, tmpdir
        self.steps = 10 * seconds

    def setup(self):
        self.doc, self.net = _network(self.tmpdir)
        net = self.net
        rng = np.random.default_rng(self.seed)
        self.costs = costs_mod.random_power_costs(net.n, rng, r=4)
        self.params = controller.transform_params(controller.init_raw_params(net.n, D, rng))
        self.buses = disturbance_buses(net.ids, rng, self.seed)
        self.p = np.zeros(net.n)
        for b in self.buses:
            self.p[net.index_of(b)] = LOSS_PU
        self.scenario = dynamics.Scenario(p=self.p, T=self.steps * H, h=H)
        self.csv = os.path.join(self.tmpdir, "trajectory.csv")

    def pre_check(self):
        return []

    def work_per_round(self):
        return self.steps

    def job(self, rnd):
        net, costs, params = self.net, self.costs, self.params
        traj = rnd.call(dynamics.simulate, self.scenario, net, costs, params,
                        stepper=dynamics.rk4_step)
        eq = rnd.call(equilibrium.solve_equilibrium, net, costs, params, self.p)
        traj.W = rnd.call(lyapunov.lyap_W, net, params,
                          (traj.delta, traj.omega, traj.s), eq)
        report = rnd.call(lyapunov.certify_trajectory, traj, net, costs, params, eq)
        rnd.call(dynamics.write_csv, traj, self.csv)
        back = rnd.call(dynamics.read_csv, self.csv)
        rnd.call(cli.main, ["plot", "--traj", self.csv, "--cols", "omega",
                            "--out", "omega.svg", "--outdir", self.tmpdir],
                 expect=lambda code: code == 0)
        return {"traj": traj, "eq": eq, "report": report, "back": back}

    def check(self, out):
        bad = []
        traj, eq, report, back = out["traj"], out["eq"], out["report"], out["back"]
        if not report.passed:
            bad.append(f"certify_trajectory failed: {report.failures}")
        if not traj.W[-1] < traj.W[0]:
            bad.append("W(T) >= W(0)")
        dense = DenseCase(self.doc)
        mc = self.costs.c * eq.u_star ** 3
        if np.ptp(mc) > 1e-9 * np.max(np.abs(mc)):
            bad.append(f"marginal costs differ by {np.ptp(mc):.3e}")
        if abs(self.p.sum() + eq.u_star.sum()) > 1e-9:
            bad.append("sum p + sum u* != 0")
        res = np.max(np.abs(dense.flows(eq.delta_star) - (self.p + eq.u_star)))
        if res >= 1e-9:
            bad.append(f"flow residual {res:.3e}")
        for col in ("t", "omega", "s", "u", "mc", "W"):
            if not np.array_equal(getattr(traj, col), getattr(back, col)):
                bad.append(f"read_csv column {col} differs from the written one")
        root = ET.parse(os.path.join(self.tmpdir, "omega.svg")).getroot()
        lines = list(root.iter(SVG_NS + "polyline"))
        if len(lines) != self.net.n:
            bad.append(f"SVG has {len(lines)} polylines, want {self.net.n}")
        elif any(len(pl.get("points").split()) != len(traj.t) for pl in lines):
            bad.append("SVG polyline point count differs from the trajectory")
        return bad

    def counts(self, out):
        return {"sim_steps": self.steps, "csv_rows": self.steps + 1,
                "csv_mb": os.path.getsize(self.csv) / 1e6}


class Train39:
    """Train d = 20 controllers on B = 64 seeded disturbances."""

    name = "train39"
    ops_per_round = 1
    reference = "array"
    epochs = 1
    work_unit = "scenario-steps"

    def __init__(self, seed, seconds, tmpdir):
        self.seed, self.tmpdir = seed, tmpdir
        # horizon of seconds / 120 s: 0.25 s (500 steps) at --seconds 30, where
        # the tape and the adjoint arrays outweigh the interpreter and its
        # imports, and a run still holds a dozen rounds for a steady median
        self.steps = round(seconds / 120 / H)

    def setup(self):
        self.doc, self.net = _network(self.tmpdir)
        rng = np.random.default_rng(self.seed)
        self.costs = costs_mod.random_power_costs(self.net.n, rng, r=4)
        self.cfg = training.TrainConfig(d=D, h=H, T=self.steps * H,
                                        batch_size=BATCH, epochs=self.epochs,
                                        seed=self.seed)

    def pre_check(self):
        """Directional central finite difference of rollout_loss against the
        analytic gradient, at a seeded point, batch and direction."""
        net, costs, cfg = self.net, self.costs, self.cfg
        fields = ("mu_plus", "mu_minus", "chi_plus", "chi_minus")
        raw = controller.init_raw_params(net.n, D, np.random.default_rng([self.seed, 1]))
        p = np.random.default_rng([self.seed, 2]).uniform(cfg.p_lo, cfg.p_hi, (BATCH, net.n))
        drng = np.random.default_rng([self.seed, 3])
        v = {f: drng.standard_normal(getattr(raw, f).shape) for f in fields}
        _, tape = training.rollout_loss(net, costs, raw, p, cfg)
        self.tape_mb = (tape.theta.nbytes + tape.omega_g.nbytes + tape.s.nbytes) / 1e6
        grad = training.backprop(tape, net, costs)
        analytic = sum(float(np.sum(getattr(grad, f) * v[f])) for f in fields)
        gnorm = float(np.sqrt(sum(np.sum(getattr(grad, f) ** 2) for f in fields)))

        def loss_at(sign):
            moved = controller.RawParams(**{f: getattr(raw, f) + sign * FD_EPS * v[f]
                                            for f in fields})
            return training.rollout_loss(net, costs, moved, p, cfg)[0]

        fd = (loss_at(1.0) - loss_at(-1.0)) / (2 * FD_EPS)
        self.fd_error = abs(fd - analytic) / gnorm
        if not self.fd_error <= FD_TOL:
            return [f"finite difference {fd:.6e} vs analytic {analytic:.6e} "
                    f"(error {self.fd_error:.2e} of |grad|)"]
        return []

    def work_per_round(self):
        return self.epochs * BATCH * self.steps

    def job(self, rnd):
        return {"result": rnd.call(training.train, self.net, self.costs, self.cfg)}

    def check(self, out):
        bad = []
        res = out["result"]
        if len(res.loss_history) != self.epochs or not np.all(np.isfinite(res.loss_history)):
            bad.append(f"loss history {res.loss_history}")
        if not controller.validate_params(res.params, warn=False):
            bad.append("validate_params fails on the trained controllers")
        prm = res.params
        if (np.any(np.cumsum(prm.k_plus, axis=-1) <= 0)
                or np.any(np.cumsum(prm.k_minus, axis=-1) >= 0)
                or np.any(np.diff(prm.b_plus, axis=-1) < 0)
                or np.any(np.diff(prm.b_minus, axis=-1) > 0)):
            bad.append("trained controllers are not strictly monotone")
        return bad

    def counts(self, out):
        return {"train_steps": self.steps, "tape_mb": self.tape_mb}


class Cert39:
    """Certify the primary (droop) mode: equilibrium, epsilon and decay
    constant search, and dV/dt <= -cV on a larger fresh sample."""

    name = "cert39"
    ops_per_round = 5
    reference = "interp"
    work_unit = "search samples"

    # The Jacobi sweeps behind every searched state take 7 to 9 passes
    # depending on the matrix, so the operating point and the searched states
    # are the same for every seed, which keeps a round's work fixed; the seed
    # draws the fresh states on which dV/dt <= -cV is checked.
    search_seed = 0

    def __init__(self, seed, seconds, tmpdir):
        self.seed, self.tmpdir = seed, tmpdir
        # S = 3 searched states at --seconds 30 (gridfreq certify uses 200),
        # which leaves a run about a dozen rounds for a steady median
        self.samples = max(1, seconds // 10)
        self.fresh = 50 * seconds
        self.fresh_seed = seed + 1_000_003

    def setup(self):
        self.doc, self.net = _network(self.tmpdir)
        net = self.net
        self.params = controller.identity_params(net.n)
        self.buses = DEFAULT_BUSES
        self.p = np.zeros(net.n)
        for b in self.buses:
            self.p[net.index_of(b)] = LOSS_PU

    def pre_check(self):
        return []

    def work_per_round(self):
        return self.samples

    def job(self, rnd):
        net = self.net
        eq = rnd.call(equilibrium.solve_equilibrium, net, None, self.params, self.p,
                      mode="primary")
        found = rnd.call(lyapunov.epsilon_and_c_search, net, eq,
                         samples=self.samples, seed=self.search_seed)
        states = rnd.call(lyapunov.sample_region_states, net, eq, self.fresh,
                          seed=self.fresh_seed)
        state = (states[0], states[1], None)
        v = rnd.call(lyapunov.lyap_V, net, state, eq, found.epsilon)
        vdot = rnd.call(lyapunov.lyap_V_dot, net, self.params, state, eq, found.epsilon)
        return {"eq": eq, "found": found, "V": v, "Vdot": vdot}

    def check(self, out):
        bad = []
        eq, found, v, vdot = out["eq"], out["found"], out["V"], out["Vdot"]
        dense = DenseCase(self.doc)
        # identity controllers: u_i(omega) = omega on every bus
        balance = dense.n * eq.omega_star + eq.omega_star * dense.alpha.sum()
        if not _close(balance, self.p.sum(), 1e-9):
            bad.append(f"synchronous balance {balance:.12e} vs sum p {self.p.sum():.12e}")
        if not found.c > 0:
            bad.append(f"decay constant c = {found.c}")
        deltas = lyapunov.sample_region_states(self.net, eq, self.samples,
                                               seed=self.search_seed)[0]
        lam = min(np.linalg.eigvalsh(dense.q_matrix(dl, found.epsilon))[0]
                  for dl in np.vstack([eq.delta_star[None, :], deltas]))
        if not _close(lam, found.lambda_min_q, 1e-9):
            bad.append(f"lambda_min(Q) {found.lambda_min_q:.15e} vs eigvalsh {lam:.15e}")
        if not np.all(v > 0):
            bad.append("V <= 0 at a fresh sample")
        if not np.all(vdot <= 0):
            bad.append("dV/dt > 0 at a fresh sample")
        if not np.all(vdot + found.c * v <= 1e-12):
            bad.append(f"dV/dt + cV up to {np.max(vdot + found.c * v):.3e}")
        return bad

    def counts(self, out):
        return {"search_samples": self.samples,
                "region_samples": self.samples + self.fresh,
                "vdot_samples": self.fresh}


WORKLOADS = {w.name: w for w in (Sim39, Train39, Cert39)}

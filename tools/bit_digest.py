"""Print the sha256 of gridfreq's outputs, one line per output.

Two checkouts give the same bits when their printed lines are the same:

    python3 tools/bit_digest.py > a.txt      # in one checkout
    python3 tools/bit_digest.py > b.txt      # in the other
    diff a.txt b.txt

The script reads gridfreq from `src/` of the checkout it sits in.  It
covers, on the packaged 39-bus case with comm weight 50 on every line:

- `simulate` for 1 s with Euler and with RK4 in DAI mode, and with RK4 in
  primary mode (d = 20 policies from `init_raw_params`, a 3 pu loss on
  three buses), with `lyap_W`, `certify_trajectory` and `write_csv` bytes;
- `max_stable_step` of that loop for Euler and RK4 in both modes;
- the primary-mode `epsilon_and_c_search` (every result field) and
  `lyap_V_dot` on the states it samples; `sample_region_states`, `lyap_V`
  and `lyap_V_dot` on 1,500 fresh states (cert39's count at 30 s);
- the primary-mode `solve_equilibrium` omega* of those d = 20 policies with
  saturation bounds +-5e-5 and a deadband 1e-4, which hold 25 of the 39
  buses at a bound;
- `power_flows`, `line_weights`, `flow_jacobian_apply` and
  `comm_laplacian_apply` on seeded inputs of one scenario (a vector), of
  64 and of 1,500: the batch shapes of the three benchmark workloads;
- at the train39 shape (B = 64, d = 20, 500 Euler steps), seeds 0-2 with
  and without saturation bounds and a deadband: the loss, every `Tape`
  field and the gradient, and a 4-epoch `train`;
- `gridfreq certify` in DAI and primary mode (`certify.txt`, `certify.json`);
- `gridfreq plot --cols omega` and `--cols omega,W` at the sim39 shape (a
  301-row RK4 trajectory, written with W and without it);
- from seeded non-zero initial states: `simulate` for 0.2 s with RK4 and
  `max_stable_step` for Euler and RK4, in both modes; a B = 8 rollout (every
  `Tape` field) and its gradient; and the stdout of `gridfreq grad-check
  --instances 3`, whose audits start from random integral states;
- from seeded initial states whose angles are off the center-of-inertia
  gauge by a 0.01 mean: `simulate` for 0.2 s with RK4 in both modes, and a
  B = 8 rollout's loss and gradient;
- through `cli.main`, in the order here: `train` (1 epoch, B = 4, 0.05 s),
  then `equilibrium`, `simulate --lyapunov` (Euler, 0.05 s, both modes) and
  `certify` (RK4, 0.05 s) with that checkpoint: each run's exit code, stdout
  and `manifest.json`, the `--lyapunov` trajectory CSVs and the `certify`
  report.  The runs use paths relative to one directory, so the manifests
  name no temporary path.

Each array is hashed with its dtype and shape.  `Tape.count` is hashed as
the signed count c_plus - c_minus of each input, so a tape that stores the
merged rank r = c_plus - c_minus + d (unsigned) and one that stores the
signed count print alike.  Takes about 7 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib import resources

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gridfreq import cli, controller, costs as costs_mod, dynamics, equilibrium  # noqa: E402
from gridfreq import lyapunov, network, training  # noqa: E402

LOSS_BUSES = (30, 34, 37)
LOSS_PU = -1.0
FRESH = 1500            # cert39's fresh states at --seconds 30


def digest(value):
    """sha256 of an array (with dtype and shape), bytes, or a float."""
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    a = np.ascontiguousarray(value)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


def emit(name, value):
    print(f"{digest(value)}  {name}", flush=True)


def case39(tmpdir):
    doc = json.loads((resources.files("gridfreq") / "data" / "case39.json").read_text())
    doc["comm"] = [{"i": ln["i"], "j": ln["j"], "Q": 50.0} for ln in doc["lines"]]
    path = os.path.join(tmpdir, "case39_q50.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path, network.network_from_dict(doc)


def closed_loop(net, **masks):
    """(costs, params, p) of the simulated loop; `masks` are the policies'
    saturation bounds and deadband."""
    rng = np.random.default_rng(1)
    costs = costs_mod.random_power_costs(net.n, rng, r=4)
    params = controller.transform_params(controller.init_raw_params(net.n, 20, rng),
                                         **masks)
    p = np.zeros(net.n)
    for b in LOSS_BUSES:
        p[net.index_of(b)] = LOSS_PU
    return costs, params, p


def simulations(net, tmpdir):
    costs, params, p = closed_loop(net)
    runs = (("euler", "dai_general", dynamics.euler_step),
            ("rk4", "dai_general", dynamics.rk4_step),
            ("rk4", "primary", dynamics.rk4_step))
    for label, mode, stepper in runs:
        name = f"simulate/{mode}/{label}"
        scenario = dynamics.Scenario(p=p, T=1.0, h=5e-4, mode=mode)
        traj = dynamics.simulate(scenario, net, costs, params, stepper=stepper)
        for col in ("t", "delta", "omega", "s", "u", "mc"):
            emit(f"{name}/{col}", getattr(traj, col))
        eq = equilibrium.solve_equilibrium(net, costs, params, p, mode=mode)
        if mode == "dai_general":
            traj.W = lyapunov.lyap_W(net, params, (traj.delta, traj.omega, traj.s), eq)
            emit(f"{name}/W", traj.W)
        report = lyapunov.certify_trajectory(traj, net, costs, params, eq)
        emit(f"{name}/certify_trajectory", repr(dataclasses.astuple(report)).encode())
        path = os.path.join(tmpdir, "trajectory.csv")
        dynamics.write_csv(traj, path)
        with open(path, "rb") as fh:
            emit(f"{name}/write_csv", fh.read())


def step_limits(net):
    costs, params, p = closed_loop(net)
    for mode in ("dai_general", "primary"):
        scenario = dynamics.Scenario(p=p, T=1.0, h=5e-4, mode=mode)
        for method in ("euler", "rk4"):
            limit = dynamics.max_stable_step(net, costs, params, scenario, method)
            emit(f"max_stable_step/{mode}/{method}", np.float64(limit))


def primary_certificate(net):
    _, params, p = closed_loop(net)
    eq = equilibrium.solve_equilibrium(net, None, params, p, mode="primary")
    found = lyapunov.epsilon_and_c_search(net, eq, samples=200, seed=0)
    for field, value in vars(found).items():
        emit(f"epsilon_and_c_search/{field}", np.float64(value))
    delta, omega, _ = lyapunov.sample_region_states(net, eq, 200, seed=0)
    emit("epsilon_and_c_search/lyap_V_dot",
         lyapunov.lyap_V_dot(net, params, (delta, omega, None), eq, found.epsilon))
    states = lyapunov.sample_region_states(net, eq, FRESH, seed=1_000_003)
    for name, value in zip(("delta", "omega", "s"), states):
        emit(f"fresh/sample_region_states/{name}", value)
    emit("fresh/lyap_V", lyapunov.lyap_V(net, states, eq, found.epsilon))
    emit("fresh/lyap_V_dot",
         lyapunov.lyap_V_dot(net, params, states, eq, found.epsilon))


def primary_equilibrium(net):
    _, params, p = closed_loop(net, u_lo=-5e-5, u_hi=5e-5, dz=1e-4)
    eq = equilibrium.solve_equilibrium(net, None, params, p, mode="primary")
    emit("solve_equilibrium/primary/masked/omega_star", np.float64(eq.omega_star))


def network_kernels(net):
    rng = np.random.default_rng(7)
    for batch in ((), (64,), (FRESH,)):
        name = f"network/B{batch[0] if batch else 1}"
        delta, x, y = rng.uniform(-0.5, 0.5, (3,) + batch + (net.n,))
        emit(f"{name}/power_flows", network.power_flows(net, delta))
        emit(f"{name}/line_weights", network.line_weights(net, delta))
        emit(f"{name}/flow_jacobian_apply", network.flow_jacobian_apply(net, delta, x))
        emit(f"{name}/comm_laplacian_apply", network.comm_laplacian_apply(net, y))


def signed_count(tape):
    count = tape.count.astype(np.int64)
    return count - tape.params.d if tape.count.dtype.kind == "u" else count


def rollouts(net):
    costs = costs_mod.random_power_costs(net.n, np.random.default_rng(0), r=4)
    for masks in ({}, dict(u_lo=-0.5, u_hi=0.5, dz=1e-3)):
        for seed in range(3):
            name = f"rollout/{'masked' if masks else 'plain'}/seed{seed}"
            cfg = training.TrainConfig(d=20, h=5e-4, T=0.25, batch_size=64,
                                       seed=seed, **masks)
            rng = np.random.default_rng(seed)
            raw = controller.init_raw_params(net.n, cfg.d, rng)
            p = rng.uniform(cfg.p_lo, cfg.p_hi, (cfg.batch_size, net.n))
            loss, tape = training.rollout_loss(net, costs, raw, p, cfg)
            emit(f"{name}/loss", np.float64(loss))
            for field in ("theta", "omega_g", "s", "nadir_step", "nadir_sign"):
                emit(f"{name}/tape.{field}", getattr(tape, field))
            emit(f"{name}/tape.count", signed_count(tape))
            grad = training.backprop(tape, net, costs)
            for field, value in vars(grad).items():
                emit(f"{name}/grad.{field}", value)
    cfg = training.TrainConfig(d=20, h=5e-4, T=0.25, batch_size=64, epochs=4, seed=0)
    result = training.train(net, costs, cfg)
    for field, value in vars(result.raw).items():
        emit(f"train/raw.{field}", value)
    emit("train/loss_history", result.loss_history)


def certify_cli(path, tmpdir):
    p = json.dumps({"p": {str(b): LOSS_PU for b in LOSS_BUSES}})
    for mode in ("dai_general", "primary"):
        outdir = os.path.join(tmpdir, mode)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["certify", "--net", path, "--p", p, "--mode", mode,
                             "--T", "1", "--integrator", "rk4", "--outdir", outdir])
        emit(f"certify/{mode}/exit", np.int64(code))
        for name in ("certify.txt", "certify.json"):
            with open(os.path.join(outdir, name), "rb") as fh:
                emit(f"certify/{mode}/{name}", fh.read())


def plot_cli(net, tmpdir):
    costs, params, p = closed_loop(net)
    scenario = dynamics.Scenario(p=p, T=300 * 5e-4, h=5e-4)
    traj = dynamics.simulate(scenario, net, costs, params, stepper=dynamics.rk4_step)
    eq = equilibrium.solve_equilibrium(net, costs, params, p)
    for label, W in (("no_W", None),
                     ("W", lyapunov.lyap_W(net, params, (traj.delta, traj.omega, traj.s), eq))):
        traj.W = W
        path = os.path.join(tmpdir, f"plot_{label}.csv")
        dynamics.write_csv(traj, path)
        for cols in ("omega", "omega,W"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["plot", "--traj", path, "--cols", cols,
                                 "--out", "plot.svg", "--outdir", tmpdir])
            emit(f"plot/{label}/{cols}/exit", np.int64(code))
            with open(os.path.join(tmpdir, "plot.svg"), "rb") as fh:
                emit(f"plot/{label}/{cols}", fh.read())


def random_state(rng, shape):
    """A (3,) + shape state of seeded (delta, omega, s) rows."""
    return np.stack([rng.uniform(-0.2, 0.2, shape), rng.uniform(-0.01, 0.01, shape),
                     rng.uniform(-0.5, 0.5, shape)])


def initial_states(net, tmpdir):
    costs, params, p = closed_loop(net)
    rng = np.random.default_rng(11)
    x0 = random_state(rng, net.n)
    x0[0] -= x0[0].mean()
    for mode in ("dai_general", "primary"):
        scenario = dynamics.Scenario(p=p, T=0.2, h=5e-4, mode=mode, initial=x0)
        traj = dynamics.simulate(scenario, net, costs, params, stepper=dynamics.rk4_step)
        for col in ("delta", "omega", "s", "u", "mc"):
            emit(f"initial/simulate/{mode}/rk4/{col}", getattr(traj, col))
        for method in ("euler", "rk4"):
            limit = dynamics.max_stable_step(net, costs, params, scenario, method)
            emit(f"initial/max_stable_step/{mode}/{method}", np.float64(limit))
    cfg = training.TrainConfig(d=20, h=5e-4, T=0.05, batch_size=8, seed=0)
    raw = controller.init_raw_params(net.n, cfg.d, rng)
    p = rng.uniform(cfg.p_lo, cfg.p_hi, (cfg.batch_size, net.n))
    x0 = random_state(rng, p.shape)
    x0[0] -= x0[0].mean(axis=-1, keepdims=True)
    loss, tape = training.rollout_loss(net, costs, raw, p, cfg, x0)
    emit("initial/rollout/loss", np.float64(loss))
    for field in ("theta", "omega_g", "s", "nadir_step", "nadir_sign"):
        emit(f"initial/rollout/tape.{field}", getattr(tape, field))
    emit("initial/rollout/tape.count", signed_count(tape))
    for field, value in vars(training.backprop(tape, net, costs)).items():
        emit(f"initial/rollout/grad.{field}", value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["grad-check", "--instances", "3", "--outdir", tmpdir])
    emit("initial/grad-check/exit", np.int64(code))
    emit("initial/grad-check/stdout", out.getvalue().encode())


def off_gauge(net):
    costs, params, p = closed_loop(net)
    rng = np.random.default_rng(12)
    x0 = random_state(rng, net.n)
    x0[0] += 0.01 - x0[0].mean()
    for mode in ("dai_general", "primary"):
        scenario = dynamics.Scenario(p=p, T=0.2, h=5e-4, mode=mode, initial=x0)
        traj = dynamics.simulate(scenario, net, costs, params, stepper=dynamics.rk4_step)
        for col in ("delta", "omega", "s", "u", "mc"):
            emit(f"off_gauge/simulate/{mode}/rk4/{col}", getattr(traj, col))
    cfg = training.TrainConfig(d=20, h=5e-4, T=0.05, batch_size=8, seed=0)
    raw = controller.init_raw_params(net.n, cfg.d, rng)
    p = rng.uniform(cfg.p_lo, cfg.p_hi, (cfg.batch_size, net.n))
    x0 = random_state(rng, p.shape)
    x0[0] += 0.01 - x0[0].mean(axis=-1, keepdims=True)
    loss, tape = training.rollout_loss(net, costs, raw, p, cfg, x0)
    emit("off_gauge/rollout/loss", np.float64(loss))
    for field, value in vars(training.backprop(tape, net, costs)).items():
        emit(f"off_gauge/rollout/grad.{field}", value)


def cli_runs(path, tmpdir):
    p = json.dumps({"p": {str(b): LOSS_PU for b in LOSS_BUSES}})
    net = ["--net", os.path.basename(path)]
    checkpoint = os.path.join("train", "checkpoint.json")
    scenario = net + ["--p", p, "--checkpoint", checkpoint, "--T", "0.05"]
    runs = (("train", ["train"] + net + ["--epochs", "1", "--batch-size", "4",
                                         "--T", "0.05"], ()),
            ("equilibrium", ["equilibrium"] + scenario[:-2] + ["--csv", "eq.csv"],
             ("eq.csv",)),
            ("simulate/dai_general", ["simulate", "--lyapunov"] + scenario,
             ("trajectory.csv",)),
            ("simulate/primary",
             ["simulate", "--lyapunov", "--mode", "primary"] + scenario,
             ("trajectory.csv",)),
            ("certify", ["certify"] + scenario, ("certify.txt", "certify.json")))
    home = os.getcwd()
    os.chdir(tmpdir)             # contextlib.chdir needs Python 3.11
    try:
        for name, argv, files in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--outdir", name])
            emit(f"cli/{name}/exit", np.int64(code))
            emit(f"cli/{name}/stdout", out.getvalue().encode())
            for file in ("manifest.json",) + files:
                with open(os.path.join(name, file), "rb") as fh:
                    emit(f"cli/{name}/{file}", fh.read())
    finally:
        os.chdir(home)


def main():
    with tempfile.TemporaryDirectory() as tmpdir:
        path, net = case39(tmpdir)
        simulations(net, tmpdir)
        step_limits(net)
        primary_certificate(net)
        primary_equilibrium(net)
        network_kernels(net)
        rollouts(net)
        certify_cli(path, tmpdir)
        plot_cli(net, tmpdir)
        initial_states(net, tmpdir)
        off_gauge(net)
        cli_runs(path, tmpdir)


if __name__ == "__main__":
    main()

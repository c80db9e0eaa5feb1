"""Command-line front end.

Subcommands:

    equilibrium   solve and print the optimal steady state
    simulate      integrate a scenario and write the trajectory CSV
    certify       simulate (or re-simulate) and run the energy-decrease checks
    train         gradient-descent training; writes checkpoint + loss history
    grad-check    directional finite-difference audit of the analytic
                  gradients on small random networks
    plot          static SVG line chart from a trajectory CSV

Exit codes: 0 success, 1 domain error (infeasible flow, failed certification,
failed gradient audit, blow-up), 2 usage/parse errors.  Every run writes a
manifest.json into the output directory recording the effective
configuration, a hash of it, the seeds in play, and the files produced, so
any run can be reproduced byte-for-byte from its manifest.

The output directory defaults to the GRIDFREQ_OUTDIR environment variable
when set, else the current directory; --outdir overrides both.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import controller, costs as costs_mod, dynamics, equilibrium as eq_mod
from . import lyapunov, network, training

DOMAIN_ERRORS = (network.NetworkError, costs_mod.CostError,
                 eq_mod.EquilibriumError, lyapunov.LyapunovError,
                 dynamics.DynamicsError, ValueError, OSError)
GRAD_TOL = 1e-4               # gradient audits: relative error threshold
GRAD_DIRECTIONS = 3           # seeded unit directions per audited draw
GRAD_STEPS = 10               # Euler steps of each audited rollout
GRAD_ATTEMPTS = 10            # draws tried for one without a tie risk
GRAD_EPS = 1e-6               # central-difference step along a direction
TRAIN_FLAGS = ("rho", "d", "h", "T", "batch_size", "epochs", "lr", "lr_decay",
               "p_lo", "p_hi", "seed")   # TrainConfig fields train sets by flag


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------

def _outdir(args):
    out = args.outdir or os.environ.get("GRIDFREQ_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _config_hash(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(outdir, subcommand, config, seeds, outputs):
    doc = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": _config_hash(config),
        "seeds": seeds,
        "outputs": sorted(outputs),
    }
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _write_run_manifest(outdir, args, outputs, *extra):
    """manifest.json of a run on one network and disturbance (equilibrium,
    simulate, certify): the flags those share, then the `extra` flags."""
    costs = _cost_config(args)
    config = {"net": args.net, "p": args.p, "mode": args.mode,
              "checkpoint": args.checkpoint, "costs": costs,
              **{name: getattr(args, name) for name in extra}}
    return _write_manifest(outdir, args.subcommand, config,
                           {} if costs is None else {"cost_seed": args.cost_seed},
                           outputs)


def _read_json(flag, path, an_object=False):
    """The JSON document in the file `flag` names; ValueError naming the
    flag and the file when it does not parse, or, with `an_object`, when it
    is not a JSON object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{flag} {path}: not valid JSON: {exc}") from None
    if an_object and not isinstance(doc, dict):
        raise ValueError(f"{flag} {path}: must hold a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


def _load_disturbance(net, path_or_json):
    """Disturbance vector from a JSON file or inline JSON string.

    Accepts {"p": {"13": -3.0, ...}} (sparse, keyed by bus id), {"p": [..n
    values..]} (dense), or the bare mapping/list without the "p" wrapper.
    A NaN or infinite entry is refused, naming the lowest such bus.
    """
    text = path_or_json
    if os.path.exists(text):
        doc = _read_json("--p", text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(f"--p: {text!r} is neither a file nor valid JSON")
    if isinstance(doc, dict) and "p" in doc:
        doc = doc["p"]
    p = np.zeros(net.n)
    if isinstance(doc, dict):
        for key, val in doc.items():
            try:
                p[net.index_of(type(net.ids[0])(key))] = float(val)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"--p: bus {key}: {exc}") from None
    else:
        try:
            arr = np.asarray(doc, dtype=float)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"--p: {exc}") from None
        if arr.shape != (net.n,):
            raise ValueError(f"--p: expected {net.n} values, got {arr.shape}")
        p = arr
    if not np.all(np.isfinite(p)):
        i = int(np.argmin(np.isfinite(p)))
        raise ValueError(f"--p: bus {net.ids[i]}: must be finite, got {float(p[i])!r}")
    return p


def _load_costs(net, args):
    """The run's cost model from --costs or --cost-seed; None when
    _cost_config gives none (primary mode)."""
    if _cost_config(args) is None:
        return None
    if not args.costs:
        rng = np.random.default_rng(args.cost_seed)
        return costs_mod.random_power_costs(net.n, rng, r=args.cost_r)
    where = f"--costs {args.costs}"
    doc = _read_json("--costs", args.costs, an_object=True)
    if "c" not in doc:
        raise ValueError(f"{where}: missing field 'c'")
    vectors = {k: np.asarray(doc.get(k, np.zeros(net.n)), dtype=float)
               for k in ("c", "b")}
    for k, v in vectors.items():
        if v.shape != (net.n,):
            raise ValueError(f"{where}: field {k!r} has shape {v.shape}, "
                             f"expected ({net.n},), one per bus")
    r = doc.get("r", 2)
    if not (isinstance(r, (int, float)) and float(r).is_integer()):
        raise ValueError(f"{where}: field 'r' must be an integer, got {r!r}")
    try:
        return costs_mod.CostModel(family=doc.get("family", "power"),
                                   r=int(r), **vectors)
    except costs_mod.CostError as exc:
        raise costs_mod.CostError(f"{where}: {exc}") from None


def _load_controllers(net, args):
    if getattr(args, "checkpoint", None):
        try:
            _, params, _ = controller.load_checkpoint(args.checkpoint)
        except ValueError as exc:        # each message starts with the file
            raise ValueError(f"--checkpoint {exc}") from None
        if params.n != net.n:
            raise ValueError("checkpoint bus count does not match network")
        return params
    return controller.identity_params(net.n)


def _cost_config(args):
    """The cost flags a run reads, as its manifest records them; None in
    primary mode, which has no cost model."""
    if getattr(args, "mode", None) == "primary":
        return None
    if args.costs:
        return {"file": args.costs}
    return {"cost_seed": args.cost_seed, "cost_r": args.cost_r}


def _add_common(sub):
    sub.add_argument("--net", required=True, help="network JSON file")
    sub.add_argument("--outdir", default=None)
    sub.add_argument("--costs", default=None,
                     help="cost model JSON (family, r, c, b)")
    sub.add_argument("--cost-seed", type=int, default=0,
                     help="seed for random costs when --costs is absent")
    sub.add_argument("--cost-r", type=int, default=4)


def _add_operating_point(sub):
    """The flags of a run on one network and disturbance (equilibrium,
    simulate, certify), which _write_run_manifest records."""
    _add_common(sub)
    sub.add_argument("--p", required=True, help="disturbance JSON file or inline JSON")
    sub.add_argument("--mode", default="dai_general", choices=dynamics.MODES)
    sub.add_argument("--checkpoint", default=None)


def _add_scenario(sub, integrator_default, help=None):
    """The flags that _simulate_from_args reads."""
    _add_operating_point(sub)
    sub.add_argument("--T", type=float, default=40.0)
    sub.add_argument("--h", type=float, default=5e-4)
    sub.add_argument("--integrator", default=integrator_default,
                     choices=dynamics.STEPPERS, help=help)


# --------------------------------------------------------------------------
# SVG emission
# --------------------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#d1495b", "#66a182", "#edae49", "#775b9f",
            "#30a5bf", "#8c5e58", "#3a6b35", "#c97b84", "#5d5d81")


def svg_line_chart(t, series, title, ylabel):
    """Static SVG 1.1 line chart: axes, ticks, one polyline per series."""
    width, height = 860, 420
    ml, mr, mt, mb = 64, 150, 36, 44
    iw, ih = width - ml - mr, height - mt - mb
    t = np.asarray(t, dtype=float)
    lo = min(float(np.min(v)) for v in series.values())
    hi = max(float(np.max(v)) for v in series.values())
    if hi - lo < 1e-30:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    t0, t1 = float(t[0]), float(t[-1])
    if t1 - t0 < 1e-30:
        t1 = t0 + 1.0

    def sx(x):
        return ml + (x - t0) / (t1 - t0) * iw

    def sy(y):
        return mt + (hi - y) / (hi - lo) * ih

    # one %-format per chart: "%.2f" % y and f"{y:.2f}" give the same text
    points = " ".join([f"{x:.2f},%.2f" for x in sx(t).tolist()])

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{ml}" y="20" font-family="sans-serif" font-size="14">'
           f'{title}</text>']
    # axes
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ih}" '
               'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{ml}" y1="{mt + ih}" x2="{ml + iw}" y2="{mt + ih}" '
               'stroke="black" stroke-width="1"/>')
    for k in range(6):
        xv = t0 + k * (t1 - t0) / 5
        yv = lo + k * (hi - lo) / 5
        x = sx(xv)
        y = sy(yv)
        out.append(f'<line x1="{x:.1f}" y1="{mt + ih}" x2="{x:.1f}" '
                   f'y2="{mt + ih + 4}" stroke="black"/>')
        out.append(f'<text x="{x:.1f}" y="{mt + ih + 18}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        out.append(f'<line x1="{ml - 4}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" font-family="sans-serif" '
                   f'font-size="11" text-anchor="end">{yv:.3g}</text>')
    out.append(f'<text x="{ml + iw / 2:.0f}" y="{height - 8}" '
               'font-family="sans-serif" font-size="12" '
               'text-anchor="middle">t (s)</text>')
    out.append(f'<text x="16" y="{mt + ih / 2:.0f}" font-family="sans-serif" '
               f'font-size="12" transform="rotate(-90 16 {mt + ih / 2:.0f})" '
               f'text-anchor="middle">{ylabel}</text>')
    for k, (name, vals) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        pts = points % tuple(sy(np.asarray(vals, dtype=float)).tolist())
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.2"/>')
        ly = mt + 14 + 16 * k
        out.append(f'<line x1="{ml + iw + 10}" y1="{ly - 4}" x2="{ml + iw + 34}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{ml + iw + 40}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{name}</text>')
    out.append("</svg>")
    return "\n".join(out)


# --------------------------------------------------------------------------
# subcommand implementations
# --------------------------------------------------------------------------

def _cmd_equilibrium(args):
    net = network.load_network(args.net)
    costs = _load_costs(net, args)
    p = _load_disturbance(net, args.p)
    params = _load_controllers(net, args)
    eq = eq_mod.solve_equilibrium(net, costs, params, p, mode=args.mode)
    res = eq_mod.equilibrium_residuals(net, costs, params, p, eq)
    outdir = _outdir(args)

    print(f"mode           : {args.mode}")
    if eq.gamma is not None:
        print(f"gamma          : {eq.gamma:.10g}")
    print(f"omega*         : {eq.omega_star:.6g}")
    print(f"{'bus':>6} {'u*':>12} {'delta*':>12}" +
          ("" if eq.s_star is None else f" {'s*':>12}"))
    for i, bus in enumerate(net.ids):
        line = f"{bus:>6} {eq.u_star[i]:>12.6f} {eq.delta_star[i]:>12.6f}"
        if eq.s_star is not None:
            line += f" {eq.s_star[i]:>12.6f}"
        print(line)
    print("residuals:")
    for key, val in res.items():
        print(f"  {key:26s}: {val:.3e}")

    outputs = []
    if args.csv:
        path = os.path.join(outdir, args.csv)
        with open(path, "w") as fh:
            fh.write("bus,u_star,delta_star,s_star\n")
            for i, bus in enumerate(net.ids):
                s_val = "" if eq.s_star is None else repr(float(eq.s_star[i]))
                fh.write(f"{bus},{float(eq.u_star[i])!r},"
                         f"{float(eq.delta_star[i])!r},{s_val}\n")
        outputs.append(path)
    _write_run_manifest(outdir, args, outputs)
    return 0


def _check_step(net, costs, params, scenario, method, where):
    """Raise DynamicsError when scenario.h exceeds `method`'s stability
    limit; `where` ends the message by naming the state the limit is for."""
    limit = dynamics.max_stable_step(net, costs, params, scenario, method)
    if scenario.h > limit:
        raise dynamics.DynamicsError(
            f"--h {scenario.h:g} exceeds the {method} stability limit "
            f"h <= {limit:.3g} s {where}")


def _simulate_from_args(args):
    """(net, costs, params, scenario, trajectory) of the scenario the flags
    name; costs are None in primary mode.  A step size beyond the
    integrator's stability limit is refused before integrating: an unstable
    step would read as a blow-up or, in certify, as a failed energy-decrease
    check."""
    net = network.load_network(args.net)
    costs = _load_costs(net, args)
    params = _load_controllers(net, args)
    scenario = dynamics.Scenario(p=_load_disturbance(net, args.p), T=args.T,
                                 h=args.h, mode=args.mode)
    _check_step(net, costs, params, scenario, args.integrator,
                "of the closed loop linearized at the initial state")
    traj = dynamics.simulate(scenario, net, costs, params,
                             stepper=dynamics.STEPPERS[args.integrator])
    return net, costs, params, scenario, traj


def _cmd_simulate(args):
    net, costs, params, scenario, traj = _simulate_from_args(args)
    if args.lyapunov:
        eq = eq_mod.solve_equilibrium(net, costs, params, scenario.p, mode=args.mode)
        traj.W = lyapunov.trajectory_energy(traj, net, params, eq)[0]

    outdir = _outdir(args)
    out_path = os.path.join(outdir, args.out)
    dynamics.write_csv(traj, out_path)
    wmax = float(np.max(np.abs(traj.omega[-1])))
    print(f"simulated {scenario.steps} steps of {args.mode}; "
          f"terminal max|omega| = {wmax:.3e} pu")
    _write_run_manifest(outdir, args, [out_path], "T", "h", "integrator", "lyapunov")
    return 0


def _cmd_certify(args):
    if args.fd_rtol is not None and not 0 <= args.fd_rtol < np.inf:
        raise ValueError(f"--fd-rtol must be finite and >= 0, got {args.fd_rtol!r}")
    if args.epsilon is not None and not 0 < args.epsilon < np.inf:
        raise ValueError(f"--epsilon must be finite and > 0, got {args.epsilon!r}")
    net, costs, params, scenario, traj = _simulate_from_args(args)
    eq = eq_mod.solve_equilibrium(net, costs, params, scenario.p, mode=args.mode)
    report = lyapunov.certify_trajectory(traj, net, costs, params, eq,
                                         epsilon=args.epsilon, fd_rtol=args.fd_rtol)
    outdir = _outdir(args)
    text = report.summary()
    print(text)
    outputs = []
    if args.out:
        path = os.path.join(outdir, args.out)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        outputs.append(path)
    # the same verdict as JSON, named after the text report
    stem = os.path.splitext(args.out or "certify.txt")[0]
    path = os.path.join(outdir, stem + ".json")
    with open(path, "w") as fh:
        json.dump({k: getattr(report, k) for k in (
            "passed", "decrease_margin_min", "cross_min", "positivity_min",
            "fd_rel_err_max", "epsilon", "first_violation", "failures",
            "decay_c")},
            fh, indent=1)
    outputs.append(path)
    _write_run_manifest(outdir, args, outputs, "T", "h", "integrator",
                        "fd_rtol", "epsilon")
    return 0 if report.passed else 1


def _train_config_from_args(args):
    fields = {}
    if args.config:
        fields = _read_json("--config", args.config, an_object=True)
        known = {f.name for f in dataclasses.fields(training.TrainConfig)}
        if unknown := sorted(set(fields) - known):
            raise ValueError(f"--config {args.config}: unknown field {unknown[0]!r}")
    for name in TRAIN_FLAGS:
        if (val := getattr(args, name)) is not None:
            fields[name] = val
    return training.TrainConfig(**fields)


def _cmd_train(args):
    net = network.load_network(args.net)
    costs = _load_costs(net, args)
    cfg = _train_config_from_args(args)

    # the rollouts take forward-Euler steps from the origin; a step beyond
    # Euler's limit there, with the first epoch's policies, is refused
    # before any rollout
    params = controller.transform_params(
        controller.init_raw_params(net.n, cfg.d, np.random.default_rng(cfg.seed)),
        cfg.u_lo, cfg.u_hi, cfg.dz)
    scenario = dynamics.Scenario(p=np.zeros(net.n), T=cfg.T, h=cfg.h)
    _check_step(net, costs, params, scenario, "euler",
                "at the origin with the first epoch's policies")
    outdir = _outdir(args)

    if args.grad_check and not _audit_network_gradient(net, costs, cfg) < GRAD_TOL:
        print("error: gradient audit failed: the worst directional error is not "
              "below the threshold 1e-4; aborting training", file=sys.stderr)
        return 1

    result = training.train(net, costs, cfg)
    ckpt_path = os.path.join(outdir, args.out)
    controller.save_checkpoint(
        ckpt_path, result.raw, u_lo=result.params.u_lo,
        u_hi=result.params.u_hi, dz=result.params.dz, seed=cfg.seed,
        meta={"epochs": cfg.epochs,
              "final_loss": float(result.loss_history[-1]),
              "config_hash": _config_hash(cfg.__dict__)})
    hist_path = os.path.join(outdir, args.history)
    with open(hist_path, "w") as fh:
        fh.write("epoch,loss\n")
        for e, val in enumerate(result.loss_history):
            fh.write(f"{e},{float(val)!r}\n")
    print(f"trained {cfg.epochs} epochs: loss {result.loss_history[0]:.6g} -> "
          f"{result.loss_history[-1]:.6g}")
    config = {"net": args.net, "costs": _cost_config(args),
              "train": {k: (v if not isinstance(v, float) or np.isfinite(v) else None)
                        for k, v in cfg.__dict__.items()}}
    _write_manifest(outdir, "train", config, {"seed": cfg.seed},
                    [ckpt_path, hist_path])
    return 0


def _audit_network_gradient(net, costs, cfg):
    """Worst relative error of backprop on `net` at cfg's d over
    GRAD_DIRECTIONS seeded unit random directions: a central difference of
    rollout_loss along each, against the analytic gradient, as a share of
    |grad|.  Batch 2, GRAD_STEPS steps from rest in angle and frequency
    and a random integral state (so the policies are evaluated across their
    breakpoints); a draw that gradient_tie_risk flags is drawn again."""
    fields = ("mu_plus", "mu_minus", "chi_plus", "chi_minus")
    acfg = dataclasses.replace(cfg, T=GRAD_STEPS * cfg.h, batch_size=2)
    for attempt in range(GRAD_ATTEMPTS):
        rng = np.random.default_rng([cfg.seed, attempt])
        raw = controller.init_raw_params(net.n, cfg.d, rng)
        p = rng.uniform(cfg.p_lo, cfg.p_hi, (2, net.n))
        initial = np.zeros((3, 2, net.n))
        initial[2] = rng.uniform(-1.0, 1.0, (2, net.n))
        _, tape = training.rollout_loss(net, costs, raw, p, acfg, initial)
        if not training.gradient_tie_risk(tape):
            break
    grad = training.backprop(tape, net, costs)
    gnorm = np.sqrt(sum(float(np.sum(getattr(grad, f) ** 2)) for f in fields))

    def loss_at(v, sign):
        moved = controller.RawParams(**{f: getattr(raw, f) + sign * GRAD_EPS * v[f]
                                        for f in fields})
        return training.rollout_loss(net, costs, moved, p, acfg, initial)[0]

    errors = []
    for _ in range(GRAD_DIRECTIONS):
        v = {f: rng.standard_normal(getattr(raw, f).shape) for f in fields}
        norm = np.sqrt(sum(np.sum(a ** 2) for a in v.values()))
        v = {f: a / norm for f, a in v.items()}
        analytic = sum(float(np.sum(getattr(grad, f) * v[f])) for f in fields)
        fd = (loss_at(v, 1.0) - loss_at(v, -1.0)) / (2.0 * GRAD_EPS)
        errors.append(abs(fd - analytic) / max(gnorm, 1e-12))
    err = float(np.max(errors))       # np.max, unlike max, keeps a nan
    print(f"gradient audit {'passed' if err < GRAD_TOL else 'FAILED'} on the "
          f"{net.n}-bus network (d = {cfg.d}, batch 2, {GRAD_STEPS} steps, "
          f"{GRAD_DIRECTIONS} directions): worst directional error {err:.3e} "
          f"of |grad| (threshold 1e-4)")
    return err


def _tiny_instance(seed):
    """Small random connected two-bus network and random power costs."""
    rng = np.random.default_rng(seed)
    recs = []
    for b in (1, 2):
        rec = {"id": b, "kind": "gen" if b == 1 or rng.uniform() < 0.5 else "load",
               "alpha": float(rng.uniform(0.5, 2.0)), "v": 1.0}
        if rec["kind"] == "gen":
            rec["m"] = float(rng.uniform(2.0, 6.0))
        recs.append(rec)
    net = network.network_from_dict(
        {"buses": recs, "lines": [{"i": 1, "j": 2, "B": float(rng.uniform(0.5, 2.0))}],
         "base": {"f0": 50.0}})
    return net, costs_mod.random_power_costs(net.n, rng)


def _cmd_grad_check(args):
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    outdir = _outdir(args)
    errors = [_audit_network_gradient(*_tiny_instance(seed),
                                      training.TrainConfig(d=2, h=1e-3, seed=seed))
              for seed in range(args.seed, args.seed + 101 * args.instances, 101)]
    _write_manifest(outdir, "grad-check",
                    {"seed": args.seed, "instances": args.instances},
                    {"seed": args.seed}, [])
    return 0 if all(err < GRAD_TOL for err in errors) else 1


def _cmd_plot(args):
    wanted = [c.strip() for c in args.cols.split(",")]
    t, cols = dynamics.read_csv_columns(
        args.traj, lambda name: any(name == w or name.startswith(w + "_") for w in wanted))
    series = {name: vals for name, vals in cols.items()
              if name != "W" or not np.all(np.isnan(vals))}
    if not series:
        raise ValueError(f"no columns match {args.cols!r}")
    outdir = _outdir(args)
    path = os.path.join(outdir, args.out)
    svg = svg_line_chart(t, series, title=os.path.basename(args.traj),
                         ylabel=args.cols)
    with open(path, "w") as fh:
        fh.write(svg + "\n")
    print(f"wrote {path} ({len(series)} series)")
    _write_manifest(outdir, "plot", {"traj": args.traj, "cols": args.cols},
                    {}, [path])
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="gridfreq",
        description="distributed integral frequency control: simulation, "
                    "equilibria, training, certification")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    eq = sub.add_parser("equilibrium", help="solve the optimal steady state")
    _add_operating_point(eq)
    eq.add_argument("--csv", default=None, help="also write a CSV table")
    eq.set_defaults(func=_cmd_equilibrium)

    sim = sub.add_parser("simulate", help="integrate a disturbance scenario")
    _add_scenario(sim, "euler")
    sim.add_argument("--lyapunov", action="store_true",
                     help="fill the W column (needs a solvable equilibrium)")
    sim.add_argument("--out", default="trajectory.csv")
    sim.set_defaults(func=_cmd_simulate)

    cert = sub.add_parser("certify", help="energy-decrease certification")
    _add_scenario(cert, "rk4",
                  help="rk4 keeps discretization error inside the slack")
    cert.add_argument("--fd-rtol", type=float, default=None)
    cert.add_argument("--epsilon", type=float, default=None,
                      help="primary mode: skip the epsilon search")
    cert.add_argument("--out", default="certify.txt")
    cert.set_defaults(func=_cmd_certify)

    tr = sub.add_parser("train", help="train controllers by gradient descent")
    _add_common(tr)
    tr.add_argument("--config", default=None, help="TrainConfig JSON file")
    for name in TRAIN_FLAGS:     # each typed as its TrainConfig default
        tr.add_argument("--" + name.replace("_", "-"), default=None,
                        type=type(getattr(training.TrainConfig, name)))
    tr.add_argument("--grad-check", action="store_true",
                    help="run the directional gradient audit before training")
    tr.add_argument("--out", default="checkpoint.json")
    tr.add_argument("--history", default="loss_history.csv")
    tr.set_defaults(func=_cmd_train)

    gc = sub.add_parser("grad-check",
                        help="directional gradient audit on small random networks")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--instances", type=int, default=3)
    gc.add_argument("--outdir", default=None)
    gc.set_defaults(func=_cmd_grad_check)

    pl = sub.add_parser("plot", help="SVG line chart from a trajectory CSV")
    pl.add_argument("--traj", required=True)
    pl.add_argument("--cols", default="omega",
                    help="comma list of column prefixes (omega, s, u, mc, W)")
    pl.add_argument("--out", default="plot.svg")
    pl.add_argument("--outdir", default=None)
    pl.set_defaults(func=_cmd_plot)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

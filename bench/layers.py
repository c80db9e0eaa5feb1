"""Per-layer metrics computed from the spans of a traced run.

Every metric is reported on every workload; a layer that a workload does not
reach reads 0 there (for example ``dynamics.busy_s`` on train39, which never
calls the dynamics module).  Durations are inclusive of child spans unless
the name says ``busy_s``, which is the layer's self time per round of the
job: a span's duration minus the time covered by its child spans, summed
over the spans of that layer.
"""

from __future__ import annotations

import numpy as np

LAYERS = ("network", "costs", "controller", "equilibrium", "dynamics",
          "lyapunov", "training", "cli")


class LayerStats:
    """Queries over the job spans of the traced rounds of one run."""

    def __init__(self, job, setup, rounds, counts, overhead_pct):
        self.job, self.setup = job, setup
        self.rounds = rounds
        self.counts = counts
        self.overhead_pct = overhead_pct
        names = job["name"]
        self._by_name = {}
        for i, n in enumerate(names):
            self._by_name.setdefault(n, []).append(i)
        self._by_name = {n: np.array(ix) for n, ix in self._by_name.items()}
        self.root_name = names[job["root"]] if len(names) else names
        self.layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)

    def _ix(self, name):
        return self._by_name.get(name, np.array([], dtype=np.intp))

    def calls(self, name):
        return len(self._ix(name))

    def mean(self, name, scale, spans=None):
        """Mean inclusive duration per call, times scale (0 when never called)."""
        if spans is None:
            dur = self.job["duration"][self._ix(name)]
        else:
            dur = spans["duration"][spans["name"] == name]
        return float(dur.mean() * scale) if len(dur) else 0.0

    def total(self, name):
        return float(self.job["duration"][self._ix(name)].sum())

    def per_unit(self, name, unit, scale=1.0):
        """Total duration of `name` per counted unit of work, times scale."""
        units = self.counts.get(unit, 0) * self.rounds
        return self.total(name) / units * scale if units else 0.0

    def per_call_unit(self, name, unit, scale=1.0):
        """Mean duration of one call of `name` per counted unit, times scale."""
        units = self.counts.get(unit, 0) * self.calls(name)
        return self.total(name) / units * scale if units else 0.0

    def rate(self, name, unit):
        """Counted units per second spent in `name`, over every call."""
        t = self.total(name)
        return self.counts.get(unit, 0) * self.calls(name) / t if t else 0.0

    def per_sim_step(self, name):
        """Calls of `name` inside dynamics.simulate per simulated step."""
        steps = self.counts.get("sim_steps", 0) * self.rounds
        if not steps:
            return 0.0
        ix = self._ix(name)
        inside = self.root_name[ix] == "dynamics.simulate"
        return int(inside.sum()) / steps

    def calls_per_call(self, name, caller, direct=False):
        """Calls of `name` per call of `caller`: made directly by it when
        direct, else anywhere under the top-level `caller` spans."""
        n_caller = self.calls(caller)
        if not n_caller:
            return 0.0
        ix = self._ix(name)
        if direct:
            par = self.job["parent"][ix]
            inside = (par >= 0) & (self.job["name"][np.maximum(par, 0)] == caller)
        else:
            inside = self.root_name[ix] == caller
        return int(inside.sum()) / n_caller

    def busy(self, layer):
        return float(self.job["self"][self.layer == layer].sum()) / self.rounds

    def pd_tests_useful_ratio(self):
        """Cholesky tests at the chosen epsilon over all schur_block calls."""
        searches = self.calls("lyapunov.epsilon_and_c_search")
        schur = self.calls("lyapunov.schur_block")
        if not schur:
            return 0.0
        return searches * (self.counts["search_samples"] + 1) / schur


US, MS = 1e6, 1e3

# (name, unit, better, value)
PER_LAYER = [
    ("network.power_flows.calls_per_step", "calls/step", "lower",
     lambda s: s.per_sim_step("network.power_flows")),
    ("network.power_flows.us", "us", "lower",
     lambda s: s.mean("network.power_flows", US)),
    ("network.comm_laplacian_apply.us", "us", "lower",
     lambda s: s.mean("network.comm_laplacian_apply", US)),
    ("network.flow_jacobian_apply.us", "us", "lower",
     lambda s: s.mean("network.flow_jacobian_apply", US)),
    ("network.flow_jacobian.us", "us", "lower",
     lambda s: s.mean("network.flow_jacobian", US)),
    ("network.load_network.ms", "ms", "lower",
     lambda s: s.mean("network.load_network", MS, spans=s.setup)),
    ("costs.grad.us", "us", "lower", lambda s: s.mean("costs.CostModel.grad", US)),
    ("costs.values.us", "us", "lower", lambda s: s.mean("costs.CostModel.values", US)),
    ("costs.curvature.us", "us", "lower",
     lambda s: s.mean("costs.CostModel.curvature", US)),
    ("controller.eval_u.calls_per_step", "calls/step", "lower",
     lambda s: s.per_sim_step("controller.eval_u")),
    ("controller.eval_u.us", "us", "lower", lambda s: s.mean("controller.eval_u", US)),
    ("controller.eval_slope.us", "us", "lower",
     lambda s: s.mean("controller.eval_slope", US)),
    ("equilibrium.solve_equilibrium.ms", "ms", "lower",
     lambda s: s.mean("equilibrium.solve_equilibrium", MS)),
    ("equilibrium.newton_power_flow.iters", "count", "lower",
     lambda s: s.calls_per_call("network.flow_jacobian",
                                "equilibrium.newton_power_flow", direct=True)),
    ("dynamics.rk4_step.us", "us", "lower", lambda s: s.mean("dynamics.rk4_step", US)),
    ("dynamics.derivatives.calls_per_step", "calls/step", "lower",
     lambda s: s.per_sim_step("dynamics.derivatives")),
    ("dynamics.simulate.s", "s", "lower", lambda s: s.mean("dynamics.simulate", 1.0)),
    ("dynamics.write_csv.rows_per_s", "rows/s", "higher",
     lambda s: s.rate("dynamics.write_csv", "csv_rows")),
    ("dynamics.read_csv.rows_per_s", "rows/s", "higher",
     lambda s: s.rate("dynamics.read_csv", "csv_rows")),
    ("dynamics.csv_mb", "MB", "lower", lambda s: s.counts.get("csv_mb", 0.0)),
    ("training.rollout_loss.us_per_step", "us", "lower",
     lambda s: s.per_call_unit("training.rollout_loss", "train_steps", US)),
    ("training.backprop.us_per_step", "us", "lower",
     lambda s: s.per_call_unit("training.backprop", "train_steps", US)),
    ("training.validate_params.ms", "ms", "lower",
     lambda s: s.mean("controller.validate_params", MS)),
    ("training.tape_mb", "MB", "lower", lambda s: s.counts.get("tape_mb", 0.0)),
    ("lyapunov.epsilon_and_c_search.s", "s", "lower",
     lambda s: s.mean("lyapunov.epsilon_and_c_search", 1.0)),
    ("lyapunov.jacobi_eigenvalues.calls", "count", "lower",
     lambda s: s.calls_per_call("lyapunov.jacobi_eigenvalues",
                                "lyapunov.epsilon_and_c_search")),
    ("lyapunov.jacobi_eigenvalues.ms", "ms", "lower",
     lambda s: s.mean("lyapunov.jacobi_eigenvalues", MS)),
    ("lyapunov.cholesky_pivots.calls", "count", "lower",
     lambda s: s.calls_per_call("lyapunov.cholesky_pivots",
                                "lyapunov.epsilon_and_c_search")),
    ("lyapunov.cholesky_pivots.us", "us", "lower",
     lambda s: s.mean("lyapunov.cholesky_pivots", US)),
    ("lyapunov.pd_tests_useful_ratio", "ratio", "higher",
     lambda s: s.pd_tests_useful_ratio()),
    ("lyapunov.sample_region_states.us_per_sample", "us", "lower",
     lambda s: s.per_unit("lyapunov.sample_region_states", "region_samples", US)),
    ("lyapunov.lyap_V_dot.us_per_sample", "us", "lower",
     lambda s: s.per_unit("lyapunov.lyap_V_dot", "vdot_samples", US)),
    ("lyapunov.lyap_W.ms", "ms", "lower", lambda s: s.mean("lyapunov.lyap_W", MS)),
    ("lyapunov.certify_trajectory.ms", "ms", "lower",
     lambda s: s.mean("lyapunov.certify_trajectory", MS)),
    ("cli.plot.s", "s", "lower", lambda s: s.mean("cli.main", 1.0)),
] + [
    (f"{layer}.busy_s", "s", "lower", lambda s, layer=layer: s.busy(layer))
    for layer in LAYERS
] + [
    ("tracing.overhead_pct", "%", "lower", lambda s: s.overhead_pct),
]


def per_layer_metrics(stats):
    return {name: {"value": float(fn(stats)), "unit": unit}
            for name, unit, _, fn in PER_LAYER}

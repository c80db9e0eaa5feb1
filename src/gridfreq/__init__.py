"""gridfreq: distributed integral frequency control for lossless grids.

Subpackages split along the natural workflow:

- network: bus/line model, flows, potential, Laplacians
- costs: generation cost families and their derivatives/inverses
- controller: monotone piecewise-linear control policies
- equilibrium: optimal steady state and power-flow solves
- dynamics: closed-loop swing/algebraic simulation
- lyapunov: energy functions and numerical certification
- training: gradient descent through unrolled trajectories
- cli: command-line front end
"""

from .network import PowerNetwork, NetworkError, load_network, network_from_dict
from .costs import CostModel
from .controller import RawParams, NetParams, transform_params, eval_u
from .equilibrium import Equilibrium, solve_equilibrium
from .dynamics import Scenario, Trajectory, simulate
from .lyapunov import CertificationReport, certify_trajectory
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "PowerNetwork", "NetworkError", "load_network", "network_from_dict",
    "CostModel", "RawParams", "NetParams", "transform_params", "eval_u",
    "Equilibrium", "solve_equilibrium", "Scenario", "Trajectory", "simulate",
    "CertificationReport", "certify_trajectory", "TrainConfig", "train",
]

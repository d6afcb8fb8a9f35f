"""Synthetic data generators for the two case studies.

Case 1 is a sparse linear regression stream with an optional mid-stream
coefficient switch. Case 2 is a chaotic three-state oscillator with two
slowly drifting parameters, integrated with classical fourth-order
Runge-Kutta; the regression targets are derivative observations.

Random draws are split by purpose (coefficients / inputs / noise) so that
toggling noise never changes the drawn system.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState

__all__ = [
    "SparseRegressionConfig",
    "LorenzConfig",
    "gen_sparse_regression",
    "lorenz_coefficients",
    "lorenz_rhs",
    "lorenz_terms",
    "simulate_lorenz",
    "write_csv",
    "write_truth_json",
    "case1_truth_payload",
    "lorenz_truth_payload",
]


@dataclass(frozen=True)
class SparseRegressionConfig:
    """Sparse regression stream: y = X @ beta + noise.

    Inputs are uniform on (-0.5, 0.5]; the active coefficients (a
    nonzero_fraction of all m) are uniform on (5, 10]. switch_at redraws
    the coefficient vector from scratch at that sample index.
    """

    m: int = 50
    n_samples: int = 600
    nonzero_fraction: float = 0.3
    noise_variance: float = 0.1
    switch_at: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n_samples < 1:
            raise ValueError("m and n_samples must be positive")
        if not (0.0 < self.nonzero_fraction <= 1.0):
            raise ValueError("nonzero_fraction must be in (0, 1]")
        if self.noise_variance < 0.0 or not np.isfinite(self.noise_variance):
            raise ValueError("noise_variance must be finite and nonnegative")
        if self.switch_at is not None and not (0 < self.switch_at < self.n_samples):
            raise ValueError("switch_at must fall inside the stream")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _draw_beta(rng: "np.random.Generator", m: int, fraction: float) -> np.ndarray:
    beta = np.zeros(m)
    n_active = max(1, round(fraction * m))
    idx = rng.choice(m, size=n_active, replace=False)
    # 10 - U[0,5) lands in (5, 10]
    beta[idx] = 10.0 - rng.uniform(0.0, 5.0, size=n_active)
    return beta


def gen_sparse_regression(config: SparseRegressionConfig):
    """Draw the stream.

    Returns
    -------
    X : (n_samples, m) inputs, uniform on (-0.5, 0.5]
    Y : (n_samples, 1) noisy outputs
    beta_true : (n_samples, m) coefficient trajectory (piecewise constant)
    """
    seq = np.random.SeedSequence(config.seed)
    coeff_rng, input_rng, noise_rng = (
        np.random.default_rng(s) for s in seq.spawn(3)
    )
    beta0 = _draw_beta(coeff_rng, config.m, config.nonzero_fraction)
    beta_true = np.tile(beta0, (config.n_samples, 1))
    if config.switch_at is not None:
        beta1 = _draw_beta(coeff_rng, config.m, config.nonzero_fraction)
        beta_true[config.switch_at :] = beta1
    # 0.5 - U[0,1) lands in (-0.5, 0.5]
    x = 0.5 - input_rng.uniform(0.0, 1.0, size=(config.n_samples, config.m))
    noise = noise_rng.normal(
        0.0, math.sqrt(config.noise_variance), size=config.n_samples
    )
    y = np.einsum("ij,ij->i", x, beta_true) + noise
    return x, y[:, None], beta_true


@dataclass(frozen=True)
class LorenzConfig:
    """Chaotic benchmark with drifting coefficients.

    The disturbance is genuine process noise: every step draws one
    perturbation for the state update and an independent one for the
    derivative target. Driving the state matters because the drifting
    coefficients stabilise the equilibria partway through the run; without
    the kicks the path parks on a fixed point and stops carrying
    information. The targets are the exact derivatives along the perturbed
    path plus noise.
    """

    dt: float = 0.01
    t_end: float = 100.0
    x0: tuple = (-8.0, 7.0, 27.0)
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ValueError("t_end must be at least dt")
        if len(self.x0) != 3:
            raise ValueError("x0 must have 3 components")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError("noise_std must be finite and nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def lorenz_coefficients(t: float) -> tuple:
    """The two drifting coefficients: a slow sine and a slow arctangent ramp."""
    return 0.5 * math.sin(0.1 * t) + 10.0, math.atan(0.1 * t) + 3.0


def lorenz_rhs(x: np.ndarray, t: float) -> np.ndarray:
    k1, k3 = lorenz_coefficients(t)
    return np.array(
        [
            k1 * (x[1] - x[0]),
            x[0] * (28.0 - x[2]) - x[1],
            x[0] * x[1] - k3 * x[2],
        ]
    )


def lorenz_terms(k1: float, k3: float) -> tuple:
    """lorenz_rhs at the coefficients k1, k3 as (output, dictionary term,
    coefficient) triples; every other term of every output is zero."""
    return (
        (0, "x1", -k1), (0, "x2", k1),
        (1, "x1", 28.0), (1, "x2", -1.0), (1, "x1*x3", -1.0),
        (2, "x3", -k3), (2, "x1*x2", 1.0),
    )


def _rk4_step(x: np.ndarray, t: float, dt: float) -> np.ndarray:
    k1 = lorenz_rhs(x, t)
    k2 = lorenz_rhs(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = lorenz_rhs(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = lorenz_rhs(x + dt * k3, t + dt)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_lorenz(config: LorenzConfig) -> tuple:
    """Integrate the system.

    Returns
    -------
    times : (n_steps + 1,) sample times, 0, dt, 2 dt, ...
    states : (n_steps + 1, 3) state at each time
    observations : (n_steps + 1, 3) derivative observation at each time

    Raises NonFiniteState if the integration blows up.
    """
    n_steps = round(config.t_end / config.dt)
    times = np.arange(n_steps + 1) * config.dt
    seq = np.random.SeedSequence(config.seed)
    noise_rng, kick_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    if config.noise_std > 0.0:
        noise = noise_rng.normal(0.0, config.noise_std, size=(n_steps + 1, 3))
        kicks = kick_rng.normal(0.0, config.noise_std, size=(n_steps, 3))
    else:
        noise = np.zeros((n_steps + 1, 3))
        kicks = np.zeros((n_steps, 3))

    states = np.empty((n_steps + 1, 3))
    states[0] = np.asarray(config.x0, dtype=float)
    # blow-ups surface as a typed error, not as overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            states[i + 1] = _rk4_step(states[i], times[i], config.dt) + kicks[i]
            if not np.isfinite(states[i + 1]).all():
                raise NonFiniteState(f"integration diverged at t={times[i + 1]:.3f}")

    obs = np.stack([lorenz_rhs(x, t) for x, t in zip(states, times)])
    obs += noise
    return times, states, obs


def write_csv(path, times, states, observations) -> None:
    """Stream CSV: header t,x1..xn,y1..yn, one row per sample of the times
    (t,), states (t, n) and observations (t, n_y), each value written as
    the repr of its float, so reading it back gives the same bits. Lines
    end in CRLF and no field is quoted, as csv writes them."""
    header = ["t"] + [f"x{i + 1}" for i in range(states.shape[1])]
    header += [f"y{i + 1}" for i in range(observations.shape[1])]
    block = np.column_stack((times, states, observations))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block.tolist())


def write_truth_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def case1_truth_payload(config: SparseRegressionConfig, beta_true: np.ndarray) -> dict:
    """Compact piecewise-constant description of the coefficient trajectory."""
    segments = [{"start_t": 0.0, "coeffs": beta_true[0].tolist()}]
    for i in range(1, beta_true.shape[0]):
        if not np.array_equal(beta_true[i], beta_true[i - 1]):
            segments.append({"start_t": float(i), "coeffs": beta_true[i].tolist()})
    return {"case": "case1", "m": config.m, "segments": segments}


def lorenz_truth_payload(config: LorenzConfig) -> dict:
    """k1 and k3 at every sample time; lorenz_terms gives the structure."""
    n_steps = round(config.t_end / config.dt)
    times = (np.arange(n_steps + 1) * config.dt).tolist()
    k1, k3 = zip(*map(lorenz_coefficients, times))
    return {"case": "lorenz", "t": times, "k1": list(k1), "k3": list(k3)}

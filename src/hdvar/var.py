"""VAR(p) models: companion form, simulation, population moments, stacked regression.

A model is stationary when its companion spectral radius rho is below one;
``simulate`` and ``population_gamma`` raise NotStationary otherwise.

Time ordering convention: the design matrix rows run in ascending time
t = 1..T (estimators are invariant to row permutations and ascending order
keeps forecasting simple).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .errors import ConfigError, NotStationary
from .linalg import spectral_radius

__all__ = [
    "VarModel",
    "CompanionForm",
    "Dataset",
    "RegressionProblem",
    "make_rng",
    "companion",
    "simulate",
    "population_gamma",
    "sigma_t",
    "stack",
    "forecast_one_step",
    "lagged_state",
    "coefficient_matrix",
    "truncate_dataset",
    "write_json",
    "write_csv",
    "save_dataset",
    "load_dataset",
]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) seeded deterministically.

    Replication r of a Monte Carlo run uses seed = base_seed + r, which gives
    non-overlapping streams regardless of execution order.
    """
    return np.random.Generator(np.random.Philox(seed))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class VarModel:
    """Coefficient matrices Phi_1..Phi_p and innovation covariance, all finite; Sigma
    symmetric and positive semidefinite within 1e-10 times its largest entry."""

    phis: tuple
    sigma: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        phis = tuple(_freeze(P) for P in self.phis)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "sigma", _freeze(self.sigma))
        k = self.sigma.shape[0]
        if self.sigma.shape != (k, k):
            raise ValueError("sigma must be square")
        if len(phis) == 0:
            raise ValueError("at least one lag matrix required")
        for P in phis:
            if P.shape != (k, k):
                raise ValueError("each Phi_l must be k x k")
        if not all(np.isfinite(a).all() for a in (self.sigma, *phis)):
            raise ValueError("sigma and every Phi_l must have finite entries")
        tol = 1e-10 * max(np.abs(self.sigma).max(), 1e-300)
        if np.abs(self.sigma - self.sigma.T).max() > tol:
            raise ValueError("sigma must be symmetric")
        if np.linalg.eigvalsh(self.sigma).min() < -tol:
            raise ValueError("sigma must be positive semidefinite")

    @property
    def k(self) -> int:
        return self.sigma.shape[0]

    @property
    def p(self) -> int:
        return len(self.phis)


@dataclass(frozen=True)
class CompanionForm:
    """VAR(1) rewrite: state Z_t = (y_{t-1}',...,y_{t-p}')'."""

    F: np.ndarray
    omega: np.ndarray
    rho: float


@dataclass(frozen=True)
class Dataset:
    """p initial observations plus T estimation observations (rows are time
    points); no innovations, which the model gives as y_t - sum_l Phi_l y_{t-l}."""

    k: int
    p: int
    T: int
    initial: np.ndarray
    path: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial", _freeze(self.initial))
        object.__setattr__(self, "path", _freeze(self.path))
        if self.initial.shape != (self.p, self.k):
            raise ValueError("initial block must be p x k")
        if self.path.shape != (self.T, self.k):
            raise ValueError("path must be T x k")


@dataclass(frozen=True)
class RegressionProblem:
    """Stacked per-equation regression: the shared T x m design X (F-ordered),
    the k x T responses ys (row i is y_i), and the statistics every fit reads,
    formed here once: psi = X'X/T (a BLAS-free, exactly symmetric sum over
    the T rows), xy (row i is X'y_i) and yy (entry i is y_i'y_i).  Every
    array is a read-only copy."""

    X: np.ndarray
    ys: np.ndarray
    k: int = field(init=False)
    p: int = field(init=False)
    T: int = field(init=False)
    m: int = field(init=False)
    psi: np.ndarray = field(init=False)
    xy: np.ndarray = field(init=False)
    yy: np.ndarray = field(init=False)

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64, order="F")
        ys = np.array(self.ys, dtype=np.float64, order="C")
        (T, m), k = X.shape, len(ys)
        if T < 1:
            raise ValueError("need at least one observation")
        # einsum calls no BLAS, so psi's bits do not depend on the BLAS thread count
        psi = np.einsum("ti,tj->ij", X, X) / T
        xy = np.array([X.T @ y for y in ys]).reshape(k, m)
        stats = {"X": X, "ys": ys, "psi": psi, "xy": xy, "yy": np.array([y @ y for y in ys])}
        for a in stats.values():
            a.flags.writeable = False
        for name, value in {**stats, "k": k, "p": m // k, "T": T, "m": m}.items():
            object.__setattr__(self, name, value)


def companion(model: VarModel) -> CompanionForm:
    """Companion matrix F, its innovation covariance, and the spectral radius."""
    cached = model._cache.get("companion")
    if cached is not None:
        return cached
    k, p = model.k, model.p
    n = k * p
    F = np.zeros((n, n))
    for l, P in enumerate(model.phis):
        F[:k, l * k : (l + 1) * k] = P
    if p > 1:
        F[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    omega = np.zeros((n, n))
    omega[:k, :k] = model.sigma
    form = CompanionForm(F=_freeze(F), omega=_freeze(omega), rho=spectral_radius(F))
    model._cache["companion"] = form
    return form


def _stationary_companion(model: VarModel) -> CompanionForm:
    """The companion form of a stationary model; NotStationary at rho >= 1."""
    form = companion(model)
    if form.rho >= 1.0:
        raise NotStationary(f"model is not stationary (rho = {form.rho:.6f} >= 1)")
    return form


def simulate(model: VarModel, T: int, burn_in: int | None = None, seed: int = 0) -> Dataset:
    """Simulate a path of p initial plus T estimation observations.

    Innovations are N(0, Sigma), drawn as standard normals through the Philox
    stream and mapped through a (symmetric PSD) square root of Sigma; the
    recursion starts from a zero state and discards ``burn_in`` steps
    (default 200 + 10 p).  Each step is one product of the stacked lag
    matrices [Phi_p ... Phi_1] with the p previous observations, oldest
    first.  Identical (seed, parameters) give bit-identical output.  T below
    one or a negative ``burn_in`` is a ConfigError.
    """
    k, p = model.k, model.p
    if T < 1:
        raise ConfigError("T must be at least one")
    if burn_in is not None and burn_in < 0:
        raise ConfigError("burn-in must be nonnegative")
    _stationary_companion(model)
    if burn_in is None:
        burn_in = 200 + 10 * p
    n_steps = burn_in + p + T
    rng = make_rng(seed)
    z = rng.standard_normal((n_steps, k))
    try:
        L = np.linalg.cholesky(model.sigma)
    except np.linalg.LinAlgError:
        # PSD but singular (e.g. Sigma = 0): symmetric square root instead
        w, V = np.linalg.eigh(model.sigma)
        L = V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    eps = z @ L.T
    # rows t..t+p-1 of states hold the p observations before row p+t, oldest first
    lags = np.hstack(model.phis[::-1])
    states = np.zeros((p + n_steps, k))
    for t in range(n_steps):
        states[p + t] = lags @ states[t : t + p].ravel() + eps[t]
    return Dataset(k=k, p=p, T=T, initial=states[p + burn_in : p + burn_in + p], path=states[p + burn_in + p :])


def population_gamma(model: VarModel) -> np.ndarray:
    """Population covariance Gamma = E(Z_t Z_t') of the stacked regressors: the
    solution of Gamma = F Gamma F' + Omega by one direct solve (SciPy's
    ``solve_discrete_lyapunov``), symmetrized."""
    cached = model._cache.get("gamma")
    if cached is not None:
        return cached
    form = _stationary_companion(model)
    gamma = solve_discrete_lyapunov(form.F, form.omega)
    gamma = _freeze((gamma + gamma.T) / 2.0)
    model._cache["gamma"] = gamma
    return gamma


def sigma_t(model: VarModel) -> float:
    """max_i (sigma_{i,y} v sigma_{i,eps}): the scale entering the penalty formulas."""
    gamma = population_gamma(model)
    sy = np.sqrt(np.clip(np.diag(gamma)[: model.k], 0.0, None))
    se = np.sqrt(np.clip(np.diag(model.sigma), 0.0, None))
    return float(max(sy.max(), se.max()))


def stack(data: Dataset) -> RegressionProblem:
    """The stacked problem of a dataset: the shared design (rows Z_t', ascending
    t) and the k responses, with the statistics ``RegressionProblem`` forms."""
    k, p, T = data.k, data.p, data.T
    combined = np.vstack([data.initial, data.path])  # rows: y_{1-p}..y_T
    X = np.empty((T, k * p), order="F")
    for l in range(1, p + 1):
        X[:, (l - 1) * k : l * k] = combined[p - l : p - l + T]
    return RegressionProblem(X, data.path.T)


def coefficient_matrix(model: VarModel) -> np.ndarray:
    """True coefficients as a k x kp matrix; row i is beta*_i of equation i."""
    return np.hstack(model.phis)


def lagged_state(data: Dataset) -> np.ndarray:
    """Z_{T+1} = (y_T', ..., y_{T-p+1}')', the regressor vector for forecasting."""
    combined = np.vstack([data.initial, data.path])
    k, p, T = data.k, data.p, data.T
    z = np.empty(k * p)
    for l in range(1, p + 1):
        z[(l - 1) * k : l * k] = combined[p + T - l]
    return z


def forecast_one_step(coefficients: np.ndarray, data: Dataset) -> np.ndarray:
    """One-step-ahead point forecast from fitted (or true) k x kp coefficients."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    return coefficients @ lagged_state(data)


def truncate_dataset(data: Dataset, T: int) -> Dataset:
    """First T estimation observations of a longer dataset (same initial block)."""
    if T > data.T:
        raise ValueError("cannot extend a dataset")
    return Dataset(k=data.k, p=data.p, T=T, initial=data.initial, path=data.path[:T])


def _json_safe(obj):
    """``obj`` as strict JSON: NaN as None, +-inf as "inf"/"-inf", NumPy
    scalars and arrays as Python values, tuples as lists."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def write_json(path: str, payload) -> None:
    """Write ``payload`` to ``path`` as strict JSON, keys sorted, two-space
    indent, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _format_cell(value) -> str:
    """CSV cell of one value: a float's repr, blank for NaN, true/false for a bool."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # NumPy 2 reprs an np.float64 as "np.float64(...)"
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """Write ``header`` and then one line per row of ``rows`` to ``path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_format_cell(v) for v in row] for row in rows)


def save_dataset(data: Dataset, directory: str, name: str = "dataset") -> dict:
    """Write <name>.csv (p initial rows then T path rows) and <name>.meta.json
    ({k, p, T}).  Returns the file map."""
    os.makedirs(directory, exist_ok=True)
    files = {"data": os.path.join(directory, f"{name}.csv"), "meta": os.path.join(directory, f"{name}.meta.json")}
    write_csv(files["data"], [f"y{i + 1}" for i in range(data.k)], np.vstack([data.initial, data.path]))
    write_json(files["meta"], {"k": data.k, "p": data.p, "T": data.T})
    return files


def load_dataset(directory: str, name: str = "dataset") -> Dataset:
    """Load a dataset written by save_dataset; ValueError unless its k, p
    and T are integers of at least one and it holds only finite values.
    Other metadata keys are ignored."""
    with open(os.path.join(directory, f"{name}.meta.json")) as fh:
        meta = json.load(fh)
    for key in ("k", "p", "T"):
        if type(meta[key]) is not int or meta[key] < 1:
            raise ValueError(f"{key} must be an integer of at least one, not {meta[key]!r}")
    k, p, T = meta["k"], meta["p"], meta["T"]
    with open(os.path.join(directory, f"{name}.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no columns
        if len(header) != k:
            raise ValueError(f"expected {k} columns, found {len(header)}")
        values = np.asarray([[float(v) for v in row] for row in reader], dtype=np.float64)
    if values.shape[0] != p + T:
        raise ValueError("row count does not match metadata")
    if not np.isfinite(values).all():
        raise ValueError("the dataset holds a non-finite value")
    return Dataset(k=k, p=p, T=T, initial=values[:p], path=values[p:])

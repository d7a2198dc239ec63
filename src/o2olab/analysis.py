"""Landscape connectivity tooling and regret-table aggregation.

Parameter-space lines and planes operate on actor parameters only.  The
interpolation convention: t = 0 is the pre-trained (offline) endpoint,
t = 1 the fine-tuned one.  Plane bases come from Gram-Schmidt, so the
two spanning directions are numerically orthogonal.

Regret aggregation min-max normalizes mean regrets per environment over
every (offline, online) combination present, then averages the
normalized cells over environments per combination.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import product

import numpy as np

from .errors import ShapeError
from .networks import GaussianPolicy
from .numkit import ParamStack, ParamVector
from .pipeline import greedy_returns, mean_stderr
from .tables import read_table, write_table

COLLINEAR_TOL = 1e-8


# ----------------------------------------------------------------------
# Lines and planes in actor parameter space
# ----------------------------------------------------------------------


def interpolate_eval(
    policy_template: GaussianPolicy,
    theta_offline: ParamVector,
    theta_online: ParamVector,
    ts,
    env,
    episodes: int,
    seed: int,
):
    """Evaluate the actor along the line between two checkpoints.

    theta(t) = (1 - t) * offline + t * online; the endpoints reuse the
    original parameter arrays so t in {0, 1} reproduces the endpoint
    evaluations exactly.  Every point is evaluated with the same seed, all
    of them in one stacked rollout.  Returns [(t, mean, stderr)].
    """
    if theta_offline.values.size != theta_online.values.size:
        raise ShapeError("endpoint parameter vectors differ in length")
    ts = [float(t) for t in ts]
    rows = []
    for t in ts:
        if t == 0.0:
            rows.append(theta_offline.values)
        elif t == 1.0:
            rows.append(theta_online.values)
        else:
            rows.append((1.0 - t) * theta_offline.values + t * theta_online.values)
    stack = ParamStack(theta_offline.spec, np.stack(rows))
    returns = greedy_returns(policy_template.with_params(stack), env, episodes, seed)
    return [(t, *mean_stderr(r)) for t, r in zip(ts, returns)]


@dataclass(frozen=True)
class PlaneBasis:
    """Origin plus two orthogonal spanning directions."""

    origin: ParamVector
    u: np.ndarray
    v: np.ndarray

    @property
    def u_norm(self) -> float:
        return float(np.linalg.norm(self.u))

    @property
    def v_norm(self) -> float:
        return float(np.linalg.norm(self.v))


def plane_basis(theta1: ParamVector, theta2: ParamVector, theta3: ParamVector) -> PlaneBasis:
    """Span the plane through three checkpoints.

    u = theta2 - theta1 is kept as-is; v = theta3 - theta1 has its
    component along u removed.  Degenerate and collinear inputs are
    rejected with the offending cosine reported.
    """
    n = theta1.values.size
    if theta2.values.size != n or theta3.values.size != n:
        raise ShapeError("checkpoint parameter vectors differ in length")
    u = theta2.values - theta1.values
    v = theta3.values - theta1.values
    u_norm = np.linalg.norm(u)
    v_norm = np.linalg.norm(v)
    if u_norm == 0.0:
        raise ValueError("theta2 equals theta1; the plane is degenerate")
    if v_norm == 0.0:
        raise ValueError("theta3 equals theta1; the plane is degenerate")
    cos = float(u @ v / (u_norm * v_norm))
    v_prime = v - (u @ v / (u @ u)) * u
    if np.linalg.norm(v_prime) <= COLLINEAR_TOL * v_norm:
        raise ValueError(f"inputs are collinear (cosine {cos:.6f}); cannot span a plane")
    return PlaneBasis(origin=theta1, u=u, v=v_prime)


def plane_grid_eval(
    policy_template: GaussianPolicy,
    basis: PlaneBasis,
    env,
    episodes: int,
    seed: int,
    grid_lo: float = -0.2,
    grid_hi: float = 1.2,
    resolution: int = 15,
):
    """Mean return at theta(l, t) = origin + l*u + t*v over a square grid.

    Returns (matrix indexed [t_index, l_index], l coordinates,
    t coordinates).  Cells are independent evaluations sharing a seed,
    all of them in one stacked rollout.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    coords = np.linspace(grid_lo, grid_hi, resolution)
    # Cell (ti, li) is row ti * resolution + li.
    ls, ts = coords[None, :, None], coords[:, None, None]
    values = basis.origin.values + ls * basis.u + ts * basis.v
    stack = ParamStack(basis.origin.spec, values.reshape(resolution * resolution, -1))
    returns = greedy_returns(policy_template.with_params(stack), env, episodes, seed)
    returns = returns.mean(axis=1).reshape(resolution, resolution)
    return returns, coords.copy(), coords.copy()


def export_checkpoint_matrix(checkpoints, path=None) -> np.ndarray:
    """Stack flattened actor parameters, one checkpoint per row.

    Intended for external projection tools; duplicates are kept.  When
    `path` is given the matrix is also written as CSV with full float64
    round-trip precision.
    """
    rows = []
    width = None
    for ckpt in checkpoints:
        values = ckpt.values if isinstance(ckpt, ParamVector) else np.asarray(ckpt, dtype=np.float64)
        values = values.reshape(-1)
        if width is None:
            width = values.size
        elif values.size != width:
            raise ShapeError("checkpoints have mismatching parameter counts")
        rows.append(values)
    matrix = np.stack(rows)
    if path is not None:
        write_table(path, None, (float,) * width, matrix)
    return matrix


# ----------------------------------------------------------------------
# Regret records and Table aggregation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RegretRecord:
    """Mean online regret of one (env, offline, online) combination."""

    env: str
    offline_alg: str
    online_alg: str
    mean_regret: float
    stderr: float = 0.0


def regret_from_evals(per_seed_returns, r_star: float):
    """Time-averaged regret against the best observed reward.

    `per_seed_returns` holds one array of per-eval-step mean rewards per
    seed.  Returns (mean regret over seeds, standard error over seeds,
    seed-mean reward stream).
    """
    per_seed = [np.asarray(r, dtype=np.float64) for r in per_seed_returns]
    if not per_seed:
        raise ValueError("need at least one seed")
    lengths = {r.size for r in per_seed}
    if len(lengths) != 1:
        raise ShapeError(f"eval streams differ in length: {sorted(lengths)}")
    regrets = np.array([float(np.mean(r_star - r)) for r in per_seed])
    mean = float(regrets.mean())
    stderr = 0.0 if regrets.size == 1 else float(regrets.std(ddof=1) / np.sqrt(regrets.size))
    return mean, stderr, np.mean(per_seed, axis=0)


@dataclass
class RegretTable:
    """Raw records plus per-environment normalized values and their
    across-environment averages."""

    records: list[RegretRecord]
    envs: list[str]
    offline_algs: list[str]
    online_algs: list[str]
    normalized_cells: dict  # (env, offline, online) -> value in [0, 1]
    averaged: dict  # (offline, online) -> mean over envs


def aggregate_normalized_regret(records) -> RegretTable:
    """Min-max normalize per environment, then average per combination.

    The normalization pool for an environment is every (offline, online)
    cell in that environment, so each environment's best cell maps to 0
    and its worst to 1.  A degenerate environment (all regrets equal)
    maps every cell to 0.  Missing cells are rejected by name.
    """
    records = list(records)
    envs = sorted({r.env for r in records})
    offline_algs = sorted({r.offline_alg for r in records})
    online_algs = sorted({r.online_alg for r in records})
    cells = {}
    for r in records:
        cells[(r.env, r.offline_alg, r.online_alg)] = r.mean_regret
    missing = [
        (env, off, on)
        for env in envs
        for off in offline_algs
        for on in online_algs
        if (env, off, on) not in cells
    ]
    if missing:
        raise ValueError(f"missing regret cells: {missing}")

    normalized = {}
    for env in envs:
        values = np.array([cells[(env, off, on)] for off in offline_algs for on in online_algs])
        lo, hi = values.min(), values.max()
        span = hi - lo
        for off in offline_algs:
            for on in online_algs:
                raw = cells[(env, off, on)]
                normalized[(env, off, on)] = 0.0 if span == 0.0 else float((raw - lo) / span)
    averaged = {
        (off, on): float(np.mean([normalized[(env, off, on)] for env in envs]))
        for off in offline_algs
        for on in online_algs
    }
    return RegretTable(
        records=records,
        envs=envs,
        offline_algs=offline_algs,
        online_algs=online_algs,
        normalized_cells=normalized,
        averaged=averaged,
    )


REGRET_RECORDS_TABLE = (
    ("env", "offline_alg", "online_alg", "mean_regret", "stderr"),
    (str, str, str, float, float),
)
# A regret table row is a record's fields, then its normalized value and
# the average of that over environments.
REGRET_TABLE = (
    REGRET_RECORDS_TABLE[0] + ("normalized", "averaged_over_envs"),
    REGRET_RECORDS_TABLE[1] + (float, float),
)


def write_regret_records(records, path):
    write_table(path, *REGRET_RECORDS_TABLE, map(astuple, records))


def read_regret_records(path) -> list[RegretRecord]:
    """Parse a regret records CSV.  A non-finite `mean_regret` or
    `stderr` is refused with the rest of `tables.read_table`'s checks:
    one NaN would spread into every normalized cell of its environment."""
    return [RegretRecord(*row) for row in read_table(path, *REGRET_RECORDS_TABLE)]


def write_regret_table(table: RegretTable, path):
    """CSV with raw mean regret, stderr, per-env normalized value, and
    the across-environment average repeated per combination."""
    by_key = {(r.env, r.offline_alg, r.online_alg): r for r in table.records}
    rows = [
        (*astuple(by_key[key]), table.normalized_cells[key], table.averaged[key[1:]])
        for key in product(table.envs, table.offline_algs, table.online_algs)
    ]
    write_table(path, *REGRET_TABLE, rows)

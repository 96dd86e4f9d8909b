"""ARX polynomial models (paper Equation 3) and least-squares fitting.

The System Identification methodology of Section V-A: run training
applications while exciting the inputs, log ``(u, y)``, and fit

    y(T) = a_1 y(T-1) + ... + a_m y(T-m)
         + b_1 u(T) + ... + b_n u(T-n+1)

by least squares.  The model here is multi-input single-output: ``u`` has
one column per actuator (normalized DVFS, idle, balloon) and ``y`` is the
normalized power deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statespace import StateSpace

__all__ = ["ArxModel", "fit_arx", "fit_arx_records"]


@dataclass(frozen=True)
class ArxModel:
    """MISO ARX model with output order ``na`` and input order ``nb``.

    ``a_coeffs`` has shape ``(na,)`` (a_1..a_m); ``b_coeffs`` has shape
    ``(nb, n_inputs)`` where row ``j`` multiplies ``u(T-j)`` (row 0 is the
    direct feedthrough b_1 of Equation 3).
    """

    a_coeffs: np.ndarray
    b_coeffs: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a_coeffs, dtype=float).reshape(-1)
        b = np.atleast_2d(np.asarray(self.b_coeffs, dtype=float))
        if a.size == 0 or b.size == 0:
            raise ValueError("ARX model needs at least one a and one b coefficient")
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "b_coeffs", b)

    @property
    def na(self) -> int:
        return self.a_coeffs.size

    @property
    def nb(self) -> int:
        return self.b_coeffs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b_coeffs.shape[1]

    def predict(self, y_history: np.ndarray, u_history: np.ndarray) -> float:
        """One-step prediction.

        ``y_history``: the last ``na`` outputs, most recent first.
        ``u_history``: shape ``(nb, n_inputs)``, row 0 the *current* input.
        """
        y_history = np.asarray(y_history, dtype=float).reshape(self.na)
        u_history = np.asarray(u_history, dtype=float).reshape(self.nb, self.n_inputs)
        return float(self.a_coeffs @ y_history + np.sum(self.b_coeffs * u_history))

    def predict_record(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """:meth:`predict` of ``y[t]`` for each ``t >= max(na, nb - 1)`` of a record.

        ``y`` has shape ``(T,)`` and ``u`` shape ``(T, n_inputs)``; the
        predictions come from one product with the regression rows.
        """
        phi, _ = _regression_rows(
            np.asarray(y, dtype=float).reshape(-1), np.atleast_2d(u), self.na, self.nb
        )
        return phi @ np.concatenate([self.a_coeffs, self.b_coeffs.ravel()])

    def simulate(self, inputs: np.ndarray) -> np.ndarray:
        """Free-run simulation from zero initial conditions."""
        return self.to_statespace().simulate(inputs)[:, 0]

    def to_statespace(self) -> StateSpace:
        """Shift-register realization with direct feedthrough.

        State = [y(T-1)..y(T-na), u_1(T-1)..u_1(T-nb+1), u_2(...), ...];
        dimension ``na + (nb-1) * n_inputs``.
        """
        na, nb, k = self.na, self.nb, self.n_inputs
        n_states = na + (nb - 1) * k
        a_mat = np.zeros((n_states, n_states))
        b_mat = np.zeros((n_states, k))
        c_row = np.zeros((1, n_states))
        d_row = self.b_coeffs[0:1, :].copy()

        # Output row: y(T) = a . y_hist + sum_{j>=1} b_{j+1} . u(T-j) + b_1 u(T)
        c_row[0, :na] = self.a_coeffs
        for j in range(1, nb):
            for i in range(k):
                c_row[0, na + (j - 1) * k + i] = self.b_coeffs[j, i]

        # y shift register: first slot receives y(T) = C x + D u.
        a_mat[0, :] = c_row[0, :]
        b_mat[0, :] = d_row[0, :]
        for row in range(1, na):
            a_mat[row, row - 1] = 1.0

        # u shift registers: first slot of each receives u_i(T).
        base = na
        for i in range(k):
            b_mat[base + i, i] = 1.0
        for j in range(1, nb - 1):
            for i in range(k):
                a_mat[base + j * k + i, base + (j - 1) * k + i] = 1.0

        return StateSpace(a_mat, b_mat, c_row, d_row)

    def dc_gain(self) -> np.ndarray:
        """Steady-state gain from each input to the output."""
        denom = 1.0 - self.a_coeffs.sum()
        if abs(denom) < 1e-12:
            raise ZeroDivisionError("model has an integrator; DC gain undefined")
        return self.b_coeffs.sum(axis=0) / denom


def fit_arx(
    y: np.ndarray,
    u: np.ndarray,
    na: int,
    nb: int,
    ridge: float = 1e-8,
) -> ArxModel:
    """Least-squares ARX fit of one experiment record.

    ``y`` has shape ``(T,)``; ``u`` has shape ``(T, n_inputs)``, aligned so
    ``u[t]`` is the input applied during interval ``t`` (and therefore
    already influencing ``y[t]``, matching Equation 3's ``b_1 u(T)`` term).
    A tiny ridge term keeps the normal equations well-posed when the
    excitation is weak.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[0] != y.size:
        raise ValueError("y and u must have the same number of rows")
    if na < 1 or nb < 1:
        raise ValueError("na and nb must be >= 1")
    history = max(na, nb - 1)
    if y.size <= history + na + nb * u.shape[1]:
        raise ValueError("not enough samples to fit the requested orders")

    phi, tgt = _regression_rows(y, u, na, nb)
    return _solve(phi, tgt, na, nb, u.shape[1], ridge)


def fit_arx_records(
    records: list[tuple[np.ndarray, np.ndarray]],
    na: int,
    nb: int,
    ridge: float = 1e-8,
) -> ArxModel:
    """Fit one ARX model across several experiment runs.

    Each record is an independent ``(y, u)`` pair; regression rows never
    straddle run boundaries, exactly as the system-identification runs of
    different training applications must be kept separate.
    """
    if not records:
        raise ValueError("need at least one record")
    phis = []
    tgts = []
    n_inputs = np.atleast_2d(records[0][1]).shape[1]
    for y, u in records:
        phi, tgt = _regression_rows(
            np.asarray(y, dtype=float).reshape(-1), np.atleast_2d(u), na, nb
        )
        phis.append(phi)
        tgts.append(tgt)
    return _solve(np.vstack(phis), np.concatenate(tgts), na, nb, n_inputs, ridge)


def _regression_rows(
    y: np.ndarray, u: np.ndarray, na: int, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``t``: ``y[t-1] .. y[t-na]``, then ``u[t] .. u[t-nb+1]``; target ``y[t]``."""
    history = max(na, nb - 1)
    if y.size <= history:
        raise ValueError("record too short for the requested orders")
    t = np.arange(history, y.size)[:, None]
    past_u = u[t - np.arange(nb)].reshape(t.size, -1)
    return np.hstack([y[t - 1 - np.arange(na)], past_u]), y[history:]


def _solve(
    phi: np.ndarray, tgt: np.ndarray, na: int, nb: int, n_inputs: int, ridge: float
) -> ArxModel:
    gram = phi.T @ phi + ridge * np.eye(phi.shape[1])
    theta = np.linalg.solve(gram, phi.T @ tgt)
    return ArxModel(theta[:na], theta[na:].reshape(nb, n_inputs))

"""Periodic steady states of the harmonically driven master equation.

The primary solver expands rho(t) = sum_n rho_n e^{i n delta t} and solves
the block-tridiagonal balance equations

    (L0 - i n delta) rho_n + L(+1) rho_{n-1} + L(-1) rho_{n+1} = 0

for |n| <= order, with one scalar equation replaced by trace(rho_0) = 1.
The system is banded (block bandwidth 2 dim^2 - 1) and solved directly.

An independent oracle integrates the master equation with a fixed-step RK4
scheme: the one-period propagator and the period-average operator are built
once, then iterated period by period until the period-averaged density
matrix settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .atom import DegenerateModelError, LiouvillianHarmonics

MAX_ORDER = 25


class SolverError(RuntimeError):
    """Steady-state solve produced an unusable result."""


class ConvergenceError(SolverError):
    """Iteration or truncation ladder failed to converge."""


@dataclass
class FloquetDensity:
    """Harmonics rho_n of the periodic steady state, n in [-order, order]."""

    order: int
    delta: float
    harmonics: np.ndarray  # (2*order + 1, dim, dim)

    def harmonic(self, n: int) -> np.ndarray:
        if abs(n) > self.order:
            raise IndexError(f"harmonic {n} outside truncation order {self.order}")
        return self.harmonics[n + self.order]

    def reconstruct(self, t: float) -> np.ndarray:
        """Density matrix at time t, rho(t) = sum_n rho_n e^{i n delta t}."""
        n = np.arange(-self.order, self.order + 1)
        phases = np.exp(1j * self.delta * t * n)
        return np.tensordot(phases, self.harmonics, axes=1)

    def invariant_violations(self, atol: float = 1e-10) -> list[str]:
        """Check trace, Hermiticity pairing and population bounds."""
        problems = []
        rho0 = self.harmonic(0)
        if abs(np.trace(rho0) - 1.0) > atol:
            problems.append(f"trace(rho_0) = {np.trace(rho0):.3e} != 1")
        for n in range(1, self.order + 1):
            if abs(np.trace(self.harmonic(n))) > atol:
                problems.append(f"trace(rho_{n}) != 0")
            mismatch = np.max(np.abs(self.harmonic(-n) - self.harmonic(n).conj().T))
            if mismatch > atol:
                problems.append(f"rho_-{n} != rho_{n}^dagger (max dev {mismatch:.3e})")
        pops = np.diag(rho0)
        if np.max(np.abs(pops.imag)) > atol:
            problems.append("populations not real")
        if np.min(pops.real) < -atol or np.max(pops.real) > 1.0 + atol:
            problems.append(f"populations outside [0, 1]: {pops.real}")
        return problems


@dataclass
class TimeTrace:
    """Sampled final period of the time-domain integration."""

    times: np.ndarray            # absolute times across the final period
    states: np.ndarray           # (samples, dim, dim) at those times
    convergence: float           # last period-to-period change of the average
    periods: int                 # periods integrated before convergence
    change_history: np.ndarray   # change metric per period transition
    average_history: np.ndarray  # (periods, dim, dim) period-averaged rho


def _block_views(x: np.ndarray, order: int, dim: int) -> np.ndarray:
    return x.reshape(2 * order + 1, dim, dim)


def _assemble_banded(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray,
                     delta: float, order: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Banded (LAPACK gbsv layout) harmonic-balance matrix and right-hand side."""
    dim2 = l0.shape[0]
    dim = math.isqrt(dim2)
    nblocks = 2 * order + 1
    size = nblocks * dim2
    half = 2 * dim2 - 1
    ab = np.zeros((2 * half + 1, size), dtype=complex)

    rows = np.arange(dim2)[:, None]
    cols = np.arange(dim2)[None, :]
    band_diag = half + rows - cols
    band_sub = band_diag + dim2      # equation block b, unknown block b-1
    band_super = band_diag - dim2    # equation block b, unknown block b+1
    eye = np.eye(dim2)

    for b in range(nblocks):
        n = b - order
        ab[band_diag, b * dim2 + cols] = l0 - (1j * n * delta) * eye
        if b >= 1:
            ab[band_sub, (b - 1) * dim2 + cols] = lp
        if b + 1 < nblocks:
            ab[band_super, (b + 1) * dim2 + cols] = lm

    # Replace the rho_0 (1,1)-element equation by trace(rho_0) = 1.
    r = order * dim2
    js = np.arange(max(0, r - half), min(size, r + half + 1))
    ab[half + r - js, js] = 0.0
    trace_cols = order * dim2 + np.arange(dim) * (dim + 1)
    ab[half + r - trace_cols, trace_cols] = 1.0

    rhs = np.zeros(size, dtype=complex)
    rhs[r] = 1.0
    return ab, rhs, half


def _assemble_dense(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray,
                    delta: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense counterpart of the banded assembly (used as a cross-check)."""
    dim2 = l0.shape[0]
    dim = math.isqrt(dim2)
    nblocks = 2 * order + 1
    size = nblocks * dim2
    a = np.zeros((size, size), dtype=complex)
    eye = np.eye(dim2)
    for b in range(nblocks):
        n = b - order
        sl = slice(b * dim2, (b + 1) * dim2)
        a[sl, sl] = l0 - (1j * n * delta) * eye
        if b >= 1:
            a[sl, (b - 1) * dim2:b * dim2] = lp
        if b + 1 < nblocks:
            a[sl, (b + 1) * dim2:(b + 2) * dim2] = lm
    r = order * dim2
    a[r, :] = 0.0
    a[r, order * dim2 + np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(size, dtype=complex)
    rhs[r] = 1.0
    return a, rhs


def _check_residual(x: np.ndarray, l0, lp, lm, delta: float, order: int) -> None:
    dim2 = l0.shape[0]
    dim = math.isqrt(dim2)
    blocks = x.reshape(2 * order + 1, dim2)
    n_range = np.arange(-order, order + 1)
    res = blocks @ l0.T - (1j * delta) * n_range[:, None] * blocks
    res[1:] += blocks[:-1] @ lp.T
    res[:-1] += blocks[1:] @ lm.T
    res[order, 0] = np.sum(blocks[order].reshape(dim, dim).diagonal()) - 1.0
    scale = max(1.0, np.abs(l0).sum(axis=1).max() + np.abs(lp).sum(axis=1).max()
                + np.abs(lm).sum(axis=1).max() + order * delta)
    bound = 1e-7 * scale * max(1.0, np.abs(x).max())
    worst = np.abs(res).max()
    if worst > bound:
        raise DegenerateModelError(
            f"harmonic-balance system is singular or ill-conditioned "
            f"(residual {worst:.3e} exceeds {bound:.3e})")


def solve_floquet(liouv: LiouvillianHarmonics, delta: float,
                  order: int) -> FloquetDensity:
    """Periodic steady state by harmonic balance at the given truncation.

    Raises DegenerateModelError when the constrained linear system is
    singular (for instance probe, pump and couplings all off, which leaves
    the two ground populations decoupled) and SolverError when the solution
    violates the trace/Hermiticity invariants.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    dim = liouv.dim

    drive_off = not (np.any(liouv.l_plus) or np.any(liouv.l_minus))
    if drive_off:
        stationary = sum(
            1 for j in range(dim)
            if np.abs(liouv.l0[:, j * dim + j]).max() < 1e-30)
        if stationary >= 2:
            raise DegenerateModelError(
                "steady state not unique: more than one decoupled stationary "
                "population (probe, pump and couplings all off)")

    ab, rhs, half = _assemble_banded(liouv.l0, liouv.l_plus, liouv.l_minus,
                                     delta, order)
    try:
        x = scipy.linalg.solve_banded((half, half), ab, rhs,
                                      overwrite_ab=True, overwrite_b=True,
                                      check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(
            f"harmonic-balance system is singular: {exc}") from exc

    _check_residual(x, liouv.l0, liouv.l_plus, liouv.l_minus, delta, order)
    result = FloquetDensity(order=order, delta=delta,
                            harmonics=_block_views(x, order, dim))
    problems = result.invariant_violations(atol=1e-8)
    if problems:
        raise SolverError("steady-state invariants violated: " + "; ".join(problems))
    return result


def harmonic_tail_ok(fd: FloquetDensity, rel: float = 1e-6) -> bool:
    """Truncation-order sanity: the edge harmonics must be negligible."""
    top = max(np.linalg.norm(fd.harmonic(fd.order)),
              np.linalg.norm(fd.harmonic(-fd.order)))
    return top <= rel * np.linalg.norm(fd.harmonic(0))


def solve_converged(liouv: LiouvillianHarmonics, delta: float, order: int = 1,
                    order_cap: int = MAX_ORDER) -> FloquetDensity:
    """Steady state at the first truncation order whose harmonic tail passes.

    Starts at ``order`` (at most ``order_cap``) and raises the order n to
    max(n + 2, ceil(1.4 n)) until ``harmonic_tail_ok`` accepts the solve;
    raises ConvergenceError when the tail still fails at ``order_cap``.
    """
    n = min(order, order_cap)
    while True:
        fd = solve_floquet(liouv, delta, n)
        if harmonic_tail_ok(fd):
            return fd
        if n >= order_cap:
            raise ConvergenceError(
                f"harmonic tail not negligible at truncation order {n}")
        n = min(order_cap, max(n + 2, math.ceil(1.4 * n)))


def extract_dc_coherences(fd: FloquetDensity) -> tuple[complex, complex]:
    """Static optical coherences (rho31, rho41) of the zeroth harmonic."""
    rho0 = fd.harmonic(0)
    return complex(rho0[2, 0]), complex(rho0[3, 0])


def choose_truncation(liouv: LiouvillianHarmonics, delta: float,
                      tol: float = 1e-8, order_max: int = MAX_ORDER) -> int:
    """Smallest truncation order whose dc coherences are stable under order + 2.

    Walks the odd ladder 1, 3, 5, ... comparing the extracted (rho31, rho41)
    between successive solves; converged when both change by less than
    ``tol`` relative (with a tiny absolute floor for vanishing coherences).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    prev = extract_dc_coherences(solve_floquet(liouv, delta, 1))
    order = 1
    while order + 2 <= order_max:
        cur = extract_dc_coherences(solve_floquet(liouv, delta, order + 2))
        ok = all(abs(c - p) <= tol * abs(c) + 1e-14 for c, p in zip(cur, prev))
        if ok:
            return order
        prev = cur
        order += 2
    raise ConvergenceError(
        f"coherences not stable to {tol:g} at truncation order {order_max}")


def _period_operators(liouv: LiouvillianHarmonics, delta: float,
                      samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One-period RK4 propagator, period-average operator and checkpoints.

    The step resolves both the drive period and the relaxation time (each
    divided 200 ways) and additionally keeps the fastest generator frequency
    accurate to ~1e-7 per mode, so the forced response is converged well
    below the oracle tolerances.
    """
    l0, lp, lm = liouv.l0, liouv.l_plus, liouv.l_minus
    dim2 = l0.shape[0]
    period = 2.0 * math.pi / delta

    decay_scale = max(1.0, float(np.max(-l0.diagonal().real, initial=0.0)))
    dt_cap = min(period, 1.0 / decay_scale) / 200.0
    spectral = float(np.abs(l0).sum(axis=1).max()
                     + np.abs(lp).sum(axis=1).max()
                     + np.abs(lm).sum(axis=1).max())
    dt_acc = 0.059 / max(spectral, 1.0)

    steps = math.ceil(period / min(dt_cap, dt_acc))
    steps = samples * math.ceil(steps / samples)
    h = period / steps

    symmetric = np.array_equal(lp, lm)
    phase = np.exp(1j * delta * h * 0.5 * np.arange(2 * steps + 1))

    def gen(idx: int) -> np.ndarray:
        c = phase[idx]
        if symmetric:
            return l0 + (2.0 * c.real) * lp
        return l0 + c * lp + np.conj(c) * lm

    prop = np.eye(dim2, dtype=complex)
    checkpoints = np.empty((samples + 1, dim2, dim2), dtype=complex)
    checkpoints[0] = prop
    group = steps // samples

    m_next = gen(0)
    for s in range(steps):
        m1 = m_next
        m2 = gen(2 * s + 1)
        m3 = gen(2 * s + 2)
        k1 = m1 @ prop
        k2 = m2 @ (prop + (0.5 * h) * k1)
        k3 = m2 @ (prop + (0.5 * h) * k2)
        k4 = m3 @ (prop + h * k3)
        prop = prop + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        m_next = m3
        if (s + 1) % group == 0:
            checkpoints[(s + 1) // group] = prop

    avg_op = (0.5 * checkpoints[0] + checkpoints[1:-1].sum(axis=0)
              + 0.5 * checkpoints[-1]) / samples
    return prop, avg_op, checkpoints, steps


def integrate_to_period_average(
        liouv: LiouvillianHarmonics, delta: float,
        rho0: np.ndarray | None = None, horizon: int = 20000,
        tol: float = 1e-9, samples_per_period: int = 512,
) -> tuple[np.ndarray, TimeTrace]:
    """Time-domain oracle: integrate to the periodic steady state.

    Fixed-step RK4 integration, organised as one matrix integration over a
    single drive period (the generator is periodic, so the per-period update
    repeats exactly) followed by period-by-period propagation. Converged
    when the period-averaged density matrix changes by less than ``tol``
    between consecutive periods; returns that average (the zeroth harmonic)
    and the sampled final period.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if horizon < 2:
        raise ValueError("horizon must cover at least two periods")
    dim = liouv.dim
    if rho0 is None:
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = rho0[1, 1] = 0.5  # unbiased equal ground-state mixture
    rho0 = np.asarray(rho0, dtype=complex)
    if np.max(np.abs(rho0 - rho0.conj().T)) > 1e-9:
        raise ValueError("initial state must be Hermitian")
    if abs(np.trace(rho0) - 1.0) > 1e-9:
        raise ValueError("initial state must have unit trace")
    if np.min(np.linalg.eigvalsh(rho0)) < -1e-9:
        raise ValueError("initial state must be positive semidefinite")

    monodromy, avg_op, checkpoints, steps = _period_operators(
        liouv, delta, samples_per_period)
    period = 2.0 * math.pi / delta

    v = rho0.reshape(-1)
    prev_avg = None
    changes: list[float] = []
    averages: list[np.ndarray] = []
    for p in range(horizon):
        avg = avg_op @ v
        averages.append(avg.reshape(dim, dim))
        if prev_avg is not None:
            change = float(np.max(np.abs(avg - prev_avg)))
            changes.append(change)
            if change < tol:
                sample_states = np.einsum("sij,j->si", checkpoints[:-1], v)
                times = p * period + period * np.arange(samples_per_period) / samples_per_period
                trace = TimeTrace(
                    times=times,
                    states=sample_states.reshape(samples_per_period, dim, dim),
                    convergence=change,
                    periods=p + 1,
                    change_history=np.array(changes),
                    average_history=np.array(averages),
                )
                return avg.reshape(dim, dim), trace
        prev_avg = avg
        v = monodromy @ v

    raise ConvergenceError(
        f"no periodic steady state within {horizon} periods "
        f"(last change {changes[-1] if changes else float('nan'):.3e}, tol {tol:g})")


def steady_state_static(l0: np.ndarray) -> np.ndarray:
    """Steady state of a static generator: L0 rho = 0 with trace(rho) = 1."""
    dim2 = l0.shape[0]
    dim = math.isqrt(dim2)
    a = l0.copy()
    a[0, :] = 0.0
    a[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(dim2, dtype=complex)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError(f"static steady state not unique: {exc}") from exc
    res = l0 @ x
    res[0] = 0.0
    scale = max(1.0, np.abs(l0).sum(axis=1).max()) * max(1.0, np.abs(x).max())
    if np.abs(res).max() > 1e-8 * scale or abs(x[::dim + 1].sum() - 1.0) > 1e-8:
        raise DegenerateModelError("static steady state is ill-conditioned")
    return x.reshape(dim, dim)

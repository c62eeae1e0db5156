"""Periodic steady states of the harmonically driven master equation.

The primary solver expands rho(t) = sum_n rho_n e^{i n delta t} and solves
the block-tridiagonal balance equations

    (L0 - i n delta) rho_n + L(+1) rho_{n-1} + L(-1) rho_{n+1} = 0

for |n| <= order, with one scalar equation replaced by trace(rho_0) = 1.
A matrix continued fraction solves the system exactly, for a whole batch
of generators at once (one stacked dim^2 x dim^2 solve per harmonic).

An independent oracle integrates the master equation with a fixed-step RK4
scheme: the one-period propagator and the period-average operator are built
once, then iterated period by period until the period-averaged density
matrix settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atom import DegenerateModelError, LiouvillianHarmonics

MAX_ORDER = 25
# continued-fraction storage of one solve chunk. Measured on fig4, 1 MiB
# keeps the peak memory where the rest of the run puts it; 2 MiB lifts it
# by about 1 MiB and 4 MiB by 2 MiB, with no measurable gain in time
CHUNK_BYTES = 2 ** 20
COMPLEX_BYTES = 16


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
        return _invariant_violations(self.harmonics[None], atol)[0]


def _invariant_violations(harmonics: np.ndarray, atol: float) -> list[list[str]]:
    """Invariant problems of each member of a (batch, 2 order + 1, dim, dim) stack."""
    order = (harmonics.shape[1] - 1) // 2
    traces = np.trace(harmonics, axis1=2, axis2=3)
    pairs = np.abs(harmonics[:, order - 1::-1]
                   - harmonics[:, order + 1:].conj().swapaxes(2, 3)).max(axis=(2, 3))
    pops = np.diagonal(harmonics[:, order], axis1=1, axis2=2)
    bad = ~((np.abs(traces[:, order] - 1.0) <= atol)
            & np.all(np.abs(traces[:, order + 1:]) <= atol, axis=1)
            & np.all(pairs <= atol, axis=1)
            & np.all(np.abs(pops.imag) <= atol, axis=1)
            & np.all((pops.real >= -atol) & (pops.real <= 1.0 + atol), axis=1))
    problems: list[list[str]] = [[] for _ in range(harmonics.shape[0])]
    for b in np.flatnonzero(bad):
        found = problems[b]
        trace0 = traces[b, order]
        if not abs(trace0 - 1.0) <= atol:
            found.append(f"trace(rho_0) = {trace0:.3e} != 1")
        for n in range(1, order + 1):
            if not abs(traces[b, order + n]) <= atol:
                found.append(f"trace(rho_{n}) != 0")
            if not pairs[b, n - 1] <= atol:
                found.append(f"rho_-{n} != rho_{n}^dagger (max dev {pairs[b, n - 1]:.3e})")
        if not np.max(np.abs(pops[b].imag)) <= atol:
            found.append("populations not real")
        if not (np.min(pops[b].real) >= -atol and np.max(pops[b].real) <= 1.0 + atol):
            found.append(f"populations outside [0, 1]: {pops[b].real}")
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


def _assemble_dense(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray,
                    delta: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense harmonic-balance matrix and right-hand side (a test-side cross-check)."""
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


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack; an exactly singular member gives NaN.

    LAPACK solves every member on its own, so a member's result does not
    depend on the stack it is in.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        b = np.broadcast_to(b, a.shape[:-2] + b.shape[-2:])
        x = np.full(b.shape, np.nan, dtype=complex)
        for idx in np.ndindex(a.shape[:-2]):
            try:
                x[idx] = np.linalg.solve(a[idx], b[idx])
            except np.linalg.LinAlgError:
                pass
        return x


def _with_trace_row(a: np.ndarray) -> np.ndarray:
    """``a`` (a stack of dim^2 x dim^2 generators) with its (1,1) row replaced
    by the trace functional, in place."""
    dim = math.isqrt(a.shape[-1])
    a[..., 0, :] = 0.0
    a[..., 0, np.arange(dim) * (dim + 1)] = 1.0
    return a


def _fraction_blocks(l0, lp, lm, delta: float, st: np.ndarray, members=slice(None)):
    """A_n = L0 -/+ i n delta + L(-/+1) S_{n+1}/T_{n+1} for n = order ... 1.

    Yields (n, A_n, closing) with both sides stacked first (0: S, n > 0;
    1: T, n < 0) and the closing drive terms (L(-1), L(+1)). ``l0`` holds
    the given ``members`` of the batch that ``st`` covers. A_n reads
    st[n], so the continued fraction fills st[n] before it asks for the
    next block.
    """
    sign = np.array([1.0, -1.0])[:, None, None, None]
    closing = np.stack([lm, lp])[:, None]
    eye = np.eye(lp.shape[0])
    order = st.shape[0]
    for n in range(order, 0, -1):
        a = l0 - (1j * n * delta) * sign * eye
        if n < order:
            a += closing @ st[n][:, members]
        yield n, a, closing


def _continued_fraction(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray,
                        delta: float, order: int):
    """Harmonics of a batch of generators by the matrix continued fraction.

    ``l0`` is a (batch, dim^2, dim^2) stack sharing ``lp`` and ``lm``. With
    S_{N+1} = T_{N+1} = 0 the recursion

        S_n = -(L0 - i n delta + L(-1) S_{n+1})^-1 L(+1),   rho_n = S_n rho_{n-1}
        T_n = -(L0 + i n delta + L(+1) T_{n+1})^-1 L(-1),   rho_-n = T_n rho_-(n-1)

    eliminates every harmonic but the zeroth, which solves
    (L0 + L(+1) T_1 + L(-1) S_1) rho_0 = 0 with its (1,1) row replaced by
    trace(rho_0) = 1. This is the truncated balance system solved exactly
    (Risken, The Fokker-Planck Equation, ch. 9). Returns the vectorised
    harmonics, (batch, 2 order + 1, dim^2), n ascending, and the tangent
    pass of this solve (``tangent`` below).
    """
    batch, dim2, _ = l0.shape
    dim = math.isqrt(dim2)
    rhs = -np.stack([lp, lm])[:, None]
    st = np.empty((order, 2, batch, dim2, dim2), dtype=complex)
    for n, a, closing in _fraction_blocks(l0, lp, lm, delta, st):
        st[n - 1] = _solve_stack(a, rhs)

    m0 = _with_trace_row(l0 + (closing @ st[0]).sum(axis=0))
    e0 = np.zeros((dim2, 1), dtype=complex)
    e0[0] = 1.0
    x = np.empty((batch, 2 * order + 1, dim2), dtype=complex)
    x[:, order] = _solve_stack(m0, e0)[..., 0]
    for n in range(1, order + 1):
        prev = np.stack([x[:, order + n - 1], x[:, order - n + 1]])
        x[:, order + n], x[:, order - n] = (st[n - 1] @ prev[..., None])[..., 0]

    def tangent(members, dl0: np.ndarray) -> np.ndarray:
        """dx/dp of the given members when their L0 moves by dL0/dp = dl0.

        Differentiating the truncated system M(p) x = e at fixed order
        gives M y = -(I (x) dl0) x, with the trace row of the right-hand
        side zero: the trace constraint does not depend on p. The
        elimination above carries over with an inhomogeneous term. With
        r_n = -dl0 x_n and g_{N+1} = h_{N+1} = 0,

            g_n = A_n^-1 (r_n - L(-1) g_{n+1}),     y_n = S_n y_{n-1} + g_n
            h_n = A_-n^-1 (r_-n - L(+1) h_{n+1}),   y_-n = T_n y_-(n-1) + h_n

        and m0 y_0 = r_0 - L(+1) h_1 - L(-1) g_1 with trace(y_0) = 0, where
        A_n, S_n, T_n and m0 are those formed above. Returns y,
        (len(members), 2 order + 1, dim, dim).
        """
        xs = x[members]
        count = xs.shape[0]
        # one vector per harmonic and side, (order, 2, count, dim^2, 1):
        # r_n and r_-n, overwritten by g_n and h_n, then by y_n and y_-n
        w = dl0 @ np.stack([xs[:, order + 1:], xs[:, order - 1::-1]]).transpose(
            2, 0, 1, 3)[..., None]
        np.negative(w, out=w)
        for n, a, closing in _fraction_blocks(l0[members], lp, lm, delta, st, members):
            if n < order:
                w[n - 1] -= closing @ w[n]
            w[n - 1] = _solve_stack(a, w[n - 1])

        b0 = -(dl0 @ xs[:, order, :, None]) - (closing @ w[0]).sum(axis=0)
        b0[:, 0] = 0.0
        y0 = _solve_stack(m0[members], b0)
        for n in range(1, order + 1):
            w[n - 1] += st[n - 1][:, members] @ (w[n - 2] if n > 1 else y0)
        y = np.empty_like(xs)
        y[:, order] = y0[..., 0]
        y[:, order + 1:] = w[:, 0, ..., 0].swapaxes(0, 1)
        y[:, order - 1::-1] = w[:, 1, ..., 0].swapaxes(0, 1)
        return y.reshape(count, 2 * order + 1, dim, dim)

    return x, tangent


def _residual_errors(x: np.ndarray, l0, lp, lm, delta: float,
                     order: int) -> dict[int, DegenerateModelError]:
    """Members whose harmonics do not solve the full balance system."""
    dim2 = lp.shape[0]
    dim = math.isqrt(dim2)
    n_range = np.arange(-order, order + 1)
    # one 16 x 16 matrix-vector product per harmonic: a matrix product over
    # all harmonics of a high-order member makes OpenBLAS start threads,
    # which cost ten times the product itself after the solves
    res = (l0[:, None] @ x[..., None])[..., 0] - (1j * delta) * n_range[:, None] * x
    res[:, 1:] += (lp @ x[:, :-1, :, None])[..., 0]
    res[:, :-1] += (lm @ x[:, 1:, :, None])[..., 0]
    res[:, order, 0] = x[:, order, ::dim + 1].sum(axis=1) - 1.0
    scale = np.maximum(1.0, np.abs(l0).sum(axis=2).max(axis=1)
                       + np.abs(lp).sum(axis=1).max() + np.abs(lm).sum(axis=1).max()
                       + order * delta)
    bound = 1e-7 * scale * np.maximum(1.0, np.abs(x).max(axis=(1, 2)))
    worst = np.abs(res).max(axis=(1, 2))
    errors = {}
    for b in np.flatnonzero(~(worst <= bound)):
        reason = ("singular" if not np.isfinite(worst[b]) else
                  f"singular or ill-conditioned (residual {worst[b]:.3e} "
                  f"exceeds {bound[b]:.3e})")
        errors[int(b)] = DegenerateModelError(f"harmonic-balance system is {reason}")
    return errors


def solve_batch(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray, delta: float,
                order: int) -> tuple[np.ndarray, dict[int, Exception], Callable]:
    """Periodic steady states of a batch of generators at one truncation order.

    ``l0`` is a (batch, dim^2, dim^2) stack sharing the drive terms ``lp``
    and ``lm``. Returns the harmonics, (batch, 2 order + 1, dim, dim), the
    failing members by index and the tangent pass. The errors are
    DegenerateModelError when the constrained system is singular and
    SolverError when the solution violates the trace/Hermiticity
    invariants; a failing member does not affect the others.
    ``tangent(members, dl0)`` returns d harmonics/dp of the given members,
    (len(members), 2 order + 1, dim, dim), when their L0 moves by
    dL0/dp = dl0: the exact derivative of the truncated system, from the
    continued fraction this solve formed.
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    batch, dim2, _ = l0.shape
    dim = math.isqrt(dim2)
    errors: dict[int, Exception] = {}
    if not (np.any(lp) or np.any(lm)):
        diagonal = np.arange(dim) * (dim + 1)
        stationary = (np.abs(l0[:, :, diagonal]).max(axis=1) < 1e-30).sum(axis=1)
        for b in np.flatnonzero(stationary >= 2):
            errors[int(b)] = DegenerateModelError(
                "steady state not unique: more than one decoupled stationary "
                "population (probe, pump and couplings all off)")

    x, tangent = _continued_fraction(l0, lp, lm, delta, order)
    for b, exc in _residual_errors(x, l0, lp, lm, delta, order).items():
        errors.setdefault(b, exc)
    harmonics = x.reshape(batch, 2 * order + 1, dim, dim)
    for b, problems in enumerate(_invariant_violations(harmonics, atol=1e-8)):
        if problems:
            errors.setdefault(b, SolverError(
                "steady-state invariants violated: " + "; ".join(problems)))
    return harmonics, errors, tangent


def solve_floquet(liouv: LiouvillianHarmonics, delta: float,
                  order: int) -> FloquetDensity:
    """Periodic steady state by harmonic balance at the given truncation.

    Raises DegenerateModelError when the constrained linear system is
    singular (for instance probe, pump and couplings all off, which leaves
    the two ground populations decoupled) and SolverError when the solution
    violates the trace/Hermiticity invariants.
    """
    harmonics, errors, _ = solve_batch(liouv.l0[None], liouv.l_plus,
                                       liouv.l_minus, delta, order)
    if errors:
        raise errors[0]
    return FloquetDensity(order=order, delta=delta, harmonics=harmonics[0])


def _tails_ok(harmonics: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    """Per member of a batch: the edge harmonics are negligible."""
    order = (harmonics.shape[1] - 1) // 2
    norm = np.linalg.norm
    top = np.maximum(norm(harmonics[:, -1], axis=(1, 2)),
                     norm(harmonics[:, 0], axis=(1, 2)))
    return top <= rel * norm(harmonics[:, order], axis=(1, 2))


def harmonic_tail_ok(fd: FloquetDensity, rel: float = 1e-6) -> bool:
    """Truncation-order sanity: the edge harmonics must be negligible."""
    return bool(_tails_ok(fd.harmonics[None], rel)[0])


def solve_converged_batch(l0_of: Callable[[np.ndarray], np.ndarray],
                          lp: np.ndarray, lm: np.ndarray, delta: float,
                          orders, caps,
                          accept: Callable[..., None],
                          dl0: np.ndarray | None = None) -> dict[int, Exception]:
    """``solve_converged`` over a batch of generators sharing the drive terms.

    ``l0_of(members)`` returns the (len(members), dim^2, dim^2) stack of the
    given member indices; ``orders`` and ``caps`` hold each member's seed
    order and order cap. Members at the same order are solved together in
    chunks of at most CHUNK_BYTES of continued-fraction storage, and only
    members whose harmonic tail fails move up a rung. ``accept(members,
    order, harmonics)`` receives every accepted chunk. With ``dl0``, the
    derivative dL0/dp shared by every member, ``accept(members, order,
    harmonics, tangents)`` also receives d harmonics/dp: one tangent pass
    per accepted chunk at its accepted order, counted in the chunk's
    storage. Returns the failing members by index; ConvergenceError marks a
    tail still failing at the cap.
    """
    caps = np.asarray(caps, dtype=int)
    orders = np.minimum(np.asarray(orders, dtype=int), caps)
    dim2 = lp.shape[0]
    # per harmonic and side: S_n or T_n, and the tangent pass's two vectors
    stored = dim2 * dim2 + (0 if dl0 is None else 2 * dim2)
    errors: dict[int, Exception] = {}
    pending = np.arange(orders.size)
    while pending.size:
        climbing = []
        for n in np.unique(orders[pending]):
            n = int(n)
            group = pending[orders[pending] == n]
            chunk = max(1, CHUNK_BYTES // (2 * n * stored * COMPLEX_BYTES))
            for start in range(0, group.size, chunk):
                members = group[start:start + chunk]
                harmonics, failed, tangent = solve_batch(l0_of(members), lp, lm,
                                                         delta, n)
                ok = _tails_ok(harmonics)
                ok[list(failed)] = False
                for b, exc in failed.items():
                    errors[int(members[b])] = exc
                if ok.any():
                    accept(members[ok], n, harmonics[ok], *(
                        () if dl0 is None else (tangent(np.flatnonzero(ok), dl0),)))
                # the tangent holds this chunk's S_n and T_n: free them
                # before the next chunk forms its own
                del tangent
                for b in np.flatnonzero(~ok):
                    member = int(members[b])
                    if member in errors:
                        continue
                    if n >= caps[member]:
                        errors[member] = ConvergenceError(
                            f"harmonic tail not negligible at truncation order {n}")
                    else:
                        orders[member] = min(caps[member],
                                             max(n + 2, math.ceil(1.4 * n)))
                        climbing.append(member)
        pending = np.array(sorted(climbing), dtype=int)
    return errors


def solve_converged(liouv: LiouvillianHarmonics, delta: float, order: int = 1,
                    order_cap: int = MAX_ORDER) -> FloquetDensity:
    """Steady state at the first truncation order whose harmonic tail passes.

    Starts at ``order`` (at most ``order_cap``) and raises the order n to
    max(n + 2, ceil(1.4 n)) until the harmonic-tail test accepts the solve;
    raises ConvergenceError when the tail still fails at ``order_cap``.
    """
    found = []
    errors = solve_converged_batch(
        lambda members: liouv.l0[None], liouv.l_plus, liouv.l_minus, delta,
        [order], [order_cap],
        lambda members, n, harmonics: found.append(
            FloquetDensity(order=n, delta=delta, harmonics=harmonics[0])))
    if errors:
        raise errors[0]
    return found[0]


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


def steady_state_static_batch(l0: np.ndarray) -> tuple[np.ndarray, dict[int, DegenerateModelError]]:
    """Steady states of a (batch, dim^2, dim^2) stack of static generators.

    Each member solves L0 rho = 0 with trace(rho) = 1. Returns the states,
    (batch, dim, dim), and the failing members by index.
    """
    batch, dim2, _ = l0.shape
    dim = math.isqrt(dim2)
    rhs = np.zeros((dim2, 1), dtype=complex)
    rhs[0] = 1.0
    x = _solve_stack(_with_trace_row(l0.copy()), rhs)[..., 0]
    res = (l0 @ x[..., None])[..., 0]
    res[:, 0] = 0.0
    scale = (np.maximum(1.0, np.abs(l0).sum(axis=2).max(axis=1))
             * np.maximum(1.0, np.abs(x).max(axis=1)))
    good = ((np.abs(res).max(axis=1) <= 1e-8 * scale)
            & (np.abs(x[:, ::dim + 1].sum(axis=1) - 1.0) <= 1e-8))
    errors = {int(b): DegenerateModelError(
                  "static steady state is singular or ill-conditioned")
              for b in np.flatnonzero(~good)}
    return x.reshape(batch, dim, dim), errors


def steady_state_static_tangent(l0: np.ndarray, rho: np.ndarray,
                                dl0: np.ndarray) -> np.ndarray:
    """d rho/dp of the static steady states ``rho`` of the stack ``l0``.

    With dL0/dp = dl0, differentiating L0 rho = 0, trace(rho) = 1 gives the
    same constrained system with right-hand side -dl0 rho and a zero trace
    row: one more stacked solve. Returns the derivatives shaped like rho.
    """
    b = -(dl0 @ rho.reshape(l0.shape[0], -1, 1))
    b[:, 0] = 0.0
    return _solve_stack(_with_trace_row(l0.copy()), b).reshape(rho.shape)


def steady_state_static(l0: np.ndarray) -> np.ndarray:
    """Steady state of a static generator: L0 rho = 0 with trace(rho) = 1."""
    rho, errors = steady_state_static_batch(l0[None])
    if errors:
        raise errors[0]
    return rho[0]

"""Periodic steady states of the harmonically driven master equation.

The primary solver expands rho(t) = sum_n rho_n e^{i n delta t} and solves
the block-tridiagonal balance equations

    (L0 - i n delta) rho_n + L(+1) rho_{n-1} + L(-1) rho_{n+1} = 0

for |n| <= order, with one scalar equation replaced by trace(rho_0) = 1.
A matrix continued fraction solves the system exactly, for a whole batch
of generators at once (one stacked solve per harmonic n > 0). rho(t)
stays Hermitian, so L(-1) = J(L(+1)) is formed, not given, rho_-n =
rho_n^dagger and the n < 0 side of the fraction is mirrored.
When a level parity U = diag(+-1) keeps L0 and flips L(+-1), as
diag(1, -1, 1, 1) does for the coupling pair that touches only |2>,
even harmonics live in one sector of vec(rho) and odd ones in the other,
so the fraction runs on 10 x 10 and 6 x 6 blocks instead of 16 x 16. One
split serves the whole batch; without such a parity it is every entry.
The solve keeps rho_n for n >= 0 only, each on its own sector
(``SectorHarmonics``), and expands the full harmonics on request. The
ladder raises each member's order up to the one cap MAX_ORDER.
``level_mirror`` finds a signed level permutation that, with complex
conjugation, maps the system of one generator exactly onto another's,
so that a caller can solve each such pair once.

An independent oracle integrates the master equation with a fixed-step RK4
scheme: the one-period propagator and the period-average operator are built
once, then iterated period by period until the period-averaged density
matrix settles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .atom import DegenerateModelError, LiouvillianHarmonics

# the ladder's one truncation cap (anchors, points, velocity classes, EIT):
# fig6's classes accept at up to order 219, Omega_c = 300 gamma3 at 56
MAX_ORDER = 600
# live storage of one solve chunk, as ``_member_bytes`` counts it: per
# harmonic S_k and rho_k on its sector (with the tangent g_k), per member
# L0, its sector blocks and the zeroth-harmonic matrix. tracemalloc puts
# the peak of a chunk, the residual and invariant checks' temporaries
# included, at 1.05 to 1.25 times this count. At 1536 KiB each rung of a
# fig6 Doppler point at R = 0 is one chunk: 15 ``solve_batch`` calls
CHUNK_BYTES = 1536 * 2 ** 10
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
        """Check trace and population bounds."""
        upper = self.harmonics[self.order:]
        return _invariant_violations(np.trace(upper, axis1=1, axis2=2)[None],
                                     np.diagonal(upper[0])[None], atol)[0]


def _invariant_violations(traces: np.ndarray, pops: np.ndarray,
                          atol: float) -> list[list[str]]:
    """Invariant problems of each member of a batch, from trace(rho_n) for
    n = 0 ... order, (batch, order + 1), and the populations of rho_0,
    (batch, dim). rho_-n = rho_n^dagger holds by construction
    (``_continued_fraction``), so the n < 0 side adds nothing to check."""
    bad = ~((np.abs(traces[:, 0] - 1.0) <= atol)
            & np.all(np.abs(traces[:, 1:]) <= atol, axis=1)
            & np.all(np.abs(pops.imag) <= atol, axis=1)
            & np.all((pops.real >= -atol) & (pops.real <= 1.0 + atol), axis=1))
    problems: list[list[str]] = [[] for _ in range(traces.shape[0])]
    for b in np.flatnonzero(bad):
        found = problems[b]
        trace0 = traces[b, 0]
        if not abs(trace0 - 1.0) <= atol:
            found.append(f"trace(rho_0) = {trace0:.3e} != 1")
        for n in range(1, traces.shape[1]):
            if not abs(traces[b, n]) <= atol:
                found.append(f"trace(rho_{n}) != 0")
        if not np.max(np.abs(pops[b].imag)) <= atol:
            found.append("populations not real")
        if not (np.min(pops[b].real) >= -atol and np.max(pops[b].real) <= 1.0 + atol):
            found.append(f"populations outside [0, 1]: {pops[b].real}")
    return problems


@dataclass
class SectorHarmonics:
    """The harmonics x_0 ... x_order of a batch, each on its parity sector.

    ``parts[p][:, k]`` is vec(x_n) on ``sectors[p]`` for n = 2 k + p, so
    ``parts[p]`` is (batch, harmonics of parity p, |sectors[p]|). The rest
    of x_n is exactly 0 and x_-n = x_n^dagger (``_continued_fraction``).
    """

    sectors: tuple[np.ndarray, np.ndarray]
    parts: tuple[np.ndarray, np.ndarray]

    @property
    def order(self) -> int:
        return self.parts[0].shape[1] + self.parts[1].shape[1] - 1

    @property
    def dim(self) -> int:
        # the two sectors hold every entry between them
        return math.isqrt(int(max(sector[-1] for sector in self.sectors)) + 1)

    def harmonic(self, n: int) -> np.ndarray:
        """vec(x_n) on the sector of n's parity, (batch, |sector|), n >= 0."""
        return self.parts[n % 2][:, n // 2]

    def traces(self) -> np.ndarray:
        """trace(x_n) for n = 0 ... order, (batch, order + 1)."""
        stride = self.dim + 1     # vec index i dim + j is a multiple of it iff i = j
        traces = np.empty((self.parts[0].shape[0], self.order + 1), dtype=complex)
        for p in (0, 1):
            traces[:, p::2] = self.parts[p][:, :, self.sectors[p] % stride == 0].sum(axis=2)
        return traces

    def full(self, upto: int | None = None) -> np.ndarray:
        """x_-upto ... x_upto of every member, (batch, 2 upto + 1, dim, dim),
        n ascending; every harmonic by default."""
        upto = self.order if upto is None else upto
        dim = self.dim
        x = np.zeros((self.parts[0].shape[0], 2 * upto + 1, dim * dim), dtype=complex)
        for p in (0, 1):
            x[:, upto + p::2, self.sectors[p]] = self.parts[p][:, :(upto + 2 - p) // 2]
        x[:, :upto] = x[:, :upto:-1, _transposition(dim * dim)].conj()
        return x.reshape(x.shape[0], 2 * upto + 1, dim, dim)


@dataclass
class TimeTrace:
    """Sampled final period of the time-domain integration."""

    times: np.ndarray            # absolute times across the final period
    states: np.ndarray           # (samples, dim, dim) at those times
    convergence: float           # last period-to-period change of the average
    periods: int                 # periods integrated before convergence
    change_history: np.ndarray   # change metric per period transition
    average_history: np.ndarray  # (periods, dim, dim) period-averaged rho


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack; an exactly singular member gives NaN.

    LAPACK solves every member on its own, so a member's result does not
    depend on the stack it is in. This calls the private gufunc that
    np.linalg.solve wraps, under the same error state less its raise on a
    singular matrix: one LAPACK call per stack, singular member or not,
    without the wrapper's type checks, which cost about 4 us on each of
    the continued fraction's many small solves.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(a, b, signature="DD->D")


def _transposition(dim2: int) -> np.ndarray:
    """P, vec(rho) -> vec(rho^T), as an index map: vec(rho)[perm]."""
    dim = math.isqrt(dim2)
    return np.arange(dim2).reshape(dim, dim).T.ravel()


def _mirror(m: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """J(M) = P conj(M) P of a (..., k, k) stack, P given as ``perm``."""
    return m.conj()[..., perm[:, None], perm]


def _require_mirror(m: np.ndarray, identity: str) -> None:
    """ValueError unless J(m) = m to rounding, matrix by matrix.

    J(M) = M holds when M maps Hermitian matrices to Hermitian ones. A NaN
    entry passes: the residual check reports its member.
    """
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    mirrored = _mirror(m, _transposition(m.shape[-1]))
    if np.any(np.abs(mirrored - m).max(axis=(-2, -1)) > 1e-13 * scale):
        raise ValueError(f"{identity} is broken: rho(t) would not stay Hermitian")


@functools.lru_cache(maxsize=None)
def _level_maps(dim: int) -> tuple[np.ndarray, ...]:
    """The level permutations pi, (dim!, dim), and sign patterns s, s_0 = 1
    (X and -X act alike), (2^(dim-1), dim), of X = sum_i s_i |i><pi_i|, with
    the index map of each pi and the sign of each s that X (x) X gives
    vec(rho), vec(X rho X^T)[a] = sign[a] vec(rho)[index[a]], and the
    sign's outer products: (dim!, dim^2), (2^(dim-1), dim^2),
    (2^(dim-1), dim^2, dim^2). Row 0 is s = 1; rows 1: are the level
    parities U = diag(s), and sign is ad_U, s_i s_j on entry (i, j)."""
    perms = np.array(list(itertools.permutations(range(dim))))
    codes = 2 * np.arange(2 ** (dim - 1))      # bit i set: s_i = -1, so s_0 = 1
    signs = 1 - 2 * ((codes[:, None] >> np.arange(dim)) & 1)
    index = (perms[:, :, None] * dim + perms[:, None, :]).reshape(perms.shape[0], -1)
    sign = (signs[:, :, None] * signs[:, None, :]).reshape(signs.shape[0], -1)
    maps = perms, signs, index, sign, sign[:, :, None] * sign[:, None, :]
    for a in maps:
        a.flags.writeable = False
    return maps


def level_mirror(kept: list, flipped: list,
                 lp: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A signed level permutation X, as (pi, s) with (X rho X^T)[i, j] =
    s_i s_j rho[pi_i, pi_j], whose antiunitary map M -> Pi conj(M) Pi^T,
    Pi = X (x) X, keeps every generator in ``kept``, negates every one in
    ``flipped`` and maps L(+1) = ``lp`` onto L(-1) = J(L(+1)), exactly; None
    when there is none.

    Conjugating the balance equations then maps the truncated system of
    L0 = sum_k c_k K_k + sum_k f_k F_k at any order onto that of
    sum_k c_k K_k - sum_k f_k F_k: rho_n -> X rho_n^T X^T, so rho_0 ->
    X conj(rho_0) X^T, and the derivative along an F_k picks up a minus
    sign. The candidates are sifted on the sum of the matrices, the
    permutations on its diagonal (where the signs cancel), then the signs
    on the whole: conjugation, index maps and signs are exact, so a map
    that holds for every matrix holds bitwise for their sum.
    """
    dim2 = lp.shape[0]
    perms, signs, index, _, sign2 = _level_maps(math.isqrt(dim2))
    mats = np.stack([*kept, *flipped, lp])
    targets = np.stack([*kept, *(-m for m in flipped),
                        _mirror(lp, _transposition(dim2))])
    total, target = mats.sum(axis=0), targets.sum(axis=0)
    diagonal = (np.diagonal(total)[index].conj() == np.diagonal(target)).all(axis=1)
    for p in np.flatnonzero(diagonal):
        i = index[p]
        on_sum = (total[i[:, None], i].conj() * sign2 == target).all(axis=(1, 2))
        for q in np.flatnonzero(on_sum):
            if np.array_equal(mats[:, i[:, None], i].conj() * sign2[q], targets):
                return perms[p], signs[q]
    return None


def _sectors(l0: np.ndarray, lp: np.ndarray,
             dl0: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The (even, odd) split of vec(rho) indices that a whole batch shares.

    It is the split of the first level parity U whose ad_U keeps every
    finite entry of every member's L0 and every entry of ``dl0``, and flips
    L(+1), hence L(-1) = J(L(+1)) (ad_U commutes with J). The even sector
    holds the entries that ad_U keeps, the odd one those it flips. NaN and
    inf entries are ignored (the residual check fails such a member); with
    no such parity (only +-I, which flips nothing) even = odd = all entries.
    """
    dim2 = lp.shape[0]
    signs = _level_maps(math.isqrt(dim2))[3][1:]     # every parity but +-I
    flips = (signs[:, :, None] != signs[:, None, :]).reshape(signs.shape[0], -1)
    static = (np.isfinite(l0) & (l0 != 0)).any(axis=0)
    if dl0 is not None:
        static |= dl0 != 0
    drive = (lp != 0).reshape(-1)
    kept = ~(flips @ static.reshape(-1)) & np.all(flips | ~drive, axis=1)
    if not kept.any():
        return np.arange(dim2), np.arange(dim2)
    u = signs[kept.argmax()]
    return np.flatnonzero(u > 0), np.flatnonzero(u < 0)


def _fraction_blocks(blocks, lm_blocks, delta: float, s: list,
                     members=slice(None)):
    """A_n = L0 - i n delta + L(-1) S_{n+1} for n = order ... 1, on the
    sector of n's parity, for the given ``members`` of the batch.

    Yields (n, A_n). ``blocks`` holds L0 on the even and on the odd sector
    for the members that ``s`` covers, ``lm_blocks`` L(-1) into each
    sector. A_n reads s[n], so the continued fraction fills s[n] before it
    asks for the next block.
    """
    order = len(s)
    for n in range(order, 0, -1):
        a = blocks[n % 2][members]
        if isinstance(members, slice):   # a view: shift a copy
            a = a.copy()
        diagonal = np.einsum("...ii->...i", a)   # a view, shifted in place
        diagonal -= 1j * n * delta
        if n < order:
            a += lm_blocks[n % 2] @ s[n][members]
        yield n, a


def _continued_fraction(l0: np.ndarray, lp: np.ndarray, lm: np.ndarray,
                        delta: float, order: int, dl0: np.ndarray | None,
                        sectors: tuple[np.ndarray, np.ndarray]):
    """Harmonics of a batch of generators by the matrix continued fraction.

    ``l0`` is a (batch, dim^2, dim^2) stack sharing ``lp`` and ``lm``. With
    S_{N+1} = T_{N+1} = 0 the recursion

        S_n = -(L0 - i n delta + L(-1) S_{n+1})^-1 L(+1),   rho_n = S_n rho_{n-1}
        T_n = -(L0 + i n delta + L(+1) T_{n+1})^-1 L(-1),   rho_-n = T_n rho_-(n-1)

    eliminates every harmonic but the zeroth, which solves
    (L0 + L(+1) T_1 + L(-1) S_1) rho_0 = 0 with its (1,1) row replaced by
    trace(rho_0) = 1. This is the truncated balance system solved exactly
    (Risken, The Fokker-Planck Equation, ch. 9). Only the S side is
    solved: J(L0) = L0 (``_mirror``; ``solve_batch`` checks it), L(-1) =
    J(L(+1)) by construction and J is multiplicative, so T_n = J(S_n),
    L(+1) T_1 = J(L(-1) S_1) and rho_-n = P conj(rho_n) = rho_n^dagger.

    The recursion runs on the batch's parity ``sectors`` (``_sectors``). When
    ad_U, for a level parity U = diag(+-1), keeps L0 and flips L(+-1), then
    U with the half-period shift t -> t + pi/delta is a symmetry of the
    generator, so ad_U rho_n = (-1)^n rho_n: even harmonics live in the
    even sector E, odd ones in the odd sector O, and the rest of each
    harmonic is exactly 0. A_n is then |E| x |E| or |O| x |O| by n's
    parity, S_n maps the sector of n - 1 to that of n, and the
    zeroth-harmonic system is |E| x |E| (E holds the populations, so the
    trace row too). In the paper's model the couplings touch only |2>:
    U = diag(1, -1, 1, 1), |E| = 10 and |O| = 6. A batch without such a
    parity runs the same recursion with E = O = every entry. The residual
    check of ``solve_batch`` verifies the full system (``_residual_errors``),
    so it also verifies the reduction. The reduction never forms the other
    parity (odd sector at even n, even sector at odd n), whose system is
    homogeneous: where it is singular, the steady state is not unique, and
    the parity-even one is returned without an error.

    Returns the harmonics n = 0 ... order on their sectors
    (``SectorHarmonics``), and the tangent pass of this solve when ``dl0``
    is given (``tangent`` below), else None.
    """
    dim2 = lp.shape[0]
    dim = math.isqrt(dim2)
    perm = _transposition(dim2)
    even = sectors[0]
    blocks = [l0[:, p[:, None], p] for p in sectors]
    # L(+-1) into the sector of n's parity from that of n -+ 1
    lp_blocks = [lp[sectors[p][:, None], sectors[1 - p]] for p in (0, 1)]
    lm_blocks = [lm[sectors[p][:, None], sectors[1 - p]] for p in (0, 1)]
    s: list = [None] * order
    for n, a in _fraction_blocks(blocks, lm_blocks, delta, s):
        s[n - 1] = _solve_stack(a, -lp_blocks[n % 2])

    # J on the even sector: P maps it to itself
    perm_even = np.searchsorted(even, perm[even])
    trace_row = np.searchsorted(even, np.arange(dim) * (dim + 1))
    closing = lm_blocks[0] @ s[0]
    m0 = blocks[0] + closing + _mirror(closing, perm_even)
    m0[:, 0] = 0.0
    m0[:, 0, trace_row] = 1.0
    e0 = np.zeros((even.size, 1), dtype=complex)
    e0[0] = 1.0

    def harmonics(y0: np.ndarray, terms, upto: int = order) -> SectorHarmonics:
        """The sector vectors y_0 and y_n = terms(n, y_{n-1}), n = 1 ... upto."""
        parts = tuple(np.empty((y0.shape[0], (upto + 2 - p) // 2, sectors[p].size),
                               dtype=complex) for p in (0, 1))
        parts[0][:, 0] = y0[..., 0]
        for n in range(1, upto + 1):
            y0 = terms(n, y0)
            parts[n % 2][:, n // 2] = y0[..., 0]
        return SectorHarmonics(sectors, parts)

    x = harmonics(_solve_stack(m0, e0), lambda n, prev: s[n - 1] @ prev)
    if dl0 is None:
        return x, None
    dl0_blocks = [dl0[p[:, None], p] for p in sectors]

    def tangent(members, upto: int = order) -> SectorHarmonics:
        """dx/dp of the given members when their L0 moves by dL0/dp = dl0,
        harmonics 0 ... ``upto`` (every one by default).

        Differentiating the truncated system M(p) x = e at fixed order
        gives M y = -(I (x) dl0) x, with the trace row of the right-hand
        side zero: the trace constraint does not depend on p. The
        elimination above carries over with an inhomogeneous term. With
        r_n = -dl0 x_n and g_{N+1} = 0,

            g_n = A_n^-1 (r_n - L(-1) g_{n+1}),     y_n = S_n y_{n-1} + g_n

        and m0 y_0 = r_0 - L(+1) h_1 - L(-1) g_1 with trace(y_0) = 0, where
        A_n, S_n and m0 are those formed above; J(dl0) = dl0 gives
        h_n = P conj(g_n) and y_-n = P conj(y_n). The sectors keep dl0, so
        y lives in them too. Returns y of the members, as x is returned, up
        to harmonic ``upto``: the g_n sweep down to y_0 whatever it is, the
        y_n sweep up only that far. The members are picked per harmonic: a
        copy of a strict subset's S_n would take as much again as the
        chunk's own.
        """
        if np.array_equal(members, np.arange(m0.shape[0])):
            members = slice(None)
        # r_n of every harmonic, one product per parity, stored where
        # parts[n % 2][:, n // 2] is; g_n then takes the place of r_n
        g = [dl0_blocks[p] @ x.parts[p][members, ..., None] for p in (0, 1)]
        for part in g:
            np.negative(part, out=part)
        for n, a in _fraction_blocks(blocks, lm_blocks, delta, s, members):
            r = g[n % 2][:, n // 2]
            if n < order:
                r -= lm_blocks[n % 2] @ g[1 - n % 2][:, (n + 1) // 2]
            r[...] = _solve_stack(a, r)

        closing = lm_blocks[0] @ g[1][:, 0]
        b0 = g[0][:, 0] - closing - closing[:, perm_even].conj()
        b0[:, 0] = 0.0
        return harmonics(_solve_stack(m0[members], b0),
                         lambda n, prev: g[n % 2][:, n // 2] + s[n - 1][members] @ prev,
                         upto)

    return x, tangent


def _residual_errors(x: SectorHarmonics, l0, lp, lm,
                     delta: float) -> dict[int, DegenerateModelError]:
    """Members whose harmonics ``x`` (``_continued_fraction``) do not solve
    the full balance system.

    It reads the rows of the n >= 0 harmonics on n's own sector: L0's
    block there and L(+-1) from the other sector. The full system's other
    rows are exact zeros, since x_n is 0 off its sector and L0 and L(+-1)
    are 0 off the blocks ``_sectors`` chose them by, or, for n < 0,
    J-mirrors of the rows read (``solve_batch`` checks J(L0) = L0 to 1e-13
    and forms L(-1) = J(L(+1))). ``_sectors`` ignores non-finite L0
    entries, so a member with any fails here.
    """
    order, sectors = x.order, x.sectors
    odd = sectors[1]
    # x_-1 = P conj(x_1): P maps each sector to itself
    mirror = np.searchsorted(odd, _transposition(lp.shape[0])[odd])
    x_minus1 = x.harmonic(1)[:, mirror].conj()
    worst = np.zeros(l0.shape[0])
    for p in (0, 1):
        own, other = sectors[p], sectors[1 - p]
        # x_n for n = p, p + 2, ... <= order; x_{n-1}; x_{n+1} for n < order
        xn = x.parts[p]
        n = np.arange(p, order + 1, 2)
        below = (x.parts[0][:, :n.size] if p else
                 np.concatenate([x_minus1[:, None], x.parts[1][:, :n.size - 1]], axis=1))
        above = x.parts[1 - p][:, p:]
        # one matrix-vector product per harmonic: a matrix product over
        # all harmonics of a high-order member makes OpenBLAS start threads,
        # which cost ten times the product itself after the solves
        res = ((l0[:, None, own[:, None], own] @ xn[..., None])[..., 0]
               - (1j * delta) * n[:, None] * xn)
        res += (lp[own[:, None], other] @ below[..., None])[..., 0]
        res[:, :above.shape[1]] += (lm[own[:, None], other] @ above[..., None])[..., 0]
        if p == 0:
            res[:, 0, 0] = x.traces()[:, 0] - 1.0
        worst = np.maximum(worst, np.abs(res).max(axis=(1, 2)))
    scale = np.maximum(1.0, np.abs(l0).sum(axis=2).max(axis=1)
                       + np.abs(lp).sum(axis=1).max() + np.abs(lm).sum(axis=1).max()
                       + order * delta)
    size = np.maximum(*(np.abs(part).max(axis=(1, 2)) for part in x.parts))
    bound = 1e-7 * scale * np.maximum(1.0, size)
    errors = {}
    for b in np.flatnonzero(~(worst <= bound) | ~np.isfinite(scale)):
        reason = ("singular" if not np.isfinite([worst[b], scale[b]]).all() else
                  f"singular or ill-conditioned (residual {worst[b]:.3e} "
                  f"exceeds {bound[b]:.3e})")
        errors[int(b)] = DegenerateModelError(f"harmonic-balance system is {reason}")
    return errors


def solve_batch(l0: np.ndarray, lp: np.ndarray, delta: float, order: int,
                dl0: np.ndarray | None = None,
                checked: Callable[[SectorHarmonics], np.ndarray] | None = None
                ) -> tuple[SectorHarmonics, dict[int, Exception], Callable | None]:
    """Periodic steady states of a batch of generators at one truncation order.

    ``l0`` is a (batch, dim^2, dim^2) stack sharing the drive term ``lp`` =
    L(+1); L(-1) = J(L(+1)) is formed from it, since rho(t) stays
    Hermitian. Returns the harmonics n = 0 ... order on their parity
    sectors (``SectorHarmonics``; ``full()`` gives every harmonic), the
    failing members by index and the tangent pass, None without ``dl0``.
    The errors are DegenerateModelError when the constrained system is
    singular and SolverError when the solution violates the trace or
    population invariants; a failing member does not affect the others.
    ``checked(x)``, given the harmonics, masks the members to check; the
    others are reported only when the drive is off and their steady state
    is not unique. Every member is checked by default.
    ``tangent(members, upto)`` returns d harmonics/dp of the given members,
    in the same form, up to harmonic ``upto`` (every one by default), when
    their L0 moves by dL0/dp = ``dl0``: the exact derivative of the
    truncated system, from the continued fraction this solve formed.
    ValueError when J(L0) = L0 or J(dL0) = dL0 fails beyond rounding
    (``_continued_fraction``).
    """
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    _require_mirror(l0, "J(L0) = L0")
    if dl0 is not None:
        _require_mirror(dl0, "J(dL0) = dL0")
    dim = math.isqrt(l0.shape[1])
    lm = _mirror(lp, _transposition(dim * dim))
    errors: dict[int, Exception] = {}
    if not np.any(lp):
        diagonal = np.arange(dim) * (dim + 1)
        stationary = (np.abs(l0[:, :, diagonal]).max(axis=1) < 1e-30).sum(axis=1)
        for b in np.flatnonzero(stationary >= 2):
            errors[int(b)] = DegenerateModelError(
                "steady state not unique: more than one decoupled stationary "
                "population (probe, pump and couplings all off)")

    sectors = _sectors(l0, lp, dl0)
    x, tangent = _continued_fraction(l0, lp, lm, delta, order, dl0, sectors)
    members = np.arange(l0.shape[0]) if checked is None else np.flatnonzero(checked(x))
    seen = x
    if members.size < l0.shape[0]:      # the checks read a copy of these alone
        seen = SectorHarmonics(sectors, tuple(part[members] for part in x.parts))
        l0 = l0[members]
    for b, exc in _residual_errors(seen, l0, lp, lm, delta).items():
        errors.setdefault(int(members[b]), exc)
    pops = np.diagonal(seen.full(0)[:, 0], axis1=1, axis2=2)
    for b, problems in enumerate(_invariant_violations(seen.traces(), pops, atol=1e-8)):
        if problems:
            errors.setdefault(int(members[b]), SolverError(
                "steady-state invariants violated: " + "; ".join(problems)))
    return x, errors, tangent


def solve_floquet(liouv: LiouvillianHarmonics, delta: float,
                  order: int) -> FloquetDensity:
    """Periodic steady state by harmonic balance at the given truncation.

    Raises DegenerateModelError when the constrained linear system is
    singular (for instance probe, pump and couplings all off, which leaves
    the two ground populations decoupled) and SolverError when the solution
    violates the trace or population invariants.
    """
    x, errors, _ = solve_batch(liouv.l0[None], liouv.l_plus, delta, order)
    if errors:
        raise errors[0]
    return FloquetDensity(order=order, delta=delta, harmonics=x.full()[0])


def _tails_ok(edge: np.ndarray, zeroth: np.ndarray) -> np.ndarray:
    """Per member of a batch: the edge harmonic rho_N is below 1e-6 of the
    zeroth (rho_-N = rho_N^dagger has the same norm). Both are given as
    (batch, ...) arrays of their entries, on a sector or in full."""
    edge, zeroth = (a.reshape(a.shape[0], -1) for a in (edge, zeroth))
    return np.linalg.norm(edge, axis=1) <= 1e-6 * np.linalg.norm(zeroth, axis=1)


def harmonic_tail_ok(fd: FloquetDensity) -> bool:
    """Truncation-order sanity: the edge harmonics must be negligible."""
    return bool(_tails_ok(fd.harmonic(fd.order)[None], fd.harmonic(0)[None])[0])


def _member_bytes(dim2: int, order: int, tangent: bool) -> int:
    """What one member of a ``solve_converged_batch`` chunk at ``order``
    keeps live, counted against CHUNK_BYTES.

    Per harmonic k > 0 (k < 0 is mirrored, not stored): S_k, at most
    dim^4 / 4 numbers between two sectors, and rho_k on its sector, dim^2 / 2
    numbers on average (10 and 6 for the paper's split); with the tangent
    also g_k, dim^2 / 2 more (the ladder reads y_0 alone). Per member: L0
    (dim^4), and its sector blocks with the zeroth-harmonic matrix, counted
    as dim^4 more (236 of 256 for the paper's split). A batch without a
    parity split keeps three to four times more.
    """
    per_harmonic = dim2 ** 2 // 4 + dim2 // 2 + (dim2 // 2 if tangent else 0)
    return (order * per_harmonic + 2 * dim2 ** 2) * COMPLEX_BYTES


def _kept_by_ladder(x: SectorHarmonics) -> np.ndarray:
    """The members of a rung whose errors the ladder keeps: the tail
    passes, a harmonic is not finite, or the rung is at MAX_ORDER. Any
    other member climbs, whatever its checks would say."""
    finite = np.all([np.isfinite(part).all(axis=(1, 2)) for part in x.parts], axis=0)
    return (~finite | _tails_ok(x.harmonic(x.order), x.harmonic(0))
            | (x.order >= MAX_ORDER))


def solve_converged_batch(l0_of: Callable[[np.ndarray], np.ndarray],
                          lp: np.ndarray, delta: float, orders,
                          dl0: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Zeroth harmonics of generators sharing L(+1) = ``lp`` (L(-1) is
    derived), each at the first truncation order whose tail passes.

    ``l0_of(members)`` returns the (len(members), dim^2, dim^2) stack of the
    given member indices. Each member starts at its seed in ``orders`` and
    raises its order n to max(n + 2, ceil(1.4 n)), at most MAX_ORDER.
    Members at the same order are solved together, in as few equal chunks
    as keep at most CHUNK_BYTES live each (``_member_bytes``); only those
    whose tail fails climb. ``solve_batch`` checks only the members whose
    error the ladder keeps (``_kept_by_ladder``): one that climbs is not
    checked at that rung.
    Returns rho_0, (1, batch, dim, dim), with ``dl0`` (dL0/dp of every
    member) stacked on d rho_0/dp, (2, batch, dim, dim), from one tangent
    pass per accepted chunk, up to y_0 and counted in its storage; the
    accepted orders; and the failing members by index. A failing member
    has order 0 and NaN rho_0; ConvergenceError marks a tail still failing
    at MAX_ORDER.
    """
    orders = np.minimum(np.asarray(orders, dtype=int), MAX_ORDER)
    dim2 = lp.shape[0]
    dim = math.isqrt(dim2)
    rho0 = np.full((1 if dl0 is None else 2, orders.size, dim, dim), np.nan,
                   dtype=complex)
    accepted = np.zeros(orders.size, dtype=int)
    errors: dict[int, Exception] = {}
    pending = np.arange(orders.size)
    while pending.size:
        climbing = []
        for n in np.unique(orders[pending]):
            n = int(n)
            group = pending[orders[pending] == n]
            chunk = max(1, CHUNK_BYTES // _member_bytes(dim2, n, dl0 is not None))
            for members in np.array_split(group, -(-group.size // chunk)):
                x, failed, tangent = solve_batch(l0_of(members), lp, delta, n, dl0,
                                                 _kept_by_ladder)
                ok = _tails_ok(x.harmonic(n), x.harmonic(0))
                for b, exc in failed.items():
                    errors[int(members[b])] = exc
                    ok[b] = False
                done = members[ok]
                rho0[0, done] = x.full(0)[ok, 0]
                if dl0 is not None and done.size:
                    rho0[1, done] = tangent(np.flatnonzero(ok), 0).full(0)[:, 0]
                accepted[done] = n
                # free this chunk's harmonics and S_n (the tangent
                # holds them) before the next chunk forms its own
                del x, tangent
                for b in np.flatnonzero(~ok):
                    member = int(members[b])
                    if member in errors:
                        continue
                    if n >= MAX_ORDER:
                        errors[member] = ConvergenceError(
                            f"harmonic tail not negligible at truncation order {n}")
                    else:
                        orders[member] = min(MAX_ORDER, max(n + 2, math.ceil(1.4 * n)))
                        climbing.append(member)
        pending = np.array(sorted(climbing), dtype=int)
    return rho0, accepted, errors


def extract_dc_coherences(fd: FloquetDensity) -> tuple[complex, complex]:
    """Static optical coherences (rho31, rho41) of the zeroth harmonic."""
    rho0 = fd.harmonic(0)
    return complex(rho0[2, 0]), complex(rho0[3, 0])


def choose_truncation(liouv: LiouvillianHarmonics, delta: float) -> int:
    """The truncation order ``solve_converged_batch`` accepts for this one
    generator from seed 1; raises the ladder's error for it."""
    _, accepted, errors = solve_converged_batch(lambda members: liouv.l0[None],
                                                liouv.l_plus, delta, [1])
    if errors:
        raise errors[0]
    return int(accepted[0])


def _period_operators(liouv: LiouvillianHarmonics, delta: float,
                      samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One-period RK4 propagator, period-average operator and checkpoints.

    The step resolves both the drive period and the relaxation time (each
    divided 200 ways) and additionally keeps the fastest generator frequency
    accurate to ~1e-7 per mode, so the forced response is converged well
    below the oracle tolerances.
    """
    l0, lp = liouv.l0, liouv.l_plus
    dim2 = l0.shape[0]
    lm = _mirror(lp, _transposition(dim2))
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

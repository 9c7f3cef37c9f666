"""Lowest eigenpair of a chain Hamiltonian via Lanczos iteration.

A step costs one matvec plus O(dim + k) at step k. ``_lowest_ritz`` tracks
the lowest eigenvalue of the tridiagonal matrix T_k (kept as its diagonal
and off-diagonal) and the last component s_k of that eigenvector in O(k),
by Rayleigh-quotient iteration on twisted factorizations (Dhillon and
Parlett 2004) checked by Sturm counts. The Ritz coefficients are formed
once |beta_k s_k| <= ``tol``, on breakdown (beta_k at most eps times the
Gershgorin bound on ||T_k||) or at the step cap. The basis
stays semi-orthogonal by partial reorthogonalization (Simon 1984): only
when Simon's omega recurrence estimates an overlap of the new vector with
an older one above sqrt(eps) is it reorthogonalized, on that step and the
next, by a classical Gram-Schmidt pass (BLAS matrix-vector products) and
by a second one only when the first left less than 1/sqrt(2) of its norm.
A Krylov space at its cap restarts from the current Ritz vector, whose
sign gives it a positive overlap with the vector the sweep started from;
a result is returned once its true residual ||H psi - E psi|| is at most
``tol``.

Both stopping tests are scale-free. ``tol`` applies as tol * min(1, ||H||),
||H|| bounded from the couplings (``hamiltonians.norm_bound``), so a
Hamiltonian scaled down is solved to the same relative accuracy; a ``tol``
whose effective value is below the rounding level eps ||H|| raises
``ValueError`` before the first step, as no residual can reach it.

Only the B term changes sum_i S_i^z. At B = 0, J, J' >= 0 and delta > -1
each sector sum_i S_i^z = 0, +1, -1 is solved on its own basis (at most
C(N, N/2) states) and the winner is embedded in the full space; other
specs are solved in the full space (delta = -2, N = 8 has its ground state
at sum_i S_i^z = -4). The lowest energy wins; energies within ``tol`` of
the lowest tie, and a tie goes to the smaller |sum_i S_i^z|, then to +1.
``EigenResult.sector`` is the chosen sum_i S_i^z (None: full space) and
``sector_gap`` the lowest other sector energy minus the chosen one (below
0 only in a tie).
``max_iter`` bounds each sector's steps; ``iterations`` sums them. A
sector's Lanczos vectors are kept in the block order its apply takes
(``CompiledHamiltonian.order``): the start vector is drawn over the sorted
states and permuted once.
H is real in the computational basis and the start vector is real, so
every returned state has real (float64) amplitudes.

Converged results are memoized per process by ``(spec, tol, max_iter,
seed)`` and shared (specs are frozen, amplitudes read-only); failures are
not. The least recently used go once the amplitudes held pass MEMO_BYTES.
"""
from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from itertools import chain
from operator import mul

import numpy as np

from .hamiltonians import CompiledHamiltonian, HamiltonianSpec, norm_bound
from .spincore import SpinState

MAX_SITES = 16  # full space
MAX_SECTOR_SITES = 20  # sector path: C(20, 10) = 184 756 states per sector
SECTORS = (0, 1, -1)  # in tie-break order
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
KRYLOV_CAP = 200
MEMO_BYTES = 64 * 2 ** 20  # 128 states at N = 16, 8 at N = 20
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
REORTH_LEVEL = np.sqrt(EPS)  # semi-orthogonality (Simon 1984)
RITZ_ITERATIONS = 100  # bisection alone needs about 55
MemoInfo = namedtuple("MemoInfo", "misses currsize nbytes")


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class EigenResult:
    energy: float
    state: SpinState = field(repr=False)
    residual_norm: float
    iterations: int
    sector: int | None
    sector_gap: float | None


def _twisted(alpha: list, beta: list, shift: float, squares: list,
             pivmin: float) -> tuple[int, float, list, float]:
    """Twisted factorization of T - shift (Dhillon and Parlett 2004): the
    number of eigenvalues below ``shift``, the Rayleigh quotient of the
    twisted vector z, and z with its squared norm. ``squares`` holds the
    squared off-diagonal and ``pivmin`` stands in for a zero pivot. The
    twist r minimizes |gamma_r| (the first such r), and
    (T - shift) z = gamma_r e_r with z_r = 1."""
    # pivots of the top-down LDL^T factorization, and the Sturm count: the
    # negative ones
    top = []
    below = 0
    d = 1.0
    for a, q in zip(alpha, chain((0.0,), squares)):
        d = (a - shift) - q / d
        if d == 0.0:
            d = -pivmin
        top.append(d)
        below += d < 0.0
    # bottom-up pivots, and gamma at each index from both sides
    bottom = []
    d = 1.0
    size = np.inf
    for i, a, t, q in zip(range(len(alpha) - 1, -1, -1), reversed(alpha), reversed(top),
                          chain((0.0,), reversed(squares))):
        d = (a - shift) - q / d
        if d == 0.0:
            d = -pivmin
        bottom.append(d)
        gamma = t + d - a + shift
        if abs(gamma) <= size:  # walking down, ties go to the first index
            size, r, gamma_r = abs(gamma), i, gamma
    if gamma != gamma:  # as min() over the sizes: a nan first entry wins
        r, gamma_r = 0, gamma
    bottom.reverse()
    z = []
    v = 1.0
    for b, t in zip(beta[r - 1::-1] if r else (), top[r - 1::-1]):
        v *= -b / t
        z.append(v)
    z.reverse()
    z.append(1.0)
    v = 1.0
    for b, u in zip(beta[r:], bottom[r + 1:]):
        v *= -b / u
        z.append(v)
    norm2 = sum(map(mul, z, z))
    return below, shift + gamma_r / norm2, z, norm2


def _extremes(alpha: list, beta: list) -> tuple[list, float, float, float, float]:
    """The squared off-diagonal of T and the extremes its Ritz and breakdown
    tests read: min and max of ``alpha``, max |alpha| and max |beta|."""
    return ([b * b for b in beta], min(alpha), max(alpha), max(map(abs, alpha)),
            max(map(abs, beta), default=0.0))


def _lowest_ritz(alpha: list, beta: list, guess: float | None,
                 extremes: tuple | None = None) -> tuple[float, float]:
    """Lowest eigenvalue theta of the symmetric tridiagonal matrix T with
    diagonal ``alpha`` and off-diagonal ``beta``, and the last component of
    its normalized eigenvector (sign arbitrary); O(k) per iteration.
    ``extremes`` is ``_extremes(alpha, beta)``, which a sweep keeps as
    running values.

    Rayleigh-quotient iteration on twisted factorizations from ``guess``,
    each shift a few ulp of ||T|| (a margin) below the last quotient, until
    a shift with no eigenvalue below it (a Sturm count: the negative
    top-down pivots) has its quotient within two margins above it. A shift
    that would leave the bracket of the lowest eigenvalue that the counts
    shrink is replaced by the midpoint, so an iteration drawn to a higher
    eigenvalue restarts below it.
    """
    if len(alpha) == 1:
        return alpha[0], 1.0
    squares, alpha_min, alpha_max, alpha_abs, beta_abs = extremes or _extremes(alpha, beta)
    # max(b * b) is exactly the square of max |b|: rounding is monotone
    pivmin = TINY * max(1.0, beta_abs * beta_abs)
    radius = 2.0 * beta_abs
    lo, hi = alpha_min - radius, alpha_max + radius  # Gershgorin
    margin = 4.0 * EPS * (alpha_abs + radius)
    shift = guess - margin
    for _ in range(RITZ_ITERATIONS):
        below, theta, z, norm2 = _twisted(alpha, beta, shift, squares, pivmin)
        if below:
            hi = shift
        elif theta - shift <= 2.0 * margin:
            return theta, z[-1] / norm2 ** 0.5
        else:
            lo = shift
        shift = theta - margin if lo < theta - margin < hi else 0.5 * (lo + hi)
    raise ArithmeticError(f"no lowest Ritz value within {RITZ_ITERATIONS} iterations")


def _ritz_coefficients(alpha: list, beta: list, theta: float) -> np.ndarray:
    """Normalized eigenvector of T for its eigenvalue ``theta``: the twisted
    vector at shift theta."""
    squares = [b * b for b in beta]
    _below, _theta, z, norm2 = _twisted(alpha, beta, theta, squares,
                                        TINY * max([1.0] + squares))
    return np.asarray(z) / norm2 ** 0.5


def _lanczos_sweep(ham: CompiledHamiltonian, start: np.ndarray, tol: float,
                   basis: np.ndarray) -> tuple[float, np.ndarray, float, int]:
    """One restart-free Lanczos pass on the rows of ``basis``: (energy, vector, residual, steps).

    The vector has a positive overlap with ``start``.
    """
    max_steps = basis.shape[0]
    basis[0] = start / np.linalg.norm(start)
    alphas = np.empty(max_steps)  # diagonal of the Lanczos tridiagonal matrix
    betas = np.empty(max_steps)  # its off-diagonal
    # the same as lists, grown one entry per step, with the running extremes
    # of ``_extremes``
    alpha_list, beta_list, squares = [], [], []
    alpha_min, alpha_max, alpha_abs, beta_abs = np.inf, -np.inf, 0.0, 0.0
    # Simon's estimates of v_i . v_j for the newest basis vector j (1 at i = j)
    # and the one before it; psi is the rounding level of one inner product
    psi = EPS * np.sqrt(start.shape[0])
    omega, older = np.ones(1), np.zeros(0)
    again = False
    theta = None
    scratch = np.empty_like(start)
    w = ham.apply(basis[0])
    for step in range(1, max_steps + 1):
        j = step - 1
        krylov = basis[:step]
        alphas[j] = alpha = float(krylov[-1] @ w)
        w -= np.multiply(alpha, krylov[-1], out=scratch)
        if j:
            w -= np.multiply(betas[j - 1], krylov[-2], out=scratch)
        beta = float(np.linalg.norm(w))
        omega, older = _next_omega(omega, older, alphas[:step], betas[:j], beta, psi), omega
        lost = j > 0 and float(np.abs(omega[:j]).max()) > REORTH_LEVEL
        if lost or again:
            # classical Gram-Schmidt, and a second pass only when the first
            # removed most of w (Daniel, Gragg, Kaufman, Stewart 1976)
            before = beta
            w -= krylov.T @ (krylov @ w)
            beta = float(np.linalg.norm(w))
            if beta < before / np.sqrt(2.0):
                w -= krylov.T @ (krylov @ w)
                beta = float(np.linalg.norm(w))
            omega[:step] = psi
        again = lost  # the three-term recurrence carries the loss one step on

        alpha_list.append(alpha)
        alpha_min, alpha_max = min(alpha_min, alpha), max(alpha_max, alpha)
        alpha_abs = max(alpha_abs, abs(alpha))
        theta, last = _lowest_ritz(alpha_list, beta_list, theta,
                                   (squares, alpha_min, alpha_max, alpha_abs, beta_abs))
        # residual of the Ritz pair is |beta * last coefficient|
        residual_est = abs(beta * last)
        # breakdown: beta at the rounding level of ||T|| (its Gershgorin
        # bound), whatever H's scale
        breakdown = beta <= EPS * (alpha_abs + 2.0 * beta_abs)
        if residual_est <= tol or breakdown or step == max_steps:
            vector = _ritz_coefficients(alpha_list, beta_list, theta) @ krylov
            vector /= np.linalg.norm(vector)
            if vector @ krylov[0] < 0.0:
                vector = -vector
            return theta, vector, residual_est, step

        betas[j] = beta
        beta_list.append(beta)
        squares.append(beta * beta)
        beta_abs = max(beta_abs, abs(beta))
        np.divide(w, beta, out=basis[step])
        w = ham.apply(basis[step])
    raise AssertionError("unreachable")


def _next_omega(omega: np.ndarray, older: np.ndarray, alphas: np.ndarray,
                betas: np.ndarray, beta: float, psi: float) -> np.ndarray:
    """Simon's (1984) recurrence for v_i . v_{j+1}, i <= j + 1, from the
    estimates ``omega`` for v_j and ``older`` for v_{j-1}: the Lanczos
    recurrence applied to the estimates, plus a rounding term that only
    grows them. ``alphas`` holds alpha_0..alpha_j, ``betas`` beta_0..beta_{j-1}
    and ``beta`` is beta_j."""
    j = len(betas)
    new = np.empty(j + 2)
    if j:
        new[:j] = (betas * omega[1:] + (alphas[:j] - alphas[j]) * omega[:j]
                   - betas[-1] * older)
        new[1:j] += betas[:-1] * omega[:j - 1]
        new[:j] += np.copysign(EPS * (betas + beta), new[:j])
        new[:j] /= beta or EPS  # beta = 0 is a breakdown: the sweep exits
    new[j] = psi
    new[j + 1] = 1.0
    return new


def _uses_sectors(spec: HamiltonianSpec) -> bool:
    """Whether ``spec`` is solved in the sectors rather than the full space."""
    return spec.b_field == 0.0 and spec.j >= 0.0 and spec.j_prime >= 0.0 and spec.delta > -1.0


def ground_state(spec: HamiltonianSpec, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> EigenResult:
    """Lowest-energy eigenpair of the Hamiltonian, deterministic in ``seed``.

    Raises ConvergenceError (carrying the final residual) if the true
    residual ||H psi - E psi|| of a sector does not reach the effective
    tolerance tol * min(1, ||H|| bound) within ``max_iter`` Lanczos steps
    across restarts, and ValueError if that tolerance is below the rounding
    level eps ||H|| bound. Equal arguments return one result.
    """
    limit = MAX_SECTOR_SITES if _uses_sectors(spec) else MAX_SITES
    if spec.num_sites > limit:
        raise ValueError(f"ground_state limited to N <= {limit} here, got {spec.num_sites} "
                         f"({MAX_SECTOR_SITES} sites need b_field = 0, j, j' >= 0, delta > -1)")
    if not 0.0 < tol < np.inf:  # also rejects nan
        raise ValueError(f"tol must be finite and positive, got {tol}")
    scale = norm_bound(spec)
    if tol * min(1.0, scale) < EPS * scale:
        raise ValueError(f"tol {tol:.3g} is below the rounding level {EPS * scale:.3g} of "
                         f"this Hamiltonian (||H|| <= {scale:.3g}); no residual can reach it")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    return _solve(spec, tol, max_iter, seed)


def _lowest(ham: CompiledHamiltonian, vec: np.ndarray, tol: float, max_iter: int,
            workspace: np.ndarray) -> tuple[float, np.ndarray, float, int]:
    """Restarted Lanczos from ``vec`` in ``workspace``: (energy, vector, residual, steps)."""
    total_steps = 0
    residual = np.inf
    while total_steps < max_iter:
        sweep_cap = min(KRYLOV_CAP, max_iter - total_steps, ham.dim)
        basis = workspace[:sweep_cap * ham.dim].reshape(sweep_cap, ham.dim)
        energy, vec, residual, steps = _lanczos_sweep(ham, vec, tol, basis)
        total_steps += steps
        residual = float(np.linalg.norm(ham.apply(vec) - energy * vec))
        if residual <= tol:
            return energy, vec, residual, total_steps
    raise ConvergenceError(
        f"no convergence after {total_steps} iterations (residual {residual:.3e}, tol {tol:.1e})",
        residual_norm=residual,
    )


def _solve_uncached(spec: HamiltonianSpec, tol: float, max_iter: int, seed: int) -> EigenResult:
    """Lowest eigenpair over the sectors of ``spec`` (or its full space)."""
    tol *= min(1.0, norm_bound(spec))  # relative to ||H|| where that is below 1
    rng = np.random.default_rng(seed)
    # the result's array first, then one Lanczos workspace for every sweep,
    # freed before the result is written: the solve leaves the heap's top
    # free in one piece, and the next solve's workspace fits there again
    amplitudes = np.empty(spec.dim)
    solved = []  # (energy, vector, residual, steps, sector, full-space index)
    workspace = None
    for sector in SECTORS if _uses_sectors(spec) else (None,):
        ham = CompiledHamiltonian(spec, sector)
        if workspace is None:  # sized by the largest basis: sector 0 or 2^N
            workspace = np.empty(min(KRYLOV_CAP, max_iter, ham.dim) * ham.dim)
        # H is real in this basis, so the ground vector can be kept real. The
        # start vector is drawn over the sorted states; a sector's solve runs
        # in the block order of its apply
        start = rng.standard_normal(ham.dim)
        index = slice(None)
        if sector is not None:
            start, index = start[ham.order], ham.states[ham.order]
        solved.append(_lowest(ham, start, tol, max_iter, workspace) + (sector, index))
    iterations = sum(steps for _e, _v, _r, steps, *_ in solved)
    energies = [energy for energy, *_ in solved]
    # sectors come in tie-break order: the first within tol of the lowest wins
    pick = next(k for k, energy in enumerate(energies) if energy <= min(energies) + tol)
    energy, vec, residual, _steps, sector, index = solved.pop(pick)
    del workspace
    amplitudes.fill(0.0)
    amplitudes[index] = vec
    gap = min(other for other, *_ in solved) - energy if solved else None
    return EigenResult(energy, SpinState(spec.num_sites, amplitudes), residual, iterations,
                       sector, gap)


class _Memo(OrderedDict):
    """``_solve_uncached`` results by argument tuple, least recently used first."""
    misses = 0

    def __call__(self, *key) -> EigenResult:
        if key not in self:
            self.misses += 1
            self[key] = _solve_uncached(*key)
        self.move_to_end(key)
        result = self[key]
        while self.cache_info().nbytes > MEMO_BYTES:
            self.popitem(last=False)
        return result

    def cache_clear(self) -> None:
        self.clear()
        self.misses = 0

    def cache_info(self) -> MemoInfo:
        held = sum(result.state.amplitudes.nbytes for result in self.values())
        return MemoInfo(self.misses, len(self), held)


_solve = _Memo()

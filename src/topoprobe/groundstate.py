"""Lowest eigenpair of a chain Hamiltonian via Lanczos iteration.

The Krylov basis is one real array, fully reorthogonalized on every step
by a classical Gram-Schmidt pass (BLAS matrix-vector products) and by a
second one only when the first left less than 1/sqrt(2) of the norm of
the new vector. A Krylov space at its cap restarts from the current Ritz
vector; a result is returned once its true residual ||H psi - E psi|| is
at most ``tol``.

Only the B term changes sum_i S_i^z. At B = 0, J, J' >= 0 and delta > -1
each sector sum_i S_i^z = 0, +1, -1 is solved on its own basis (at most
C(N, N/2) states) and the winner is embedded in the full space; other
specs are solved in the full space (delta = -2, N = 8 has its ground state
at sum_i S_i^z = -4). The lowest energy wins; energies within ``tol`` of
the lowest tie, and a tie goes to the smaller |sum_i S_i^z|, then to +1.
``EigenResult.sector`` is the chosen sum_i S_i^z (None: full space) and
``sector_gap`` the lowest other sector energy minus the chosen one (below
0 only in a tie).
``max_iter`` bounds each sector's steps; ``iterations`` sums them.

Converged results are memoized per process by ``(spec, tol, max_iter,
seed)`` and shared (specs are frozen, amplitudes read-only); failures are
not. The least recently used go once the amplitudes held pass MEMO_BYTES.
"""
from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import CompiledHamiltonian, HamiltonianSpec
from .spincore import SpinState

MAX_SITES = 16  # full space
MAX_SECTOR_SITES = 20  # sector path: C(20, 10) = 184 756 states per sector
SECTORS = (0, 1, -1)  # in tie-break order
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
KRYLOV_CAP = 200
MEMO_BYTES = 64 * 2 ** 20  # 64 states at N = 16, 4 at N = 20
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


def _lanczos_sweep(ham: CompiledHamiltonian, start: np.ndarray, tol: float,
                   max_steps: int) -> tuple[float, np.ndarray, float, int]:
    """One restart-free Lanczos pass; returns (energy, vector, residual, steps)."""
    basis = np.empty((max_steps, start.shape[0]))  # untouched rows are never resident
    basis[0] = start / np.linalg.norm(start)
    tri = np.zeros((max_steps, max_steps))  # Lanczos alphas and betas
    w = ham.apply(basis[0])
    for step in range(1, max_steps + 1):
        krylov = basis[:step]
        tri[step - 1, step - 1] = alpha = float(krylov[-1] @ w)
        w -= alpha * krylov[-1]
        if step > 1:
            w -= tri[step - 1, step - 2] * krylov[-2]
        # full reorthogonalization: a second classical Gram-Schmidt pass only
        # when the first removed most of w (Daniel, Gragg, Kaufman, Stewart 1976)
        before = np.linalg.norm(w)
        w -= krylov.T @ (krylov @ w)
        beta = float(np.linalg.norm(w))
        if beta < before / np.sqrt(2.0):
            w -= krylov.T @ (krylov @ w)
            beta = float(np.linalg.norm(w))

        evals, evecs = np.linalg.eigh(tri[:step, :step])
        ritz_coeffs = evecs[:, 0]
        energy = float(evals[0])
        # residual of the Ritz pair is |beta * last coefficient|
        residual_est = abs(beta * ritz_coeffs[-1])
        if residual_est <= tol or beta < 1e-14 or step == max_steps:
            vector = ritz_coeffs @ krylov
            vector /= np.linalg.norm(vector)
            return energy, vector, residual_est, step

        basis[step] = w / beta
        tri[step, step - 1] = tri[step - 1, step] = beta
        w = ham.apply(basis[step])
    raise AssertionError("unreachable")


def _uses_sectors(spec: HamiltonianSpec) -> bool:
    """Whether ``spec`` is solved in the sectors rather than the full space."""
    return spec.b_field == 0.0 and spec.j >= 0.0 and spec.j_prime >= 0.0 and spec.delta > -1.0


def ground_state(spec: HamiltonianSpec, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> EigenResult:
    """Lowest-energy eigenpair of the Hamiltonian, deterministic in ``seed``.

    Raises ConvergenceError (carrying the final residual) if the true
    residual ||H psi - E psi|| of a sector does not reach ``tol`` within
    ``max_iter`` Lanczos steps across restarts. Equal arguments return one
    result.
    """
    limit = MAX_SECTOR_SITES if _uses_sectors(spec) else MAX_SITES
    if spec.num_sites > limit:
        raise ValueError(f"ground_state limited to N <= {limit} here, got {spec.num_sites} "
                         f"({MAX_SECTOR_SITES} sites need b_field = 0, j, j' >= 0, delta > -1)")
    if not 0.0 < tol < np.inf:  # also rejects nan
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    return _solve(spec, tol, max_iter, seed)


def _lowest(ham: CompiledHamiltonian, vec: np.ndarray, tol: float,
            max_iter: int) -> tuple[float, np.ndarray, float, int]:
    """Restarted Lanczos from ``vec``; returns (energy, vector, residual, steps)."""
    total_steps = 0
    residual = np.inf
    while total_steps < max_iter:
        sweep_cap = min(KRYLOV_CAP, max_iter - total_steps, ham.dim)
        energy, vec, residual, steps = _lanczos_sweep(ham, vec, tol, sweep_cap)
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
    rng = np.random.default_rng(seed)
    solved = []  # (energy, vector, residual, steps, sector, full-space index)
    for sector in SECTORS if _uses_sectors(spec) else (None,):
        ham = CompiledHamiltonian(spec, sector)
        # H is real in this basis, so the ground vector can be kept real
        solved.append(_lowest(ham, rng.standard_normal(ham.dim), tol, max_iter)
                      + (sector, slice(None) if sector is None else ham.states))
    iterations = sum(steps for _e, _v, _r, steps, *_ in solved)
    energies = [energy for energy, *_ in solved]
    # sectors come in tie-break order: the first within tol of the lowest wins
    pick = next(k for k, energy in enumerate(energies) if energy <= min(energies) + tol)
    energy, vec, residual, _steps, sector, index = solved.pop(pick)
    amplitudes = np.zeros(spec.dim, dtype=complex)
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

"""Lowest eigenpair of a chain Hamiltonian via Lanczos iteration.

The Krylov basis is one real array, fully reorthogonalized on every step
by two classical Gram-Schmidt passes (BLAS matrix-vector products). A
Krylov space at its cap restarts from the current Ritz vector; a result is
returned once its true residual ||H psi - E psi|| is at most ``tol``.
Converged results are memoized per process by ``(spec, tol, max_iter,
seed)`` and shared (specs are frozen, amplitudes read-only); failures are
not. Degenerate ground states are not detected; the boundary pinning field
in the Hamiltonian is the intended degeneracy-breaking mechanism.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hamiltonians import CompiledHamiltonian, HamiltonianSpec, compile_hamiltonian
from .spincore import SpinState

MAX_SITES = 16
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000
KRYLOV_CAP = 200
MEMO_SIZE = 32  # converged results kept; an N = 16 state holds 1 MiB


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


def _lanczos_sweep(ham: CompiledHamiltonian, start: np.ndarray, tol: float,
                   max_steps: int) -> tuple[float, np.ndarray, float, int]:
    """One restart-free Lanczos pass; returns (energy, vector, residual, steps)."""
    basis = np.empty((max_steps, start.shape[0]))  # untouched rows are never resident
    basis[0] = start / np.linalg.norm(start)
    alphas: list[float] = []
    betas: list[float] = []
    w = ham.apply(basis[0])
    for step in range(1, max_steps + 1):
        krylov = basis[:step]
        alphas.append(float(krylov[-1] @ w))
        w -= alphas[-1] * krylov[-1]
        if step > 1:
            w -= betas[-1] * krylov[-2]
        # full reorthogonalization: two classical Gram-Schmidt passes
        for _ in range(2):
            w -= krylov.T @ (krylov @ w)
        beta = float(np.linalg.norm(w))

        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        evals, evecs = np.linalg.eigh(tri)
        ritz_coeffs = evecs[:, 0]
        energy = float(evals[0])
        # residual of the Ritz pair is |beta * last coefficient|
        residual_est = abs(beta * ritz_coeffs[-1])
        if residual_est <= tol or beta < 1e-14 or step == max_steps:
            vector = ritz_coeffs @ krylov
            vector /= np.linalg.norm(vector)
            return energy, vector, residual_est, step

        basis[step] = w / beta
        betas.append(beta)
        w = ham.apply(basis[step])
    raise AssertionError("unreachable")


def ground_state(spec: HamiltonianSpec, tol: float = DEFAULT_TOL,
                 max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> EigenResult:
    """Lowest-energy eigenpair of the Hamiltonian, deterministic in ``seed``.

    Raises ConvergenceError (carrying the final residual) if the true
    residual ||H psi - E psi|| does not reach ``tol`` within ``max_iter``
    total Lanczos steps across restarts. Equal arguments return one result.
    """
    if spec.num_sites > MAX_SITES:
        raise ValueError(f"ground_state limited to N <= {MAX_SITES}, got {spec.num_sites}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _solve(spec, tol, max_iter, seed)


@lru_cache(maxsize=MEMO_SIZE)
def _solve(spec: HamiltonianSpec, tol: float, max_iter: int, seed: int) -> EigenResult:
    """The memoized Lanczos solve behind ``ground_state``."""
    ham = compile_hamiltonian(spec)
    rng = np.random.default_rng(seed)
    # H is real in this basis, so the ground vector can be kept real
    vec = rng.standard_normal(spec.dim)
    total_steps = 0
    energy = np.inf
    residual = np.inf
    while total_steps < max_iter:
        sweep_cap = min(KRYLOV_CAP, max_iter - total_steps, spec.dim)
        energy, vec, residual, steps = _lanczos_sweep(ham, vec, tol, sweep_cap)
        total_steps += steps
        hv = ham.apply(vec)
        residual = float(np.linalg.norm(hv - energy * vec))
        if residual <= tol:
            state = SpinState(spec.num_sites, vec.astype(complex))
            return EigenResult(energy, state, residual, total_steps)
    raise ConvergenceError(
        f"no convergence after {total_steps} iterations (residual {residual:.3e}, tol {tol:.1e})",
        residual_norm=residual,
    )

"""Reference computations and output checks for the benchmark.

Every reference here is computed from the statevector with numpy alone and
shares no code with the program: reflection values by permuting tensor axes
of the statevector, purities from Gram matrices of the reshaped amplitudes,
two-segment and two-copy contractions from dense matrices built out of
explicit Pauli matrices, and a matrix-free Hamiltonian written out term by
term. Checks append a message to an error list and return whether they held.

``python3 perfbench/checks.py`` runs ``self_test``: each check must pass on
a true value and fail on a perturbed one.
"""
from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# largest interval whose two-segment or two-copy reference is built densely
DENSE_INTERVAL_LIMIT = 9
SE_FACTOR = 4.0
VALUE_ATOL = 1e-8
RESIDUAL_TOL = 1e-8
BOUND_SLACK = 1e-10
RAMP_TOL = 0.1
TWIRL_TOL = 0.05


# -- references ---------------------------------------------------------------

def _kron_power(op: np.ndarray, count: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(count):
        out = np.kron(out, op)
    return out


def _split(amps: np.ndarray, num_sites: int, start: int, length: int) -> np.ndarray:
    """Amplitudes as (sites above, interval, sites below); the interval
    index has site ``start`` as its least significant bit."""
    return np.asarray(amps).reshape(2 ** (num_sites - start - length), 2 ** length,
                                    2 ** start)


def interval_rdm(amps, num_sites: int, start: int, length: int) -> np.ndarray:
    block = _split(amps, num_sites, start, length).transpose(1, 0, 2).reshape(2 ** length, -1)
    return block @ block.conj().T


def interval_purity(amps, num_sites: int, start: int, length: int) -> float:
    """Tr rho^2 of a contiguous block, from the smaller Gram matrix of the
    reshaped amplitudes (both share their nonzero spectrum)."""
    block = _split(amps, num_sites, start, length).transpose(1, 0, 2).reshape(2 ** length, -1)
    gram = block @ block.conj().T if block.shape[0] <= block.shape[1] else block.conj().T @ block
    return float(np.sum(np.abs(gram) ** 2))


def reflection_raw(amps, num_sites: int, start: int, length: int) -> float:
    """<psi|R_I|psi>, with R_I reversing the site order of the interval:
    one tensor axis per interval site, read in reverse order."""
    tensor = _split(amps, num_sites, start, length).reshape(
        (2 ** (num_sites - start - length),) + (2,) * length + (2 ** start,))
    axes = [0] + list(range(length, 0, -1)) + [length + 1]
    reflected = tensor.transpose(axes).reshape(-1)
    return float(np.vdot(np.asarray(amps), reflected).real)


def _partial_transpose_low(rho: np.ndarray, low_bits: int) -> np.ndarray:
    dim = rho.shape[0]
    high = dim // 2 ** low_bits
    shaped = rho.reshape(high, 2 ** low_bits, high, 2 ** low_bits)
    return shaped.transpose(0, 3, 2, 1).reshape(dim, dim)


def _flip_low(rho: np.ndarray, low_bits: int, op: np.ndarray, transpose: bool) -> np.ndarray:
    """op^{(x)low} applied by conjugation to the low segment, after its
    partial transpose when ``transpose`` is set."""
    dim = rho.shape[0]
    u = np.kron(np.eye(dim // 2 ** low_bits), _kron_power(op, low_bits))
    base = _partial_transpose_low(rho, low_bits) if transpose else rho
    return u @ base @ u.conj().T


def time_reversal_raw(rho: np.ndarray, pairs: int) -> float:
    """Tr[rho u rho^{T1} u^dag] with u = sigma_y on every first-segment site."""
    return float(np.trace(rho @ _flip_low(rho, pairs, PAULI_Y, True)).real)


def _z_weighted_trace_middle(op: np.ndarray, pairs: int) -> np.ndarray:
    """Tr_{I2}[Z_{I2} op] for a three-segment operator (I3 high, I1 low)."""
    seg = 2 ** pairs
    z_middle = np.kron(np.kron(np.eye(seg), _kron_power(PAULI_Z, pairs)), np.eye(seg))
    shaped = (z_middle @ op).reshape(seg, seg, seg, seg, seg, seg)
    return np.einsum("xbyzbw->xyzw", shaped).reshape(seg * seg, seg * seg)


def two_copy_raw(rho: np.ndarray, pairs: int, kind: str) -> float:
    """Tr[S_I1 Z_I2 S_I3 (A (x) rho)], which equals Tr[A~ rho~] with
    X~ = Tr_{I2}[Z_{I2} X]; A is rho conjugated by sigma_x on I1 (d2) or
    rho^{T1} conjugated by sigma_y on I1 (klein_bottle)."""
    if kind == "d2":
        first = _flip_low(rho, pairs, PAULI_X, False)
    else:
        first = _flip_low(rho, pairs, PAULI_Y, True)
    return float(np.trace(_z_weighted_trace_middle(first, pairs)
                          @ _z_weighted_trace_middle(rho, pairs)).real)


def invariant_reference(amps, num_sites: int, kind: str, pairs: int) -> dict:
    """Raw value, segment purities and, where defined, the normalized value
    of one invariant, on the layouts the program uses: two segments around
    the central bond, or three segments centred on the chain."""
    segments = 3 if kind in ("d2", "klein_bottle") else 2
    length = segments * pairs
    start = num_sites // 2 - length // 2
    last = start + (segments - 1) * pairs
    p_first = interval_purity(amps, num_sites, start, pairs)
    p_last = interval_purity(amps, num_sites, last, pairs)
    out = {"purity_first": p_first, "purity_last": p_last,
           "interval_purity": interval_purity(amps, num_sites, start, length)}
    mean_purity = (p_first + p_last) / 2.0
    if kind == "reflection":
        out["raw"] = reflection_raw(amps, num_sites, start, length)
        out["normalized"] = out["raw"] / np.sqrt(mean_purity)
    elif length <= DENSE_INTERVAL_LIMIT:
        rho = interval_rdm(amps, num_sites, start, length)
        if kind == "time_reversal":
            out["raw"] = time_reversal_raw(rho, pairs)
        else:
            out["raw"] = two_copy_raw(rho, pairs, kind)
        out["normalized"] = out["raw"] / mean_purity ** 1.5
    return out


def apply_hamiltonian(amps, num_sites: int, j: float, j_prime: float, delta: float,
                      b_field: float = 0.0, pinning: float | None = None) -> np.ndarray:
    """H|psi> written out term by term: (c/2)(XX + YY + delta ZZ) on every
    bond (c = J on bonds with even left site, J' on odd), B (X Z - Z X) on
    every bond, and the boundary pinning field (default 0.05 J) on site 0."""
    psi = np.asarray(amps, dtype=complex)
    pinning = 0.05 * j if pinning is None else pinning

    def on(site, op, vec):
        view = vec.reshape(2 ** (num_sites - 1 - site), 2, 2 ** site)
        return np.einsum("ab,xby->xay", op, view).reshape(-1)

    out = pinning * on(0, PAULI_Z, psi)
    for left in range(num_sites - 1):
        coupling = j if left % 2 == 0 else j_prime
        for op, weight in ((PAULI_X, 1.0), (PAULI_Y, 1.0), (PAULI_Z, delta)):
            out = out + 0.5 * coupling * weight * on(left, op, on(left + 1, op, psi))
        if b_field:
            out = out + b_field * (on(left, PAULI_X, on(left + 1, PAULI_Z, psi))
                                   - on(left, PAULI_Z, on(left + 1, PAULI_X, psi)))
    return out


def mirror_singlet_state(num_sites: int) -> np.ndarray:
    """A singlet on every pair of sites mirrored across the central bond."""
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    amps = np.zeros(2 ** num_sites, dtype=complex)
    for index in range(2 ** num_sites):
        value = 1.0 + 0j
        for site in range(num_sites // 2):
            mirror = num_sites - 1 - site
            value *= singlet[((index >> site) & 1) + 2 * ((index >> mirror) & 1)]
        amps[index] = value
    return amps


# -- checks -------------------------------------------------------------------

def close(errors: list, what: str, value, reference, atol: float = VALUE_ATOL) -> bool:
    ok = value is not None and bool(np.isfinite(value)) and abs(value - reference) <= atol
    if not ok:
        errors.append(f"{what}: {value} differs from reference {reference} by more than {atol}")
    return ok


def within_se(errors: list, what: str, value, std_error, reference) -> bool:
    ok = (value is not None and std_error is not None and np.isfinite(value)
          and abs(value - reference) <= SE_FACTOR * std_error)
    if not ok:
        errors.append(f"{what}: {value} +- {std_error} is not within {SE_FACTOR:g} "
                      f"standard errors of {reference}")
    return ok


def same_sign(errors: list, what: str, value, reference) -> bool:
    ok = value is not None and np.sign(value) == np.sign(reference) != 0
    if not ok:
        errors.append(f"{what}: sign of {value} does not match phase sign of {reference}")
    return ok


def reflection_bound(errors: list, what: str, raw) -> bool:
    """|Z_R| <= 1: R_I is unitary and Hermitian."""
    ok = abs(raw) <= 1.0 + BOUND_SLACK
    if not ok:
        errors.append(f"{what}: |Z_R| = {abs(raw)} exceeds 1")
    return ok


def time_reversal_bound(errors: list, what: str, raw, interval_purity) -> bool:
    """|Z_T| <= Tr rho_I^2, by Cauchy-Schwarz on a unitary conjugate of rho^T1
    (whose Frobenius norm is that of rho)."""
    ok = abs(raw) <= interval_purity + BOUND_SLACK
    if not ok:
        errors.append(f"{what}: |Z_T| = {abs(raw)} exceeds Tr rho_I^2 = {interval_purity}")
    return ok


def counts_sum(errors: list, what: str, counts_rows, n_shots: int) -> bool:
    sums = np.asarray([int(np.sum(row)) for row in counts_rows])
    ok = sums.size > 0 and bool(np.all(sums == n_shots))
    if not ok:
        errors.append(f"{what}: count totals {sorted(set(sums.tolist()))} differ from {n_shots}")
    return ok


def bit_identical(errors: list, what: str, value, reference) -> bool:
    ok = isinstance(value, float) and isinstance(reference, float) and \
        np.float64(value).tobytes() == np.float64(reference).tobytes()
    if not ok:
        errors.append(f"{what}: {value!r} is not bit-identical to {reference!r}")
    return ok


def residual(errors: list, what: str, amps, energy, **hamiltonian) -> bool:
    """||H psi - E psi|| with the reference Hamiltonian."""
    num_sites = int(np.log2(len(amps)))
    value = float(np.linalg.norm(apply_hamiltonian(amps, num_sites, **hamiltonian)
                                 - energy * np.asarray(amps)))
    ok = value <= RESIDUAL_TOL
    if not ok:
        errors.append(f"{what}: residual {value:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return ok


def at_most(errors: list, what: str, value, limit: float) -> bool:
    ok = value is not None and bool(np.isfinite(value)) and value <= limit
    if not ok:
        errors.append(f"{what}: {value} exceeds {limit}")
    return ok


def fit_outcome(errors: list, what: str, values, fit, raised: bool) -> bool:
    """A fit raises exactly when some |value| >= 1, and otherwise gives a
    positive length scale (infinite when flagged non-decaying)."""
    reached = any(abs(v) >= 1.0 for v in values)
    if reached or raised:
        ok = reached and raised
    else:
        ok = fit.length_scale > 0 and (np.isfinite(fit.length_scale)
                                       or fit.flag == "non_decaying")
    if not ok:
        errors.append(f"{what}: fit outcome {fit!r} (raised={raised}) does not match "
                      f"series {list(values)}")
    return ok


# -- self test ----------------------------------------------------------------

def _random_state(rng, num_sites: int) -> np.ndarray:
    amps = rng.standard_normal(2 ** num_sites) + 1j * rng.standard_normal(2 ** num_sites)
    return amps / np.linalg.norm(amps)


def self_test() -> list[str]:
    """Each check passes on a true value and fails on a perturbed one; the
    references reproduce closed forms. Returns the list of failures."""
    failures = []

    def expect(label, passed, perturbed):
        if not passed:
            failures.append(f"{label}: rejected a true value")
        if perturbed:
            failures.append(f"{label}: accepted a perturbed value")

    sink: list = []
    rng = np.random.default_rng(12345)

    # closed forms on mirror singlets: R = 1, segment purity 1/4, Z_T = 1/4
    singlet = mirror_singlet_state(4)
    ref = invariant_reference(singlet, 4, "reflection", 2)
    tr = invariant_reference(singlet, 4, "time_reversal", 2)
    expect("mirror-singlet reflection", close(sink, "", ref["raw"], 1.0)
           and close(sink, "", ref["purity_first"], 0.25)
           and close(sink, "", ref["normalized"], 2.0),
           close(sink, "", ref["raw"] + 1e-6, 1.0))
    expect("mirror-singlet time reversal", close(sink, "", tr["normalized"], 2.0),
           close(sink, "", tr["normalized"] * (1 + 1e-6), 2.0))
    # a product state is pure on every block and mirror-symmetric if its
    # site states are
    up = np.zeros(2 ** 6, dtype=complex)
    up[0] = 1.0
    for kind, pairs in (("reflection", 3), ("time_reversal", 2), ("d2", 2), ("klein_bottle", 2)):
        value = invariant_reference(up, 6, kind, pairs)
        expect(f"product-state {kind} purity", close(sink, "", value["interval_purity"], 1.0),
               close(sink, "", value["interval_purity"] - 1e-6, 1.0))
    up_reflection = invariant_reference(up, 6, "reflection", 3)["raw"]
    expect("product-state reflection", close(sink, "", up_reflection, 1.0),
           close(sink, "", up_reflection, 1.0 + 1e-6))

    state = _random_state(rng, 6)
    value = invariant_reference(state, 6, "time_reversal", 2)
    expect("close", close(sink, "", value["raw"], value["raw"]),
           close(sink, "", value["raw"] + 1e-6, value["raw"]))
    expect("within_se", within_se(sink, "", 0.5 + 0.1, 0.05, 0.5),
           within_se(sink, "", 0.5 + 0.21, 0.05, 0.5))
    expect("same_sign", same_sign(sink, "", -0.9, -1.0), same_sign(sink, "", 0.9, -1.0))
    expect("reflection_bound", reflection_bound(sink, "", -1.0),
           reflection_bound(sink, "", -1.0 - 1e-6))
    expect("time_reversal_bound",
           time_reversal_bound(sink, "", value["raw"], value["interval_purity"]),
           time_reversal_bound(sink, "", value["interval_purity"] + 1e-6,
                               value["interval_purity"]))
    counts = [np.array([3, 0, 5]), np.array([8, 0, 0])]
    expect("counts_sum", counts_sum(sink, "", counts, 8),
           counts_sum(sink, "", [counts[0] + np.array([0, 1, 0]), counts[1]], 8))
    expect("bit_identical", bit_identical(sink, "", 0.1 + 0.2, 0.1 + 0.2),
           bit_identical(sink, "", float(np.nextafter(0.3, 1.0)), 0.3))
    # ground state of a 6-site chain from a dense matrix of the reference H
    basis = np.eye(2 ** 6, dtype=complex)
    couplings = dict(j=1.0, j_prime=2.0, delta=0.3, b_field=0.1)
    dense = np.stack([apply_hamiltonian(col, 6, **couplings) for col in basis], axis=1)
    energies, vectors = np.linalg.eigh(dense)
    ground = vectors[:, 0]
    shifted = ground + 1e-6 * basis[:, 1]
    expect("residual", residual(sink, "", ground, energies[0], **couplings),
           residual(sink, "", shifted / np.linalg.norm(shifted), energies[0], **couplings))
    expect("at_most", at_most(sink, "", 0.049, TWIRL_TOL), at_most(sink, "", 0.051, TWIRL_TOL))

    class Fit:
        def __init__(self, length_scale, flag=""):
            self.length_scale, self.flag = length_scale, flag

    expect("fit_outcome", fit_outcome(sink, "", [0.9, 0.99, 0.999], Fit(0.4), False)
           and fit_outcome(sink, "", [0.9, 0.99, 1.0002], None, True),
           fit_outcome(sink, "", [0.9, 0.99, 1.0002], Fit(0.4), False)
           or fit_outcome(sink, "", [0.9, 0.99, 0.999], Fit(-0.4), False))
    return failures


if __name__ == "__main__":
    import sys

    problems = self_test()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("self test:", "FAIL" if problems else "ok")
    sys.exit(1 if problems else 0)

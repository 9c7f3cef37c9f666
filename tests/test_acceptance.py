"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers and wall time (run with -s to see
the lines live).

The segment-size series of criteria 7 and 8 step the interval over whole
unit cells. The invariants are quantized only when every cut of the
measured interval falls on the same kind of bond (Pollmann & Turner,
PRB 86, 125441, 2012). On an even chain whose central bond is a J' bond
(N = 12 and N = 16 here), that means an even number of sites per segment;
an odd count puts the outer cuts on J bonds, and in the J'-strong phase
the two-segment invariants then tend to -sqrt(2) (raw value -1 over a
segment purity of 1/2) instead of -1. Such a placement is an error of the
test, not a feature of the physics. Criteria 7 and 8 therefore run at
N = 16 (the full-space solver's cap; the sector solver reaches N = 20)
with n in {2, 4, 6}; n = 6 is a 12-site interval (the RDM cap).

Nine of the ten criteria pass; criterion 1 meets its 300 s wall-time gate
(about 8-11 s on 2 cores). Criterion 7 stays red at
this system size: the three-point fit gives lambda(0.3) = 0 (the n = 6
value reaches 1.0002, past the fit's |value| < 1 precondition),
lambda(1) = 1.89 and lambda(3) = 2.26 with a log-residual of 1.01, because
at J'/J = 3 the deviation falls from 0.137 to 0.0066 and then rises to
0.0234 at n = 6, whose outer cuts sit one bond from the open chain ends.
What is missing is chain length, not a fault in the program.
"""
import time

import numpy as np
import pytest

from topoprobe.analysis import error_scaling_scan, fit_correlation_length
from topoprobe.dynamics import RampSpec, adiabatic_evolve, evolve
from topoprobe.groundstate import ground_state
from topoprobe.hamiltonians import CompiledHamiltonian, HamiltonianSpec
from topoprobe.partitions import reflection_partition, three_segment_partition
from topoprobe.protocols import (
    CampaignRecords,
    ProtocolParams,
    estimate_normalized,
    estimate_purity,
    estimate_raw,
    run_campaign,
    twirl_check,
)
from topoprobe.rdm import exact_invariant, purity, reduced_density_matrix
from topoprobe.spincore import random_state, reflection_permutation

from oracles import dense_matrix, hamming_distance, magnetization_diagonal, \
    symmetry_breaking_report

N_ORACLE_STATES = 20
ORACLE_DRAWS = 20000


def report(number: int, name: str, passed: bool, detail: str, started: float) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} ({name}): {verdict} [{time.time() - started:.1f}s] {detail}")


def _chain_solver(num_sites):
    cache = {}

    def solve(j_prime, delta=0.25, b_field=0.0):
        key = (j_prime, delta, b_field)
        if key not in cache:
            spec = HamiltonianSpec(num_sites=num_sites, j=1.0, j_prime=j_prime,
                                   delta=delta, b_field=b_field)
            cache[key] = ground_state(spec, seed=0).state
        return cache[key]

    return solve


@pytest.fixture(scope="module")
def chain12():
    """Ground states for the N=12 working points shared across criteria."""
    return _chain_solver(12)


@pytest.fixture(scope="module")
def chain16():
    """Ground states at N=16, long enough for three whole-cell segment sizes."""
    return _chain_solver(16)


def test_criterion_01_oracle_equivalence_infinite_shot():
    started = time.time()
    rng = np.random.default_rng(1001)
    part2 = reflection_partition(8, 2)
    part3 = three_segment_partition(8, 1)
    hits = {"reflection": 0, "time_reversal": 0, "purity": 0, "d2": 0, "klein_bottle": 0}
    for index in range(N_ORACLE_STATES):
        state = random_state(8, rng)
        seed = 9000 + index

        params_r = ProtocolParams("reflection", ORACLE_DRAWS, 2, part2, seed)
        records_r = run_campaign(state, params_r, exact_probabilities=True)
        est = estimate_raw(records_r, params_r)
        exact = exact_invariant(state, part2, "reflection").raw
        hits["reflection"] += abs(est.value - exact) <= 3 * est.std_error

        est = estimate_purity(records_r, params_r, segment=0)
        exact = purity(reduced_density_matrix(state, part2.segment_sites(0)))
        hits["purity"] += abs(est.value - exact) <= 3 * est.std_error

        for kind, part in (("time_reversal", part2), ("d2", part3),
                           ("klein_bottle", part3)):
            params = ProtocolParams(kind, ORACLE_DRAWS, 2, part, seed)
            records = run_campaign(state, params, exact_probabilities=True)
            est = estimate_raw(records, params)
            exact = exact_invariant(state, part, kind).raw
            hits[kind] += abs(est.value - exact) <= 3 * est.std_error

    elapsed = time.time() - started
    passed = all(count >= 19 for count in hits.values()) and elapsed <= 300
    report(1, "oracle equivalence", passed,
           f"3-sigma hits/20: {hits}, runtime {elapsed:.0f}s <= 300s", started)
    assert passed


def test_criterion_02_twirling_identities():
    started = time.time()
    phi = twirl_check("phi", 100000, np.random.default_rng(2001))
    psi = twirl_check("psi", 100000, np.random.default_rng(2002))
    elapsed = time.time() - started
    passed = phi.frobenius_error <= 0.05 and psi.frobenius_error <= 0.05 and elapsed <= 30
    report(2, "twirling identities", passed,
           f"phi {phi.frobenius_error:.4f}, psi {psi.frobenius_error:.4f} (<= 0.05)", started)
    assert passed


def test_criterion_03_quantization_desk_scale(chain12):
    started = time.time()
    part = reflection_partition(12, 2)
    trivial = exact_invariant(chain12(0.2), part, "reflection").normalized
    topological = exact_invariant(chain12(5.0), part, "reflection").normalized
    afm = exact_invariant(chain12(1.0, delta=3.0), reflection_partition(12, 3),
                          "reflection").normalized
    elapsed = time.time() - started
    passed = trivial > 0.9 and topological < -0.9 and abs(afm) <= 0.3 and elapsed <= 120
    report(3, "quantization", passed,
           f"trivial {trivial:+.4f} > 0.9, topological {topological:+.4f} < -0.9, "
           f"afm |{afm:+.4f}| <= 0.3", started)
    assert passed


def test_criterion_04_sampled_reflection_matches_exact(chain12):
    started = time.time()
    points = [
        (chain12(0.2), reflection_partition(12, 2)),
        (chain12(5.0), reflection_partition(12, 2)),
        (chain12(1.0, delta=3.0), reflection_partition(12, 3)),
    ]
    details = []
    passed = True
    for index, (state, part) in enumerate(points):
        params = ProtocolParams("reflection", 512, 256, part, 4001 + index)
        records = run_campaign(state, params)
        est = estimate_normalized(records, params)
        exact = exact_invariant(state, part, "reflection").normalized
        pull = abs(est.value - exact) / est.std_error
        details.append(f"{est.value:+.3f} vs {exact:+.3f} ({pull:.1f} sigma)")
        passed = passed and pull <= 3.0
    elapsed = time.time() - started
    passed = passed and elapsed <= 600
    report(4, "sampled reflection", passed, "; ".join(details), started)
    assert passed


def test_criterion_05_sampled_time_reversal(chain12):
    started = time.time()
    part = reflection_partition(12, 2)
    details = []
    passed = True
    for index, j_prime in enumerate((0.2, 5.0)):
        state = chain12(j_prime)
        params = ProtocolParams("time_reversal", 768, 512, part, 5001 + index)
        records = run_campaign(state, params)
        est = estimate_normalized(records, params)
        exact = exact_invariant(state, part, "time_reversal").normalized
        pull = abs(est.value - exact) / est.std_error
        details.append(f"J'/J={j_prime}: {est.value:+.3f} vs {exact:+.3f} ({pull:.1f} sigma)")
        passed = passed and pull <= 3.0 and np.sign(est.value) == np.sign(exact)
    elapsed = time.time() - started
    passed = passed and elapsed <= 900
    report(5, "sampled time reversal", passed, "; ".join(details), started)
    assert passed


def test_criterion_06_error_scaling():
    started = time.time()
    state = ground_state(HamiltonianSpec(num_sites=8, j=1.0, j_prime=3.0, delta=0.25),
                         seed=0).state
    part = reflection_partition(8, 2)
    repetitions = 160

    rows = error_scaling_scan(state, ProtocolParams("reflection", 64, 64, part, 42),
                              "n_unitaries", [128, 256], repetitions)
    ratio_r = rows[1]["mean_abs_error"] / rows[0]["mean_abs_error"]
    rows = error_scaling_scan(state, ProtocolParams("time_reversal", 64, 64, part, 43),
                              "n_unitaries", [128, 256], repetitions)
    ratio_t = rows[1]["mean_abs_error"] / rows[0]["mean_abs_error"]
    rows = error_scaling_scan(state, ProtocolParams("time_reversal", 96, 4, part, 44),
                              "n_shots", [8, 16], repetitions)
    ratio_m = rows[1]["mean_abs_error"] / rows[0]["mean_abs_error"]

    inv_sqrt2 = 2 ** -0.5
    checks = (abs(ratio_r / inv_sqrt2 - 1), abs(ratio_t / inv_sqrt2 - 1),
              abs(ratio_m / 0.5 - 1))
    elapsed = time.time() - started
    passed = max(checks) <= 0.25 and elapsed <= 1200
    report(6, "error scaling", passed,
           f"NU-doubling: reflection {ratio_r:.3f}, time-reversal {ratio_t:.3f} "
           f"(target 0.707 +- 25%); NM-doubling {ratio_m:.3f} (target 0.5 +- 25%), "
           f"{repetitions} repetitions", started)
    assert passed


def test_criterion_07_correlation_length_peak(chain16):
    # Whole-cell segment sizes n = 2, 4, 6 at N = 16 (see module docstring).
    # Expected red at this system size: lambda(0.3) hits the |value| < 1
    # precondition at n = 6, and the J'/J = 3 series turns up again at n = 6,
    # whose cuts sit one bond from the chain ends.
    started = time.time()
    pair_counts = (2, 4, 6)
    lengths, fits = {}, []
    for j_prime in (0.3, 1.0, 3.0):
        state = chain16(j_prime)
        values = [exact_invariant(state, reflection_partition(16, n),
                                  "time_reversal").normalized for n in pair_counts]
        try:
            fit = fit_correlation_length(pair_counts, values)
        except ValueError:
            # |value| >= 1 in the series: already past the quantized value
            lengths[j_prime] = 0.0
            fits.append(f"lambda({j_prime:g})=0.00 [flag |value|>=1, residual n/a]")
            continue
        lengths[j_prime] = fit.length_scale
        fits.append(f"lambda({j_prime:g})={fit.length_scale:.2f} "
                    f"[flag {fit.flag or 'none'}, residual {fit.residual:.2f}]")
    elapsed = time.time() - started
    passed = lengths[1.0] > lengths[0.3] and lengths[1.0] > lengths[3.0] and elapsed <= 300
    report(7, "correlation length peak", passed,
           f"{'; '.join(fits)}; expected peak at J'/J=1", started)
    assert passed


def test_criterion_08_symmetry_breaking_selectivity(chain16):
    # Whole-cell segment sizes n = 2, 4, 6 at N = 16 (see module docstring).
    # The unbroken chain's |reflection(n)| itself still converges toward 1
    # with n, so the loss caused by the breaking field is measured against
    # the same chain at B = 0: |R_B(n) / R_0(n)| must strictly decrease.
    started = time.time()
    pair_counts = (2, 4, 6)
    base = HamiltonianSpec(num_sites=16, j=1.0, j_prime=4.0, delta=0.3, b_field=0.1)
    broken = symmetry_breaking_report(base, pair_counts=pair_counts)
    reflection = np.abs(broken["reflection"])
    unbroken_state = chain16(4.0, delta=0.3)
    reflection_0 = np.abs([exact_invariant(unbroken_state, reflection_partition(16, n),
                                           "reflection").normalized for n in pair_counts])
    ratio = reflection / reflection_0

    strictly_decreasing = ratio[0] > ratio[1] > ratio[2]
    survives = abs(broken["time_reversal"][2]) > reflection[2]

    signs_match = True
    part = reflection_partition(16, pair_counts[-1])
    for j_prime in (4.0, 0.25):
        with_b = chain16(j_prime, delta=0.3, b_field=0.1)
        without_b = chain16(j_prime, delta=0.3)
        sign_b = np.sign(exact_invariant(with_b, part, "time_reversal").normalized)
        sign_0 = np.sign(exact_invariant(without_b, part, "time_reversal").normalized)
        signs_match = signs_match and sign_b == sign_0

    elapsed = time.time() - started
    passed = strictly_decreasing and survives and signs_match and elapsed <= 300
    report(8, "symmetry-breaking selectivity", passed,
           f"n={list(pair_counts)}: |R_B(n)|={np.round(reflection, 4).tolist()}, "
           f"|R_0(n)|={np.round(reflection_0, 4).tolist()}, "
           f"ratio={np.round(ratio, 4).tolist()} strictly decreasing: "
           f"{strictly_decreasing}; time-reversal survives: {survives}; "
           f"signs match B=0: {signs_match}", started)
    assert passed


def test_criterion_09_adiabatic_preparation(chain12):
    started = time.time()
    spec = HamiltonianSpec(num_sites=12, j=1.0, j_prime=0.5, delta=0.25)
    part = reflection_partition(12, 2)
    target = exact_invariant(chain12(0.5), part, "reflection").normalized
    deviations = []
    for t_final in (2.0, 5.0, 10.0, 20.0):
        snapshots = adiabatic_evolve(spec, RampSpec(t_final=t_final, dt=0.01,
                                                    neel_delta=40.0))
        endpoint = exact_invariant(snapshots[-1][1], part, "reflection").normalized
        deviations.append(abs(endpoint - target))
    non_monotone = sum(b > a for a, b in zip(deviations, deviations[1:]))
    elapsed = time.time() - started
    passed = deviations[-1] <= 0.1 and non_monotone <= 1 and elapsed <= 1200
    report(9, "adiabatic preparation", passed,
           f"|deviation|(t_final=2,5,10,20) = {np.round(deviations, 4).tolist()}, "
           f"non-monotone pairs {non_monotone} <= 1", started)
    assert passed


def test_criterion_10_property_bundle(rng):
    started = time.time()
    failures = []

    # Hamming metric, exhaustive on 4-bit strings
    for a in range(16):
        for b in range(16):
            if hamming_distance(a, b) != hamming_distance(b, a):
                failures.append("hamming symmetry")
            for c in range(16):
                if hamming_distance(a, c) > hamming_distance(a, b) + hamming_distance(b, c):
                    failures.append("hamming triangle")

    # reflection involution, exhaustive up to 8 positions
    for length in (2, 4, 6, 8):
        perm = reflection_permutation(length)
        if not np.array_equal(perm[perm], np.arange(2 ** length)):
            failures.append(f"reflection involution length {length}")

    # estimator linearity in the probabilities
    part = reflection_partition(4, 1)
    params = ProtocolParams("reflection", 2, 2, part, 0)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))

    def reflection_value(dist):
        records = CampaignRecords(np.array([[dist], [dist]]), exact=True)
        return estimate_raw(records, params).value

    mixed = reflection_value(0.25 * p + 0.75 * q)
    if abs(mixed - (0.25 * reflection_value(p) + 0.75 * reflection_value(q))) > 1e-13:
        failures.append("estimator linearity")

    # Hermiticity and magnetization commutator
    spec = HamiltonianSpec(num_sites=6, j=1.0, j_prime=1.6, delta=0.5,
                           neel_delta=0.2, neel_weight=1.0)
    compiled = CompiledHamiltonian(spec)
    psi = random_state(6, rng).amplitudes
    phi = random_state(6, rng).amplitudes
    if abs(np.vdot(phi, compiled.apply(psi))
           - np.conj(np.vdot(psi, compiled.apply(phi)))) > 1e-10:
        failures.append("hermiticity")
    mz = magnetization_diagonal(6)
    if np.max(np.abs(compiled.apply(mz * psi) - mz * compiled.apply(psi))) > 1e-10:
        failures.append("magnetization commutator")

    # Trotter second order against dense evolution
    spec6 = HamiltonianSpec(num_sites=6, j=1.0, j_prime=1.7, delta=0.4)
    dense = dense_matrix(spec6)
    evals, evecs = np.linalg.eigh(dense)
    psi0 = random_state(6, rng)
    reference = evecs @ (np.exp(-1j * evals * 1.0) * (evecs.conj().T @ psi0.amplitudes))
    errors = [np.linalg.norm(evolve(spec6, psi0, 1.0, dt).amplitudes - reference)
              for dt in (0.02, 0.01)]
    if not 2.0 <= errors[0] / errors[1] <= 8.0:
        failures.append("trotter order")

    # end-to-end determinism
    state = random_state(8, np.random.default_rng(55))
    params = ProtocolParams("time_reversal", 16, 16, reflection_partition(8, 2), 99)
    first = run_campaign(state, params)
    second = run_campaign(state, params)
    if not all(np.array_equal(a.counts, b.counts) for a, b in zip(first, second)):
        failures.append("campaign determinism")
    if estimate_raw(first, params).value != estimate_raw(second, params).value:
        failures.append("estimator determinism")

    elapsed = time.time() - started
    passed = not failures and elapsed <= 600
    report(10, "property bundle", passed,
           "all properties hold" if not failures else f"failed: {failures}", started)
    assert passed

"""Algorithm layer: quantum Fourier transform circuits, Deutsch-Jozsa over
the oracle gate, toy-scale order finding / factoring via phase estimation,
and bounded-error majority decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qckit.circuit import NAMED, UNITARY, Circuit, GateApp, ORACLE, simulate
from qckit.errors import CapacityError, DimensionError
from qckit.oracle import Oracle, QueryCounter
from qckit.state import _born_samples, _probability_of_one, basis_state

MAX_QFT_QUBITS = 12
MAX_SHOR_N = 32
MAX_PRECISION_QUBITS = 11


@dataclass
class DJVerdict:
    verdict: str                  # "constant" or "balanced"
    quantum_queries: int
    all_zeros_probability: float


@dataclass
class FactorResult:
    n: int
    factor: int
    order_r: int
    attempts: int
    seed: int


@dataclass
class BoundedErrorVerdict:
    accept: bool
    runs: int
    frequency: float              # empirical acceptance frequency


def _check_qft_width(n_qubits: int) -> None:
    if n_qubits < 1:
        raise DimensionError(f"qft needs at least 1 qubit, got {n_qubits}")
    if n_qubits > MAX_QFT_QUBITS:
        raise CapacityError(
            f"qft capped at {MAX_QFT_QUBITS} qubits, got {n_qubits}"
        )


def _cphase(k: int, i: int, sign: float) -> GateApp:
    """The cascade's controlled phase of qubit i by qubit k > i, its angle
    2*pi / 2^(k-i+1) times `sign`."""
    return GateApp(NAMED, (k, i), name="cphase",
                   param=sign * (2.0 * np.pi / 2 ** (k - i + 1)))


def qft_circuit(n_qubits: int) -> Circuit:
    """Circuit for F[j,k] = exp(2*pi*i*j*k / 2^n) / sqrt(2^n).

    Hadamards and controlled phases in the textbook cascade (qubit 0 is
    the most significant bit of j), then swaps reverse the qubit order.
    """
    _check_qft_width(n_qubits)
    ops: list[GateApp] = []
    for i in range(n_qubits):
        ops.append(GateApp(NAMED, (i,), name="h"))
        ops += [_cphase(k, i, 1.0) for k in range(i + 1, n_qubits)]
    for i in range(n_qubits // 2):
        ops.append(GateApp(NAMED, (i, n_qubits - 1 - i), name="swap"))
    return Circuit(n_qubits, ops)


def inverse_qft_circuit(n_qubits: int) -> Circuit:
    """Exact inverse of qft_circuit: its gates reversed, angles negated."""
    _check_qft_width(n_qubits)
    ops = [GateApp(NAMED, (i, n_qubits - 1 - i), name="swap")
           for i in reversed(range(n_qubits // 2))]
    for i in reversed(range(n_qubits)):
        ops += [_cphase(k, i, -1.0) for k in reversed(range(i + 1, n_qubits))]
        ops.append(GateApp(NAMED, (i,), name="h"))
    return Circuit(n_qubits, ops)


def deutsch_jozsa(oracle: Oracle) -> DJVerdict:
    """Decide constant vs balanced with a single oracle query.

    Hadamards on the inputs, ancilla in (|0>-|1>)/sqrt(2), one oracle
    gate, Hadamards again; the all-zeros probability on the inputs is 1
    for constant oracles and 0 for balanced ones, so the verdict is read
    off deterministically.
    """
    n = oracle.n_inputs
    ops: list[GateApp] = [GateApp(NAMED, (n,), name="x")]
    ops += [GateApp(NAMED, (q,), name="h") for q in range(n + 1)]
    ops.append(GateApp(ORACLE, tuple(range(n + 1)), name=oracle.name or "f"))
    ops += [GateApp(NAMED, (q,), name="h") for q in range(n)]
    circuit = Circuit(n + 1, ops)

    counter = QueryCounter()
    final = simulate(
        circuit,
        oracle_table={oracle.name or "f": oracle},
        counter=counter,
    )
    # inputs all zero <=> basis index in {0, 1} (ancilla is the low bit)
    p_zero = float(np.sum(np.abs(final.amps[:2]) ** 2))
    verdict = "constant" if p_zero > 0.5 else "balanced"
    return DJVerdict(verdict, counter.quantum_queries, p_zero)


def _modular_multiplication_permutation(a: int, n: int, w: int) -> np.ndarray:
    """Permutation matrix on 2^w dims: x -> a*x mod n for x < n, identity
    on the padding states x >= n. Unitary iff gcd(a, n) = 1."""
    dim = 2 ** w
    m = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(dim):
        y = (a * x) % n if x < n else x
        m[y, x] = 1.0
    return m


def order_finding(
    a: int, n: int, precision_qubits: int, rng_seed: int = 0
) -> int | None:
    """Estimate the multiplicative order of a modulo n by phase estimation
    on the modular-multiplication permutation with inverse-QFT readout and
    continued-fraction post-processing.

    Returns the verified order, or None when this sample fails (an
    expected outcome, not an error).
    """
    if n < 2 or n > MAX_SHOR_N:
        raise CapacityError(f"modulus must be in [2, {MAX_SHOR_N}]")
    if math.gcd(a, n) != 1:
        raise DimensionError(
            f"gcd({a}, {n}) != 1; a shares a factor with the modulus"
        )
    if not 1 <= precision_qubits <= MAX_PRECISION_QUBITS:
        raise CapacityError(
            f"precision_qubits must be in [1, {MAX_PRECISION_QUBITS}]"
        )
    t = precision_qubits
    w = max(1, math.ceil(math.log2(n)))
    total = t + w
    work = list(range(t, total))

    # work register starts in |1>; precision register in uniform superposition
    init = basis_state(total, 1)  # basis index 1 = work register value 1

    ops: list[GateApp] = [GateApp(NAMED, (q,), name="h") for q in range(t)]
    for i in range(t):
        power = 2 ** (t - 1 - i)  # precision qubit 0 is the phase MSB
        perm = _modular_multiplication_permutation(pow(a, power, n), n, w)
        ops.append(
            GateApp(
                UNITARY, tuple([i] + work), matrix=perm, n_controls=1
            )
        )
    ops += inverse_qft_circuit(t).ops
    circuit = Circuit(total, ops)

    final = simulate(circuit, init)
    # marginal distribution of the precision register
    probs = np.abs(final.amps.reshape(2 ** t, 2 ** w)) ** 2
    rng = np.random.default_rng(rng_seed)
    y = int(_born_samples(probs.sum(axis=1), rng))

    # continued fractions: convergent denominators up to n, then their
    # multiples (the measured fraction may be a reduced s'/r' with r' | r);
    # denominator 1 (phase 0) carries no information and is a failure
    phase = Fraction(y, 2 ** t)
    candidates = set()
    for max_den in range(2, n + 1):
        den = phase.limit_denominator(max_den).denominator
        if den > 1:
            candidates.add(den)
    best = None
    for den in sorted(candidates):
        for r in range(den, n + 1, den):
            if pow(a, r, n) == 1:
                if best is None or r < best:
                    best = r
                break
    return best


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def _prime_power_root(n: int) -> int | None:
    for k in range(2, n.bit_length() + 1):
        root = round(n ** (1.0 / k))
        for cand in (root - 1, root, root + 1):
            if cand > 1 and cand ** k == n:
                return cand
    return None


def shor_factor(
    n: int, rng_seed: int = 0, max_attempts: int = 10
) -> FactorResult | None:
    """Find a nontrivial factor of an odd composite non-prime-power n.

    Each attempt draws a random base, takes the gcd shortcut when it
    lands on a shared factor, and otherwise runs quantum order finding
    followed by the gcd(a^(r/2) +- 1, n) extraction. Returns None when
    all attempts fail.
    """
    if n < 4 or n > MAX_SHOR_N:
        raise CapacityError(f"n must be in [4, {MAX_SHOR_N}]")
    if n % 2 == 0:
        raise DimensionError(f"{n} is even; factor 2 needs no quantum work")
    if _is_prime(n):
        raise DimensionError(f"{n} is prime")
    root = _prime_power_root(n)
    if root is not None:
        raise DimensionError(f"{n} is a prime power of {root}")

    w = max(1, math.ceil(math.log2(n)))
    t = min(2 * w, MAX_PRECISION_QUBITS)
    seeds = np.random.SeedSequence(rng_seed).spawn(2 * max_attempts)
    rng = np.random.default_rng(seeds[0])
    for attempt in range(1, max_attempts + 1):
        a = int(rng.integers(2, n))
        g = math.gcd(a, n)
        if g > 1:
            return FactorResult(n, g, 0, attempt, rng_seed)
        r = order_finding(a, n, t, rng_seed=seeds[attempt])
        if r is None or r % 2:
            continue
        half = pow(a, r // 2, n)
        for g in (math.gcd(half - 1, n), math.gcd(half + 1, n)):
            if 1 < g < n and n % g == 0:
                return FactorResult(n, g, r, attempt, rng_seed)
    return None


def decide_bounded_error(
    circuit: Circuit,
    accept_qubit: int,
    runs: int,
    rng_seed: int = 0,
    oracle_table: dict[str, Oracle] | None = None,
) -> BoundedErrorVerdict:
    """Majority vote over independent seeded measurements of accept_qubit.

    The circuit is unitary-only and therefore deterministic, so P(accept)
    is computed once and each vote draws its bit from a split seed as
    `measure_qubit` would; this is observationally identical to rerunning
    the whole simulation and measurement per vote.
    """
    if runs < 1 or runs % 2 == 0:
        raise DimensionError(f"runs must be odd and >= 1, got {runs}")
    final = simulate(circuit, oracle_table=oracle_table)
    p1 = _probability_of_one(final, accept_qubit)
    seeds = np.random.SeedSequence(rng_seed).spawn(runs)
    ones = sum(np.random.default_rng(seed).random() < p1 for seed in seeds)
    return BoundedErrorVerdict(ones * 2 > runs, runs, ones / runs)


def majority_error_probability(p: float, runs: int) -> float:
    """Exact binomial probability that a majority of `runs` independent
    Bernoulli(p) votes comes out wrong (p is the per-run accept chance,
    assumed > 1/2)."""
    if runs < 1 or runs % 2 == 0:
        raise DimensionError(f"runs must be odd and >= 1, got {runs}")
    total = 0.0
    for k in range(runs // 2 + 1):
        total += math.comb(runs, k) * p ** k * (1 - p) ** (runs - k)
    return total

"""Ising model representation, energy evaluation, gauges, and exhaustive oracles.

Energy convention: E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j over spins
s_i in {+1, -1}, with +1 encoding boolean true.  Coefficients are kept as
Python numbers; energies_of_states, the one evaluator, works on the model's
cached array form, which is int64 for integral models (integer coefficients
whose absolute sum is at most 2**53), so those models produce exact integer
energies.  The exhaustive oracle, enumerate_ground_states, builds every
state's energy by a doubling scan of elementwise sums, exact for integral
models, and calls no matrix product, so it runs on the calling thread alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "IsingModel",
    "TermSet",
    "SpinState",
    "Gauge",
    "energy",
    "apply_gauge",
    "enumerate_ground_states",
]

SpinState = tuple[int, ...]
Gauge = tuple[int, ...]

ENUMERATION_QUBIT_LIMIT = 26
_CHUNK_BITS = 20  # enumerate in blocks of 2^20 states
# Integral models keep sum|h| + sum|J| at most this, so every energy and local
# field is exact in int64 and in float64.
INTEGRAL_MAGNITUDE_LIMIT = 2**53


class IsingArrays(NamedTuple):
    """Dense fields, canonical pair lists, and the couplings in symmetric CSR form.

    ``pair_i < pair_j`` hold every coupler once, sorted, with value ``pair_v``.
    Qubit q's neighbours are ``indices[indptr[q]:indptr[q + 1]]``, ascending,
    with couplings ``data[indptr[q]:indptr[q + 1]]``, so each coupler appears
    in both of its rows.  ``h``, ``pair_v`` and ``data`` are int64 for
    integral models and float64 otherwise.
    """

    h: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_v: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass
class TermSet:
    """Accumulator for linear and pairwise spin coefficients, kept canonical.

    Coefficients add when terms repeat (shared qubits collect contributions
    from every block touching them); pair keys are stored as (i, j) with
    i < j, and entries that cancel to zero are dropped.
    """

    linear: dict[int, float] = field(default_factory=dict)
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)

    def add_linear(self, q: int, coeff: float) -> None:
        new = self.linear.get(q, 0) + coeff
        if new == 0:
            self.linear.pop(q, None)
        else:
            self.linear[q] = new

    def add_quadratic(self, i: int, j: int, coeff: float) -> None:
        if i == j:
            raise ValueError(f"self-pair on qubit {i}")
        key = (i, j) if i < j else (j, i)
        new = self.quadratic.get(key, 0) + coeff
        if new == 0:
            self.quadratic.pop(key, None)
        else:
            self.quadratic[key] = new

    def merge(self, other: "TermSet") -> None:
        for q, v in other.linear.items():
            self.add_linear(q, v)
        for (i, j), v in other.quadratic.items():
            self.add_quadratic(i, j, v)


@dataclass(frozen=True)
class IsingModel:
    """Linear fields h and symmetric pairwise couplings J over num_qubits spins.

    Both maps are sparse: absent entries are zero, stored entries are nonzero.
    Pair keys are canonical (i, j) with i < j.
    """

    num_qubits: int
    h: Mapping[int, float] = field(default_factory=dict)
    J: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be >= 0")
        for q, v in self.h.items():
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"field on qubit {q} outside [0, {self.num_qubits})")
            if v == 0:
                raise ValueError(f"zero field stored for qubit {q}")
        for (i, j), v in self.J.items():
            if i == j:
                raise ValueError(f"self-coupling on qubit {i}")
            if not (0 <= i < j < self.num_qubits):
                raise ValueError(f"coupling key ({i}, {j}) not canonical/in range")
            if v == 0:
                raise ValueError(f"zero coupling stored for pair ({i}, {j})")

    @classmethod
    def from_terms(
        cls,
        num_qubits: int,
        h: Mapping[int, float],
        J: Mapping[tuple[int, int], float],
    ) -> "IsingModel":
        """Build a model, canonicalizing pair keys and dropping zero coefficients."""
        terms = TermSet()
        for q, v in h.items():
            terms.add_linear(q, v)
        for (i, j), v in J.items():
            terms.add_quadratic(i, j, v)
        return cls(num_qubits, terms.linear, terms.quadratic)

    @cached_property
    def _integer_magnitude(self) -> int | None:
        """sum|h| + sum|J| as an exact integer, or None if a coefficient is fractional."""
        values = [*self.h.values(), *self.J.values()]
        if not all(float(v).is_integer() for v in values):
            return None
        return sum(abs(int(v)) for v in values)

    def is_integral(self) -> bool:
        """Integer coefficients with sum|h| + sum|J| <= INTEGRAL_MAGNITUDE_LIMIT."""
        magnitude = self._integer_magnitude
        return magnitude is not None and magnitude <= INTEGRAL_MAGNITUDE_LIMIT

    @cached_property
    def arrays(self) -> IsingArrays:
        """Array form, built on first use: integer dtype when the model is integral."""
        dtype = np.int64 if self.is_integral() else np.float64
        h = np.zeros(self.num_qubits, dtype=dtype)
        h[list(self.h)] = list(self.h.values())
        pairs = sorted(self.J.items())
        pair_i = np.array([k[0] for k, _ in pairs], dtype=np.intp)
        pair_j = np.array([k[1] for k, _ in pairs], dtype=np.intp)
        pair_v = np.array([v for _, v in pairs], dtype=dtype)
        rows = np.concatenate([pair_i, pair_j])
        cols = np.concatenate([pair_j, pair_i])
        order = np.lexsort((cols, rows))
        indptr = np.zeros(self.num_qubits + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.num_qubits), out=indptr[1:])
        arrays = IsingArrays(h, pair_i, pair_j, pair_v, indptr,
                             cols[order].astype(np.int64), np.concatenate([pair_v, pair_v])[order])
        for a in arrays:  # shared by every caller, so no caller may write to it
            a.flags.writeable = False
        return arrays


def _check_spins(num_qubits: int, spins: SpinState, what: str = "spin state") -> None:
    if len(spins) != num_qubits:
        raise ValueError(f"{what} length {len(spins)} != num_qubits {num_qubits}")
    if any(s not in (-1, 1) for s in spins):
        raise ValueError(f"{what} entries must be +1 or -1")


def energy(model: IsingModel, spins: SpinState) -> float:
    """Exact energy of one spin state (integer result for integer models)."""
    _check_spins(model.num_qubits, spins)
    return energies_of_states(model, np.array([spins]))[0].item()


def energies_of_states(
    model: IsingModel, spins: np.ndarray, qubits: range | None = None
) -> np.ndarray:
    """Energies of a (num_states, width) array of +/-1 spins.

    Column c holds qubit ``qubits.start + c``; only the fields and couplings
    that lie entirely inside ``qubits`` (default: all of them) are summed.
    Integral models give int64 energies, others float64.
    """
    lo, hi = (0, model.num_qubits) if qubits is None else (qubits.start, qubits.stop)
    a = model.arrays
    inside = (a.pair_i >= lo) & (a.pair_j < hi)
    columns = np.ascontiguousarray(np.asarray(spins).T, dtype=a.h.dtype)
    # Terms are added one at a time, the fields by column and then the couplers in
    # (i, j) order, so a state's float energy is summed in one order whatever the
    # other rows (a matrix product's order depends on the row count).
    e = np.zeros(columns.shape[1], dtype=a.h.dtype)
    for column, v in zip(columns, a.h[lo:hi].tolist()):
        e += v * column
    for i, j, v in zip((a.pair_i[inside] - lo).tolist(), (a.pair_j[inside] - lo).tolist(),
                       a.pair_v[inside].tolist()):
        e += v * (columns[i] * columns[j])
    return e


def apply_gauge(model: IsingModel, gauge: Gauge) -> IsingModel:
    """Spin-reversal transform: h_i -> g_i h_i, J_ij -> g_i g_j J_ij.

    The spectrum is preserved under the relabeling s -> g * s, so the gauged
    model has the same ground-state solutions up to that relabeling.
    """
    _check_spins(model.num_qubits, gauge, "gauge")
    h = {q: gauge[q] * v for q, v in model.h.items()}
    J = {(i, j): gauge[i] * gauge[j] * v for (i, j), v in model.J.items()}
    return IsingModel(model.num_qubits, h, J)


def _spins_for_indices(indices: np.ndarray, num_qubits: int) -> np.ndarray:
    # Bit q of the state index holds qubit q; bit 1 -> spin +1.
    bits = (indices[:, None] >> np.arange(num_qubits, dtype=np.int64)) & 1
    return (2 * bits - 1).astype(np.int8)


def _double(table: np.ndarray, steps: np.ndarray) -> None:
    """Fill rows 2^k .. 2^(k+1) of table with rows 0 .. 2^k plus steps[k], for each k.

    Given row 0 as the value at index 0, row r ends up as row 0 plus steps[k]
    summed over the set bits k of r: one elementwise add per output row.
    """
    for k, step in enumerate(steps):
        np.add(table[:1 << k], step, out=table[1 << k:2 << k])


def enumerate_ground_states(model: IsingModel) -> tuple[float, set[SpinState]]:
    """Scan all 2^N states; return the exact minimum energy and every attaining state.

    As a verification oracle it refuses models above ENUMERATION_QUBIT_LIMIT
    qubits rather than approximating.  The scan splits the qubits into a low
    half, whose states are the columns of a block, and a high half, whose
    states are its rows; a block holds 2^b consecutive high states, so they
    share every high bit from b up.  With f_j the field the low spins put on
    high qubit j through the couplers spanning the split, row 0 is e_lo plus
    f_j for each fixed high bit that is set and minus f_j for every other high
    bit, rows 2^k .. 2^(k+1) are rows 0 .. 2^k plus 2 f_k (they differ only in
    high bit k), and e_hi is added per row.  The fields are built the same way
    over the low states, from -sum_i J_ij at index 0 and steps of 2 J_kj, so
    the scan is elementwise sums with no matrix product.  Every operand is an
    integer-valued part of a state's energy of magnitude at most
    2 (sum|h| + sum|J|), and every sum one of at most sum|h| + sum|J|, so
    integral models below 2**24 are evaluated exactly in float32, and all
    others in float64, which is exact for integral models up to their 2**53
    bound; float models agree with any other order of summation to rounding.
    """
    n = model.num_qubits
    if n > ENUMERATION_QUBIT_LIMIT:
        raise ValueError(f"{n} qubits exceeds enumeration limit {ENUMERATION_QUBIT_LIMIT}")

    small = model.is_integral() and model._integer_magnitude < 2**24
    dtype = np.float32 if small else np.float64
    lo_bits = min(n, _CHUNK_BITS // 2 + 3)  # low half; index bit q <-> qubit q
    hi_bits = n - lo_bits  # 0 when n is small: one block holding one high state
    lo_spins = _spins_for_indices(np.arange(1 << lo_bits, dtype=np.int64), lo_bits)
    e_lo = energies_of_states(model, lo_spins, range(lo_bits)).astype(dtype)
    hi_spins = _spins_for_indices(np.arange(1 << hi_bits, dtype=np.int64), hi_bits)
    e_hi = energies_of_states(model, hi_spins, range(lo_bits, n)).astype(dtype)
    # every cross pair has i < lo_bits <= j, since pairs are canonical
    pi, pj, pv = model.arrays.pair_i, model.arrays.pair_j, model.arrays.pair_v
    spans = (pi < lo_bits) & (pj >= lo_bits)
    cross = np.zeros((lo_bits, hi_bits), dtype=dtype)
    cross[pi[spans], pj[spans] - lo_bits] = pv[spans]
    by_state = np.empty((1 << lo_bits, hi_bits), dtype=dtype)  # row l: each f_j at l
    by_state[0] = -cross.sum(axis=0)
    _double(by_state, 2 * cross)
    fields = np.ascontiguousarray(by_state.T)  # row j: f_j over the low states
    twice = 2 * fields

    rows = min(max(1, (1 << _CHUNK_BITS) >> lo_bits), 1 << hi_bits)  # a power of two
    varying = rows.bit_length() - 1  # high bits 0 .. varying-1 run through a block
    base = e_lo - fields[:varying].sum(axis=0)  # row 0 with the varying bits at -1
    grid = np.empty((rows, 1 << lo_bits), dtype=dtype)
    best = None
    attained_parts: list[np.ndarray] = []
    for start in range(0, 1 << hi_bits, rows):
        grid[0] = base
        for j in range(varying, hi_bits):
            if start >> j & 1:
                grid[0] += fields[j]
            else:
                grid[0] -= fields[j]
        _double(grid, twice[:varying])
        grid += e_hi[start:start + rows, None]
        block_min = grid.min()
        if best is None or block_min < best:
            best = block_min
            attained_parts = []
        if block_min == best:
            hi_idx, lo_idx = np.nonzero(grid == best)
            attained_parts.append(
                lo_idx.astype(np.int64) | ((hi_idx + start).astype(np.int64) << lo_bits)
            )
    attained = np.concatenate(attained_parts)

    states = {tuple(row) for row in _spins_for_indices(attained, n).tolist()}
    min_energy = best.item()
    if model.is_integral():
        min_energy = int(min_energy)
    return min_energy, states

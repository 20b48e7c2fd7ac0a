"""Ising model representation, energy evaluation, gauges, and exhaustive oracles.

Energy convention: E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j over spins
s_i in {+1, -1}, with +1 encoding boolean true.  Coefficients are kept as
Python numbers; energies_of_states, the one evaluator, works on the model's
cached array form, which is int64 for integral models (integer coefficients
whose absolute sum is at most 2**53), so those models produce exact integer
energies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .compiler import PenaltyLayout
    from .sat import Assignment

__all__ = [
    "IsingModel",
    "SpinState",
    "Gauge",
    "energy",
    "apply_gauge",
    "ungauge_sample",
    "enumerate_ground_states",
    "min_energy_over_ancillas",
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
        clean_h = {q: v for q, v in h.items() if v != 0}
        clean_j: dict[tuple[int, int], float] = {}
        for (i, j), v in J.items():
            if v == 0:
                continue
            key = (i, j) if i < j else (j, i)
            clean_j[key] = clean_j.get(key, 0) + v
            if clean_j[key] == 0:
                del clean_j[key]
        return cls(num_qubits, clean_h, clean_j)

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
    h, pi, pj, pv = a.h, a.pair_i, a.pair_j, a.pair_v
    inside = (pi >= lo) & (pj < hi)
    s = np.asarray(spins, dtype=h.dtype)
    e = s @ h[lo:hi]
    if inside.any():
        e = e + (s[:, pi[inside] - lo] * s[:, pj[inside] - lo]) @ pv[inside]
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


def ungauge_sample(spins: SpinState, gauge: Gauge) -> SpinState:
    """Map a sample of the gauged model back to the original frame (self-inverse)."""
    if len(spins) != len(gauge):
        raise ValueError(f"spin length {len(spins)} != gauge length {len(gauge)}")
    return tuple(s * g for s, g in zip(spins, gauge))


def _spins_for_indices(indices: np.ndarray, num_qubits: int) -> np.ndarray:
    # Bit q of the state index holds qubit q; bit 1 -> spin +1.
    bits = (indices[:, None] >> np.arange(num_qubits, dtype=np.int64)) & 1
    return (2 * bits - 1).astype(np.int8)


def enumerate_ground_states(
    model: IsingModel, limit: int = ENUMERATION_QUBIT_LIMIT
) -> tuple[float, set[SpinState]]:
    """Scan all 2^N states; return the exact minimum energy and every attaining state.

    Intended as a verification oracle, so it refuses models above ``limit``
    qubits rather than approximating.  The scan splits the qubits into a low
    and a high half so the cross terms become one matrix product per block.
    Every intermediate is bounded by sum|h| + sum|J|, so integral models below
    2**24 are evaluated exactly in float32, and all others in float64, which
    is exact for integral models up to their 2**53 bound.
    """
    n = model.num_qubits
    if n > limit:
        raise ValueError(f"{n} qubits exceeds enumeration limit {limit}")
    if n == 0:
        return 0, {()}

    small = model.is_integral() and model._integer_magnitude < 2**24
    dtype = np.float32 if small else np.float64
    lo_bits = min(n, _CHUNK_BITS // 2 + 3)  # low half; index bit q <-> qubit q
    hi_bits = n - lo_bits
    lo_spins = _spins_for_indices(np.arange(1 << lo_bits, dtype=np.int64), lo_bits)
    lo = lo_spins.astype(dtype)
    e_lo = energies_of_states(model, lo_spins, range(lo_bits)).astype(dtype)

    if hi_bits == 0:
        energies = e_lo
        best = energies.min()
        attained = np.nonzero(energies == best)[0].astype(np.int64)
    else:
        hi_spins = _spins_for_indices(np.arange(1 << hi_bits, dtype=np.int64), hi_bits)
        hi = hi_spins.astype(dtype)
        e_hi = energies_of_states(model, hi_spins, range(lo_bits, n)).astype(dtype)
        # every cross pair has i < lo_bits <= j, since pairs are canonical
        pi, pj, pv = model.arrays.pair_i, model.arrays.pair_j, model.arrays.pair_v
        spans = (pi < lo_bits) & (pj >= lo_bits)
        cross = np.zeros((lo_bits, hi_bits), dtype=dtype)
        cross[pi[spans], pj[spans] - lo_bits] = pv[spans]
        lo_cross = lo @ cross  # (2^lo_bits, hi_bits)

        best = None
        attained_parts: list[np.ndarray] = []
        block = max(1, (1 << _CHUNK_BITS) >> lo_bits)
        for start in range(0, 1 << hi_bits, block):
            stop = min(start + block, 1 << hi_bits)
            grid = lo_cross @ hi[start:stop].T  # (2^lo_bits, stop-start)
            grid += e_lo[:, None]
            grid += e_hi[None, start:stop]
            block_min = grid.min()
            if best is None or block_min < best:
                best = block_min
                attained_parts = []
            if block_min == best:
                lo_idx, hi_idx = np.nonzero(grid == best)
                attained_parts.append(
                    lo_idx.astype(np.int64) | ((hi_idx + start).astype(np.int64) << lo_bits)
                )
        attained = np.concatenate(attained_parts)

    states = {tuple(row) for row in _spins_for_indices(attained, n).tolist()}
    min_energy = best.item()
    if model.is_integral():
        min_energy = int(min_energy)
    return min_energy, states


def min_energy_over_ancillas(
    model: IsingModel, layout: "PenaltyLayout", assignment: "Assignment"
) -> float:
    """Minimum model energy with variable qubits clamped to an assignment.

    Ancillas of different clauses never share a coupling, so each clause's
    ancilla block is minimized independently; the result equals
    layout.ground_bound exactly when the assignment satisfies the source CNF.
    """
    for var in layout.var_to_qubit:
        if var - 1 >= len(assignment):
            raise ValueError(f"assignment does not cover mapped variable {var}")

    spin_of: dict[int, int] = {
        q: (1 if assignment[var - 1] else -1) for var, q in layout.var_to_qubit.items()
    }
    clause_of_ancilla: dict[int, int] = {}
    for c, ancillas in enumerate(layout.clause_ancillas):
        for q in ancillas:
            clause_of_ancilla[q] = c

    # Split the Hamiltonian into a clamped part and per-clause ancilla blocks.
    fixed = 0.0
    lin: dict[int, dict[int, float]] = {}  # clause -> ancilla -> coefficient
    quad: dict[int, dict[tuple[int, int], float]] = {}
    for q, v in model.h.items():
        if q in spin_of:
            fixed += v * spin_of[q]
        else:
            c = clause_of_ancilla[q]
            lin.setdefault(c, {})[q] = lin.get(c, {}).get(q, 0) + v
    for (i, j), v in model.J.items():
        i_anc, j_anc = i in clause_of_ancilla, j in clause_of_ancilla
        if not i_anc and not j_anc:
            fixed += v * spin_of[i] * spin_of[j]
        elif i_anc and j_anc:
            ci, cj = clause_of_ancilla[i], clause_of_ancilla[j]
            if ci != cj:
                raise ValueError(f"coupling ({i}, {j}) spans clauses {ci} and {cj}")
            quad.setdefault(ci, {})[(i, j)] = v
        else:
            anc, other = (i, j) if i_anc else (j, i)
            c = clause_of_ancilla[anc]
            lin.setdefault(c, {})
            lin[c][anc] = lin[c].get(anc, 0) + v * spin_of[other]

    total = fixed
    for c, ancillas in enumerate(layout.clause_ancillas):
        if not ancillas:
            continue
        c_lin = lin.get(c, {})
        c_quad = quad.get(c, {})
        best = None
        for mask in range(1 << len(ancillas)):
            s = {q: (1 if (mask >> p) & 1 else -1) for p, q in enumerate(ancillas)}
            e = sum(v * s[q] for q, v in c_lin.items())
            e += sum(v * s[i] * s[j] for (i, j), v in c_quad.items())
            if best is None or e < best:
                best = e
        total += best
    return total

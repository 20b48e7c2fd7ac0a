"""Spin-reversal transformations, and why they change nothing in this stand-in.

A gauge g flips h -> g*h and J -> g g^T * J, leaving the spectrum (and the
identity of the ground-state solutions) intact.  On hardware a gauge moves
the model's coefficients relative to fixed control errors, so each gauge
samples a differently biased distribution.  The stand-in annealer has no
control errors: a gauged run, un-gauged, is the plain anneal of the original
model from the gauged initial state, on per-gauge seeds.  So k gauges here
are k plain runs with other seeds, and their union grows only because there
are more reads.  The neighbor Hamming distances measure how far consecutive
distinct solutions jump, compared with the classical enumerator's stream.

Run:  python3 demos/04_srt_diversity.py
"""
from cascor import compile_cnf, enumerate_all, generate_mixed_sat, summarize_instance
from cascor.samplers import SamplerConfig, random_gauges, sample_with_srt_rotation
from cascor.sat import MixedSatSpec

spec = MixedSatSpec(
    num_vars=12,
    num_clauses=20,
    length_weights={2: 1.0, 3: 2.0},
    seed=21,
    solution_cap=500,
)
cnf, _ = generate_mixed_sat(spec)
model, layout = compile_cnf(cnf)
classical = enumerate_all(cnf, cap=500)
print(f"instance: n={cnf.num_vars}, {model.num_qubits} qubits, "
      f"{len(classical.events)} solutions")

cfg = SamplerConfig(num_reads=2_000, sweeps=60, seed=77)
gauges = random_gauges(model.num_qubits, count=4, seed=77)
runs = sample_with_srt_rotation(model, cfg, gauges)
report = summarize_instance(runs, list(classical.events), layout, cnf,
                            instance_id="srt-demo")


def mean(xs):
    return sum(xs) / len(xs) if xs else float("nan")


print("\nneighbor Hamming distances over each solver's distinct-solution stream:")
print(f"  classical      : mean {mean(report.hamming_classical):5.2f} "
      f"over {len(report.hamming_classical)} steps")
for gi, series in enumerate(report.hamming_quantum_per_gauge):
    print(f"  gauge stream {gi}  : mean {mean(series):5.2f} over {len(series)} steps")

union = set()
per_gauge_sets = []
from cascor.samplers import decode_all  # noqa: E402

for run in runs:
    found = {sol for sol in decode_all(run, layout, cnf) if sol is not None}
    per_gauge_sets.append(found)
    union |= found

print("\ndistinct solutions per gauge:", [len(s) for s in per_gauge_sets])
print(f"union across gauges: {len(union)} of {len(classical.events)} "
      "(more reads, not the gauges, widen coverage: without control errors "
      "a gauged run is a plain run on other seeds)")

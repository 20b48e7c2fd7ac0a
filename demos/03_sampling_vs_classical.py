"""Race the annealing-style sampler against the exhaustive classical solver.

The sampler is charged a fixed 20 us of core time per read, while the
classical enumerator is timed on a real wallclock.  On the core-time axis
the sampler finds its first solutions far earlier, then slows as repeats
dominate, letting the classical curve cross under it; once realistic
per-read overheads are charged (wallclock axis), the advantage disappears
from the first read, which is the qualitative story the analysis pipeline
is built to reproduce.

Run:  python3 demos/03_sampling_vs_classical.py
"""
from cascor import compile_cnf, enumerate_all, generate_mixed_sat, summarize_instance
from cascor.samplers import SamplerConfig, sample
from cascor.sat import MixedSatSpec

spec = MixedSatSpec(
    num_vars=20,
    num_clauses=44,
    length_weights={2: 3.0, 3: 3.0, 4: 1.0},
    seed=4,
    solution_cap=10_000,
)
cnf, _ = generate_mixed_sat(spec)
model, layout = compile_cnf(cnf)
print(f"instance: n={cnf.num_vars}, m={len(cnf.clauses)}, {model.num_qubits} qubits")

classical = enumerate_all(cnf, cap=10_000)
print(f"classical enumeration: {len(classical.events)} solutions, "
      f"complete={classical.complete}, "
      f"last found at {classical.events[-1].wall_time_us / 1000:.1f} ms")

cfg = SamplerConfig(
    num_reads=20_000,
    sweeps=50,
    beta_start=0.1,
    beta_end=12.0,
    seed=904,
    core_time_per_read_us=20,
    programming_us=20_000,
    per_read_readout_us=1_980,
)
batch = sample(model, cfg)
report = summarize_instance([batch], list(classical.events), layout, cnf,
                            instance_id="demo")

q_core = report.timelines["quantum-core"]
c_wall = report.timelines["classical-wall"]
print(f"sampler found {len(q_core.times)} distinct solutions "
      f"in {cfg.num_reads} reads")

print("\ntime to reach m distinct solutions (microseconds):")
print(f"  {'m':>6} {'quantum-core':>14} {'classical':>12}")
comparable = min(len(q_core.times), len(c_wall.times))
for m in [1, 2, 5, 10, comparable // 2, comparable]:
    if not 1 <= m <= comparable:
        continue
    print(f"  {m:>6} {q_core.times[m - 1]:>14} {c_wall.times[m - 1]:>12}")

core = report.crossovers["core"]
wall = report.crossovers["wall"]
print(f"\ncore-axis outcome: {core.outcome}", end="")
if core.outcome == "cross_at":
    print(f" at m*={core.count} (t={core.time_us} us), "
          f"overlap of the two partial sets {core.overlap_fraction:.2f}")
else:
    print()
print(f"wall-axis outcome: {wall.outcome} "
      f"(per-read wall cost is {(cfg.core_time_per_read_us + cfg.per_read_readout_us) // cfg.core_time_per_read_us}x core)")

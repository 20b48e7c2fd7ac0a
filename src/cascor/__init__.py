"""Mixed-SAT to Ising toolkit: cascading-OR penalty compilation, annealing-style
sampling, ALL-SAT enumeration, and solver-comparison metrics."""

from .allsat import EnumerationResult, SolutionEvent, count_solutions_capped, enumerate_all
from .compiler import (
    ClausePenalty,
    ConstructionPolicy,
    PenaltyLayout,
    build_clause_penalty,
    build_h2,
    build_h_or,
    compile_cnf,
)
from .ising import IsingModel, TermSet, apply_gauge, energy, enumerate_ground_states
from .metrics import (
    CrossoverReport,
    DistinctTimeline,
    InstanceReport,
    find_crossover,
    hamming_neighbor_distances,
    overlap_fraction,
    summarize_instance,
)
from .samplers import (
    SampleBatch,
    SampleRecord,
    SamplerConfig,
    decode_all,
    random_gauges,
    sample,
    sample_with_srt_rotation,
)
from .sat import (
    Clause,
    Cnf,
    DimacsError,
    GenerationError,
    LimitError,
    Literal,
    MixedSatSpec,
    emit_dimacs,
    evaluate,
    generate_mixed_sat,
    parse_dimacs,
)

__version__ = "0.1.0"

__all__ = [
    "Clause",
    "ClausePenalty",
    "Cnf",
    "ConstructionPolicy",
    "CrossoverReport",
    "DimacsError",
    "DistinctTimeline",
    "EnumerationResult",
    "GenerationError",
    "InstanceReport",
    "IsingModel",
    "LimitError",
    "Literal",
    "MixedSatSpec",
    "PenaltyLayout",
    "SampleBatch",
    "SampleRecord",
    "SamplerConfig",
    "SolutionEvent",
    "TermSet",
    "apply_gauge",
    "build_clause_penalty",
    "build_h2",
    "build_h_or",
    "compile_cnf",
    "count_solutions_capped",
    "decode_all",
    "emit_dimacs",
    "energy",
    "enumerate_all",
    "enumerate_ground_states",
    "evaluate",
    "find_crossover",
    "generate_mixed_sat",
    "hamming_neighbor_distances",
    "overlap_fraction",
    "parse_dimacs",
    "random_gauges",
    "sample",
    "sample_with_srt_rotation",
    "summarize_instance",
]

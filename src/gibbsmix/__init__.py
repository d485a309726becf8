"""Simulation library for two continuous-state Gibbs samplers.

Chains: a mass-redistribution sampler on the probability simplex whose update
pairs follow the edges of a Cayley graph, and a sampler on nonnegative n x 2
matrices with fixed row sums 2 and column sums n. Both pick a coordinate
pair, then redistribute the pair total uniformly at random.

The package provides exact kernel/spectral machinery for the associated pair
walks, proportional and subset couplings, the backward partition process
driving a two-phase non-Markovian coupling, monotone domination between the
two chains, eigenvector-statistic lower bounds, and a configuration-driven
experiment harness with deterministic replica seeding.
"""

__version__ = "0.1.0"

from .errors import (
    AssertionFailure,
    ConfigError,
    DegeneratePairMass,
    DominationViolated,
    GibbsmixError,
    GroupError,
    InvariantViolation,
    KernelError,
    RejectionBudgetExceeded,
)
from .groups import (
    GeneratorSet,
    GroupTable,
    build_cyclic,
    build_dihedral,
    build_hypercube,
    load_group,
    verify_generator_set,
    verify_group_axioms,
)
from .kernels import (
    ComparisonReport,
    SpectralSummary,
    TransitionKernel,
    base_walk_kernel,
    comparison_kernel,
    edge_walk_kernel,
    spectral_summary,
    verify_comparison,
)
from .simplex import (
    SimplexState,
    SVector,
    check_s_recursion,
    contraction_experiment,
    lower_bound_experiment,
    lower_bound_init,
    s_vector,
    sample_stationary,
    simplex_chain,
    step_batch,
)
from .matrices import (
    MatrixState,
    coupon_collector_experiment,
    matrix_chain,
    mcontraction_experiment,
    monotone_couple_run,
    msample_stationary,
    mstep_batch,
)
from .coupling import (
    CouplingOutcome,
    PartitionProcess,
    build_partition_process,
    connectedness_experiment,
    largeness_experiment,
    run_nonmarkovian_coupling,
    s1_index,
    subset_couple_batch,
)
from .pairops import Chain
from .seeding import replica_rng
from .harness import (
    ExperimentConfig,
    RunManifest,
    oracle,
    run,
)

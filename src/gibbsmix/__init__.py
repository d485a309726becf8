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

Each public name, and each submodule, is imported on first access, so a run
loads only what it calls (a matrix-chain run never loads ``groups`` or
``kernels``).
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines, which the package re-exports
_EXPORTS = {
    "errors": "AssertionFailure ConfigError DegeneratePairMass DominationViolated GibbsmixError "
              "GroupError InvariantViolation KernelError RejectionBudgetExceeded",
    "groups": "GeneratorSet GroupTable build_cyclic build_dihedral build_hypercube load_group "
              "verify_generator_set verify_group_axioms",
    "kernels": "ComparisonReport SpectralSummary TransitionKernel base_walk_kernel "
               "comparison_kernel edge_walk_kernel spectral_summary verify_comparison",
    "simplex": "SimplexState SVector check_s_recursion contraction_experiment "
               "lower_bound_experiment lower_bound_init s_vector sample_stationary "
               "simplex_chain step_batch",
    "matrices": "MatrixState coupon_collector_experiment matrix_chain mcontraction_experiment "
                "monotone_couple_run msample_stationary mstep_batch",
    "coupling": "CouplingOutcome PartitionProcess build_partition_process "
                "connectedness_experiment largeness_experiment run_nonmarkovian_coupling "
                "s1_index subset_couple_batch",
    "pairops": "Chain",
    "seeding": "replica_rng",
    "harness": "ExperimentConfig RunManifest oracle run",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli")
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

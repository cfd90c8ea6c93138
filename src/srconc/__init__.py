"""Verification lab for matrix Poincare inequalities and matrix Bernstein
tail bounds over negatively dependent subset measures.

Layers, bottom up: ``measures`` (support-indexed subset measures,
conditioning, covering couplings, constructive families), ``matrix_core``
(symmetric-matrix primitives and trace-inequality checkers), ``chains``
(reversible generators, coordinate decompositions, the recursive
flip-swap walk and the SCP check it decides), ``functional`` (matrix
observables, variance and Dirichlet forms, spectral gaps), ``concentration``
(trace-mgf ladder and tail bounds), ``samplers`` (seeded draws and empirical
tails), and ``cli`` (the ``srconc`` command).
"""

from .measures import (
    SubsetMeasure,
    CouplingTable,
    condition,
    generating_polynomial,
    homogeneity_degree,
    make_bernoulli_product,
    make_projection_dpp,
    make_spanning_tree_measure,
    make_uniform_k_subsets,
    validate,
)
from .matrix_core import (
    IdentityDecomposition,
    check_diff_square_convex,
    check_int_norm_bound,
    check_lemma_var,
    check_operator_jensen,
    check_trace_monotone,
    duhamel_residual,
    psd_leq,
    schatten_norm,
    spectral_norm,
    sym_expm,
    trace_power,
)
from .chains import (
    Decomposition,
    Generator,
    ScpResult,
    chi,
    crude_chi_bound,
    decompose,
    delta,
    flip_swap_adjacent,
    flip_swap_average,
    hermon_salez,
    scp_check,
    scp_coupling,
    split_generator,
    validate_generator,
)
from .functional import (
    MatrixFn,
    PoincareReport,
    check_decompositions,
    check_matrix_poincare,
    dirichlet_form,
    matrix_mean,
    matrix_poincare_constant,
    matrix_variance,
    project_fn,
    random_linear_matrix_fn,
    random_matrix_fn,
    scalar_spectral_gap,
)
from .concentration import (
    InductionReport,
    OscillationStats,
    TailBound,
    TraceMgf,
    check_dirichlet_trace_bound,
    check_induction_statement,
    check_mgf_bound,
    doubling_value,
    exact_tail,
    ks_bound,
    ks_crossover,
    ks_crossover_threshold,
    laplace_tail,
    mgf_bound,
    oscillation,
    tail_bound_poincare,
    tail_bound_sr,
    tail_bound_sr_composed,
    trace_mgf,
)
from .samplers import (
    SampleBatch,
    clopper_pearson_upper,
    empirical_tail,
    sample_kdpp,
    sample_table,
    wilson_spanning_tree,
)

__version__ = "0.1.0"

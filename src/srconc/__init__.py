"""Verification lab for matrix Poincare inequalities and matrix Bernstein
tail bounds over negatively dependent subset measures.

Layers, bottom up: ``inputs`` (error bases and number readers, stdlib only),
``measures`` (support-indexed subset measures, conditioning, covering
couplings, constructive families), ``matrix_core`` (symmetric-matrix
primitives and trace-inequality checkers), ``chains`` (reversible generators,
coordinate decompositions, the recursive flip-swap walk and the SCP check it
decides), ``functional`` (matrix observables, variance and Dirichlet forms,
spectral gaps), ``concentration`` (trace-mgf ladder and tail bounds),
``streams`` (counter-based Philox streams, numpy only), ``samplers`` (seeded
draws and empirical tails), ``ks`` (the crossover table against the Kyng-Song
tail, stdlib only), and ``cli`` (the ``srconc`` command).

The package imports no layer up front: ``srconc.X`` and ``from srconc import
X`` load the module that defines X on first use (PEP 562), so a command pays
only for the layers it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "measures": (
        "SubsetMeasure", "Coupling", "condition", "generating_polynomial",
        "homogeneity_degree", "make_bernoulli_product", "make_projection_dpp",
        "make_spanning_tree_measure", "make_uniform_k_subsets", "validate"),
    "matrix_core": (
        "IdentityDecomposition", "check_diff_square_convex", "check_int_norm_bound",
        "check_lemma_var", "check_operator_jensen", "check_trace_monotone",
        "duhamel_residual", "psd_leq", "schatten_norm", "spectral_norm", "trace_power"),
    "chains": (
        "Decomposition", "Generator", "ScpResult", "chi", "crude_chi_bound", "decompose",
        "delta", "flip_swap_adjacent", "flip_swap_average", "hermon_salez", "scp_check",
        "scp_coupling", "split_generator", "validate_generator"),
    "functional": (
        "MatrixFn", "PoincareReport", "check_decompositions", "check_matrix_poincare",
        "dirichlet_form", "matrix_mean", "matrix_poincare_constant", "matrix_variance",
        "project_fn", "random_linear_matrix_fn", "random_matrix_fn", "scalar_spectral_gap"),
    "concentration": (
        "InductionReport", "OscillationStats", "TailBound", "TraceMgf",
        "check_dirichlet_trace_bound", "check_induction_statement", "check_mgf_bound",
        "doubling_value", "exact_tail", "ks_bound", "laplace_tail", "mgf_bound",
        "oscillation", "tail_bound_poincare", "tail_bound_sr", "tail_bound_sr_composed"),
    "samplers": (
        "SampleBatch", "clopper_pearson_upper", "empirical_tail", "sample_kdpp",
        "sample_table", "wilson_spanning_tree"),
    "ks": ("KsCrossover", "ks_crossover", "ks_crossover_threshold"),
}
_SUBMODULES = ("inputs", "streams", *_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import statement's own path, so `-X importtime` lists the layer;
        # importing a submodule binds it in this namespace
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *__all__})

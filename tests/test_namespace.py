"""The package namespace: every public name resolves lazily to the object
of the module that defines it, and every public function has a caller."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import srconc

# the names the package exported when it imported every layer up front,
# by the module that defines each
EXPORTS = {
    "measures": [
        "SubsetMeasure", "Coupling", "condition", "generating_polynomial",
        "homogeneity_degree", "make_bernoulli_product", "make_projection_dpp",
        "make_spanning_tree_measure", "make_uniform_k_subsets", "validate"],
    "matrix_core": [
        "IdentityDecomposition", "check_diff_square_convex", "check_int_norm_bound",
        "check_lemma_var", "check_operator_jensen", "check_trace_monotone",
        "duhamel_residual", "psd_leq", "schatten_norm", "spectral_norm", "trace_power"],
    "chains": [
        "Decomposition", "Generator", "ScpResult", "chi", "crude_chi_bound", "decompose",
        "delta", "flip_swap_adjacent", "flip_swap_average", "hermon_salez", "scp_check",
        "scp_coupling", "split_generator", "validate_generator"],
    "functional": [
        "MatrixFn", "PoincareReport", "check_decompositions", "check_matrix_poincare",
        "dirichlet_form", "matrix_mean", "matrix_poincare_constant", "matrix_variance",
        "project_fn", "random_linear_matrix_fn", "random_matrix_fn", "scalar_spectral_gap"],
    "concentration": [
        "InductionReport", "OscillationStats", "TailBound", "TraceMgf",
        "check_dirichlet_trace_bound", "check_induction_statement", "check_mgf_bound",
        "doubling_value", "exact_tail", "ks_bound", "laplace_tail", "mgf_bound",
        "oscillation", "tail_bound_poincare", "tail_bound_sr", "tail_bound_sr_composed"],
    "samplers": [
        "SampleBatch", "clopper_pearson_upper", "empirical_tail", "sample_kdpp",
        "sample_table", "wilson_spanning_tree"],
    "ks": ["KsCrossover", "ks_crossover", "ks_crossover_threshold"],
}
HOMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", HOMES, ids=[name for _, name in HOMES])
def test_public_name_is_the_defining_modules_object(module, name):
    home = importlib.import_module(f"srconc.{module}")
    namespace = {}
    exec(f"from srconc import {name}", namespace)
    assert getattr(srconc, name) is getattr(home, name)
    assert namespace[name] is getattr(home, name)
    assert getattr(home, name).__module__ == home.__name__


def test_all_and_dir_list_every_public_name():
    names = {name for _, name in HOMES}
    assert set(srconc.__all__) == names and len(srconc.__all__) == len(names)
    assert names | set(EXPORTS) | {"cli", "__version__"} <= set(dir(srconc))


def test_submodules_resolve_as_attributes():
    for module in (*EXPORTS, "cli"):
        assert getattr(srconc, module) is importlib.import_module(f"srconc.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'srconc' has no attribute 'no_such_name'"):
        srconc.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from srconc import no_such_name", {})


def test_every_public_function_is_exported_or_called():
    """A module-level public function is in srconc.__all__, is referenced by
    other code of the package, or is called by the benchmark; one that only
    the tests call is dead code.  A benchmark call is `name(`: a mention in a
    list of names to trace does not keep a function alive."""
    src = Path(srconc.__file__).parent
    bench = "".join(path.read_text()
                    for path in (Path(__file__).parents[1] / "bench").glob("*.py"))
    defined, referenced = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.col_offset == 0:
                defined.append((path.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    idle = [f"{module}: {name}" for module, name in defined
            if not name.startswith("_") and name not in srconc.__all__
            and name not in referenced and not re.search(rf"\b{name}\(", bench)]
    assert idle == []


def test_no_module_of_the_package_imports_scipy():
    """scipy is a test oracle only: no import of it anywhere under srconc,
    at module level or inside a function."""
    imports = []
    for path in sorted(Path(srconc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                imports.append((path.name, node.module))
    assert imports and [(f, m) for f, m in imports if m.split(".")[0] == "scipy"] == []


STDLIB_ONLY = ("cli.py", "inputs.py", "ks.py")


def _module_level_imports(tree):
    """The imports a module runs when it is loaded: none inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("filename", STDLIB_ONLY)
def test_stdlib_only_modules_import_no_third_party_package_on_load(filename):
    """cli, inputs and ks import at module level only the standard library and
    each other, so a start-up that touches no array never pays for numpy."""
    own = {name.removesuffix(".py") for name in STDLIB_ONLY}
    tree = ast.parse((Path(srconc.__file__).parent / filename).read_text())
    bad = []
    for node in _module_level_imports(tree):
        if isinstance(node, ast.Import):
            names, allowed = [alias.name for alias in node.names], sys.stdlib_module_names
        elif node.level:  # from . import x, from .x import y
            names = [node.module] if node.module else [alias.name for alias in node.names]
            allowed = own
        else:
            names, allowed = [node.module], sys.stdlib_module_names
        bad += [name for name in names if name.split(".")[0] not in allowed]
    assert bad == []

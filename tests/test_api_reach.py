"""Ratchet against test-only API: every public top-level function and class
of src/sphereshock is reached from the program, not only from the tests.

A name is reached when an ast.Name or ast.Attribute in src/ or perfbench/
refers to it, or a `from ... import` there names it (harness imports
records.write_selfsim_csv so that the benchmark tracer can wrap it there).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sphereshock"

# certifying checks that only the tests run, each with the test that reads it
EXEMPT = {
    "bound_margins": "test_acceptance.py::test_criterion_1_profile_certification",
    "deriv_bound_margin": "test_profile.py::test_frozen_derivative_bounds",
    "similarity_defects": "test_acceptance.py::test_criterion_3_diagonalization",
    "f_r_from_fp": "test_riemann.py::test_forcing_dual_path_agreement",
    "to_phys": "test_riemann.py::test_to_phys_examples",
    "cross_validate": "test_modulation.py::test_cross_validate_flat_run",
    "z_drift_certificate": "test_acceptance.py::test_z_field_drift_property",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node.name


def _names_read(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _program_references():
    refs = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        refs |= _names_read(ast.parse(path.read_text()))
    return refs


def test_every_public_name_is_reached_from_the_program():
    refs = _program_references()
    unreached = [f"{module}:{name}" for module, name in _public_definitions()
                 if name not in refs and name not in EXEMPT]
    assert unreached == []


def test_each_exemption_is_test_only_and_read_by_its_test():
    # an exemption goes with its name, or once the program reaches the name
    refs = _program_references()
    defined = {name for _, name in _public_definitions()}
    for name, test in EXEMPT.items():
        assert name in defined and name not in refs, name
        path, func = test.split("::")
        tree = ast.parse((ROOT / "tests" / path).read_text())
        body = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == func)
        assert name in _names_read(body), test

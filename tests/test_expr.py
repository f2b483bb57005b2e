import ast
import builtins
import os
import subprocess
import sys

import numpy as np
import pytest

from afw3d import assembly, expr, stability_lab
from afw3d.interp import FieldSample
from afw3d.tensor_ops import Material

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def pts():
    # inside (0.5, 1.5)^3, where sqrt, log and real powers are smooth
    return 0.5 + np.random.default_rng(7).random((200, 3))


def _eval(tree, pts):
    return expr.compile_trees([tree])(pts)[:, 0]


@pytest.mark.parametrize("text, var, closed_form", [
    ("sin(2*x)", "x", lambda x, y, z: 2 * np.cos(2 * x)),
    ("cos(x*y)", "y", lambda x, y, z: -x * np.sin(x * y)),
    ("exp(-x*z)", "z", lambda x, y, z: -x * np.exp(-x * z)),
    ("sqrt(x + y)", "x", lambda x, y, z: 0.5 / np.sqrt(x + y)),
    ("log(x*z)", "z", lambda x, y, z: 1 / z + 0 * x),
    ("x**3", "x", lambda x, y, z: 3 * x**2),
    ("x**(-0.25)", "x", lambda x, y, z: -0.25 * x**-1.25),
    ("x**y", "y", lambda x, y, z: np.log(x) * x**y),
    ("x**y", "x", lambda x, y, z: y * x ** (y - 1)),
    ("y/(1 + x)", "x", lambda x, y, z: -y / (1 + x) ** 2),
    ("-x*y*z", "y", lambda x, y, z: -x * z),
    ("pi*sin(pi*x)*cos(pi*y)", "x", lambda x, y, z: np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)),
])
def test_derivative_of_each_primitive_matches_closed_form(pts, text, var, closed_form):
    got = _eval(expr.diff(expr.parse(text), var), pts)
    want = closed_form(*pts.T)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_constants_fold_while_building():
    assert isinstance(expr.diff(expr.parse("3*x + 2*y"), "z"), ast.Constant)
    assert expr.parse("2*3 - 6").value == 0.0
    assert ast.unparse(expr.parse("x**1 + 0*y + 1*z + x**0 - 0")) == "x + z + 1.0"
    d2 = expr.diff(expr.diff(expr.parse("0.4*x + 0.5*x**2 - 0.3*x*y"), "x"), "x")
    assert isinstance(d2, ast.Constant) and d2.value == 1.0


def test_shared_program_equals_per_entry_evaluation_bit_for_bit(pts):
    u = [expr.parse(e) for e in [
        "0.4*x + 0.5*x**2 + 0.01*sin(pi*x)*sin(pi*y)*sin(pi*z)",
        "exp(x-y)*cos(pi*z) + sqrt(x*y)",
        "log(1 + x*z)/(2 + y) + 0.01*sin(pi*x)*sin(pi*y)*sin(pi*z)",
    ]]
    trees = u + [expr.diff(t, v) for t in u for v in expr.VARIABLES]
    trees += [expr.diff(d, v) for d in trees[3:] for v in expr.VARIABLES]
    shared = expr.compile_trees(trees)(pts)
    assert shared.shape == (len(pts), len(trees))
    for k, t in enumerate(trees):
        assert np.array_equal(shared[:, k], _eval(t, pts))


@pytest.mark.parametrize("text", [
    "__import__('os')", "x.real", "gamma(x)", "lambda: 0", "w + x", "sin(x, y)",
    "sin(x=1)", "x if y else z", "[x]", "x +", "'x'", "True", "1j*x", "x < y", "x // 2",
])
def test_formulas_outside_the_grammar_raise_before_evaluation(monkeypatch, text):
    def refuse(*args, **kw):
        raise AssertionError("a formula reached eval or exec")

    monkeypatch.setattr(builtins, "eval", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    with pytest.raises(ValueError):
        expr.parse(text)
    with pytest.raises(ValueError):
        FieldSample.from_sympy([text, "0", "0"])


def test_valid_formulas_are_never_passed_to_eval(monkeypatch, pts):
    def refuse(*args, **kw):
        raise AssertionError("a formula reached eval or exec")

    monkeypatch.setattr(builtins, "eval", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    f = FieldSample.from_sympy([["sin(pi*x)*y", "cos(z)", "x**2"]] * 3)
    assert f.value(pts).shape == (len(pts), 3, 3)
    assert f.jacobian(pts).shape == (len(pts), 3, 3, 3)


def test_constant_stress_case_has_constant_sigma_and_zero_load(pts):
    case = assembly.ManufacturedCase.constant_stress(Material(1.7, 0.6))
    s = case.sigma.value(pts)
    assert np.array_equal(s, np.broadcast_to(s[0], s.shape))
    assert np.array_equal(s[0], s[0].T)
    assert not case.sigma.jacobian(pts).any()
    assert not case.f.value(pts).any()
    assert np.array_equal(case.p.value(pts), np.broadcast_to(case.p.value(pts[:1]), (len(pts), 3)))


def test_taylor_load_is_the_divergence_of_its_stress(pts):
    case = stability_lab.default_convergence_case(Material(2.0, 0.7))
    f = case.f.value(pts)
    assert np.allclose(f, case.sigma.divergence().value(pts), rtol=0, atol=1e-13 * np.abs(f).max())
    # sigma = 2 mu eps(u) + lambda tr(eps(u)) I from the Jacobian of u
    G = case.u.jacobian(pts)
    eps = 0.5 * (G + np.swapaxes(G, 1, 2))
    want = 1.4 * eps + 2.0 * np.trace(eps, axis1=1, axis2=2)[:, None, None] * np.eye(3)
    assert np.allclose(case.sigma.value(pts), want, rtol=0, atol=1e-13)
    skew = 0.5 * (G - np.swapaxes(G, 1, 2))
    assert np.allclose(case.p.value(pts), skew[:, [2, 0, 1], [1, 2, 0]], rtol=0, atol=1e-15)


def test_solve_and_commuting_diagrams_run_without_sympy():
    script = (
        "import sys\n"
        "from afw3d import assembly, stability_lab as sl\n"
        "from afw3d.mesh import OrderMap, unit_cube_mesh\n"
        "case = sl.default_convergence_case()\n"
        "mesh = unit_cube_mesh(1)\n"
        "orders = OrderMap.uniform(mesh, 0)\n"
        "assembly.solve_case(mesh, orders, case)\n"
        "sl.commuting_diagram_suite(mesh, orders, n_samples=3, seed=0)\n"
        "print('sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.strip() == "False"

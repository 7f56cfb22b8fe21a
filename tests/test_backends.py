import numpy as np
import pytest

from hstorsion.backends import ModelError, build_complex, parse_model
from hstorsion.forms import conjugate, wedge

from conftest import IWASAWA_TEXT, SPECTRAL_TEXT, TORUS_TEXT


def _complex_identities(cx, tol=1e-12):
    """max entrywise violation of d^2 = 0 over all bidegrees."""
    n = cx.n
    worst = 0.0
    for p in range(n + 1):
        for q in range(n + 1):
            if p + 2 <= n:
                M = cx.del_matrix(p + 1, q) @ cx.del_matrix(p, q)
                worst = max(worst, np.abs(M).max() if M.size else 0.0)
            if q + 2 <= n:
                M = cx.dbar_matrix(p, q + 1) @ cx.dbar_matrix(p, q)
                worst = max(worst, np.abs(M).max() if M.size else 0.0)
            if p + 1 <= n and q + 1 <= n:
                M = (cx.del_matrix(p, q + 1) @ cx.dbar_matrix(p, q)
                     + cx.dbar_matrix(p + 1, q) @ cx.del_matrix(p, q))
                worst = max(worst, np.abs(M).max() if M.size else 0.0)
    return worst


@pytest.mark.parametrize("text", [TORUS_TEXT, IWASAWA_TEXT, SPECTRAL_TEXT])
def test_d_squared_zero(text):
    cx = build_complex(parse_model(text))
    assert _complex_identities(cx) <= 1e-12


def test_leibniz_rule():
    # invariant backend only: the spectral wedge is a Galerkin projection,
    # so the rule holds there only up to mode truncation
    cx = build_complex(parse_model(IWASAWA_TEXT))
    rng = np.random.default_rng(0)
    for (p1, q1, p2, q2) in [(1, 0, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0)]:
        u = cx.random_form(p1, q1, rng)
        v = cx.random_form(p2, q2, rng)
        deg = p1 + q1
        lhs = cx.apply_del(wedge(u, v))
        rhs = wedge(cx.apply_del(u), v) + (-1.0) ** deg * wedge(u, cx.apply_del(v))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)
        lhs = cx.apply_dbar(wedge(u, v))
        rhs = wedge(cx.apply_dbar(u), v) + (-1.0) ** deg * wedge(u, cx.apply_dbar(v))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_conjugation_intertwines_del_dbar(spectral_cx):
    cx = spectral_cx
    rng = np.random.default_rng(1)
    u = cx.random_form(1, 1, rng)
    lhs = conjugate(cx.apply_del(u))
    rhs = cx.apply_dbar(conjugate(u))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_iwasawa_structure_equation(iwasawa_cx):
    # d(phi_3) = -phi_1 ^ phi_2, with no dbar part on (1,0)-forms
    cx = iwasawa_cx
    e3 = cx.basis_form((), (3,), ())
    d = cx.apply_del(e3)
    e12 = wedge(cx.basis_form((), (1,), ()), cx.basis_form((), (2,), ()))
    assert np.allclose(d.coeffs, -e12.coeffs)
    assert np.allclose(cx.apply_dbar(e3).coeffs, 0.0)


def test_spectral_basis_evaluation(spectral_cx):
    # a basis (0,0) mode evaluates to exp(2 pi i m.x) on the grid
    cx = spectral_cx
    mode = next(m for m in cx.catalog.modes if any(m))
    u = cx.basis_form(mode, (), ())
    vals = cx.evaluate(u)[:, 0]
    x = cx.nodes()
    expect = np.exp(2j * np.pi * (x @ np.asarray(mode)))
    assert np.allclose(vals, expect, atol=1e-12)


def test_spectral_mode_coefficients_roundtrip(spectral_cx):
    cx = spectral_cx
    rng = np.random.default_rng(2)
    u = cx.random_form(1, 0, rng)
    vals = cx.evaluate(u)
    back = cx.mode_coefficients(vals)
    assert np.allclose(back, u.coeffs, atol=1e-12)


def test_metric_form_potential_is_hermitian_symplectic(spectral_cx):
    # metric = flat + dbar(u) + del(conj u), so rho = del(u) completes it:
    # dbar(rho) + del(omega) = 0 exactly
    cx = spectral_cx
    w = cx.metric_form()
    model = cx.model
    from hstorsion.forms import zero_form
    u = zero_form(cx.catalog, 1, 0)
    for mode, vec in model.potential_modes.items():
        for j, c in enumerate(vec):
            if c != 0:
                u.coeffs[cx.catalog.flat_index(tuple(mode), (j + 1,), ())] = c
    rho = cx.apply_del(u)
    resid = cx.apply_dbar(rho) + cx.apply_del(w)
    assert np.allclose(resid.coeffs, 0.0, atol=1e-12)


def test_parse_model_errors():
    with pytest.raises(ModelError):
        parse_model("kind invariant\n")  # missing n
    with pytest.raises(ModelError):
        parse_model("kind widget\nn 3\n")
    with pytest.raises(ModelError):
        parse_model("kind invariant\nn 3\nd 5 := 1 * e(1,2)\n")
    with pytest.raises(ModelError) as err:
        parse_model("kind spectral\nn 3\nmodes axis K 1\nbogus line\n")
    assert err.value.line is not None


SPECTRAL_HEAD = "kind spectral\nn 3\nmodes axis K 1\n"


@pytest.mark.parametrize("text, line", [
    (SPECTRAL_HEAD + "metric_mode 1 0 0 0 0 0 h 0 1 := 0.1\n", 4),
    (SPECTRAL_HEAD + "metric_mode 1 0 0 0 0 0 h 5 1 := 0.1\n", 4),
    ("kind spectral\nn 3\nmode 0 0 0 0 0 0\nmode 1 0 0\n", 4),
    (SPECTRAL_HEAD + "grid 7 5 5 5\n", 4),
    (SPECTRAL_HEAD + "grid 3\n", 4),
    (SPECTRAL_HEAD + "grid 5 5 5 3 5 5\n", 4),
    (SPECTRAL_HEAD + "mode 1 0 0 0 0 0\nmode -1 0 0 0 0 0\n", 4),
    ("kind spectral\nn 3\nmodes axis K x\n", 3),
    ("kind invariant\nn 0\n", 2),
    ("kind spectral\nn -1\nmodes axis K 1\n", 2),
])
def test_parse_model_rejects_with_line(text, line):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert err.value.line == line


def test_grid_forms():
    one = parse_model(SPECTRAL_HEAD + "grid 7\n")
    per_axis = parse_model(SPECTRAL_HEAD + "grid 7 5 5 5 5 9\n")
    assert one.grid == (7,) * 6
    assert per_axis.grid == (7, 5, 5, 5, 5, 9)
    explicit = parse_model("kind spectral\nn 3\nmode 0 0 0 0 0 0\n"
                           "mode 1 0 0 0 0 0\nmode -1 0 0 0 0 0\ngrid 6\n")
    assert explicit.grid == (6, 1, 1, 1, 1, 1)


def test_potential_mode_outside_set_rejected():
    text = ("kind spectral\nn 3\nmodes axis K 1\n"
            "potential 2 0 0 0 0 0 u 1 := 0.1\n")
    cx = build_complex(parse_model(text))
    with pytest.raises(ModelError):
        cx.metric_form()

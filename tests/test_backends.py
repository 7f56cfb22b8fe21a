import dataclasses
import gc

import numpy as np
import pytest

from hstorsion.backends import (FormComplex, Model, ModelError, build_complex,
                                parse_model)
from hstorsion.forms import Bidegree, BasisCatalog, basis_form, conjugate, wedge
from hstorsion.metric import HermitianStructure

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


F_TERM_TEXT = "kind invariant\nn 3\nd 3 := 1 * e(1,2) + 0.5+0.25i * f(1,1)\n"


def test_leibniz_rule():
    # models with no axes only: the spectral wedge is a Galerkin projection,
    # so the rule holds there only up to mode truncation
    rng = np.random.default_rng(0)
    for cx in [build_complex(parse_model(t)) for t in (IWASAWA_TEXT, F_TERM_TEXT)]:
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


@pytest.mark.parametrize("text", [
    TORUS_TEXT, IWASAWA_TEXT, SPECTRAL_TEXT,
    "kind invariant\nn 3\nd 3 := 1 * f(1,1)\n",
    F_TERM_TEXT,
], ids=["torus", "iwasawa", "spectral", "f11", "e12_f11"])
def test_conjugation_intertwines_del_dbar(text):
    # d is real: conj(del u) = dbar(conj u) at every bidegree
    cx = build_complex(parse_model(text))
    rng = np.random.default_rng(1)
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            u = cx.random_form(p, q, rng)
            lhs = conjugate(cx.apply_del(u))
            rhs = cx.apply_dbar(conjugate(u))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12), (p, q)


def test_lie_algebra_model_is_the_torus_with_no_axes(iwasawa_cx):
    assert iwasawa_cx.model.mode_set == ((),) and iwasawa_cx.grid == ()
    assert iwasawa_cx.n_nodes == 1 and iwasawa_cx.nodes().shape == (1, 0)
    assert all(np.array_equal(waves, [[1.0]]) for waves in iwasawa_cx.slab_waves())
    # one difference, and every frequency set is the one frequency with no
    # components, on which the grid transform has no steps: the identity
    rows, index = iwasawa_cx.mode_differences()
    assert rows.shape == (1, 0) and np.array_equal(index, [[0]])
    for j in range(6):
        k, steps = iwasawa_cx.frequencies(j)
        assert k.shape == (1, 0) and steps == []
        assert all(np.array_equal(iwasawa_cx.shifts(j, i), [[0]]) for i in range(j - 1))
        assert all(np.array_equal(iwasawa_cx.sum_index(j, i, j - i), [[0]]) for i in range(j + 1))
        assert j == 0 or np.array_equal(iwasawa_cx.fold(j), [[0], [0]])
    values = np.array([[2.0 - 1j], [3.0]])
    assert np.array_equal(iwasawa_cx.grid_transform(values, iwasawa_cx.frequencies(1)), values)


def test_iwasawa_structure_equation(iwasawa_cx):
    # d(phi_3) = -phi_1 ^ phi_2, with no dbar part on (1,0)-forms
    cx = iwasawa_cx
    e3 = basis_form(cx.catalog, (), (3,), ())
    d = cx.apply_del(e3)
    e12 = wedge(basis_form(cx.catalog, (), (1,), ()), basis_form(cx.catalog, (), (2,), ()))
    assert np.allclose(d.coeffs, -e12.coeffs)
    assert np.allclose(cx.apply_dbar(e3).coeffs, 0.0)


def test_spectral_basis_evaluation(spectral_cx):
    # a basis (0,0) mode evaluates to exp(2 pi i m.x) on the grid
    cx = spectral_cx
    mode = next(m for m in cx.catalog.modes if any(m))
    u = basis_form(cx.catalog, mode, (), ())
    vals = np.concatenate(list(cx.evaluate(u)))[:, 0]
    x = cx.nodes()
    expect = np.exp(2j * np.pi * (x @ np.asarray(mode)))
    assert np.allclose(vals, expect, atol=1e-12)


def test_spectral_mode_coefficients_roundtrip(spectral_cx):
    # the grid transform of evaluate's node values, read at the positions
    # of the modes among frequencies(1), gives back the coefficients
    cx = spectral_cx
    rng = np.random.default_rng(2)
    u = cx.random_form(1, 0, rng)
    vals = np.concatenate(list(cx.evaluate(u)))
    k = cx.frequencies(1)
    at = cx._positions(1, cx._modes(), k[0][:1])[:, 0]
    back = (cx.grid_transform(vals.T, k)[:, at].T / cx.n_nodes).reshape(-1)
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
    # d(d phi^3) = -phi^1 ^ phi^2 ^ phi^3: the line of 'd 3 :=' is reported
    ("kind invariant\nn 3\nd 3 := 1 * e(1,2)\nd 1 := 1 * e(1,3)\n", 3),
    ("kind invariant\nn 3\nd 1 := 1 * e(1,3)\nd 3 := 1 * f(1,2)\n", 4),
    # malformed structure constants name the line of their 'd k :=' too
    ("kind invariant\nn 3\nd 5 := 1 * e(1,2)\n", 3),
    ("kind invariant\nn 3\nd 1 := 0\nd 3 := 1 * e(2,1)\n", 4),
    ("kind invariant\nn 3\nd 3 := 1 * g(1,2)\n", 3),
    ("kind invariant\nn 3\nd 3 := 1 * e(1,2)\nd 2 := 1 * e(1,7)\n", 4),
    # a potential or metric_mode on a mode outside the mode set
    (SPECTRAL_HEAD + "potential 2 0 0 0 0 0 u 2 := 0.04\n", 4),
    (SPECTRAL_HEAD + "potential 1 0 0 0 0 0 u 2 := 0.04\n"
     "metric_mode 2 0 0 0 0 0 h 1 1 := 0.1\nmetric_mode -2 0 0 0 0 0 h 1 1 := 0.1\n", 5),
    # a metric entry whose Hermitian mirror is missing or differs
    ("kind spectral\nn 2\nmodes axis K 1\nmetric_mode 1 0 0 0 h 1 2 := 0.1i\n", 4),
    ("kind spectral\nn 2\nmodes axis K 1\nmetric_mode 1 0 0 0 h 1 2 := 0.1i\n"
     "metric_mode -1 0 0 0 h 2 1 := 0.1i\n", 4),
    ("kind invariant\nn 2\nmetric h 1 1 := 1\nmetric h 2 2 := 1+0.5i\n", 4),
    ("kind invariant\nn 2\nmetric h 1 1 := 1\nmetric h 2 2 := 1\n"
     "metric h 2 1 := 0.2\nmetric h 1 2 := 0.1\n", 5),
])
def test_parse_model_rejects_with_line(text, line):
    with pytest.raises(ModelError) as err:
        parse_model(text)
    assert err.value.line == line


def test_parse_model_accepts_hermitian_metric_entries():
    # mirrors equal to the conjugate within 1e-12 max(1, max|h|), and a
    # constant part that a zero-mode metric_mode completes (a Fourier sum)
    model = parse_model("kind spectral\nn 2\nmodes axis K 1\n"
                        "metric_mode 1 0 0 0 h 1 2 := 0.1i\n"
                        "metric_mode -1 0 0 0 h 2 1 := -0.1i\n"
                        "metric_mode 0 1 0 0 h 1 1 := 0.2\n"
                        "metric_mode 0 -1 0 0 h 1 1 := 0.2000000000001\n")
    assert set(model.metric_modes) == {(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
                                       (0, -1, 0, 0)}
    model = parse_model("kind spectral\nn 2\nmodes axis K 1\nmetric h 1 1 := 1\n"
                        "metric h 2 2 := 1\nmetric h 1 2 := 0.1i\n"
                        "metric_mode 0 0 0 0 h 2 1 := -0.1i\n")
    cx = build_complex(model)
    assert HermitianStructure(cx, omega=cx.metric_form()).positivity_margin > 0


def test_grid_forms():
    one = parse_model(SPECTRAL_HEAD + "grid 7\n")
    per_axis = parse_model(SPECTRAL_HEAD + "grid 7 5 5 5 5 9\n")
    assert one.grid == (7,) * 6
    assert per_axis.grid == (7, 5, 5, 5, 5, 9)
    explicit = parse_model("kind spectral\nn 3\nmode 0 0 0 0 0 0\n"
                           "mode 1 0 0 0 0 0\nmode -1 0 0 0 0 0\ngrid 6\n")
    assert explicit.grid == (6, 1, 1, 1, 1, 1)


def test_potential_mode_outside_set_rejected():
    # parse_model names the directive's line; a Model built in code keeps
    # the check, in build_complex, before any form is made
    with pytest.raises(ModelError) as err:
        parse_model(SPECTRAL_HEAD + "potential 2 0 0 0 0 0 u 1 := 0.1\n")
    assert err.value.line == 4
    model = parse_model(SPECTRAL_HEAD)
    outside = (2, 0, 0, 0, 0, 0)
    for name, value in [("potential_modes", np.ones(3)), ("metric_modes", np.eye(3))]:
        with pytest.raises(ModelError, match="not in the mode set"):
            build_complex(dataclasses.replace(model, **{name: {outside: value}}))


# Iwasawa with another structure constant: no session fixture holds a
# complex on it, so the registry entry of its structure lives only as long
# as the complexes a test builds on it
SCALED_IWASAWA_TEXT = IWASAWA_TEXT.replace("-1 *", "-3 *")


def test_parse_and_build_assemble_once(monkeypatch):
    # parse_model checks d^2 = 0 on the generators; only build_complex
    # assembles the complex, and checks d^2 = 0 on every bidegree, once per
    # structure while a complex on it is alive
    calls = []
    assemble = FormComplex._assemble
    monkeypatch.setattr(FormComplex, "_assemble",
                        lambda self: calls.append(1) or assemble(self))
    held = [build_complex(parse_model(SCALED_IWASAWA_TEXT)) for _ in range(3)]
    assert len(calls) == 1
    assert all(cx.del_matrix(1, 0) is held[0].del_matrix(1, 0) for cx in held)
    # other structure constants on the same lattice: another assembly
    other = build_complex(parse_model(IWASAWA_TEXT.replace("-1 *", "-5 *")))
    assert len(calls) == 2
    assert other.del_matrix(1, 0) is not held[0].del_matrix(1, 0)
    # the entry is freed with the last complex on its structure
    del held
    gc.collect()
    build_complex(parse_model(SCALED_IWASAWA_TEXT))
    assert len(calls) == 3


def test_complex_identities_checked_on_the_mode_blocks(monkeypatch):
    # structure constants that break d^2 = 0 on phi^1 (d phi^1 = e(1,2),
    # d phi^2 = e(2,3)), which only parse_model's generator check would
    # catch, and a dbar block broken after assembly, each refused on the
    # first bidegree where d^2 fails: for the former dbar^2 on phibar^1.
    # The spectral structure is one that no fixture holds, so building it
    # assembles
    model = Model(n=3, d_phi={1: {("e", 1, 2): 1.0}, 2: {("e", 2, 3): 1.0}})
    with pytest.raises(ModelError, match=r"delbar\^2 != 0 at bidegree \(0,1\)"):
        build_complex(model)
    assemble = FormComplex._assemble

    def broken(self):
        blocks = assemble(self)
        blocks[Bidegree(0, 1), 0, 1] = blocks[Bidegree(0, 1), 0, 1] + 1.0
        return blocks

    monkeypatch.setattr(FormComplex, "_assemble", broken)
    with pytest.raises(ModelError, match=r"delbar\^2 != 0 at bidegree \(0,0\)"):
        build_complex(parse_model(SPECTRAL_TEXT + "grid 7\n"))


def test_complexes_on_one_lattice_share_the_quadrature_tables():
    flat = "kind spectral\nn 2\nmodes axis K 1\n"
    a, b = (build_complex(parse_model(flat + "grid 5\n")) for _ in range(2))
    c = build_complex(parse_model(flat + "grid 7\n"))
    for table in ("mode_differences", "slab_waves"):
        assert getattr(a, table)() is getattr(b, table)()
        assert getattr(c, table)() is not getattr(a, table)()
    assert a.frequencies(2) is b.frequencies(2)
    assert c.frequencies(2) is not a.frequencies(2)
    # zero and one of each +-d: 1 + 40 / 2 rows
    assert c.mode_differences()[0].shape == (21, 4)
    # the 2-fold sums of the modes fit both grids; the 3- and 4-fold sums
    # (components up to 4) alias on 5 nodes, not on 7
    assert [len(a.frequencies(j)[0]) for j in range(5)] == [1, 9, 41, 121, 257]
    assert [len(c.frequencies(j)[0]) for j in range(5)] == [1, 9, 41, 129, 313]
    # one DFT matrix per axis, from the last, each step keeping the suffixes
    # (k_a, ..., k_4) of the 9 modes 0, +-e_a: 3, 5, 7 and 9 of them
    steps = c.frequencies(1)[1]
    assert [phases.shape for phases, _, _ in steps] == [(7, 7)] * 4
    assert [len(rest) for _, rest, _ in steps] == [3, 5, 7, 9]


@pytest.mark.parametrize("text", [
    "kind spectral\nn 2\nmodes axis K 1\ngrid 7 5 5 6\n",
    "kind spectral\nn 3\nmodes axis K 1\n",
], ids=["grid7556", "n3k1"])
def test_grid_transform_is_the_dft_at_each_frequency_set(text):
    cx = build_complex(parse_model(text))
    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, cx.n_nodes)) + 1j * rng.standard_normal((2, cx.n_nodes))
    axes = tuple(range(1, len(cx.grid) + 1))
    full = np.fft.fftn(values.reshape(2, *cx.grid), axes=axes).reshape(2, -1)
    modes = np.array(cx.catalog.modes)
    for j in range(2 * cx.n + 1):
        k = cx.frequencies(j)[0]
        flat = np.ravel_multi_index(tuple(k.T), cx.grid)
        assert np.all(np.diff(flat) > 0)
        # S_j is every sum of j modes, reduced on the grid
        sums = np.zeros((1, len(cx.grid)), dtype=int)
        for _ in range(j):
            sums = np.unique((sums[:, None] + modes).reshape(-1, len(cx.grid)) % cx.grid, axis=0)
        assert np.array_equal(k, sums)
        # d_r - s for the sums s of each smaller set, at its shifts
        rows = cx.mode_differences()[0]
        for i in range(min(j - 1, cx.n + 1)):
            diffs = (rows[:, None] - cx.frequencies(i)[0]) % cx.grid
            assert np.array_equal(k[cx.shifts(j, i)], diffs)
        # s + t for s in S_i and t in S_{i+2}, i + (i + 2) <= j
        for i in range((j - 2) // 2 + 1):
            pairs = (cx.frequencies(i)[0][:, None] + cx.frequencies(i + 2)[0]) % cx.grid
            assert np.array_equal(k[cx.sum_index(j, i, i + 2)], pairs)
        # the products m_i + s of the modes with S_{j-1}, in fold order, are
        # runs of the frequencies of S_j, each run starting at its start
        if j:
            order, starts = cx.fold(j)
            sums = (modes[:, None] + cx.frequencies(j - 1)[0]).reshape(-1, len(cx.grid))
            runs = np.diff(np.append(starts, len(order)))
            assert np.array_equal(sums[order] % cx.grid, np.repeat(k, runs, axis=0))
        out = cx.grid_transform(values, cx.frequencies(j))
        assert np.abs(out - full[:, flat]).max() <= 1e-13 * np.abs(full).max()
        # its adjoint: the inverse DFT, times X, of a spectrum on S_j
        # scattered onto the grid
        spectrum = values[:, :len(k)]
        scattered = np.zeros_like(values)
        scattered[:, flat] = spectrum
        ref = np.fft.ifftn(scattered.reshape(2, *cx.grid), axes=axes).reshape(2, -1) * cx.n_nodes
        back = cx.grid_values(spectrum, cx.frequencies(j))
        assert np.abs(back - ref).max() <= 1e-13 * np.abs(ref).max()


def test_catalogs_of_one_dimension_share_the_structural_tables():
    # struct bases, wedge tables and covector wedges depend only on n; the
    # tables that involve the modes stay on each catalog
    a = BasisCatalog(3)
    b = BasisCatalog(3, [(0,) * 6, (1,) + (0,) * 5, (-1,) + (0,) * 5])
    one = Bidegree(1, 0)
    assert a.struct_indices(1, 1) is b.struct_indices(1, 1)
    assert a.wedge_table(one, Bidegree(1, 1)) is b.wedge_table(one, Bidegree(1, 1))
    assert a.covector_wedge(one, 1, 1) is b.covector_wedge(one, 1, 1)
    assert a.conj_permutation(1, 0)[0].shape == (3,)
    assert b.conj_permutation(1, 0)[0].shape == (9,)
    assert BasisCatalog(2).struct_indices(1, 1) is not a.struct_indices(1, 1)

import math

import numpy as np
import pytest

from hstorsion.backends import build_complex, parse_model
from hstorsion.forms import (BasisCatalog, Bidegree, DegreeError, Form,
                             basis_form, conjugate, merge_sign, wedge,
                             zero_form)


@pytest.fixture(scope="module")
def cat():
    return BasisCatalog(3)


def _random_form(cat, p, q, rng):
    N = cat.dim(p, q)
    return Form(cat, Bidegree(p, q),
                rng.standard_normal(N) + 1j * rng.standard_normal(N))


def test_dimensions_match_binomials(cat):
    n = cat.n
    for p in range(n + 1):
        for q in range(n + 1):
            assert cat.dim(p, q) == math.comb(n, p) * math.comb(n, q)


def test_basis_index_roundtrip(cat):
    for p in range(4):
        for q in range(4):
            for i, b in enumerate(cat.basis(p, q)):
                assert cat.flat_index(b.mode, b.holo, b.anti) == i


def test_wedge_bidegree_and_bilinearity(cat):
    rng = np.random.default_rng(1)
    u = _random_form(cat, 1, 0, rng)
    v = _random_form(cat, 0, 1, rng)
    w = wedge(u, v)
    assert (w.p, w.q) == (1, 1)
    w2 = wedge(2.0 * u, v)
    assert np.allclose(w2.coeffs, 2.0 * w.coeffs)


def test_wedge_graded_anticommutativity(cat):
    rng = np.random.default_rng(2)
    cases = [(1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 1, 0), (1, 1, 1, 1), (2, 0, 0, 1)]
    for p1, q1, p2, q2 in cases:
        u = _random_form(cat, p1, q1, rng)
        v = _random_form(cat, p2, q2, rng)
        sign = (-1.0) ** ((p1 + q1) * (p2 + q2))
        assert np.allclose(wedge(u, v).coeffs, sign * wedge(v, u).coeffs,
                           atol=1e-14)


def test_wedge_matches_definition_on_modes():
    # reference: basis element by basis element, dropping the products whose
    # mode sum leaves the (truncated) mode set
    modes = [(0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
             (0, -1, 0, 0), (1, 1, 0, 0), (-1, -1, 0, 0)]
    cat = BasisCatalog(2, modes)
    rng = np.random.default_rng(8)
    for p1, q1, p2, q2 in [(1, 0, 0, 1), (1, 1, 1, 0), (0, 1, 1, 1), (0, 0, 1, 1)]:
        u = _random_form(cat, p1, q1, rng)
        v = _random_form(cat, p2, q2, rng)
        ref = np.zeros(cat.dim(p1 + p2, q1 + q2), dtype=complex)
        for i, a in enumerate(cat.basis(p1, q1)):
            for j, b in enumerate(cat.basis(p2, q2)):
                mode = tuple(x + y for x, y in zip(a.mode, b.mode))
                sI, I = merge_sign(a.holo, b.holo)
                sJ, J = merge_sign(a.anti, b.anti)
                if mode not in cat.mode_pos or sI == 0 or sJ == 0:
                    continue
                sign = sI * sJ * (-1) ** (len(a.anti) * len(b.holo))
                ref[cat.flat_index(mode, I, J)] += sign * u.coeffs[i] * v.coeffs[j]
        assert np.allclose(wedge(u, v).coeffs, ref, rtol=1e-14, atol=1e-14)


def test_wedge_associativity(cat):
    rng = np.random.default_rng(3)
    u = _random_form(cat, 1, 0, rng)
    v = _random_form(cat, 0, 1, rng)
    w = _random_form(cat, 1, 1, rng)
    lhs = wedge(wedge(u, v), w)
    rhs = wedge(u, wedge(v, w))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)


def test_one_form_squares_to_zero(cat):
    rng = np.random.default_rng(4)
    u = _random_form(cat, 1, 0, rng)
    assert np.allclose(wedge(u, u).coeffs, 0.0, atol=1e-14)


def test_conjugate_involution_and_bidegree(cat):
    rng = np.random.default_rng(5)
    u = _random_form(cat, 2, 1, rng)
    c = conjugate(u)
    assert (c.p, c.q) == (1, 2)
    cc = conjugate(c)
    assert np.allclose(cc.coeffs, u.coeffs)


@pytest.fixture(scope="module")
def axis_cat():
    # n = 2, "modes axis K 1": the zero mode and +-e_a on the four real axes,
    # so conjugation moves every nonzero mode
    return build_complex(parse_model("kind spectral\nn 2\nmodes axis K 1\n")).catalog


def test_conj_permutation_is_inverted_by_the_transposed_bidegree(axis_cat):
    for p in range(3):
        for q in range(3):
            forward, _ = axis_cat.conj_permutation(p, q)
            back, _ = axis_cat.conj_permutation(q, p)
            assert np.array_equal(back[forward], np.arange(axis_cat.dim(p, q)))


def test_conjugate_matches_definition_on_modes(axis_cat):
    # reference: conj(c e_m dz^I dzbar^J) = conj(c) e_{-m} dzbar^I dz^J
    # = (-1)^{pq} conj(c) e_{-m} dz^J dzbar^I, basis element by basis element
    rng = np.random.default_rng(9)
    assert axis_cat.n_modes == 9
    for p in range(3):
        for q in range(3):
            u = _random_form(axis_cat, p, q, rng)
            ref = np.zeros(axis_cat.dim(q, p), dtype=complex)
            for c, b in zip(u.coeffs, axis_cat.basis(p, q)):
                mode = tuple(-x for x in b.mode)
                ref[axis_cat.flat_index(mode, b.anti, b.holo)] += (-1) ** (p * q) * np.conj(c)
            c = conjugate(u)
            assert (c.p, c.q) == (q, p)
            assert np.array_equal(c.coeffs, ref)


def test_conjugate_is_multiplicative(cat):
    rng = np.random.default_rng(6)
    u = _random_form(cat, 1, 0, rng)
    v = _random_form(cat, 1, 1, rng)
    lhs = conjugate(wedge(u, v))
    rhs = wedge(conjugate(u), conjugate(v))
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-14)


def test_basis_form_is_unit_vector(cat):
    b = cat.basis(1, 1)[2]
    e = basis_form(cat, b.mode, b.holo, b.anti)
    assert e.coeffs[2] == 1.0 and np.count_nonzero(e.coeffs) == 1


def test_degree_overflow_raises(cat):
    with pytest.raises(DegreeError):
        cat.check_bidegree(4, 0)


def test_form_arithmetic(cat):
    rng = np.random.default_rng(7)
    u = _random_form(cat, 1, 0, rng)
    v = _random_form(cat, 1, 0, rng)
    s = u + v - v
    assert np.allclose(s.coeffs, u.coeffs)
    z = zero_form(cat, 1, 0)
    assert np.allclose((u + z).coeffs, u.coeffs)
    with pytest.raises(DegreeError):
        u + _random_form(cat, 0, 1, rng)

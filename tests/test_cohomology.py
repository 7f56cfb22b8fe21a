import math

import numpy as np
import pytest

from hstorsion import cohomology
from hstorsion.backends import build_complex, parse_model
from hstorsion.cohomology import (CohomologyMismatch, cohomology_table,
                                  gram_eig, green_operator,
                                  harmonic_projection, laplacian_bc,
                                  laplacian_dbar)
from hstorsion.deform import parse_family
from hstorsion.forms import conjugate
from hstorsion.metric import HermitianStructure

from conftest import (IWASAWA_TEXT, N2K2_FAMILY, SPECTRAL_TEXT, TORUS_TEXT,
                      coefficient_laplacian, random_hermitian_structure)

# a metric that varies over the spectral n = 2, K = 1 torus
SPECTRAL_N2_TEXT = """kind spectral
n 2
modes axis K 1
potential 1 0 0 0 u 2 := 0.05
potential 0 1 0 0 u 1 := 0.03+0.01i
potential 0 0 -1 0 u 2 := 0.02i
"""


def solve_adjoint(H, kind, p, q):
    """The Gram adjoint of the structure operator kind on Lambda^{p,q} by a
    solve with the source Gram (HermitianStructure.adjoint_matrix),
    independent of the Cholesky factors."""
    dp, dq = {"del": (1, 0), "dbar": (0, 1), "ddbar": (1, 1)}[kind]
    A = getattr(H.complex, f"{kind}_matrix")(p, q)
    return H.adjoint_matrix(A, (p, q), (p + dp, q + dq))


def reference_laplacian_bc(H, p, q):
    """The Bott-Chern Laplacian assembled from the Gram adjoints (each one
    solve with the source Gram), independent of the whitened operators:

    del* del + dbar* dbar + (del dbar)*(del dbar) + (del dbar)(del dbar)*
      + (del* dbar)*(del* dbar) + (del* dbar)(del* dbar)*
    """
    cx = H.complex
    n = H.n
    N = cx.dims(p, q)
    L = np.zeros((N, N), dtype=complex)
    if p + 1 <= n:
        L += solve_adjoint(H, "del", p, q) @ cx.del_matrix(p, q)
    if q + 1 <= n:
        L += solve_adjoint(H, "dbar", p, q) @ cx.dbar_matrix(p, q)
    if p + 1 <= n and q + 1 <= n:
        L += solve_adjoint(H, "ddbar", p, q) @ cx.ddbar_matrix(p, q)
    if p >= 1 and q >= 1:
        L += cx.ddbar_matrix(p - 1, q - 1) @ solve_adjoint(H, "ddbar", p - 1, q - 1)
    if q + 1 <= n and p >= 1:
        # T = del* dbar : (p,q) -> (p,q+1) -> (p-1,q+1)
        T = solve_adjoint(H, "del", p - 1, q + 1) @ cx.dbar_matrix(p, q)
        L += H.adjoint_matrix(T, (p, q), (p - 1, q + 1)) @ T
    if p + 1 <= n and q >= 1:
        # S = del* dbar : (p+1,q-1) -> (p+1,q) -> (p,q)
        S = solve_adjoint(H, "del", p, q) @ cx.dbar_matrix(p + 1, q - 1)
        L += S @ H.adjoint_matrix(S, (p + 1, q - 1), (p, q))
    return L


def reference_laplacian_dbar(H, p, q):
    """dbar dbar* + dbar* dbar from the Gram adjoints."""
    cx = H.complex
    n = H.n
    N = cx.dims(p, q)
    L = np.zeros((N, N), dtype=complex)
    if q + 1 <= n:
        L += solve_adjoint(H, "dbar", p, q) @ cx.dbar_matrix(p, q)
    if q >= 1:
        L += cx.dbar_matrix(p, q - 1) @ solve_adjoint(H, "dbar", p, q - 1)
    return L


LADDER = ["torus", "iwasawa", "spectral", "n2k2-family-t0.5"] + [
    f"iwasawa-random{k}" for k in range(5)]


def ladder_structure(name):
    """A fresh metric of the ladder: the torus, Iwasawa, SPECTRAL_TEXT, the
    n = 2, K = 2 family at t = 0.5, and 5 random Iwasawa metrics."""
    texts = {"torus": TORUS_TEXT, "iwasawa": IWASAWA_TEXT, "spectral": SPECTRAL_TEXT}
    if name.startswith("iwasawa-random"):
        rng = np.random.default_rng(int(name[-1]))
        return random_hermitian_structure(build_complex(parse_model(IWASAWA_TEXT)), rng,
                                          amp=0.5)
    model = (parse_family(N2K2_FAMILY).model(0.5) if name == "n2k2-family-t0.5"
             else parse_model(texts[name]))
    cx = build_complex(model)
    return HermitianStructure(cx, omega=cx.metric_form())


@pytest.mark.parametrize("name", LADDER)
def test_laplacians_match_the_adjoint_reference(name):
    # the whitened Laplacians, taken to the coefficient frame, equal the
    # ones assembled from Gram adjoints (solves), to rounding
    H = ladder_structure(name)
    n = H.n
    for p in range(n + 1):
        for q in range(n + 1):
            for which, ref in (("bc", reference_laplacian_bc),
                               ("dbar", reference_laplacian_dbar)):
                L, L_ref = coefficient_laplacian(H, which, p, q), ref(H, p, q)
                scale = max(np.linalg.norm(L_ref), 1e-300)
                assert np.linalg.norm(L - L_ref) <= 1e-12 * scale, (which, p, q)


@pytest.mark.parametrize("name", LADDER)
def test_table_eigenvalues_match_green_operator(name):
    # the table counts from the eigenvalues of the whitened Laplacians of
    # one dimension, both kinds in one stack: each has the bits of its own
    # eigvalsh, whatever else is in the stack, and equals green_operator's
    # eigenvalues to rounding, with the same kernel count
    H = ladder_structure(name)
    counts = {(which, p, q): kernel
              for which, p, q, kernel, _ in cohomology_table(H).cross_checks}
    seen = set()
    for bidegrees in H.whiten_all().values():
        keys = [(which, *bd) for bd in bidegrees for which in ("dbar", "bc")]
        laplacians = [cohomology._LAPLACIANS[which](H, p, q) for which, p, q in keys]
        for (which, p, q), L, w in zip(keys, laplacians,
                                       np.linalg.eigvalsh(np.stack(laplacians))):
            assert np.array_equal(w, np.linalg.eigvalsh(L)), (which, p, q)
            ge = green_operator(H, p, q, which)
            ev = ge.eigenvalues
            assert np.abs(w - ev).max() <= 1e-12 * max(ev.max(), 1.0), (which, p, q)
            assert ge.kernel_dim == counts[(which, p, q)], (which, p, q)
            seen.add((which, p, q))
    assert len(seen) == 2 * (H.n + 1) ** 2


def test_gram_eig_basic(rng):
    N = 8
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    G = A @ A.conj().T + N * np.eye(N)
    B = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    M = np.linalg.solve(G, B @ B.conj().T)  # G-self-adjoint PSD, rank 3
    R = np.linalg.cholesky(G).conj().T  # upper: G = R^H R
    Rinv = np.linalg.inv(R)
    eig = gram_eig(R @ M @ Rinv, R, Rinv)  # given whitened
    assert eig.kernel_dim == N - 3
    # pinv inverts on the image: M pinv M = M
    assert np.allclose(M @ eig.pinv @ M, M, atol=1e-10)
    # projector idempotent, G-self-adjoint, annihilated by M
    P = eig.kernel_projector
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(G @ P, (G @ P).conj().T, atol=1e-10)
    assert np.allclose(M @ P, 0.0, atol=1e-10)


@pytest.mark.parametrize("name", ["spectral", "iwasawa-random0"])
def test_gram_eig_reads_the_lower_triangle(name):
    # as eigh does: NaN in the strict upper triangle of the whitened
    # Laplacian gives the same GramEig, bit for bit
    H = ladder_structure(name)
    R, Rinv = H.chol(1, 1), H.chol_inv(1, 1)
    for which in ("bc", "dbar"):
        Lt = cohomology._LAPLACIANS[which](H, 1, 1)
        ref = gram_eig(Lt, R, Rinv)
        Lt[np.triu_indices(len(Lt), 1)] = np.nan
        ge = gram_eig(Lt, R, Rinv)
        assert ge.kernel_dim == ref.kernel_dim and ge.separation_ok == ref.separation_ok
        assert ge.cutoff == ref.cutoff
        for a, b in ((ge.eigenvalues, ref.eigenvalues), (ge.vectors, ref.vectors),
                     (ge.pinv, ref.pinv), (ge.kernel_projector, ref.kernel_projector)):
            assert np.array_equal(a, b)


def test_laplacians_gram_self_adjoint_psd(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    G = H.gram(1, 1)
    for which, lap in (("bc", laplacian_bc), ("dbar", laplacian_dbar)):
        # returned whitened: Hermitian; in the coefficient frame G-self-adjoint
        Lt = lap(H, 1, 1)
        assert np.allclose(Lt, Lt.conj().T, atol=1e-10)
        L = coefficient_laplacian(H, which, 1, 1)
        GL = G @ L
        assert np.allclose(GL, GL.conj().T, atol=1e-10)
        w = np.linalg.eigvalsh(0.5 * (GL + GL.conj().T))
        assert w.min() >= -1e-10 * max(abs(w).max(), 1.0)


# the standard Iwasawa metric, whose Grams are the identity, a random one,
# whose Cholesky frames are not, and SPECTRAL_TEXT: a test in the coefficient
# frame reads the frame change R^{-1} L~ R only on the last two.  An
# invariant metric's Gram is a Kronecker product conj(C_p) (x) N_q, whose
# frame commutes with conjugation; conjugation reverses the modes of a
# spectral one
FRAMES = {"iwasawa": True, "iwasawa-random0": False, "spectral": False}


def _frame_structure(name):
    """ladder_structure(name), checked to have the identity (1,1) frame
    exactly when FRAMES says so."""
    H = ladder_structure(name)
    R = H.chol(1, 1)
    assert np.allclose(R, np.eye(len(R)), atol=1e-12) == FRAMES[name]
    return H


@pytest.mark.parametrize("name", FRAMES)
def test_bc_laplacian_conjugation_symmetry(name):
    # conjugate . Delta_BC = Delta_BC . conjugate between (p,q) and (q,p)
    H = _frame_structure(name)
    cx = H.complex
    for (p, q) in [(2, 0), (2, 1), (1, 0)]:
        L_pq = coefficient_laplacian(H, "bc", p, q)
        L_qp = coefficient_laplacian(H, "bc", q, p)
        rng = np.random.default_rng(p * 7 + q)
        for _ in range(3):
            u = cx.random_form(p, q, rng)
            a = conjugate(type(u)(cx.catalog, u.bidegree, L_pq @ u.coeffs))
            b_coeffs = L_qp @ conjugate(u).coeffs
            assert np.allclose(a.coeffs, b_coeffs, atol=1e-10)


def test_green_property(iwasawa_cx, rng):
    # E green(E, g) = g - harmonic(g), and green vanishes on harmonics
    H = random_hermitian_structure(iwasawa_cx, rng)
    for which in ("bc", "dbar"):
        for (p, q) in [(2, 0), (1, 1)]:
            g = H.complex.random_form(p, q, rng)
            eig = green_operator(H, p, q, which)
            L = coefficient_laplacian(H, which, p, q)
            harm = harmonic_projection(H, g, which)
            resid = L @ (eig.pinv @ g.coeffs) - (g.coeffs - harm.coeffs)
            assert np.linalg.norm(resid) <= 1e-8 * (1 + np.linalg.norm(g.coeffs))
            assert np.linalg.norm(eig.pinv @ harm.coeffs) <= 1e-8


def test_green_form_wrapper(iwasawa_H, rng):
    # green_operator is gram_eig of the chosen Laplacian in the Gram geometry
    H = iwasawa_H
    g = H.complex.random_form(2, 0, rng)
    out = green_operator(H, 2, 0, "bc").pinv @ g.coeffs
    R = np.linalg.cholesky(H.gram(2, 0)).conj().T
    eig = gram_eig(laplacian_bc(H, 2, 0), R, np.linalg.inv(R))
    assert np.allclose(out, eig.pinv @ g.coeffs)
    # the memoized factor and inverse are the ones passed to gram_eig
    assert np.allclose(H.chol(2, 0), R)
    assert np.abs(H.chol_inv(2, 0) @ H.chol(2, 0) - np.eye(len(R))).max() <= 1e-12


@pytest.mark.parametrize("name", FRAMES)
def test_operator_bundle(name):
    # both Laplacians' spectral data at one bidegree
    H = _frame_structure(name)
    G = H.gram(1, 1)
    for which in ("bc", "dbar"):
        L = coefficient_laplacian(H, which, 1, 1)
        eig = green_operator(H, 1, 1, which)
        P = eig.kernel_projector
        assert np.allclose(P @ P, P, atol=1e-10)
        assert np.allclose(G @ P, (G @ P).conj().T, atol=1e-10)
        assert eig.cutoff > 0
        assert np.allclose(L @ eig.pinv @ L, L, atol=1e-8)


def test_flat_torus_dimensions(torus_H):
    # all differentials vanish, so every dimension is the space dimension
    n = torus_H.n
    table = cohomology_table(torus_H)
    for p in range(n + 1):
        for q in range(n + 1):
            d = math.comb(n, p) * math.comb(n, q)
            e = table.entries[(p, q)]
            assert e["dbar"] == e["bc"] == e["aeppli"] == d


def test_iwasawa_dimensions(iwasawa_H):
    table = cohomology_table(iwasawa_H)
    assert table.entries[(1, 0)]["dbar"] == 3
    assert table.entries[(0, 1)]["dbar"] == 2
    assert table.entries[(0, 2)]["bc"] == 3
    assert table.entries[(1, 1)]["bc"] == 4
    assert table.entries[(1, 1)]["aeppli"] == 8


def test_bc_aeppli_duality(iwasawa_H):
    # h_BC^{p,q} = h_A^{n-p,n-q}
    n = iwasawa_H.n
    table = cohomology_table(iwasawa_H)
    for p in range(n + 1):
        for q in range(n + 1):
            assert (table.entries[(p, q)]["bc"]
                    == table.entries[(n - p, n - q)]["aeppli"])


def test_bc_pq_symmetry(iwasawa_H):
    table = cohomology_table(iwasawa_H)
    n = iwasawa_H.n
    for p in range(n + 1):
        for q in range(n + 1):
            assert table.entries[(p, q)]["bc"] == table.entries[(q, p)]["bc"]


@pytest.mark.parametrize("text", [TORUS_TEXT, IWASAWA_TEXT, SPECTRAL_N2_TEXT],
                         ids=["torus", "iwasawa", "spectral-n2"])
def test_serre_duality(text):
    # h_dbar^{p,q} = h_dbar^{n-p,n-q} on a compact complex manifold (Serre,
    # Un theoreme de dualite, Comment. Math. Helv. 29 (1955)); on Iwasawa
    # it is not the (p,q) <-> (q,p) symmetry, since h^{1,0} = 3, h^{0,1} = 2
    cx = build_complex(parse_model(text))
    H = HermitianStructure(cx, omega=cx.metric_form())
    entries = cohomology_table(H).entries
    n = H.n
    for p in range(n + 1):
        for q in range(n + 1):
            assert entries[(p, q)]["dbar"] == entries[(n - p, n - q)]["dbar"]


def test_dimensions_do_not_depend_on_the_metric(iwasawa_H, rng):
    # the dimensions are invariants of the complex: every metric's harmonic
    # kernel counts give the same table
    reference = cohomology_table(iwasawa_H).entries
    for _ in range(3):
        H = random_hermitian_structure(iwasawa_H.complex, rng, amp=1.0)
        assert cohomology_table(H).entries == reference


def test_cross_checks_recorded(iwasawa_H):
    table = cohomology_table(iwasawa_H)
    assert len(table.cross_checks) > 0
    for name, p, q, a, b in table.cross_checks:
        assert a == b


def test_green_dbar_commutation(iwasawa_cx, rng):
    # dbar* Green_dbar = Green_dbar dbar* on the image of the Laplacian
    H = random_hermitian_structure(iwasawa_cx, rng)
    p, q = 1, 1
    L = coefficient_laplacian(H, "dbar", p, q)
    g = H.complex.random_form(p, q, rng)
    v = type(g)(H.complex.catalog, g.bidegree, L @ g.coeffs)  # in Im Delta
    e_here = green_operator(H, p, q, "dbar")
    e_down = green_operator(H, p, q - 1, "dbar")
    lhs = H.apply_adjoint(
        "dbar", type(g)(H.complex.catalog, g.bidegree, e_here.pinv @ v.coeffs))
    rhs = e_down.pinv @ H.apply_adjoint("dbar", v).coeffs
    assert np.linalg.norm(lhs.coeffs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))


def test_unreliable_kernel_split_recorded(iwasawa_H, monkeypatch):
    # on the standard Iwasawa metric every nonzero Laplacian eigenvalue is
    # 1, 2 or 3; with a cutoff of 0.1 * max(1, top eigenvalue) the
    # eigenvalue 1 sits within 100x of it wherever the Laplacian is nonzero,
    # while the kernel counts stay right.  The complex and metric are built
    # after the patch: the fixture's memos hold counts at the default cutoff.
    n = iwasawa_H.n
    assert cohomology_table(iwasawa_H).unreliable == []
    monkeypatch.setattr(cohomology, "KERNEL_RCOND", 0.1)
    cx = build_complex(parse_model(IWASAWA_TEXT))
    H = HermitianStructure(cx, omega=cx.metric_form())
    table = cohomology_table(H)
    expected = {(which, p, q) for which in ("dbar", "bc")
                for p in range(n + 1) for q in range(n + 1)
                if green_operator(H, p, q, which).eigenvalues.max() > 0.5}
    assert expected and set(table.unreliable) == expected
    assert len(table.unreliable) == len(expected)
    assert table.entries == cohomology_table(iwasawa_H).entries


def test_quotient_ranks_counted_once_per_structure(monkeypatch, rng):
    # Iwasawa with another structure constant, which no fixture holds
    text = IWASAWA_TEXT.replace("-1 *", "-7 *")
    cx = build_complex(parse_model(text))
    calls = []
    rank = cohomology._rank
    monkeypatch.setattr(cohomology, "_rank",
                        lambda *a: calls.append(1) or rank(*a))
    first = cohomology_table(random_hermitian_structure(cx, rng))
    counted = len(calls)
    assert counted > 0
    # a metric on a second complex of the same structure reads the counts
    # of the first
    other = build_complex(parse_model(text))
    second = cohomology_table(random_hermitian_structure(other, rng))
    assert len(calls) == counted
    # every metric still compares its own kernel counts with the ranks
    assert second.entries == first.entries
    assert len(second.cross_checks) == 2 * (cx.n + 1) ** 2
    assert all(a == b for _, _, _, a, b in second.cross_checks)
    # other structure constants: counted again
    cohomology_table(random_hermitian_structure(
        build_complex(parse_model(IWASAWA_TEXT.replace("-1 *", "-9 *"))), rng))
    assert len(calls) == 2 * counted


def test_kernel_count_off_by_one_still_raises(monkeypatch, rng):
    # one side of the (1,1) Bott-Chern comparison, the quotient rank, off
    # by one: the kernel count of the metric no longer equals it
    cx = build_complex(parse_model(IWASAWA_TEXT))
    h_bc = cohomology_table(random_hermitian_structure(cx, rng)).entries[(1, 1)]["bc"]
    quotient_dims = cohomology.quotient_dims

    def off_by_one(cx, p, q):
        h_dbar, h_bc, h_aeppli = quotient_dims(cx, p, q)
        return h_dbar, h_bc + ((p, q) == (1, 1)), h_aeppli

    monkeypatch.setattr(cohomology, "quotient_dims", off_by_one)
    with pytest.raises(CohomologyMismatch,
                       match=rf"^h_bc\(1,1\): kernel {h_bc} vs rank {h_bc + 1}$"):
        cohomology_table(random_hermitian_structure(cx, rng))


def test_green_operator_once_per_metric_and_key(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    ge = green_operator(H, 2, 0, "bc")
    assert green_operator(H, 2, 0, "bc") is ge
    assert green_operator(H, 2, 0, "dbar") is not ge
    other = random_hermitian_structure(iwasawa_cx, rng)
    assert green_operator(other, 2, 0, "bc") is not ge


def test_gram_eig_forms_pinv_and_projector_when_read(iwasawa_cx, rng):
    # the table reads only kernel counts and separation flags
    H = random_hermitian_structure(iwasawa_cx, rng)
    cohomology_table(H)
    ge = green_operator(H, 1, 1, "bc")
    assert "pinv" not in vars(ge) and "kernel_projector" not in vars(ge)
    P = ge.kernel_projector
    assert ge.kernel_projector is P and np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(ge.pinv @ coefficient_laplacian(H, "bc", 1, 1) @ P, 0.0, atol=1e-10)


@pytest.mark.parametrize("rcond", [cohomology.KERNEL_RCOND, 0.1])
def test_unreliable_is_green_operators_separation(rng, rcond, monkeypatch):
    # the table's unreliable splits are exactly the (which, p, q) whose
    # Green operator reports separation_ok False, at the kernel cutoff in
    # force when the complex and its metrics are built
    monkeypatch.setattr(cohomology, "KERNEL_RCOND", rcond)
    cx = build_complex(parse_model(IWASAWA_TEXT))
    n = cx.n
    for H in [HermitianStructure(cx, omega=cx.metric_form())] + [
            random_hermitian_structure(cx, rng, amp=0.5) for _ in range(3)]:
        table = cohomology_table(H)
        expected = {(which, p, q) for which in ("dbar", "bc")
                    for p in range(n + 1) for q in range(n + 1)
                    if not green_operator(H, p, q, which).separation_ok}
        assert set(table.unreliable) == expected
        assert len(table.unreliable) == len(expected)
        assert (rcond == 0.1) == bool(expected)


def test_table_builds_no_green_operator(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    cohomology_table(H)
    assert not [key for key in H._memo if key[0] == "green"]
    # every whitened operator is in the memo; the single-bidegree path reads it
    n = H.n
    assert sum(key[0] == "whitened" for key in H._memo) == 3 * n * n + 2 * n
    ge = green_operator(H, 1, 1, "bc")
    assert np.allclose(ge.eigenvalues,
                       np.linalg.eigvalsh(laplacian_bc(H, 1, 1)), atol=1e-12)


def test_batched_factors_equal_the_single_ones(spectral_cx, iwasawa_cx, rng):
    # whiten_all's batched Cholesky factors, inverses and whitened operators
    # have the bits of chol, chol_inv and whitened, so what a later Green
    # operator or adjoint reads does not depend on whether the table ran
    # first; and it keeps every entry already in the memo
    spectral = HermitianStructure(spectral_cx, omega=spectral_cx.metric_form())
    iwasawa = random_hermitian_structure(iwasawa_cx, rng)
    for H in (spectral, iwasawa):
        single = HermitianStructure(H.complex, omega=H.omega)
        kept = H.chol(1, 1)
        H.whiten_all()
        assert H.chol(1, 1) is kept
        n = H.n
        for p in range(n + 1):
            for q in range(n + 1):
                assert np.array_equal(H.chol(p, q), single.chol(p, q))
                assert H.chol(p, q).flags.f_contiguous
                assert np.array_equal(H.chol_inv(p, q), single.chol_inv(p, q))
                for kind, (dp, dq) in (("del", (1, 0)), ("dbar", (0, 1)),
                                       ("ddbar", (1, 1))):
                    if p + dp <= n and q + dq <= n:
                        assert np.array_equal(H.whitened(kind, p, q),
                                              single.whitened(kind, p, q))


def _total_degree(n):
    """The bidegrees (p, q) of each total degree k = p + q, k = 0..2n."""
    return [[(p, k - p) for p in range(n + 1) if 0 <= k - p <= n] for k in range(2 * n + 1)]


def _betti_numbers(cx):
    """b_k = dim Lambda^k - rank d_k - rank d_{k-1}, k = 0..2n, for the
    total d = del + dbar of the complex on the forms of total degree k."""
    degree = _total_degree(cx.n)

    def block(r, s, p, q):
        if (r, s) == (p + 1, q):
            return cx.del_matrix(p, q)
        if (r, s) == (p, q + 1):
            return cx.dbar_matrix(p, q)
        return np.zeros((cx.dims(r, s), cx.dims(p, q)))

    ranks = [0] + [np.linalg.matrix_rank(np.block(
        [[block(*dst, *src) for src in degree[k]] for dst in degree[k + 1]]))
        for k in range(2 * cx.n)] + [0]
    return [sum(cx.dims(*bd) for bd in bds) - ranks[k] - ranks[k + 1]
            for k, bds in enumerate(degree)]


@pytest.mark.parametrize("text, betti", [
    (TORUS_TEXT, [1, 6, 15, 20, 15, 6, 1]),
    (IWASAWA_TEXT, [1, 4, 8, 10, 8, 4, 1]),
], ids=["torus", "iwasawa"])
def test_frolicher_and_angella_tomassini_inequalities(text, betti):
    # b_k, the rank counts of d = del + dbar, are the de Rham numbers of the
    # nilmanifold, its Lie algebra's cohomology by Nomizu (Ann. Math. 59,
    # 1954).  Frolicher (PNAS 41, 1955): sum_{p+q=k} h_dbar^{p,q} >= b_k.
    # Angella-Tomassini (Invent. Math. 192, 2013): sum_{p+q=k} (h_BC^{p,q}
    # + h_A^{p,q}) >= 2 b_k, with equality for all k exactly when the
    # ddbar-lemma holds.  Both are equalities on the torus and strict on
    # Iwasawa for 0 < k < 6
    cx = build_complex(parse_model(text))
    assert _betti_numbers(cx) == betti
    entries = cohomology_table(HermitianStructure(cx, omega=cx.metric_form())).entries
    n = cx.n
    bidegrees = _total_degree(n)
    dolbeault = [sum(entries[bd]["dbar"] for bd in bds) for bds in bidegrees]
    bc_aeppli = [sum(entries[bd]["bc"] + entries[bd]["aeppli"] for bd in bds)
                 for bds in bidegrees]
    if text == TORUS_TEXT:
        assert dolbeault == betti
        assert bc_aeppli == [2 * b for b in betti]
    else:
        assert dolbeault[1:4] == [5, 11, 14] and betti[1:4] == [4, 8, 10]
        assert bc_aeppli[1:4] == [10, 22, 28]
        for k in range(2 * n + 1):
            strict = 0 < k < 2 * n
            assert (dolbeault[k] > betti[k]) == strict and dolbeault[k] >= betti[k]
            assert (bc_aeppli[k] > 2 * betti[k]) == strict and bc_aeppli[k] >= 2 * betti[k]

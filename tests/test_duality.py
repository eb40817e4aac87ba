import numpy as np
import pytest

from gradflux import (
    Certificate,
    GridSpec,
    ProblemData,
    ScalarField,
    VectorField,
    certify,
    divergence,
    dual_value,
    example1,
    flux,
    gradient,
    norm,
    primal_energy,
)
from gradflux.duality import divergence_residual_l1

EXACT_ENERGY = 79.0 / 36.0  # 13/6 from the weight term plus 1/36 from the forcing


class TestFlux:
    def test_exact_solution_gives_unit_coefficient(self, grid100, prob100):
        fp = flux(prob100.exact_u, prob100)
        assert fp.mask.all()
        assert np.abs(fp.sigma.values - 1.0).max() <= 1e-12
        x, y = grid100.meshgrid()
        assert np.abs(fp.J.x.values - 1.0).max() <= 1e-12
        assert np.abs(fp.J.y.values - (x + y)).max() <= 1e-12

    def test_constant_direction(self):
        g = GridSpec(10)
        p = ProblemData(
            g,
            a=ScalarField.full(g, 1.0),
            F=VectorField.from_arrays(g, np.ones(g.shape), np.zeros(g.shape)),
            H=ScalarField.zeros(g),
        )
        fp = flux(ScalarField.zeros(g), p)
        assert np.allclose(fp.J.x.values, 1.0)
        assert np.allclose(fp.J.y.values, 0.0)
        assert np.allclose(fp.sigma.values, 1.0)

    def test_degenerate_gradient_fully_masked(self):
        g = GridSpec(10)
        p = ProblemData(
            g, a=ScalarField.full(g, 1.0), F=VectorField.zeros(g), H=ScalarField.zeros(g)
        )
        fp = flux(ScalarField.zeros(g), p)
        assert not fp.mask.any()
        assert np.all(fp.J.x.values == 0.0)
        assert np.all(fp.sigma.values == 0.0)

    def test_flux_magnitude_equals_weight_on_mask(self, prob100, solved100):
        fp = flux(solved100.state.u, prob100)
        jmag = np.hypot(fp.J.x.values, fp.J.y.values)
        rel = np.abs(jmag - prob100.a.values)[fp.mask] / prob100.a.values[fp.mask]
        assert rel.max() <= 1e-10
        assert fp.sigma.values.min() >= 0.0


class TestEnergies:
    def test_primal_at_exact_solution(self, prob100):
        e = primal_energy(prob100.exact_u, prob100)
        assert abs(e - EXACT_ENERGY) / EXACT_ENERGY <= 1e-2

    def test_primal_zero_instance(self):
        g = GridSpec(8)
        p = ProblemData(
            g, a=ScalarField.full(g, 1.0), F=VectorField.zeros(g), H=ScalarField.zeros(g)
        )
        assert primal_energy(ScalarField.zeros(g), p) == 0.0

    def test_zero_candidate_upper_bounds_minimum(self, prob100):
        # the all-zero competitor gives the integral of a |F|, above the minimum
        zero_energy = primal_energy(ScalarField.zeros(prob100.grid), prob100)
        assert zero_energy >= primal_energy(prob100.exact_u, prob100)

    def test_dual_at_exact_flux(self, prob100):
        fp = flux(prob100.exact_u, prob100)
        d = dual_value(fp.J, prob100.F)
        assert abs(d - EXACT_ENERGY) / EXACT_ENERGY <= 1e-2

    def test_dual_zero_drift(self, grid100, prob100):
        fp = flux(prob100.exact_u, prob100)
        assert dual_value(fp.J, VectorField.zeros(grid100)) == 0.0

    def test_dual_bilinearity(self, prob100):
        fp = flux(prob100.exact_u, prob100)
        J = VectorField.from_arrays(prob100.grid, 2.5 * fp.J.x.values, 2.5 * fp.J.y.values)
        assert dual_value(J, prob100.F) == pytest.approx(
            2.5 * dual_value(fp.J, prob100.F), rel=1e-12
        )


class TestCertify:
    def test_exact_solution_certificate(self, prob100):
        cert = certify(prob100.exact_u, prob100)
        assert abs(cert.gap) / cert.primal <= 1e-2
        assert cert.flux_bound_violation <= 1e-10
        assert cert.gap == cert.primal - cert.dual

    def test_converged_solution_certificate(self, prob100, solved100):
        cert = certify(solved100.state.u, prob100)
        assert abs(cert.gap) / cert.primal <= 2e-2
        assert cert.el_residual_l1 / norm(prob100.H, "l1") <= 5e-2
        assert cert.flux_bound_violation <= 1e-10

    def test_divergence_residual_of_exact_flux_without_forcing(self, grid100):
        # div(1, x+y) = 1 identically, so against H = 0 the residual is the
        # interior measure of the square
        x, y = grid100.meshgrid()
        J = VectorField.from_arrays(grid100, np.ones(grid100.shape), x + y)
        res = divergence_residual_l1(J, ScalarField.zeros(grid100))
        assert abs(res - 1.0) <= 0.025

    def test_certificate_text_round_trip(self, prob100):
        cert = certify(prob100.exact_u, prob100)
        text = cert.as_text()
        parsed = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(parsed["primal"]) == cert.primal
        assert float(parsed["gap"]) == cert.gap


def _inline_certificate(u, p):
    """flux, primal_energy and certify written out as plain array formulas,
    with the mask at the safeguard 1e-8."""
    G = p.grid
    h = G.h
    g = gradient(u)
    gx, gy = g.x.values + p.F.x.values, g.y.values + p.F.y.values
    mag = np.hypot(gx, gy)
    mask = mag >= 1e-8
    sigma = np.where(mask, p.a.values / np.where(mask, mag, 1.0), 0.0)
    jx, jy = sigma * gx, sigma * gy
    quad = np.ones(G.n + 1)
    quad[[0, -1]], quad[[1, -2]] = 0.0, 1.5
    integral = lambda f: float(h**2 * np.einsum("i,ij,j->", quad, f, quad))
    primal = integral(p.a.values * mag + p.H.values * u.values)
    dual = integral(p.F.x.values * jx + p.F.y.values * jy)
    dx, dy = np.empty_like(jx), np.empty_like(jy)
    dx[1:], dx[0] = (jx[1:] - jx[:-1]) / h, jx[0] / h
    dy[:, 1:], dy[:, 0] = (jy[:, 1:] - jy[:, :-1]) / h, jy[:, 0] / h
    r = np.abs(dx + dy - p.H.values)[1:-1, 1:-1]
    ok = mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[1:-1, :-2]
    el = float(h**2 * np.where(ok, r, 0.0).sum())
    violation = float(np.maximum(np.hypot(jx, jy) - p.a.values, 0.0).max())
    return (jx, jy, sigma, mask), primal, Certificate(primal, dual, primal - dual, el, violation)


@pytest.mark.parametrize("n", [7, 100, 400])
def test_flux_and_certificate_bit_identical_to_inline_formulas(n):
    g = GridSpec(n)
    p = example1(g)
    noise = np.zeros(g.shape)
    noise[1:-1, 1:-1] = np.random.default_rng(n).standard_normal((n - 1, n - 1))
    # a drift F = gradient(phi) and a candidate equal to -phi on a patch, so
    # that grad u + F is exactly zero, and masked, at the patch's inner nodes
    phi = p.exact_u
    drifted = ProblemData(g, a=p.a, F=gradient(phi), H=p.H)
    lo, hi = n // 4, n // 4 + max(3, n // 4)
    patched = phi.values.copy()
    patched[lo:hi, lo:hi] *= -1.0
    cases = [
        (p, p.exact_u),
        (p, ScalarField(g, p.exact_u.values + 0.05 * noise)),
        (drifted, ScalarField(g, patched)),
    ]
    for q, u in cases:
        arrays, primal, cert = _inline_certificate(u, q)
        fp = flux(u, q)
        for mine, ref in zip((fp.J.x.values, fp.J.y.values, fp.sigma.values, fp.mask), arrays):
            assert mine.tobytes() == ref.tobytes()
        assert fp.energy == primal
        assert primal_energy(u, q) == primal
        assert certify(u, q) == cert
    assert not fp.mask[lo + 1, lo + 1]  # fp is the patched case's; an inner node of the patch
    assert fp.sigma.values[lo + 1, lo + 1] == 0.0
    assert fp.J.x.values[lo + 1, lo + 1] == fp.J.y.values[lo + 1, lo + 1] == 0.0


class TestWeakDuality:
    def test_random_candidates_against_feasible_flux(self, grid100, prob100):
        # oracle derivation with all-node sums: for |J| <= a pointwise and any
        # boundary-vanishing w,
        #   sum(a|grad w + F| + H w) >= sum(F.J) - sum_int |div J - H| * |w|_inf
        # up to roundoff, using exact discrete adjointness.
        rng = np.random.default_rng(42)
        h2 = grid100.h**2
        for _ in range(5):
            wv = np.zeros(grid100.shape)
            wv[1:-1, 1:-1] = 0.1 * rng.standard_normal((99, 99))
            w = ScalarField(grid100, wv)
            uv = prob100.exact_u.values * (1 + 0.3 * rng.standard_normal())
            fp = flux(ScalarField(grid100, uv), prob100)
            g = gradient(w) + prob100.F
            primal_all = h2 * (
                prob100.a.values * np.hypot(g.x.values, g.y.values)
                + prob100.H.values * w.values
            ).sum()
            dual_all = h2 * (
                prob100.F.x.values * fp.J.x.values + prob100.F.y.values * fp.J.y.values
            ).sum()
            r_l1 = h2 * np.abs(
                (divergence(fp.J).values - prob100.H.values)[1:-1, 1:-1]
            ).sum()
            slack = r_l1 * np.abs(w.values).max() + 1e-9
            assert primal_all >= dual_all - slack

    def test_gauge_invariance_of_certificate(self):
        # shifting the drift potential by a constant and rebuilding the drift
        # discretely leaves the certificate unchanged (up to roundoff)
        g = GridSpec(40)
        f = ScalarField.from_function(g, lambda x, y: np.sin(x + 2 * y) + x * x)
        base_H = ScalarField.full(g, 1.0)
        a = ScalarField.from_function(g, lambda x, y: 1.5 + 0.5 * np.cos(np.pi * x))
        u = ScalarField.from_function(g, lambda x, y: x * y * (1 - x) * (1 - y))
        certs = []
        for shift in (0.0, 7.25):
            fs = ScalarField(g, f.values + shift)
            p = ProblemData(g, a=a, F=gradient(fs), H=base_H)
            certs.append(certify(u, p))
        c0, c1 = certs
        assert c1.primal == pytest.approx(c0.primal, rel=1e-9)
        assert c1.dual == pytest.approx(c0.dual, rel=1e-9)
        assert c1.el_residual_l1 == pytest.approx(c0.el_residual_l1, rel=1e-6, abs=1e-9)
        assert c1.flux_bound_violation <= 1e-10


def test_certify_peak_stays_bounded(traced_peak):
    """certify holds grad u + F in two arrays, J in the same two, and at most
    three more full-grid arrays (sigma, |grad u + F|, a mask); H u is added
    in blocks of rows, and sigma is freed before the dual is formed."""
    p = example1(GridSpec(200))
    peak = traced_peak(lambda: certify(p.exact_u, p))
    assert peak <= 5.0 * p.exact_u.values.nbytes

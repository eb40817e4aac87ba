import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflux import (
    GridSpec,
    ProblemData,
    ScalarField,
    gradient,
    make_perturbed,
    noise_scalar,
    noise_vector,
    norm,
    perturb_potential,
    perturb_weight,
)
from gradflux.perturb import apply_table1_noise


def frob(a):
    return np.sqrt((a * a).sum())


class TestNoiseScalar:
    def test_zero_level_is_identity(self, prob100):
        out = noise_scalar(prob100.H, 0.0, 3)
        assert out is prob100.H

    @given(delta=st.floats(1e-6, 0.5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_relative_change_equals_level_exactly(self, delta, seed):
        g = GridSpec(12)
        f = ScalarField.from_function(g, lambda x, y: 1.0 + x + y * y)
        out = noise_scalar(f, delta, seed)
        rel = frob(out.values - f.values) / frob(f.values)
        assert rel == pytest.approx(delta, rel=1e-12)

    def test_deterministic_per_seed(self, prob100):
        a = noise_scalar(prob100.a, 0.05, 123)
        b = noise_scalar(prob100.a, 0.05, 123)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ_within_twice_level(self):
        g = GridSpec(20)
        f = ScalarField.full(g, 2.0)
        delta = 0.03
        a = noise_scalar(f, delta, 1)
        b = noise_scalar(f, delta, 2)
        rel = frob(a.values - b.values) / frob(f.values)
        assert 0.0 < rel <= 2 * delta + 1e-15

    def test_zero_field_with_noise_is_error(self):
        g = GridSpec(8)
        with pytest.raises(ValueError, match="noise scale undefined"):
            noise_scalar(ScalarField.zeros(g), 0.1, 0)

    def test_negative_level_rejected(self, prob100):
        with pytest.raises(ValueError, match="noise level must be nonnegative"):
            noise_scalar(prob100.a, -0.1, 0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, prob100, delta):
        with pytest.raises(ValueError, match="noise level must be nonnegative and finite"):
            noise_scalar(prob100.a, delta, 0)
        with pytest.raises(ValueError, match="noise level must be nonnegative and finite"):
            noise_vector(prob100.F, delta, 0)
        with pytest.raises(ValueError, match="noise level must be nonnegative and finite"):
            make_perturbed(prob100, "a", delta, "noise", seed=0)


class TestNoiseVector:
    def test_zero_level_is_identity(self, prob100):
        assert noise_vector(prob100.F, 0.0, 1) is prob100.F

    def test_joint_relative_change_equals_level(self, prob100):
        delta = 0.04
        out = noise_vector(prob100.F, delta, 9)
        num = np.sqrt(
            frob(out.x.values - prob100.F.x.values) ** 2
            + frob(out.y.values - prob100.F.y.values) ** 2
        )
        den = np.sqrt(frob(prob100.F.x.values) ** 2 + frob(prob100.F.y.values) ** 2)
        assert num / den == pytest.approx(delta, rel=1e-12)

    def test_deterministic_per_seed(self, prob100):
        a = noise_vector(prob100.F, 0.02, 77)
        b = noise_vector(prob100.F, 0.02, 77)
        assert np.array_equal(a.x.values, b.x.values)
        assert np.array_equal(a.y.values, b.y.values)


class TestPerturbWeight:
    def test_zero_amplitude_is_identity(self, prob100):
        out = perturb_weight(prob100.a, 0.0, "constant-shift")
        assert np.array_equal(out.values, prob100.a.values)

    def test_constant_shift_moves_bounds(self, prob100):
        out = perturb_weight(prob100.a, 0.02, "constant-shift")
        assert out.values.min() == pytest.approx(1.02)
        assert out.values.max() == pytest.approx(np.sqrt(5.0) + 0.02)
        assert norm(out - prob100.a, "linf") == pytest.approx(0.02, rel=1e-12)

    def test_smooth_bump_attains_sup_at_center(self, prob100):
        out = perturb_weight(prob100.a, 0.02, "smooth-bump")
        diff = out.values - prob100.a.values
        # the center node of an even grid sits at (1/2, 1/2) where the bump is 1
        assert norm(out - prob100.a, "linf") == pytest.approx(0.02, rel=1e-12)
        assert np.argmax(np.abs(diff)) == np.ravel_multi_index((50, 50), diff.shape)

    def test_unknown_mode_rejected(self, prob100):
        with pytest.raises(ValueError):
            perturb_weight(prob100.a, 0.01, "multiplicative")

    def test_negative_shift_near_zero_warns(self):
        g = GridSpec(8)
        a = ScalarField.full(g, 1.0)
        with pytest.warns(UserWarning, match="below half"):
            perturb_weight(a, -0.9, "constant-shift")


class TestPerturbPotential:
    def test_zero_amplitude_identity(self):
        g = GridSpec(16)
        f = ScalarField.from_function(g, lambda x, y: x + y * y)
        f1, F1 = perturb_potential(f, 0.0)
        assert np.array_equal(f1.values, f.values)
        assert np.array_equal(F1.x.values, gradient(f).x.values)

    def test_w11_distance_scales_linearly(self):
        g = GridSpec(20)
        f = ScalarField.from_function(g, lambda x, y: np.cos(x) * y)

        def w11(eps):
            f1, _ = perturb_potential(f, eps)
            diff = f1 - f
            return norm(diff, "l1") + norm(gradient(diff), "l1")

        assert w11(0.08) == pytest.approx(2 * w11(0.04), rel=1e-12)

    def test_perturbed_drift_is_curl_free(self):
        g = GridSpec(24)
        f = ScalarField.from_function(g, lambda x, y: x * x - y)
        _, F1 = perturb_potential(f, 0.37)
        curl = gradient(F1.x).y.values - gradient(F1.y).x.values
        assert np.abs(curl).max() <= 1e-11 / g.h


class TestMakePerturbed:
    def test_measured_sizes_match_norms_of_the_changes(self, prob100):
        eps = 0.03
        pp = make_perturbed(prob100, "combined", eps, "smooth-bump")
        p1 = pp.perturbed
        x, y = prob100.grid.meshgrid()
        df = ScalarField(prob100.grid, eps * np.sin(np.pi * x) * np.sin(np.pi * y))
        expected = {
            "a_linf": np.abs(p1.a.values - prob100.a.values).max(),
            "H_linf": np.abs(p1.H.values - prob100.H.values).max(),
            "F_l1": norm(p1.F - prob100.F, "l1"),
            "f_w11": norm(df, "l1") + norm(gradient(df), "l1"),
        }
        assert pp.measured_sizes.keys() == expected.keys()
        for key, value in expected.items():
            assert pp.measured_sizes[key] == pytest.approx(value, rel=1e-12), key
        # the smooth bump peaks at the center node, so the sup sizes are eps
        assert expected["a_linf"] == pytest.approx(eps, rel=1e-12)
        assert expected["H_linf"] == pytest.approx(eps, rel=1e-12)

    def test_drift_sizes_with_stored_potential(self):
        g = GridSpec(16)
        f = ScalarField.from_function(g, lambda x, y: np.cos(x) * y)
        p = ProblemData(
            g, a=ScalarField.full(g, 1.0), F=gradient(f), H=ScalarField.zeros(g), potential_f=f
        )
        pp = make_perturbed(p, "f", 0.05)
        diff = pp.perturbed.potential_f - f
        assert pp.measured_sizes.keys() == {"F_l1", "f_w11"}
        assert pp.measured_sizes["F_l1"] == pytest.approx(
            norm(pp.perturbed.F - p.F, "l1"), rel=1e-12
        )
        assert pp.measured_sizes["f_w11"] == pytest.approx(
            norm(diff, "l1") + norm(gradient(diff), "l1"), rel=1e-12
        )

    def test_weight_sup_size_matches_amplitude(self, prob100):
        pp = make_perturbed(prob100, "a", 0.015, "constant-shift")
        assert pp.measured_sizes["a_linf"] == pytest.approx(0.015, rel=1e-12)

    def test_conservative_drift_perturbation_without_potential(self, prob100):
        # the benchmark drift has no potential; the perturbation itself is
        # still a discrete gradient
        pp = make_perturbed(prob100, "f", 0.02, "constant-shift")
        dF = pp.perturbed.F - prob100.F
        curl = gradient(dF.x).y.values - gradient(dF.y).x.values
        assert np.abs(curl).max() <= 1e-11 / prob100.grid.h
        assert pp.perturbed.potential_f is None

    def test_conservative_drift_perturbation_with_potential(self):
        g = GridSpec(16)
        f = ScalarField.from_function(g, lambda x, y: x * y)
        p = ProblemData(
            g,
            a=ScalarField.full(g, 1.0),
            F=gradient(f),
            H=ScalarField.zeros(g),
            potential_f=f,
        )
        pp = make_perturbed(p, "f", 0.05)
        assert pp.perturbed.potential_f is not None
        gap = norm(pp.perturbed.F - gradient(pp.perturbed.potential_f), "linf")
        assert gap == 0.0

    def test_noise_mode_needs_seed(self, prob100):
        with pytest.raises(ValueError, match="seed"):
            make_perturbed(prob100, "a", 0.01, "noise")
        with pytest.raises(ValueError, match="scalar data"):
            make_perturbed(prob100, "f", 0.01, "noise", seed=0)

    def test_exact_solution_carried_over(self, prob100):
        pp = make_perturbed(prob100, "H", 0.01, "smooth-bump")
        assert pp.perturbed.exact_u is prob100.exact_u


class TestTable1Noise:
    def test_all_fields_move(self, prob100):
        noisy = apply_table1_noise(prob100, 0.05, seed=4)
        assert norm(noisy.a - prob100.a, "linf") > 0
        assert norm(noisy.H - prob100.H, "linf") > 0
        assert norm(noisy.F - prob100.F, "linf") > 0

    def test_replayable_per_seed(self, prob100):
        a = apply_table1_noise(prob100, 0.03, seed=11)
        b = apply_table1_noise(prob100, 0.03, seed=11)
        assert np.array_equal(a.a.values, b.a.values)
        assert np.array_equal(a.H.values, b.H.values)
        assert np.array_equal(a.F.x.values, b.F.x.values)

    def test_fields_use_independent_streams(self, prob100):
        noisy = apply_table1_noise(prob100, 0.05, seed=0)
        da = noisy.a.values - prob100.a.values
        dh = noisy.H.values - prob100.H.values
        corr = np.corrcoef(da.ravel(), dh.ravel())[0, 1]
        assert abs(corr) < 0.05

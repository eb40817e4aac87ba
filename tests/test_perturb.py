import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradflux import (
    GridSpec,
    ProblemData,
    ProblemDataError,
    ScalarField,
    example1,
    gradient,
    make_perturbed,
    noise_scalar,
    noise_vector,
    norm,
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
        x, y = g.meshgrid()
        f = ScalarField(g, 1.0 + x + y * y)
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
        with pytest.raises(ProblemDataError, match="noise scale undefined"):
            noise_scalar(ScalarField.zeros(g), 0.1, 0)

    def test_negative_level_rejected(self, prob100):
        with pytest.raises(ProblemDataError, match="noise level must be nonnegative"):
            noise_scalar(prob100.a, -0.1, 0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, prob100, delta):
        with pytest.raises(ProblemDataError, match="noise level must be nonnegative and finite"):
            noise_scalar(prob100.a, delta, 0)
        with pytest.raises(ProblemDataError, match="noise level must be nonnegative and finite"):
            noise_vector(prob100.F, delta, 0)
        with pytest.raises(ProblemDataError, match="noise level must be nonnegative and finite"):
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


class TestPerturbPotential:
    # make_perturbed moves a drift through its potential: F + grad_h df
    def test_zero_amplitude_identity(self):
        g = GridSpec(16)
        x, y = g.meshgrid()
        f = ScalarField(g, x + y * y)
        p = ProblemData(g, a=ScalarField.full(g, 1.0), F=gradient(f), H=ScalarField.zeros(g))
        pp = make_perturbed(p, "f", 0.0)
        assert np.array_equal(pp.perturbed.F.x.values, p.F.x.values)
        assert np.array_equal(pp.perturbed.F.y.values, p.F.y.values)
        assert pp.measured_sizes["F_l1"] == 0.0


class TestMakePerturbed:
    def test_measured_sizes_match_norms_of_the_changes(self, prob100):
        eps = 0.03
        pp = make_perturbed(prob100, "combined", eps, "smooth-bump")
        p1 = pp.perturbed
        expected = {
            "a_linf": np.abs(p1.a.values - prob100.a.values).max(),
            "H_linf": np.abs(p1.H.values - prob100.H.values).max(),
            "F_l1": norm(p1.F - prob100.F, "l1"),
        }
        assert pp.measured_sizes.keys() == expected.keys()
        for key, value in expected.items():
            assert pp.measured_sizes[key] == pytest.approx(value, rel=1e-12), key
        # the smooth bump peaks at the center node, so the sup sizes are eps
        assert expected["a_linf"] == pytest.approx(eps, rel=1e-12)
        assert expected["H_linf"] == pytest.approx(eps, rel=1e-12)

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

    def test_drift_sizes_with_stored_potential(self):
        # the base drift is the gradient of a potential f; the size is
        # that of the change grad df, whatever the base drift
        g = GridSpec(16)
        x, y = g.meshgrid()
        f = ScalarField(g, np.cos(x) * y)
        p = ProblemData(g, a=ScalarField.full(g, 1.0), F=gradient(f), H=ScalarField.zeros(g))
        pp = make_perturbed(p, "f", 0.05)
        assert pp.measured_sizes.keys() == {"F_l1"}
        assert pp.measured_sizes["F_l1"] == pytest.approx(
            norm(pp.perturbed.F - p.F, "l1"), rel=1e-12
        )

    def test_conservative_drift_perturbation_with_potential(self):
        # a drift F = grad f moves to grad(f + df), up to roundoff
        g = GridSpec(16)
        x, y = g.meshgrid()
        f = ScalarField(g, x * y)
        p = ProblemData(g, a=ScalarField.full(g, 1.0), F=gradient(f), H=ScalarField.zeros(g))
        pp = make_perturbed(p, "f", 0.05)
        df = ScalarField(g, 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y))
        moved = gradient(ScalarField(g, f.values + df.values))
        assert norm(pp.perturbed.F - moved, "linf") <= 1e-13

    def test_weight_no_longer_positive_rejected(self):
        # example1's weight has its minimum 1 at the origin
        p = example1(GridSpec(16))
        with pytest.raises(ProblemDataError, match=r"^example1\+a at eps = -1: .* minimum is 0$"):
            make_perturbed(p, "a", -1.0, "constant-shift")
        with pytest.raises(
            ProblemDataError, match=r"^example1\+a at eps = 0.4, seed = 0: .* minimum is -0.467388$"
        ):
            make_perturbed(p, "a", 0.4, "noise", seed=0)

    def test_noise_mode_needs_seed(self, prob100):
        with pytest.raises(ValueError, match="seed"):
            make_perturbed(prob100, "a", 0.01, "noise")
        with pytest.raises(ValueError, match="scalar data"):
            make_perturbed(prob100, "f", 0.01, "noise", seed=0)

    def test_perturbed_instances_have_no_exact_solution(self, prob100):
        # the base's minimizer is not the perturbed instance's
        pp = make_perturbed(prob100, "H", 0.01, "smooth-bump")
        assert pp.perturbed.exact_u is None
        assert apply_table1_noise(prob100, 0.01, seed=0).exact_u is None


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

    def test_noised_weight_below_zero_rejected(self):
        with pytest.raises(ProblemDataError) as info:
            apply_table1_noise(example1(GridSpec(16)), 0.5, seed=0)
        assert str(info.value) == (
            "example1+noise: the weight must be positive at every node, "
            "but its minimum is -1.03287"
        )

    def test_fields_use_independent_streams(self, prob100):
        noisy = apply_table1_noise(prob100, 0.05, seed=0)
        da = noisy.a.values - prob100.a.values
        dh = noisy.H.values - prob100.H.values
        corr = np.corrcoef(da.ravel(), dh.ravel())[0, 1]
        assert abs(corr) < 0.05

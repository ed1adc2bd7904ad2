import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsqueeze.bath import bath_from_params
from magsqueeze.couplings import build_couplings
from magsqueeze.dynamics import build_generator, evolve, steady_state
from magsqueeze.observables import (
    collective_spin,
    initial_state,
    perpendicular_frame,
    relaxation_rate,
    wineland_xi2,
)
from magsqueeze.operators import collective_spin_ops
from magsqueeze.params import ArrayGeometry, PhysicalParams

from oracles import four_channel_generator

P = PhysicalParams()


def generator_for(n, a, r):
    bs = bath_from_params(P, r_override=r)
    return build_generator(build_couplings(ArrayGeometry.chain(n, a), P, bs))


def rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def rotate_state(rho, n, axis, angle):
    sx, sy, sz = collective_spin_ops(n)
    gen = 0.5 * (axis[0] * sx + axis[1] * sy + axis[2] * sz) / np.linalg.norm(axis)
    vals, vecs = np.linalg.eigh(gen)
    u = vecs @ np.diag(np.exp(-1j * angle * vals)) @ vecs.conj().T
    return u @ rho @ u.conj().T


class TestCollectiveSpin:
    def test_all_down(self):
        assert np.allclose(collective_spin(initial_state("all_ground", 4)), [0, 0, -4])

    def test_all_up(self):
        assert np.allclose(collective_spin(initial_state("all_excited", 2)), [0, 0, 2])

    def test_maximally_mixed(self):
        rho = np.eye(8, dtype=complex) / 8
        assert np.allclose(collective_spin(rho), [0, 0, 0], atol=1e-12)

    def test_css_direction(self):
        s = initial_state("css", 3, theta=np.pi / 2, phi=0.0)
        assert np.allclose(collective_spin(s), [3, 0, 0], atol=1e-12)
        s = initial_state("css", 2, theta=np.pi / 3, phi=np.pi / 4)
        expect = 2 * np.array(
            [np.sin(np.pi / 3) * np.cos(np.pi / 4),
             np.sin(np.pi / 3) * np.sin(np.pi / 4),
             np.cos(np.pi / 3)]
        )
        assert np.allclose(collective_spin(s), expect, atol=1e-12)

    @pytest.mark.parametrize("rho", [
        pytest.param(np.eye(3) / 3, id="side-3"),
        pytest.param(np.eye(1), id="side-1"),
        pytest.param(np.zeros((4, 2)), id="not-square"),
        pytest.param(np.ones(4) / 4, id="vector"),
        pytest.param(np.ones((2, 0, 0)), id="empty-stack"),
    ])
    def test_malformed_array_rejected(self, rho):
        # fail closed, not numpy's reshape error or a silent [0, 0, 0]
        with pytest.raises(ValueError, match=re.escape(f"shape {rho.shape}")):
            collective_spin(rho)

    def test_non_hermitian_state_rejected(self):
        # <S_x> and <S_y> of a non-Hermitian matrix have imaginary parts
        with pytest.raises(ValueError, match="came out complex"):
            collective_spin(np.array([[1, 1j], [0, 0]]))


class TestWineland:
    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.05, max_value=np.pi - 0.05),
        st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @settings(max_examples=25, deadline=None)
    def test_css_has_unit_xi2(self, n, theta, phi):
        s = initial_state("css", n, theta=theta, phi=phi)
        summary = wineland_xi2(s)
        assert summary.xi_r_squared == pytest.approx(1.0, abs=1e-10)
        assert summary.min_perp_var == pytest.approx(n, abs=1e-10)

    def test_vanishing_mean_spin_raises(self):
        rho = np.eye(4, dtype=complex) / 4
        assert wineland_xi2(rho).xi_r_squared == np.inf

    def test_non_positive_variance_has_no_xi2(self):
        # a Hermitian, unit-trace but non-positive matrix: <S_z> = 0.4 and
        # <sigma_x sigma_x> = <sigma_y sigma_y> = -1.2, so Var(S_x) = Var(S_y)
        # = -0.4; xi_R^2 is undefined there, as in a trajectory's columns
        up_up, down_down = np.diag([1.0, 0, 0, 0]), np.diag([0, 0, 0, 1.0])
        singlet = np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2
        triplet = np.outer([0, 1, 1, 0], [0, 1, 1, 0]) / 2
        rho = 1.1 * singlet - 0.1 * triplet + 0.1 * (up_up - down_down)
        summary = wineland_xi2(rho)
        assert summary.mean_spin == pytest.approx([0.0, 0.0, 0.4], abs=1e-14)
        assert summary.min_perp_var == pytest.approx(-0.4, abs=1e-14)
        assert summary.xi_r_squared == np.inf

    def test_rotation_about_mean_axis_invariance(self):
        gen = generator_for(2, 0.5, 0.25)
        rho = steady_state(gen).rho
        base = wineland_xi2(rho)
        axis = base.mean_spin / np.linalg.norm(base.mean_spin)
        rng = np.random.default_rng(9)
        for angle in rng.uniform(0, 2 * np.pi, 6):
            rot = rotate_state(rho, 2, axis, angle)
            assert wineland_xi2(rot).xi_r_squared == pytest.approx(
                base.xi_r_squared, abs=1e-8
            )

    def test_global_rotation_covariance(self):
        # rotating the state rotates the mean spin but leaves xi2 unchanged
        gen = generator_for(3, 0.6, 0.3)
        rho = steady_state(gen).rho
        base = wineland_xi2(rho)
        rot = rotate_state(rho, 3, [0, 1, 0], 0.7)
        got = wineland_xi2(rot)
        assert got.xi_r_squared == pytest.approx(base.xi_r_squared, abs=1e-8)
        assert np.allclose(
            got.mean_spin, rotation([0, 1, 0], 0.7) @ base.mean_spin, atol=1e-8
        )

    def test_min_variance_matches_angular_scan(self):
        gen = generator_for(2, 0.5, 0.25)
        rho = steady_state(gen).rho
        summary = wineland_xi2(rho)
        e1, e2 = perpendicular_frame(summary.mean_spin)
        sx, sy, sz = collective_spin_ops(2)
        scan = []
        for ang in np.linspace(0, np.pi, 720, endpoint=False):
            e = np.cos(ang) * e1 + np.sin(ang) * e2
            op = e[0] * sx + e[1] * sy + e[2] * sz
            m = np.real(np.trace(rho @ op))
            scan.append(np.real(np.trace(rho @ (op @ op))) - m * m)
        assert summary.min_perp_var == pytest.approx(min(scan), abs=1e-9)

    def test_angle_points_at_minimum(self):
        gen = generator_for(2, 0.5, 0.25)
        rho = steady_state(gen).rho
        summary = wineland_xi2(rho)
        e1, e2 = perpendicular_frame(summary.mean_spin)
        e = np.cos(summary.squeezing_angle) * e1 + np.sin(summary.squeezing_angle) * e2
        sx, sy, sz = collective_spin_ops(2)
        op = e[0] * sx + e[1] * sy + e[2] * sz
        m = np.real(np.trace(rho @ op))
        var = np.real(np.trace(rho @ (op @ op))) - m * m
        assert var == pytest.approx(summary.min_perp_var, abs=1e-10)

    def test_convention_invariance(self):
        # recomputing with spin-1/2 operators (S/2) leaves xi2 unchanged
        gen = generator_for(2, 0.5, 0.25)
        rho = steady_state(gen).rho
        summary = wineland_xi2(rho)
        spin = 0.5 * summary.mean_spin
        e1, e2 = perpendicular_frame(spin)
        sx, sy, sz = (0.5 * s for s in collective_spin_ops(2))
        s1 = e1[0] * sx + e1[1] * sy + e1[2] * sz
        s2 = e2[0] * sx + e2[1] * sy + e2[2] * sz
        cov = np.empty((2, 2))
        ms = [np.real(np.trace(rho @ s1)), np.real(np.trace(rho @ s2))]
        cov[0, 0] = np.real(np.trace(rho @ (s1 @ s1))) - ms[0] ** 2
        cov[1, 1] = np.real(np.trace(rho @ (s2 @ s2))) - ms[1] ** 2
        cov[0, 1] = cov[1, 0] = (
            0.5 * np.real(np.trace(rho @ (s1 @ s2 + s2 @ s1))) - ms[0] * ms[1]
        )
        xi2_half = 2 * np.min(np.linalg.eigvalsh(cov)) / np.dot(spin, spin)
        assert xi2_half == pytest.approx(summary.xi_r_squared, rel=1e-10)

    def test_frame_construction_deterministic(self):
        e1, e2 = perpendicular_frame([0.0, 0.0, -1.0])
        assert np.allclose(e1, [1, 0, 0])
        assert np.allclose(e2, [0, -1, 0])
        e1, e2 = perpendicular_frame([1.0, 0.0, 0.0])  # x-parallel fallback
        assert abs(np.dot(e1, [1, 0, 0])) < 1e-12


class TestRelaxationRate:
    def test_steady_state_rate_is_zero(self):
        gen = generator_for(2, 0.5, 0.25)
        ss = steady_state(gen)
        assert relaxation_rate(ss, gen) == pytest.approx(0.0, abs=1e-12)

    def test_uncorrelated_excited_rate_is_one(self):
        gen = generator_for(3, 1e4, 0.0)
        s = initial_state("all_excited", 3)
        assert relaxation_rate(s, gen) == pytest.approx(1.0, abs=1e-6)

    def test_correlated_burst_exceeds_uncorrelated(self):
        t = np.linspace(0.0, 5.0, 200)
        corr = evolve(initial_state("all_excited", 4), generator_for(4, 0.4, 0.0), t)
        unc = evolve(initial_state("all_excited", 4), generator_for(4, 1e3, 0.0), t)
        i_peak = np.argmax(corr.relaxation)
        assert corr.relaxation[i_peak] > unc.relaxation[i_peak]

    def test_rate_integrates_to_excitation_lost(self):
        gen = generator_for(2, 0.5, 0.3)
        t = np.linspace(0.0, 60.0, 1200)
        traj = evolve(initial_state("all_excited", 2), gen, t)
        integral = np.trapezoid(traj.relaxation, t)
        lost = (traj.mean_spin[0, 2] - traj.mean_spin[-1, 2]) / (2 * 2)
        assert integral == pytest.approx(lost, rel=1e-3)


class TestTrajectoryColumns:
    @pytest.mark.parametrize("build", [
        pytest.param(build_generator, id="jump_operator"),
        pytest.param(four_channel_generator, id="four_channel")])
    def test_columns_match_single_state_functions(self, build):
        bs = bath_from_params(P, r_override=0.25)
        gen = build(build_couplings(ArrayGeometry.chain(3, 0.5), P, bs))
        t = np.linspace(0.0, 10.0, 41)
        traj = evolve(initial_state("all_excited", 3), gen, t, keep_states=True)
        for i, state in enumerate(traj.states):
            assert np.max(np.abs(traj.mean_spin[i] - collective_spin(state))) < 1e-12
            assert abs(traj.relaxation[i] - relaxation_rate(state, gen)) < 1e-12
            summary = wineland_xi2(state)
            assert abs(traj.min_perp_var[i] - summary.min_perp_var) < 1e-12
            assert traj.inv_xi2[i] == pytest.approx(1.0 / summary.xi_r_squared, rel=1e-12)

    def test_maximally_mixed_start_has_no_squeezing(self):
        rho = np.eye(4, dtype=complex) / 4
        traj = evolve(rho, generator_for(2, 0.5, 0.25), np.array([0.0, 1.0]), keep_states=True)
        assert traj.inv_xi2[0] == 0.0
        assert wineland_xi2(traj.states[0]).xi_r_squared == np.inf


class TestInitialStates:
    def test_all_ground_single(self):
        s = initial_state("all_ground", 1)
        assert np.array_equal(s.rho, np.diag([0.0, 1.0]).astype(complex))

    def test_all_excited_pure(self):
        s = initial_state("all_excited", 3)
        assert np.trace(s.rho @ s.rho).real == pytest.approx(1.0, abs=1e-14)

    def test_css_equator(self):
        s = initial_state("css", 2, theta=np.pi / 2, phi=0.0)
        assert np.allclose(collective_spin(s), [2, 0, 0], atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            initial_state("nope", 2)
        with pytest.raises(ValueError):
            initial_state("css", 2)
        with pytest.raises(ValueError):
            initial_state("all_ground", 0)

    @pytest.mark.parametrize("n", [9, 10 ** 6])
    def test_qubit_limit_before_any_allocation(self, monkeypatch, n):
        def no_kron(*args):
            raise AssertionError("a 2^n product state was built")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(ValueError, match="n_qubits"):
            initial_state("all_excited", n)

    @pytest.mark.parametrize("theta, phi", [
        (np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan), (0.5, -np.inf),
    ])
    def test_css_rejects_non_finite_angles(self, theta, phi):
        with pytest.raises(ValueError, match="finite"):
            initial_state("css", 2, theta=theta, phi=phi)

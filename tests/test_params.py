import warnings

import numpy as np
import pytest

from magsqueeze.errors import ConfigError
from magsqueeze.params import (
    ArrayGeometry,
    PhysicalParams,
    apply_overrides,
    config_from_values,
    load_config,
    parse_config_text,
    serialize_config,
)


@pytest.fixture
def defaults():
    return PhysicalParams(), ArrayGeometry.chain(2, 0.5)


class TestDefaults:
    def test_material_table(self):
        p = PhysicalParams()
        assert p.film_thickness_L == 20.0
        assert p.spin_stiffness_D == 5.1e-28
        assert p.surface_spin_density_s == 1.2e-10
        assert p.magnetoelastic_Bxy == 1988.0
        assert p.zero_field_splitting_D0 == 2.87
        assert p.nu_characteristic == 75.0

    def test_angular_conversion_is_2pi(self):
        p = PhysicalParams()
        assert p.detuning_angular == pytest.approx(2 * np.pi * 100e6)
        assert p.bandwidth_angular == pytest.approx(2 * np.pi * 0.25e6)
        assert p.zero_field_splitting_angular == pytest.approx(2 * np.pi * 2.87e9)

    def test_derived_geometry_units(self):
        p = PhysicalParams()
        assert p.thickness_cm == pytest.approx(20e-7)
        assert p.lattice_cm == pytest.approx(12.3e-8)
        assert p.site_density == pytest.approx(1.0 / (12.3e-8) ** 3)

    def test_omega_q_sits_above_gap(self):
        p = PhysicalParams()
        assert p.omega_q == p.spin_wave_gap + p.detuning_angular


class TestValidation:
    def test_zero_detuning_rejected(self):
        with pytest.raises(ConfigError, match="omega_q <= Delta_F"):
            PhysicalParams(detuning_wq_minus_DF=0.0)

    def test_negative_detuning_rejected(self):
        with pytest.raises(ConfigError, match="not supported"):
            PhysicalParams(detuning_wq_minus_DF=-5.0)

    @pytest.mark.parametrize(
        "field", ["film_thickness_L", "nu_characteristic", "squeeze_bandwidth_Dbar"]
    )
    def test_nonpositive_quantities_rejected(self, field):
        with pytest.raises(ConfigError, match="positive"):
            PhysicalParams(**{field: 0.0})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nu_characteristic", np.inf),       # strictly positive
            ("strain_Exy", np.nan),              # non-negative
            ("qubit_film_distance_d", np.inf),   # non-negative
            ("detuning_wq_minus_DF", np.inf),    # positive detuning
        ],
    )
    def test_nonfinite_quantities_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            PhysicalParams(**{field: value})


class TestConfigParsing:
    def test_empty_config_gives_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing but a comment\n")
        params, geometry = load_config(cfg)
        assert params == PhysicalParams()
        assert geometry.n_qubits == 2
        assert geometry.lattice_const_a_over_lambda == 0.5

    def test_geometry_chain(self, tmp_path):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("n_qubits = 2\na_over_lambda = 0.5\n")
        _, geometry = load_config(cfg)
        assert np.allclose(geometry.positions, [[0.0, 0.0], [0.5, 0.0]])

    def test_unknown_key_fails_closed(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("detuning_MHz = 100\nbogus_key = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("L_nm = 20\nL_nm = 21\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("L_nm = twenty\n")

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigError, match="missing value"):
            parse_config_text("L_nm =\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("n_qubits 3")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "does_not_exist.cfg")

    def test_zero_detuning_via_config(self):
        with pytest.raises(ConfigError, match="omega_q <= Delta_F"):
            config_from_values(parse_config_text("detuning_MHz = 0\n"))

    def test_drive_key_at_resonance_accepted(self):
        p = PhysicalParams()
        want = 2.0 * p.omega_q / (2 * np.pi * 1e6)
        params, _ = config_from_values({"omega_s_MHz": want})
        assert params == p  # never stored

    def test_drive_key_off_resonance_rejected(self):
        with pytest.raises(ConfigError, match="pair-resonance"):
            config_from_values({"omega_s_MHz": 1234.5})


class TestRoundTrip:
    def test_default_round_trip_bit_identical(self, defaults):
        params, geometry = defaults
        text = serialize_config(params, geometry)
        params2, geometry2 = config_from_values(parse_config_text(text))
        assert params2 == params
        assert np.array_equal(geometry2.positions, geometry.positions)

    def test_awkward_floats_round_trip(self):
        params = PhysicalParams(
            detuning_wq_minus_DF=100.0 / 3.0,
            spin_stiffness_D=5.1e-28 * (1 + 1e-15),
            nu_characteristic=74.99999999999999,
        )
        geometry = ArrayGeometry.chain(3, 1.0 / 3.0)
        text = serialize_config(params, geometry)
        params2, geometry2 = config_from_values(parse_config_text(text))
        assert params2 == params
        assert np.array_equal(geometry2.positions, geometry.positions)

    def test_non_chain_geometry_refused(self, defaults):
        triangle = ArrayGeometry(
            positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(0.75)]])
        )
        with pytest.raises(ConfigError, match="chain"):
            serialize_config(defaults[0], triangle)


class TestGeometry:
    def test_single_qubit(self):
        g = ArrayGeometry.chain(1, 0.5)
        assert g.n_qubits == 1
        assert g.separations().shape == (1, 1)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ConfigError, match="coincident"):
            ArrayGeometry(positions=np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_nonpositive_chain_constants(self):
        with pytest.raises(ConfigError):
            ArrayGeometry.chain(0, 0.5)
        with pytest.raises(ConfigError):
            ArrayGeometry.chain(2, 0.0)

    @pytest.mark.parametrize("a_over_lambda", [np.inf, np.nan])
    def test_nonfinite_chain_constant_rejected(self, a_over_lambda):
        with pytest.raises(ConfigError):
            ArrayGeometry.chain(2, a_over_lambda)

    def test_nonfinite_positions_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ArrayGeometry(positions=np.array([[0.0, 0.0], [np.inf, 0.0]]))
        with pytest.raises(ConfigError, match="lattice_const_a_over_lambda"):
            ArrayGeometry(positions=np.zeros((1, 2)), lattice_const_a_over_lambda=np.nan)

    def test_positions_not_in_the_plane_rejected(self):
        with pytest.raises(ConfigError, match=r"\(N, 2\)"):
            ArrayGeometry(positions=np.zeros((3, 3)))

    @pytest.mark.parametrize("positions", [
        [[0.0, 0.0], [1e160, 0.0]],
        [[-1e308, 0.0], [1e308, 0.0]],
        [[1e308, -1e308], [-1e308, 1e308], [0.0, 0.0]],
    ])
    def test_overflowing_separations_rejected(self, positions):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="separations"):
                ArrayGeometry(positions=np.array(positions))

    def test_separations_symmetric(self):
        rng = np.random.default_rng(5)
        g = ArrayGeometry(positions=rng.uniform(0, 3, size=(5, 2)))
        sep = g.separations()
        assert np.array_equal(sep, sep.T)
        assert np.all(np.diag(sep) == 0)

    def test_digest_tracks_layout(self):
        a = ArrayGeometry.chain(2, 0.5)
        b = ArrayGeometry.chain(2, 0.6)
        assert a.digest() != b.digest()
        assert a.digest() == ArrayGeometry.chain(2, 0.5).digest()


class TestOverrides:
    def test_override_applies(self, defaults):
        params, geometry = apply_overrides(*defaults, ["detuning_MHz=400", "n_qubits=3"])
        assert params.detuning_wq_minus_DF == 400.0
        assert geometry.n_qubits == 3

    def test_unknown_override_rejected(self, defaults):
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides(*defaults, ["nope=1"])

    def test_empty_override_value_rejected(self, defaults):
        with pytest.raises(ConfigError, match="missing value"):
            apply_overrides(*defaults, ["detuning_MHz="])

    # an override has no comments: '#' is part of the value
    @pytest.mark.parametrize("override", ["n_qubits=3.0", "detuning_MHz=400#x"])
    def test_bad_override_value_rejected(self, defaults, override):
        with pytest.raises(ConfigError, match="bad value"):
            apply_overrides(*defaults, [override])

    def test_malformed_override_rejected(self, defaults):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(*defaults, ["detuning_MHz"])

"""Phase-gate example: the sine state's amplitudes, its dephasing factor
kappa against the closed form, the closed-form report against mpmath, the
reported Choi infidelity against a quadrature of the outcome density, the direct
diamond search, mesh vs quantum error."""

import cmath
import math

import numpy as np
import pytest

import gateprog.phase as phase
from gateprog.phase import classical_phase_error, diamond_distance_search, phase_report
from gateprog.protocol import ProtocolError, sine_amplitudes


def dephasing_error_exact(d_p: int) -> float:
    """Independent closed form for the diamond distance of the sine protocol."""
    return (d_p - 1) * (1.0 - math.cos(math.pi / d_p)) / d_p


def sine_kappa(d_p: int) -> float:
    """Dephasing factor of the sine state: the lag-1 autocorrelation of its amplitudes."""
    a = sine_amplitudes(d_p)
    return math.fsum(a[:-1] * a[1:])


def kraus_difference(kappa: float, rho: np.ndarray) -> np.ndarray:
    """((E - I) (x) I)(rho) from the dephasing channel's Kraus form, system index first:
    (1 + kappa)/2 rho + (1 - kappa)/2 (Z (x) I) rho (Z (x) I) - rho."""
    z = np.diag([1.0, 1.0, -1.0, -1.0])
    return (1.0 + kappa) / 2.0 * rho + (1.0 - kappa) / 2.0 * (z @ rho @ z) - rho


def entangled_trace_norm(kappa: float) -> float:
    """Output trace norm at the maximally entangled input (|00> + |11>)/sqrt(2),
    through the Kraus form and eigvalsh only."""
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return float(np.abs(np.linalg.eigvalsh(kraus_difference(kappa, np.outer(psi, psi)))).sum())


def search_rounds(monkeypatch, kappa: float):
    """The search's result and each round's values of its 33 inputs.  _difference is
    called on psi psi* and on U in turn, so its even calls hold the output
    differences of each round's inputs."""
    outputs = []
    original = phase._difference

    def difference(k, rho):
        outputs.append(original(k, rho))
        return outputs[-1]

    monkeypatch.setattr(phase, "_difference", difference)
    result = diamond_distance_search(kappa)
    return result, np.array([np.abs(np.linalg.eigh(d)[0]).sum(axis=1) for d in outputs[::2]])


class TestSineState:
    def test_two_levels(self):
        assert sine_amplitudes(2) == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-15)

    def test_three_levels(self):
        c = sine_amplitudes(3)
        raw = [math.sin(math.pi / 6), math.sin(math.pi / 2), math.sin(5 * math.pi / 6)]
        norm = math.sqrt(sum(x * x for x in raw))
        assert c == pytest.approx([x / norm for x in raw], abs=1e-15)

    @pytest.mark.parametrize("d_p", [2, 3, 7, 64, 301])
    def test_normalized(self, d_p):
        assert math.fsum(sine_amplitudes(d_p) ** 2) == pytest.approx(1.0, abs=1e-14)
        assert min(sine_amplitudes(d_p)) > 0.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ProtocolError, match="only normalized for N >= 2"):
            sine_amplitudes(1)

    @pytest.mark.parametrize("d_p", [2, 5, 64])
    def test_squared_amplitudes_are_the_sine_profile(self, d_p):
        m = np.arange(d_p)
        profile = (2.0 / d_p) * np.sin(math.pi * (m + 0.5) / d_p) ** 2
        assert sine_amplitudes(d_p) ** 2 == pytest.approx(profile, rel=1e-15)

    def test_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            sine_amplitudes(4)[0] = 1.0


class TestClassicalError:
    def test_values(self):
        assert classical_phase_error(1) == pytest.approx(1.0, abs=1e-15)
        assert classical_phase_error(2) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)

    def test_inverse_dimension_asymptote(self):
        d_p = 100
        ratio = classical_phase_error(d_p) / (math.pi / (2 * d_p))
        assert abs(ratio - 1.0) <= 1e-3

    def test_cross_checked_forms_over_a_range(self):
        # the cosine form cancels near 1, which inflates its rounding error by a
        # factor 1/(4 sin(pi/(2 dP))); its tolerance includes that floor
        for d_p in range(1, 600):
            value = classical_phase_error(d_p)
            chord = abs(1.0 - cmath.exp(1j * math.pi / d_p)) / 2.0
            via_cos = math.sqrt((1.0 - math.cos(math.pi / d_p)) / 2.0)
            assert abs(value - chord) <= 1e-15
            assert abs(value - via_cos) <= 1e-15 + 2.5e-16 / (4.0 * value)


class TestChoiInfidelity:
    def test_two_levels(self):
        assert phase_report(2).choi_infidelity == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("d_p", [2, 5, 32, 200])
    def test_quadrature_cross_check(self, d_p):
        # integrate p(theta) sin^2(theta/2), p = |sum_m c_m e^{i m theta}|^2 / (2 pi),
        # on a grid fine enough to be exact
        count = 8 * (d_p + 2)
        grid = np.arange(count) * 2 * math.pi / count
        amplitude = np.exp(1j * np.outer(grid, np.arange(d_p))) @ sine_amplitudes(d_p)
        integral = float(np.mean(np.abs(amplitude) ** 2 * np.sin(grid / 2.0) ** 2))
        assert abs(integral - phase_report(d_p).choi_infidelity) <= 1e-12

    def test_inverse_square_scaling(self):
        dps = [16, 32, 64, 128, 256]
        values = [phase_report(dp).choi_infidelity for dp in dps]
        slope = float(np.polyfit(np.log(dps), np.log(values), 1)[0])
        assert abs(slope + 2.0) <= 0.05


class TestQuantumError:
    def test_matches_dephasing_closed_form(self):
        for d_p in range(2, 601):
            assert 1.0 - sine_kappa(d_p) == pytest.approx(dephasing_error_exact(d_p), abs=1e-12)

    @pytest.mark.parametrize("d_p", [2, 4, 16, 64, 128, 256])
    def test_search_matches_closed_form(self, d_p):
        kappa = sine_kappa(d_p)
        result = diamond_distance_search(kappa)
        assert result.value == pytest.approx(dephasing_error_exact(d_p), rel=1e-12)
        assert entangled_trace_norm(kappa) >= result.value - 1e-9

    def test_log_log_slope(self):
        dps = [16, 23, 32, 45, 64, 91, 128]
        errors = [phase_report(dp).eps_quantum for dp in dps]
        slope = float(np.polyfit(np.log(dps), np.log(errors), 1)[0])
        assert abs(slope + 2.0) <= 0.1

    @pytest.mark.parametrize("d_p", [32, 64])
    def test_asymptote_ratio_window(self, d_p):
        ratio = phase_report(d_p).eps_quantum * 2 * d_p * d_p / math.pi**2
        assert 0.5 <= ratio <= 2.0

    def test_beats_classical_from_dp4(self):
        for d_p in list(range(4, 33)) + [64, 128]:
            assert phase_report(d_p).eps_quantum < classical_phase_error(d_p)

    def test_choi_never_exceeds_diamond(self):
        for d_p in (2, 4, 8, 32, 128):
            report = phase_report(d_p)
            assert report.choi_infidelity <= report.eps_quantum + 1e-12

    @pytest.mark.parametrize("kappa", [0.2, 0.9997])
    def test_difference_is_the_kraus_form_minus_the_identity(self, kappa):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
        rho = g + g.conj().transpose(0, 2, 1)
        error = np.abs(phase._difference(kappa, rho) - kraus_difference(kappa, rho))
        assert error.max() <= 1e-15 * np.abs(rho).max()

    @pytest.mark.parametrize("kappa", [0.2, 0.9997])
    def test_search_beats_every_sampled_input(self, kappa):
        # a sampled lower bound on the maximum, through the Kraus form and eigvalsh only
        rng = np.random.default_rng(5)
        psi = rng.standard_normal((10_000, 4)) + 1j * rng.standard_normal((10_000, 4))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        outputs = kraus_difference(kappa, psi[:, :, None] * psi[:, None, :].conj())
        sampled = np.abs(np.linalg.eigvalsh(outputs)).sum(axis=1).max()
        assert diamond_distance_search(kappa).value >= sampled

    @pytest.mark.parametrize("kappa", [0.2, 0.9997])
    def test_every_start_ends_at_least_where_it_began(self, monkeypatch, kappa):
        result, rounds = search_rounds(monkeypatch, kappa)
        assert rounds.shape[1] == len(result.start_values) == 33
        assert 2 <= len(rounds) <= 10
        assert np.all(np.array(result.start_values) >= rounds[0])
        # each round is an ascent step, up to the rounding of one eigendecomposition
        assert np.all(np.diff(rounds, axis=0) >= -1e-14 * rounds[1:])
        # the random starts begin well below the maximum, and all of them reach it
        assert rounds[0].min() < 0.9 * result.value
        assert result.spread <= 1e-9

    @pytest.mark.parametrize("kappa", [0.2, 0.9997])
    def test_no_start_begins_on_the_maximum(self, monkeypatch, kappa):
        # the search is not given the maximiser: every start begins measurably below
        # the maximum it reaches
        result, rounds = search_rounds(monkeypatch, kappa)
        assert np.all(rounds[0] < (1.0 - 1e-9) * result.value)

    def test_entangled_start_is_never_beaten(self):
        for d_p in (2, 8, 64):
            kappa = sine_kappa(d_p)
            result = diamond_distance_search(kappa)
            assert entangled_trace_norm(kappa) >= result.value - 1e-9
            assert result.spread <= 1e-9


class TestPhaseReport:
    def test_fields_are_consistent(self):
        report = phase_report(16)
        assert report.dP == 16
        assert report.eps_quantum == pytest.approx(dephasing_error_exact(16), abs=1e-12)
        assert report.choi_infidelity == pytest.approx(report.eps_quantum / 2.0, abs=1e-12)
        assert report.asymptote_ratio == pytest.approx(
            report.eps_quantum * 2 * 256 / math.pi**2, abs=1e-12
        )
        assert 0.0 <= report.eps_quantum <= 1.0
        assert 0.0 <= report.eps_classical <= 1.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="program dimension must be at least 2"):
            phase_report(1)

    @pytest.mark.parametrize("d_p", [1024, 4096, 65536, 10**6])
    def test_quantum_error_against_mpmath(self, d_p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = float(2 * (d_p - 1) * mpmath.sin(mpmath.pi / (2 * d_p)) ** 2 / d_p)
        assert abs(phase_report(d_p).eps_quantum - exact) <= 1e-12 * exact

    def test_asymptote_ratio_approaches_one_from_below(self):
        ratios = [phase_report(d_p).asymptote_ratio for d_p in (10**3, 10**6, 10**9)]
        assert ratios == sorted(ratios) and len(set(ratios)) == 3
        assert ratios[-1] < 1.0

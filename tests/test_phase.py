"""Phase-gate example: the sine state's amplitudes, its dephasing factor
kappa against the closed form, the closed-form report against mpmath, the
reported Choi infidelity against a quadrature of the outcome density, the direct
diamond search, mesh vs quantum error."""

import cmath
import math

import numpy as np
import pytest

from gateprog.phase import (
    _difference_output_trace_norm,
    classical_phase_error,
    diamond_distance_search,
    phase_report,
)
from gateprog.protocol import ProtocolError, sine_amplitudes


def dephasing_error_exact(d_p: int) -> float:
    """Independent closed form for the diamond distance of the sine protocol."""
    return (d_p - 1) * (1.0 - math.cos(math.pi / d_p)) / d_p


def sine_kappa(d_p: int) -> float:
    """Dephasing factor of the sine state: the lag-1 autocorrelation of its amplitudes."""
    a = sine_amplitudes(d_p)
    return math.fsum(a[:-1] * a[1:])


def sequential_climbs(kappa: float, starts: int, max_evaluations: int) -> list[float]:
    """Reference for the lockstep search: each start climbs alone, one 4x4
    eigenproblem per step, drawing its step noise as it goes."""

    def trace_norm(x):
        t1, t2, t3, p1, p2, p3 = x
        s1, s2 = math.sin(t1), math.sin(t2)
        psi = np.array([
            math.cos(t1),
            cmath.exp(1j * p1) * s1 * math.cos(t2),
            cmath.exp(1j * p2) * s1 * s2 * math.cos(t3),
            cmath.exp(1j * p3) * s1 * s2 * math.sin(t3),
        ])
        block = (kappa - 1.0) * np.outer(psi[:2], psi[2:].conj())
        dilation = np.block([[np.zeros((2, 2)), block], [block.conj().T, np.zeros((2, 2))]])
        return float(np.abs(np.linalg.eigvalsh(dilation)).sum())

    def climb(x, rng):
        best, step = trace_norm(x), 0.4
        for _ in range(max_evaluations):
            candidate = x + step * rng.standard_normal(6)
            value = trace_norm(candidate)
            if value > best:
                x, best, step = candidate, value, min(step * 1.2, 1.0)
            else:
                step *= 0.9
            if step < 1e-9:
                break
        return best

    me_angles = np.array([math.pi / 4, math.pi / 2, math.pi / 2, 0.0, 0.0, 0.0])
    finals = [climb(me_angles, np.random.default_rng(10_000))]
    for seed in range(starts):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.0, math.pi / 2, size=6)
        x0[3:] = rng.uniform(0.0, 2.0 * math.pi, size=3)
        finals.append(climb(x0, rng))
    return finals


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
        result = diamond_distance_search(sine_kappa(d_p))
        assert result.value == pytest.approx(dephasing_error_exact(d_p), rel=1e-12)
        assert result.me_is_max

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
    def test_closed_trace_norm_matches_the_dilation(self, kappa):
        # the closed 2x2 singular-value sum against the eigenvalues of the explicit
        # 4x4 Hermitian dilation, on random pure states of system and reference
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        block = (kappa - 1.0) * psi[:, :2, None] * psi[:, None, 2:].conj()
        dilation = np.zeros((200, 4, 4), dtype=complex)
        dilation[:, :2, 2:] = block
        dilation[:, 2:, :2] = block.conj().transpose(0, 2, 1)
        reference = np.abs(np.linalg.eigvalsh(dilation)).sum(axis=1)
        closed = _difference_output_trace_norm(kappa, psi)
        assert np.max(np.abs(closed - reference)) <= 1e-15

    @pytest.mark.parametrize("d_p", [4, 64])
    @pytest.mark.parametrize("evaluations", [25, 500])
    def test_lockstep_search_matches_sequential_climbs(self, d_p, evaluations):
        # the lockstep search evaluates the same steps with vectorised sin/cos/exp,
        # so each start's value may differ from the scalar reference by a few ulps;
        # 25 steps stop the climbs before they meet at the maximum, so the values
        # still depend on every accepted step
        kappa = sine_kappa(d_p)
        lockstep = diamond_distance_search(
            kappa, starts=4, max_evaluations=evaluations
        ).start_values
        reference = sequential_climbs(kappa, starts=4, max_evaluations=evaluations)
        assert np.allclose(lockstep, reference, rtol=0, atol=1e-15)

    def test_entangled_start_is_never_beaten(self):
        for d_p in (2, 8, 64):
            result = diamond_distance_search(sine_kappa(d_p))
            assert result.me_is_max
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

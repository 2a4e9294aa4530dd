"""The phase-gate check uses the chord form as the oracle for the mesh error,
the direct diamond search as the oracle for the reported quantum error, and an
outcome-density quadrature as the oracle for the reported Choi infidelity."""

from dataclasses import replace

import pytest

import gateprog.verify as verify
from gateprog.phase import DiamondSearchResult, classical_phase_error, phase_report
from gateprog.protocol import viable_set
from gateprog.scoring import qstar_error_closed_form


def _agreeing_search(kappa):
    value = 1.0 - kappa
    return DiamondSearchResult(
        value=value, me_value=value, start_values=(value,) * 33, spread=0.0, me_is_max=True
    )


def test_search_runs_at_both_ends_of_the_range(monkeypatch):
    calls = []

    def search(kappa):
        calls.append(kappa)
        return _agreeing_search(kappa)

    monkeypatch.setattr(verify, "diamond_distance_search", search)
    assert verify.check_phase_gate().passed
    expected = [1.0 - phase_report(dp).eps_quantum for dp in (4, 128)]
    assert calls == pytest.approx(expected, abs=1e-12)


def test_unreliable_maximum_fails(monkeypatch):
    fake = DiamondSearchResult(
        value=0.5, me_value=0.4, start_values=(0.5, 0.3), spread=0.2, me_is_max=False
    )
    monkeypatch.setattr(verify, "diamond_distance_search", lambda kappa: fake)
    result = verify.check_phase_gate()
    assert not result.passed
    assert result.detail == "search spread 2.0e-01 at dP=4"


def test_search_disagreeing_with_closed_form_fails(monkeypatch):
    def search(kappa):
        agreeing = _agreeing_search(kappa)
        return replace(agreeing, value=agreeing.value + 1e-6)

    monkeypatch.setattr(verify, "diamond_distance_search", search)
    result = verify.check_phase_gate()
    assert not result.passed
    assert "1 - kappa" in result.detail and "dP=4" in result.detail


def test_choi_infidelity_disagreeing_with_quadrature_fails(monkeypatch):
    def report(d_p):
        exact = phase_report(d_p)
        return replace(exact, choi_infidelity=exact.choi_infidelity + 1e-6)

    monkeypatch.setattr(verify, "phase_report", report)
    result = verify.check_phase_gate()
    assert not result.passed
    assert "quadrature" in result.detail and "dP=4" in result.detail


def test_mesh_error_off_by_1e_14_fails(monkeypatch):
    monkeypatch.setattr(verify, "classical_phase_error", lambda dp: classical_phase_error(dp) + 1e-14)
    result = verify.check_phase_gate()
    assert not result.passed
    assert "mesh closed-form deviation = 1.0e-14" in result.detail


def test_closed_form_consistency_sums_every_box_once(monkeypatch):
    # d=2 n <= 512 spans N = 2..256 and d=3 n <= 60 spans N = 2..8
    boxes = []

    def lattice(n, d):
        ds = viable_set(n, d)
        boxes.append((d, ds.N))
        return ds

    monkeypatch.setattr(verify, "viable_set", lattice)
    assert verify.check_closed_form_consistency().passed
    assert boxes == [(2, big_n) for big_n in range(2, 257)] + [(3, big_n) for big_n in range(2, 9)]


def test_closed_form_off_at_one_box_fails(monkeypatch):
    def closed(d, big_n):
        return qstar_error_closed_form(d, big_n) + (1e-11 if (d, big_n) == (2, 200) else 0.0)

    monkeypatch.setattr(verify, "qstar_error_closed_form", closed)
    result = verify.check_closed_form_consistency()
    assert not result.passed
    assert result.detail.startswith("max |quadratic - closed| = 4.00e-11 (tol 1e-12)")


@pytest.mark.parametrize("samples, seed, message", [
    (0, 0, "need at least 1e5 samples for a stable fit, got 0"),
    (10**6, -1, "seed must be non-negative, got -1"),
])
def test_bad_sampling_rejected_before_any_check(monkeypatch, samples, seed, message):
    # the reports are the battery's first work
    def reports(d, n_values):
        raise AssertionError("the battery started before its inputs were checked")

    monkeypatch.setattr(verify, "protocol_reports", reports)
    with pytest.raises(ValueError) as excinfo:
        verify.run_all(samples=samples, seed=seed)
    assert str(excinfo.value) == message

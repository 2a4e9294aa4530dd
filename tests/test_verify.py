"""The phase-gate check uses the chord form as the oracle for the mesh error,
the direct diamond search as the oracle for the reported quantum error, and an
outcome-density quadrature as the oracle for the reported Choi infidelity."""

import re
from dataclasses import replace

import pytest

import gateprog.reporting as reporting
import gateprog.verify as verify
from gateprog.phase import DiamondSearchResult, classical_phase_error, phase_report
from gateprog.scoring import ScoreMatrix, optimal_fidelity, qstar_error_closed_form


def _agreeing_search(kappa):
    value = 1.0 - kappa
    return DiamondSearchResult(value=value, start_values=(value,) * 33, spread=0.0)


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
    fake = DiamondSearchResult(value=0.5, start_values=(0.5, 0.3), spread=0.2)
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


def test_real_search_catches_a_closed_form_off_by_1e_6(monkeypatch):
    # the see-saw itself, not a fake, against an eps_quantum off by a relative 1e-6
    def report(d_p):
        exact = phase_report(d_p)
        return replace(exact, eps_quantum=exact.eps_quantum * (1.0 + 1e-6))

    monkeypatch.setattr(verify, "phase_report", report)
    result = verify.check_phase_gate()
    assert not result.passed
    assert result.detail == (
        "search maximum 0.21966991411 differs from 1 - kappa = 0.21967013378 at dP=4 (tol 1e-9)"
    )


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

    def closed(d, big_n):
        boxes.append((d, big_n))
        return qstar_error_closed_form(d, big_n)

    monkeypatch.setattr(verify, "qstar_error_closed_form", closed)
    assert verify.check_closed_form_consistency().passed
    assert boxes == [(2, big_n) for big_n in range(2, 257)] + [(3, big_n) for big_n in range(2, 9)]


@pytest.mark.parametrize("check", ["check_closed_form_consistency", "check_eigenvalue_oracle"])
def test_box_checks_build_no_lattice(monkeypatch, check):
    # the score matrix, the sine weights and the box solves need only the (d, N) box
    def lattice(n, d):
        raise AssertionError(f"viable_set({n}, {d}) built a lattice")

    monkeypatch.setattr(verify, "viable_set", lattice)
    args = (optimal_fidelity,) if check == "check_eigenvalue_oracle" else ()
    assert getattr(verify, check)(*args).passed


def test_eigenvalue_oracle_is_independent_of_the_matvec(monkeypatch):
    # the Pieri matvec without its face term, z[t] += a[t] where t_j = 0: the solver
    # finds that operator's top eigenvalue, so the check fails through its solver
    # term, while its dense chain, built without the matvec, still meets the analytic
    # value
    matvec = ScoreMatrix.matvec

    def without_face_term(self, v, out=None):
        z = matvec(self, v, out)
        box = (self.N,) * (self.d - 1) + v.shape[1:]
        a, out = v.reshape(box), z.reshape(box)
        for j in range(self.d - 1):
            head = (slice(None),) * j
            out[head + (0,)] -= a[head + (0,)]
        return z

    monkeypatch.setattr(ScoreMatrix, "matvec", without_face_term)
    result = verify.check_eigenvalue_oracle(optimal_fidelity)
    assert not result.passed
    analytic, solver = map(float, re.search(r"analytic\| = (\S+),.*dense\| = (\S+) ",
                                            result.detail).groups())
    assert analytic <= 1e-10 < solver


@pytest.mark.parametrize("check, asked", [
    ("check_oracle_equivalence",
     [(2, 2), (2, 4), (2, 8), (2, 16), (2, 32), (3, 2), (3, 8)]),
    ("check_eigenvalue_oracle", [(2, big_n) for big_n in range(2, 65)]),
])
def test_check_asks_for_the_boxes_it_reads(check, asked):
    # each check hands the solve it is given its boxes' matrices, once each, in reading order
    boxes = []

    def solve(matrix):
        boxes.append((matrix.d, matrix.N))
        return optimal_fidelity(matrix)

    assert getattr(verify, check)(solve).passed
    assert boxes == asked


def test_one_solve_per_box(monkeypatch):
    # eigenvalue_oracle's d=2 N = 2..64 and the d=3 reports' N = 2..8; every other
    # solve the battery reads lies in one of these boxes
    boxes = []

    def solve(matrix):
        boxes.append((matrix.d, matrix.N))
        return optimal_fidelity(matrix)

    monkeypatch.setattr(verify, "optimal_fidelity", solve)
    monkeypatch.setattr(reporting, "optimal_fidelity", solve)
    assert all(result.passed for result in verify.run_all(samples=10**5, seed=0))
    assert len(boxes) == 70
    assert sorted(boxes) == [(2, big_n) for big_n in range(2, 65)] + [
        (3, big_n) for big_n in range(2, 9)
    ]


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
    # the d=3 reports' box solves are the battery's first work
    def solve(matrix):
        raise AssertionError("the battery started before its inputs were checked")

    monkeypatch.setattr(verify, "optimal_fidelity", solve)
    with pytest.raises(ValueError) as excinfo:
        verify.run_all(samples=samples, seed=seed)
    assert str(excinfo.value) == message

"""Protocol reports, sweeps, and the JSON/CSV persistence layer."""

import json
import math
import os

import numpy as np
import pytest

import gateprog.reporting as reporting
from gateprog.reporting import (
    CSV_COLUMNS,
    REPORT_FIELDS,
    protocol_report,
    protocol_reports,
    report_to_dict,
    reports_to_csv,
    sweep,
    sweep_to_dict,
    write_text_atomic,
)
from gateprog.young import irrep_dimension
from gateprog.protocol import WeightVector, sine_weights, viable_set
from gateprog.scoring import entanglement_fidelity, optimal_fidelity, score_matrix
from gateprog.verify import NS_D3, SMALL_NS_D2


def python_int_dimension(rows):
    """Independent of numpy: the Weyl product over row pairs, in Python ints."""
    d = len(rows)
    num = math.prod(rows[i] - rows[j] + j - i for i in range(d) for j in range(i + 1, d))
    den = math.prod(math.factorial(k) for k in range(1, d))
    assert num % den == 0
    return num // den


class TestProtocolReport:
    def test_n4_d2(self):
        r = protocol_report(4, 2)
        assert r.fidelity_qstar == pytest.approx(0.75, abs=1e-14)
        assert r.epsilon_qstar == pytest.approx(0.25, abs=1e-14)
        assert r.set_size == 2
        assert r.dP_exact == 34  # dimensions 3 and 5
        assert all(r.pass_flags.values())

    def test_n8_d2(self):
        r = protocol_report(8, 2)
        assert r.epsilon_qstar == pytest.approx(0.10983495705504442, abs=1e-13)
        assert r.bound_eq5 == pytest.approx(2.0 * (math.pi * 4.0 / 16.0) ** 2, abs=1e-12)
        assert r.pass_flags["eq5"]

    def test_n26_d3(self):
        r = protocol_report(26, 3)
        assert r.set_size == 9
        assert all(r.pass_flags.values())

    def test_error_is_exact_complement(self):
        r = protocol_report(16, 2)
        # both errors are computed first, without cancellation
        assert r.fidelity_qstar == 1.0 - r.epsilon_qstar
        assert r.fidelity_optimal == 1.0 - r.epsilon_optimal

    def test_exact_dimension_and_log(self):
        r = protocol_report(8, 2)
        expected = sum(python_int_dimension(rows) ** 2 for rows in viable_set(8, 2).rows.tolist())
        assert r.dP_exact == expected
        assert r.dP_exact_log2 == pytest.approx(math.log2(expected), abs=1e-13)
        assert r.cP_bits == r.dP_exact_log2

    def test_exact_past_int64_in_the_report(self):
        # every squared dimension at d=5 n=400 exceeds 2^63
        squares = [python_int_dimension(rows) ** 2 for rows in viable_set(400, 5).rows.tolist()]
        assert min(squares) >= 2**63
        assert protocol_report(400, 5).dP_exact == sum(squares)

    def test_exact_past_int64_at_the_member_budget_scale(self):
        # d=4 n=1200: 512,000 members, each squared dimension past 2^63; the report
        # sums the same stacked call
        rows = viable_set(1200, 4).rows
        squares = [python_int_dimension(r) ** 2 for r in rows.tolist()]
        assert min(squares) >= 2**63
        dims = irrep_dimension(rows)
        assert (dims * dims).sum() == sum(squares)

    @pytest.mark.parametrize("d, n", [(14, 442), (16, 661)])
    def test_large_d_at_the_smallest_width(self, d, n):
        # N = 2: 2^(d-1) members on a box whose every node lies on the boundary
        r = protocol_report(n, d)
        assert r.N == 2 and r.set_size == 2 ** (d - 1)
        ds = viable_set(n, d)
        lattice = entanglement_fidelity(sine_weights(ds), score_matrix(ds))
        assert r.epsilon_qstar == pytest.approx(lattice.error, rel=1e-12, abs=0.0)
        assert r.fidelity_qstar == pytest.approx(lattice.fidelity, rel=1e-12, abs=0.0)
        assert r.epsilon_optimal <= r.epsilon_qstar
        assert all(r.pass_flags.values())

    def test_propagates_preconditions(self):
        with pytest.raises(Exception, match="degenerate weight regime"):
            protocol_report(12, 3)

    @pytest.mark.parametrize("n, d", [(64, 2), (60, 3), (61, 4)])
    def test_two_validated_weight_vectors(self, monkeypatch, n, d):
        # each check sums 2^20 squares at the member budget: the sine weights, which
        # start the solver, and the principal weights are validated; the report's
        # sine-weight error comes from the closed form and builds none
        built = []
        check = WeightVector.__post_init__
        monkeypatch.setattr(WeightVector, "__post_init__", lambda q: built.append(check(q)))
        protocol_report(n, d)
        assert len(built) == 2


def report_bits(report):
    """Every field of a report, each float as its exact hex form."""
    return [
        (name, value.hex() if isinstance(value, float) else value)
        for name, value in vars(report).items()
    ]


class TestProtocolReports:
    @pytest.mark.parametrize("d, ns", [(2, SMALL_NS_D2), (3, NS_D3)])
    def test_bit_identical_at_the_verify_points(self, d, ns):
        shared = protocol_reports(d, ns)
        assert [report_bits(r) for r in shared] == [
            report_bits(protocol_report(n, d)) for n in ns
        ]

    @pytest.mark.parametrize("d, ns", [
        (2, list(range(200, 3, -1))),
        (4, list(range(27, 91, 3))),
    ])
    def test_sweep_is_bit_identical_to_one_report_per_n(self, d, ns):
        reports = sweep(d, ns).reports
        assert [report_bits(r) for r in reports] == [
            report_bits(protocol_report(n, d)) for n in sorted(ns)
        ]

    def test_one_solve_per_box(self, monkeypatch):
        # verify's 61 points lie in 8 d=2 boxes (N = n // 2) and 7 d=3 boxes (N = 2..8)
        boxes = []

        def solve(s):
            boxes.append((s.diagram_set.d, s.diagram_set.N))
            return optimal_fidelity(s)

        monkeypatch.setattr(reporting, "optimal_fidelity", solve)
        protocol_reports(2, SMALL_NS_D2)
        protocol_reports(3, NS_D3)
        assert boxes == [(2, n) for n in (2, 4, 8, 16, 32, 64, 128, 256)] + [
            (3, n) for n in range(2, 9)
        ]

    @pytest.mark.parametrize("n, d, other_n, other_d", [(8, 2, 16, 2), (26, 3, 8, 2)])
    def test_solve_of_another_box_rejected(self, n, d, other_n, other_d):
        solve = optimal_fidelity(score_matrix(viable_set(other_n, other_d)))
        with pytest.raises(ValueError, match="does not serve"):
            protocol_report(n, d, solve)

    def test_dimension_is_constant_on_its_box_and_residue(self):
        # dP depends on n only through (d, N, n0 mod d): adding d boxes to the flat
        # base diagram adds a full column to every member, which leaves every SU(d)
        # irrep unchanged; the residue cannot be dropped from the key
        values = {}
        for d, ns in ((2, range(4, 301)), (3, range(13, 301)), (4, range(27, 201)),
                      (5, range(52, 151))):
            for n in ns:
                ds = viable_set(n, d)
                dims = irrep_dimension(ds.rows)
                values.setdefault((d, ds.N, ds.n0 % d), []).append(int((dims * dims).sum()))
        assert sum(map(len, values.values())) == 858 and len(values) == 490
        assert all(len(set(dps)) == 1 for dps in values.values())
        by_box = {}
        for (d, big_n, _), dps in values.items():
            by_box.setdefault((d, big_n), set()).update(dps)
        assert any(len(dps) > 1 for dps in by_box.values())


class TestSweep:
    def test_heisenberg_slope(self):
        result = sweep(2, [32, 64, 128, 256])
        assert result.slope == pytest.approx(-2.0, abs=0.05)
        assert result.residual < 0.05
        assert [r.n for r in result.reports] == [32, 64, 128, 256]

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            sweep(2, [8, 16])

    def test_cost_slope_stays_under_scaled_limit(self):
        result = sweep(2, [32, 64, 128, 256])
        xs = [math.log2(1.0 / r.epsilon_qstar) for r in result.reports]
        ys = [r.cP_bits for r in result.reports]
        slope = float(np.polyfit(xs, ys, 1)[0])
        assert slope <= 1.5 * 1.05


class TestSerialization:
    def test_report_fields(self):
        # derived from ProtocolReport's fields; the JSON and CSV layouts follow this order
        assert REPORT_FIELDS == (
            "d", "n", "N", "n0", "set_size",
            "fidelity_qstar", "fidelity_optimal", "epsilon_qstar", "epsilon_optimal",
            "dP_exact", "dP_exact_log2", "cP_bits",
            "bound_eq5", "bound_eq6_log2", "bound_lemma3", "bound_lemma4_log2",
            "corollary_bits",
        )

    def test_report_dict_layout(self):
        payload = report_to_dict(protocol_report(8, 2))
        assert payload["dP_exact"] == "164"
        assert isinstance(payload["pass_flags"], dict)
        assert payload["fidelity_qstar"] == pytest.approx(0.890165042945, abs=1e-12)

    def test_csv_layout(self):
        text = reports_to_csv([report_to_dict(protocol_report(8, 2))])
        header, row = text.strip().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        cells = row.split(",")
        assert cells[0] == "2" and cells[1] == "8"
        assert cells[CSV_COLUMNS.index("dP_exact")] == "164"

    def test_json_roundtrip_and_determinism(self, tmp_path):
        result = sweep(2, [8, 12, 16])
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_text_atomic(json.dumps(sweep_to_dict(result), indent=2) + "\n", str(path_a))
        write_text_atomic(
            json.dumps(sweep_to_dict(sweep(2, [8, 12, 16])), indent=2) + "\n", str(path_b)
        )
        assert path_a.read_bytes() == path_b.read_bytes()
        parsed = json.loads(path_a.read_text())
        assert len(parsed["reports"]) == 3
        assert parsed["reports"][0]["dP_exact"] == "164"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        write_text_atomic(
            reports_to_csv([report_to_dict(protocol_report(4, 2))]), str(tmp_path / "out.csv")
        )
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
        text = (tmp_path / "out.csv").read_text()
        assert text.startswith(",".join(CSV_COLUMNS))

"""Protocol reports, sweeps, and the JSON/CSV persistence layer."""

import functools
import gc
import json
import math
import os
import stat
import types
import weakref

import numpy as np
import pytest

import gateprog.protocol as protocol
import gateprog.reporting as reporting
import gateprog.scoring as scoring
from gateprog.reporting import (
    CSV_COLUMNS,
    REPORT_FIELDS,
    format_float,
    protocol_report,
    report_to_dict,
    reports_to_csv,
    sweep,
    sweep_to_dict,
    write_text_atomic,
)
from gateprog.young import irrep_dimension
from gateprog.protocol import WeightVector, sine_weights, viable_set
from gateprog.scoring import ScoreMatrix, entanglement_fidelity, optimal_fidelity, score_matrix
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

    def test_exact_past_int64_at_the_member_budget_scale(self, monkeypatch):
        # d=4 n=1200: 512,000 members, each squared dimension past 2^63, summed by the
        # stacked call and by the report from its 11^3 corner; the solve is stubbed
        rows = viable_set(1200, 4).rows
        squares = [python_int_dimension(r) ** 2 for r in rows.tolist()]
        assert min(squares) >= 2**63
        dims = irrep_dimension(rows)
        assert (dims * dims).sum() == sum(squares)
        monkeypatch.setattr(reporting, "optimal_fidelity",
                            lambda s: scoring.FidelityResult(0.5, 0.5, None))
        assert protocol_report(1200, 4).dP_exact == sum(squares)

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
        # each check sums 2^20 squares at the member budget: at d >= 3 the sine weights,
        # which start the solver, and the principal weights are validated; the report's
        # sine-weight error comes from the closed form and builds none, and at d=2 so
        # does its optimum
        built = []
        check = WeightVector.__post_init__
        monkeypatch.setattr(WeightVector, "__post_init__", lambda q: built.append(check(q)))
        protocol_report(n, d)
        assert len(built) == (0 if d == 2 else 2)

    @pytest.mark.parametrize("n", [*SMALL_NS_D2, 4096, 8192, 32768])
    def test_d2_optimum_in_closed_form(self, n):
        # the chain's optimal error sin^2(pi/(2(N+1))) bit for bit, and the solver's
        # 12 printed digits of it
        report = protocol_report(n, 2)
        error = math.sin(math.pi / (2 * (report.N + 1))) ** 2
        assert report.epsilon_optimal == error
        assert report.fidelity_optimal == 1.0 - error
        solved = optimal_fidelity(ScoreMatrix(2, report.N))
        assert format_float(report.epsilon_optimal) == format_float(solved.error)
        assert format_float(report.fidelity_optimal) == format_float(solved.fidelity)

    @pytest.mark.parametrize("n", [2**22, 2**40, 2**62, 2**63 - 1])
    def test_d2_past_the_member_budget(self, n):
        # a d=2 report builds a 3-member corner and solves nothing, so it runs at every
        # width the int64 rows hold: member t has dimension a + 2t, a the first one's,
        # and dP is the sum of their squares over t < N
        report = protocol_report(n, 2)
        big_n = report.N
        assert big_n == n // 2 and report.set_size == big_n
        a = python_int_dimension(viable_set(n, 2, width=1).rows[0].tolist())
        squares = big_n * a * a + 2 * a * big_n * (big_n - 1) + 4 * (
            (big_n - 1) * big_n * (2 * big_n - 1) // 6)
        assert report.dP_exact == squares
        assert report.epsilon_optimal == math.sin(math.pi / (2 * (big_n + 1))) ** 2
        assert all(report.pass_flags.values())

    @pytest.mark.parametrize("d, ns", [
        (2, range(4, 4097)), (2, [2**21]), (3, range(13, 400)), (4, range(40, 200)),
        (5, range(90, 200)),
    ], ids=["d2-4-4096", "d2-2^21", "d3", "d4", "d5"])
    def test_dimension_against_the_lattice_pass(self, d, ns):
        # the Newton-weight sum over the lattice's corner against the array pass over
        # every member; each n of these ranges is valid, and each box is solved once
        solve = functools.cache(optimal_fidelity)
        for report in [protocol_report(n, d, solve) for n in ns]:
            rows = viable_set(report.n, d).rows
            dims = irrep_dimension(rows)
            assert (report.dP_exact, report.set_size) == ((dims * dims).sum(), len(rows))
            assert type(report.dP_exact) is int

    @pytest.mark.parametrize("big_n", [2, 3, 5, 7, 8, 15, 16, 79, 1024, 2**20])
    def test_newton_weights(self, big_n):
        # sum_k w_k C(k, j) = C(N, j+1) for j < m, the rule on the basis C(t, j); at
        # m = N every weight is 1, and the rule is the box sum
        for m in sorted({min(big_n, 4 * d - 5) for d in (2, 3, 4, 5, 21)}):
            weights = reporting._newton_weights(big_n, m)
            assert len(weights) == m
            for j in range(m):
                rule = sum(w * math.comb(k, j) for k, w in enumerate(weights))
                assert rule == math.comb(big_n, j + 1)
            if m == big_n:
                assert weights == [1] * big_n

    def test_d2_reports_run_no_solve(self, monkeypatch):
        def no_solve(matrix):
            raise AssertionError("a d=2 report ran the eigensolver")

        monkeypatch.setattr(reporting, "optimal_fidelity", no_solve)
        assert protocol_report(64, 2).N == 32
        assert [r.n for r in sweep(2, [32, 64, 128]).reports] == [32, 64, 128]


    @pytest.mark.parametrize("n, d", [(7167, 3), (1200, 4), (826, 5)])
    def test_report_builds_only_the_corner(self, monkeypatch, n, d):
        # 2^20, 512,000 and 2^20 members in the box; the report builds its corner of
        # min(N, 4d-5) points per axis, and the solve still reads the whole box
        built, boxes = [], []

        def build(*args, **kwargs):
            diagram_set = viable_set(*args, **kwargs)
            built.append(len(diagram_set))
            return diagram_set

        def solve(matrix):
            boxes.append((matrix.d, matrix.N))
            return scoring.FidelityResult(0.5, 0.5, None)

        monkeypatch.setattr(reporting, "viable_set", build)
        monkeypatch.setattr(reporting, "optimal_fidelity", solve)
        report = protocol_report(n, d)
        assert built == [min(report.N, 4 * d - 5) ** (d - 1)]
        assert boxes == [(d, report.N)]
        assert report.set_size == report.N ** (d - 1) > built[0]

    @pytest.mark.parametrize("n, d", [(10**4, 3), (10**4 + 1, 3), (2000, 4), (1242, 5)])
    def test_dimension_past_the_member_budget(self, monkeypatch, n, d):
        # 2.04M, 2.04M, 2.35M and 5.31M members: no solve takes these boxes, so a stub
        # stands in for it, and the corner rule's dP is checked against the box sum,
        # one first-coordinate slice at a time from the row formula of viable_set:
        # rows i < d-1 are base_i + t_i and the last row takes base_last - sum(t)
        built = []

        def build(*args, **kwargs):
            diagram_set = viable_set(*args, **kwargs)
            built.append(len(diagram_set))
            return diagram_set

        monkeypatch.setattr(reporting, "viable_set", build)
        report = protocol_report(n, d, solve=lambda matrix: types.SimpleNamespace(error=0.5))
        big_n = report.N
        assert big_n ** (d - 1) > protocol.MAX_MEMBERS
        assert built == [(4 * d - 5) ** (d - 1)]
        base = viable_set(n, d, width=1).rows[0]
        rest = np.indices((big_n,) * (d - 2)).reshape(d - 2, -1).T
        total = 0
        for first in range(big_n):
            rows = np.empty((len(rest), d), dtype=np.int64)
            rows[:, 0] = base[0] + first
            rows[:, 1:-1] = base[1:-1] + rest
            rows[:, -1] = base[-1] - first - rest.sum(axis=1)
            dims = irrep_dimension(rows)
            total += (dims * dims).sum()
        assert report.dP_exact == total


def report_bits(report):
    """Every field of a report, each float as its exact hex form."""
    return [
        (name, value.hex() if isinstance(value, float) else value)
        for name, value in vars(report).items()
    ]


class TestProtocolReports:
    @pytest.mark.parametrize("d, ns", [
        (2, list(range(200, 3, -1))),
        (4, list(range(27, 91, 3))),
        (3, NS_D3),
    ])
    def test_sweep_is_bit_identical_to_one_report_per_n(self, d, ns):
        reports = sweep(d, ns).reports
        assert [report_bits(r) for r in reports] == [
            report_bits(protocol_report(n, d)) for n in sorted(ns)
        ]

    def test_sweep_keeps_one_box_solve(self, monkeypatch):
        # sweep sorts n, so each box's n come in one run: when a new box is solved, every
        # earlier result but the last one is unreachable, and each box is solved once
        boxes, results = [], []

        def solve(s):
            gc.collect()
            assert all(r() is None for r in results[:-1])
            boxes.append((s.d, s.N))
            result = optimal_fidelity(s)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(reporting, "optimal_fidelity", solve)
        assert [r.n for r in sweep(3, NS_D3[::-1]).reports] == sorted(NS_D3)
        assert boxes == [(3, big_n) for big_n in range(2, 9)]
        boxes.clear()
        assert [r.n for r in sweep(3, [60, 13, 59, 14, 60]).reports] == [13, 14, 59, 60]
        assert boxes == [(3, 2), (3, 8)]

    @pytest.mark.parametrize("n, d", [(8, 2), (64, 2), (26, 3), (60, 3), (40, 4)])
    def test_report_asks_solve_for_its_own_box(self, n, d):
        # a d >= 3 report hands the solve it is given its own (d, N) box's matrix, once; a
        # d=2 report asks nothing; either way it is the report made without a solve, bit
        # for bit
        asked = []

        def solve(matrix):
            asked.append((matrix.d, matrix.N))
            return optimal_fidelity(matrix)

        report = protocol_report(n, d, solve)
        assert asked == ([] if d == 2 else [(d, protocol.capacity_parameter(n, d))])
        assert report_bits(report) == report_bits(protocol_report(n, d))

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

    @pytest.mark.parametrize("n_values", [[8, 16], [4, 4, 4], [8, 16, 8, 16]])
    def test_too_few_points(self, n_values):
        # the fit needs three distinct n: repeats of one or two points are refused
        with pytest.raises(ValueError, match="at least 3 points"):
            sweep(2, n_values)

    def test_each_n_reported_once(self):
        # a repeated n is one point of the slope fit, not two
        result = sweep(2, [8, 16, 32, 16])
        assert [r.n for r in result.reports] == [8, 16, 32]
        once = sweep(2, [8, 16, 32])
        assert (result.slope, result.residual) == (once.slope, once.residual)

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

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_new_file_gets_a_plain_writes_mode(self, tmp_path, umask):
        # the temporary file is owner-only; the renamed file has open(path, "w")'s mode
        saved = os.umask(umask)
        try:
            write_text_atomic("new\n", str(tmp_path / "atomic.txt"))
            (tmp_path / "plain.txt").write_text("new\n")
        finally:
            os.umask(saved)
        mode = stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("old\n")
        os.chmod(path, 0o640)
        saved = os.umask(0o022)
        try:
            write_text_atomic("new\n", str(path))
        finally:
            os.umask(saved)
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["report.csv"]

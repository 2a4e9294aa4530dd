"""Output checker: compares each operation's output with its reference.

Integers, strings (such as the decimal ``dP_exact``) and pass flags must be
equal; floats must agree within FLOAT_TOL, absolutely or relatively.  Every
d=2 ``fidelity_optimal`` is also checked against the closed form
(2 + 2 cos(pi/(N+1))) / 4, and ``verify`` must report ``all_passed`` true.

``check`` returns a list of failure reasons, each starting with its kind:
"exit code N", "missed tolerance" or "mismatch".  An empty list means the
operation succeeded with a correct output.
"""

from __future__ import annotations

import copy
import json
import math
import re

from workloads import WORKLOADS, Outcome

FLOAT_TOL = 1e-10

_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[+-]?\d+)?)")
_CHOI_DETAIL = re.compile(
    r"max residual = (\S+), max \|\(1-a\) - F\| = (\S+) "
    r"\(tol (\S+) at (\d+) samples, seed (-?\d+)\)$"
)


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two JSON-like values, one line each."""
    where = path or "value"
    if isinstance(expected, bool) or expected is None:
        return [] if actual is expected else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, float):
        if (
            isinstance(actual, (int, float)) and not isinstance(actual, bool)
            and math.isclose(actual, expected, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
        ):
            return []
        return [f"{where}: {actual!r} != {expected!r} (tol {FLOAT_TOL:g})"]
    if isinstance(expected, (int, str)):
        same = type(actual) is type(expected) and actual == expected
        return [] if same else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"
                    f" != {sorted(expected)}"]
        return [p for key in expected for p in compare(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: {actual!r} != {expected!r}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    raise TypeError(f"unsupported reference value {expected!r}")


def _detail_values(detail: str) -> tuple[list[str], list]:
    """Split a check's detail line into its text and its numbers."""
    parts = _NUMBER.split(detail)
    numbers = [float(t) if any(c in t for c in ".e") else int(t) for t in parts[1::2]]
    return parts[0::2], numbers


def _check_protocol(op, payload: dict, reference: dict | None) -> list[str]:
    problems = []
    if reference is not None:
        problems += compare(reference, payload)
    else:
        # no reference: the operation failed when the references were captured
        d, n = op.d, op.n
        big_n = (2 * n + (d - 2) * (d - 1)) // ((3 * d - 2) * (d - 1))
        problems += compare({"d": d, "n": n, "N": big_n, "set_size": big_n ** (d - 1)},
                            {k: payload.get(k) for k in ("d", "n", "N", "set_size")})
        problems += [f"pass_flags.{k} is not true"
                     for k, v in payload.get("pass_flags", {}).items() if v is not True]
    if op.d == 2 and isinstance(payload.get("N"), int):
        closed = (2.0 + 2.0 * math.cos(math.pi / (payload["N"] + 1))) / 4.0
        if not abs(payload.get("fidelity_optimal", math.inf) - closed) <= FLOAT_TOL:
            problems.append(
                f"fidelity_optimal {payload.get('fidelity_optimal')!r} is not the closed "
                f"form {closed!r} within {FLOAT_TOL:g}"
            )
    return [f"mismatch: {p}" for p in problems]


def _check_verify(payload: dict, reference: dict, seed: int, samples: int) -> list[str]:
    problems = []
    if payload.get("all_passed") is not True:
        problems.append("all_passed is not true")
    checks, ref_checks = payload.get("checks", []), reference["checks"]
    names = [c.get("name") for c in checks]
    if names != [c["name"] for c in ref_checks]:
        return [f"mismatch: check names {names}"] + [f"mismatch: {p}" for p in problems]
    for check, ref in zip(checks, ref_checks):
        name = ref["name"]
        problems += compare(ref["passed"], check.get("passed"), f"{name}.passed")
        detail = check.get("detail", "")
        if name == "choi_decomposition":
            # the Monte-Carlo numbers depend on the seed; check them against the tolerance
            match = _CHOI_DETAIL.match(detail)
            if match is None:
                problems.append(f"{name}.detail has an unexpected form: {detail!r}")
                continue
            resid, diff, tol = (float(match.group(i)) for i in (1, 2, 3))
            if int(match.group(4)) != samples or int(match.group(5)) != seed:
                problems.append(f"{name}.detail reports another samples or seed: {detail!r}")
            if f"{5.0 / math.sqrt(samples):.2e}" != match.group(3) or not max(resid, diff) <= tol:
                problems.append(f"{name}.detail is outside its tolerance: {detail!r}")
            continue
        text, numbers = _detail_values(detail)
        ref_text, ref_numbers = _detail_values(ref["detail"])
        if text != ref_text:
            problems.append(f"{name}.detail {detail!r} != {ref['detail']!r}")
        else:
            problems += compare(ref_numbers, numbers, f"{name}.detail")
    return [f"mismatch: {p}" for p in problems]


def _check_haar(values: dict, reference: dict) -> list[str]:
    problems = [f"mismatch: {p}" for p in compare(reference, values)]
    gap = abs(values["haar_fidelity"] - values["matrix_fidelity"])
    if not gap <= FLOAT_TOL:
        problems.append(f"missed tolerance: |haar - matrix| = {gap:.2e} > {FLOAT_TOL:g}")
    return problems


def _check_choi(values: dict, reference: dict) -> list[str]:
    problems = [f"mismatch: {p}" for p in compare(reference["fidelity"], values["fidelity"],
                                                   "fidelity")]
    tol = values["tolerance"]
    diff = abs((1.0 - values["a"]) - values["fidelity"])
    if not values["residual"] <= tol:
        problems.append(f"missed tolerance: residual {values['residual']:.2e} > {tol:.2e}")
    if not diff <= tol:
        problems.append(f"missed tolerance: |(1-a) - F| = {diff:.2e} > {tol:.2e}")
    return problems


def check(op, outcome, references: dict, seed: int, samples: int) -> list[str]:
    """Failure reasons for one operation's outcome; empty when it is correct."""
    problems = []
    if outcome.exit_code != 0:
        message = outcome.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {outcome.exit_code}: {message[0]}")
    if outcome.output is None:
        return problems or ["mismatch: no output"]
    reference = references.get(op.name)
    if op.kind in ("protocol", "verify"):
        try:
            payload = json.loads(outcome.output)
        except json.JSONDecodeError as exc:
            return problems + [f"mismatch: output is not JSON ({exc})"]
        if op.kind == "protocol":
            return problems + _check_protocol(op, payload, reference)
        return problems + _check_verify(payload, reference, seed, samples)
    if op.kind == "haar":
        return problems + _check_haar(outcome.output, reference)
    return problems + _check_choi(outcome.output, reference)


def self_test(references: dict) -> None:
    """Feed the checker correct and perturbed outputs; raise if it misjudges one."""
    ops = {op.name: op for ops in WORKLOADS.values() for op in ops}
    op = ops["protocol d=2 n=512"]
    good = references[op.name]
    flipped = copy.deepcopy(good)
    flipped["pass_flags"]["eq5"] = not flipped["pass_flags"]["eq5"]
    nudged = copy.deepcopy(good)
    nudged["fidelity_optimal"] += 1e-8
    verify_op = ops["verify"]
    verify_flipped = copy.deepcopy(references["verify"])
    verify_flipped["checks"][0]["passed"] = False
    cases = (
        (op, good, True),
        (op, flipped, False),
        (op, nudged, False),
        (verify_op, references["verify"], True),
        (verify_op, verify_flipped, False),
    )
    for case_op, payload, accept in cases:
        outcome = Outcome(0, json.dumps(payload))
        accepted = not check(case_op, outcome, references, seed=0, samples=10**6)
        if accepted != accept:
            raise AssertionError(
                f"output checker {'rejected' if accept else 'accepted'} "
                f"{'a correct' if accept else 'a perturbed'} {case_op.name} output"
            )

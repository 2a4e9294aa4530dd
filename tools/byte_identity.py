"""Compare the CLI's output bytes between this checkout and another one.

    python3 tools/byte_identity.py OTHER_CHECKOUT

Runs one fixed list of argument vectors through ``gateprog.cli.run`` in two
interpreters, one importing this checkout's ``src/`` and one importing
OTHER_CHECKOUT's, and compares each vector's stdout, stderr and exit code by
sha256.  Prints every mismatch and exits 1 if there is one, 0 if there is none.
With this checkout as OTHER_CHECKOUT it checks that every output is
deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "src"))
from gateprog.verify import NS_D3, SMALL_NS_D2  # noqa: E402

# protocol-grid's five points, then the points of verify's protocol reports (d=2
# n=512 is in both), then eight frontier points: the 2^20-member d=3 box, d=4 n=1200,
# whose squared dimensions exceed 2^63, the 2^20-member d=5 box on the dense
# sine-transform path, the 15-dimensional N=2 box of d=16, d=2 n=2097152, whose
# lattice has 2^20 members, the 2^20-member d=6 box, 15 edge directions over its
# members, and d=4 n=1201 and d=5 n=827, the boxes of n=1200 and 826 on another flat
# base, whose dimension sums read a corner with weights other than 1, then the member
# budget's edge at d=11 and d=21: n=729 and n=1639, the largest n the budget admits
# there, d=2 n=2^40, whose report builds 3 of its 2^39 members and solves nothing, and
# two more whole-box corners at the budget's edge: d=7 n=611 (N=10, 10^6 members) and
# d=13 n=821 (N=3)
PROTOCOL_POINTS = tuple(dict.fromkeys(
    ((2, 512), (2, 1024), (2, 4096), (3, 600), (4, 300))
    + tuple((2, n) for n in SMALL_NS_D2)
    + tuple((3, n) for n in NS_D3)
    + ((3, 7167), (4, 1200), (5, 826), (16, 661), (2, 2097152), (6, 630), (4, 1201), (5, 827))
    + ((11, 729), (21, 1639), (2, 2**40), (7, 611), (13, 821))
))

VECTORS = (
    *(["protocol", "--d", str(d), "--n", str(n), "--format", "json"] for d, n in PROTOCOL_POINTS),
    *(["verify", "--format", fmt, "--seed", str(seed)]
      for fmt in ("json", "csv") for seed in range(5)),
    *(["sweep", "--d", d, "--n-min", low, "--n-max", high, "--format", fmt]
      for d, low, high in (("2", "4", "512"), ("3", "13", "80")) for fmt in ("json", "csv")),
    *([*argv, "--format", fmt] for fmt in ("json", "table") for argv in (
        ["phase", "--dp", "64"],
        ["table1", "--d", "2", "--eps", "0.01", "--K", "1"],
        ["bounds", "--d", "2", "--eps", "1e-6", "--delta", "0.1"],
        ["bounds", "--d", "2", "--eps", "1e-6"],
    )),
    ["protocol", "--d", "3", "--n", "8000"],  # a box over the 2^20-member budget
    ["sweep", "--d", "3", "--n-min", "8000", "--n-max", "8002"],  # refused at its solve
    # a 2^22-member lattice, of which each d=2 report builds 3 members: three reports
    ["sweep", "--d", "2", "--n-min", str(2**23), "--n-max", str(2**23 + 2)],
    ["sweep", "--d", "30", "--n-min", "3000", "--n-max", "3002"],  # N = 2: 2^29 members
    ["protocol", "--d", "2", "--n", str(2**63)],  # past the int64 rows
    ["protocol", "--d", "1", "--n", "8"],
    ["protocol", "--d", "3", "--n", "12"],  # N = 1
)

# run in the child: read the vectors from stdin, print one digest triple per vector
CHILD = """
import contextlib, hashlib, io, json, os, sys
src = sys.argv[1]
sys.path.insert(0, src)
import gateprog.cli
if not os.path.abspath(gateprog.cli.__file__).startswith(src + os.sep):
    sys.exit(f"imported {gateprog.cli.__file__}, not the gateprog of {src}")
digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gateprog.cli.run(argv)
    results.append({"stdout": digest(out.getvalue()), "stderr": digest(err.getvalue()),
                    "exit code": code})
print(json.dumps(results))
"""


def start(checkout: str) -> subprocess.Popen:
    src = os.path.join(os.path.abspath(checkout), "src")
    return subprocess.Popen([sys.executable, "-c", CHILD, src], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sides = {"this checkout": start(HERE), argv[0]: start(argv[0])}
    outputs = {name: process.communicate(json.dumps(VECTORS)) for name, process in sides.items()}
    failed = [name for name, process in sides.items() if process.returncode]
    for name in failed:
        print(f"{name}: the harness failed:\n{outputs[name][1]}", file=sys.stderr)
    if failed:
        return 1
    mine, theirs = (json.loads(out) for out, _ in outputs.values())
    mismatches = 0
    for vector, a, b in zip(VECTORS, mine, theirs):
        differ = [key for key in a if a[key] != b[key]]
        if differ:
            mismatches += 1
            print(f"MISMATCH gateprog {' '.join(vector)}: {', '.join(differ)}")
    print(f"{len(VECTORS)} vectors, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

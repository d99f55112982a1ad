"""The three benchmark workloads: seeded inputs, the calls, and output checks.

Every workload is a closed loop with one client: each call starts when the
previous one has returned.  A pass runs every input of the workload once;
passes repeat until the measuring time is spent.

* ``check_large`` -- in-process ``lefschetz check slp|wlp ... --format json``
  calls on large 3- and 4-variable Artinian quotients made from the seed,
  plus the complete-intersection anchors S/(x^n, y^n, z^n), n = 3..8.
* ``sweep_small`` -- ``sweep_tensor`` and ``sweep_type_two`` on their fixed
  corpora: hundreds of tiny Lefschetz scans.
* ``certify_staircase`` -- ``sweep_pipeline`` and ``sweep_lgv_oracle``: the
  LGV certificate chain and the path-count oracle, which never run the
  Lefschetz scan.

The sweep corpora are fixed by the package, so the seed changes only the
inputs of ``check_large``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import comb
from pathlib import Path
from typing import Optional

VARIABLES = "xyzt"
RANDOM_CHECKS = 48
ANCHOR_SIZES = range(3, 9)
GOLDEN_PATH = Path(__file__).with_name("golden_check_large.json")


def _monomial(exponents: list[int]) -> str:
    parts = [
        v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, exponents) if e
    ]
    return "*".join(parts) or "1"


def _check_case(rng: random.Random, slot: int) -> list[str]:
    """One random check.  The slot fixes a template, the seed its variables.

    The slot fixes the ambient ring, the box, the mixed generators and the
    numerator on canonical variables, and the property; the seed permutes
    the variables.  Every seed thus gets its own inputs while each slot's
    cost stays the same, so latency percentiles compare across seeds.
    """
    nvars = 4 if slot % 8 == 7 else 3
    if nvars == 4:
        box = [4, 4, 4, 3 + (slot >> 3) % 2]
    else:
        box = [6 + (slot >> s) % 2 for s in (3, 4, 5)]
    # Mixed generators x_0^(a_0-1) x_1^(a_1-1), and x_1^(a_1-1) x_2^(a_2-1)
    # on odd slots: they cut the corners of the box.
    exponents = [[box[v] if v == u else 0 for v in range(nvars)] for u in range(nvars)]
    for pair in ((0, 1), (1, 2))[: 1 + slot % 2]:
        exponents.append([box[v] - 1 if v in pair else 0 for v in range(nvars)])
    numerator = [[1 if v == 0 else 0 for v in range(nvars)]] if slot % 4 == 1 else []
    order = rng.sample(range(nvars), nvars)

    def permuted(gens: list[list[int]]) -> str:
        return ", ".join(_monomial([e[order[v]] for v in range(nvars)]) for e in gens) or "1"

    prop = "wlp" if slot % 8 == 3 else "slp"
    return ["check", prop, "--num", permuted(numerator), "--den", permuted(exponents),
            "--format", "json"]


def anchor_case(n: int) -> list[str]:
    return ["check", "slp", "--num", "1", "--den", f"x^{n}, y^{n}, z^{n}", "--format", "json"]


def check_large_inputs(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    cases = [_check_case(rng, slot) for slot in range(RANDOM_CHECKS)]
    return cases + [anchor_case(n) for n in ANCHOR_SIZES]


def run_check(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in-process; its exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_golden(seed: int) -> Optional[list[str]]:
    """Recorded report digests for this seed, or None if none were recorded."""
    with open(GOLDEN_PATH) as f:
        return json.load(f)["digests"].get(str(seed))


class CheckLarge:
    def __init__(self, seed: int) -> None:
        self.inputs = check_large_inputs(seed)
        self.expected = load_golden(seed)
        if self.expected is not None and len(self.expected) != len(self.inputs):
            raise ValueError("recorded reports do not match the inputs")

    def warm_up(self, pkg) -> None:
        run_check(pkg.cli, anchor_case(3))

    def call(self, pkg, argv):
        return run_check(pkg.cli, argv)

    def verify(self, index: int, argv: list[str], output) -> tuple[bool, int, int]:
        """(ok, cases, violations) for one check.

        The report must be the one recorded for this seed, byte for byte;
        without a recording, the first pass of the run is the record.  Each
        report must be internally consistent, and the anchors must have the
        SLP (Stanley-Watanabe).
        """
        code, text = output
        digest = report_digest(text)
        if self.expected is None:
            self.expected = [None] * len(self.inputs)
        if self.expected[index] is None:
            self.expected[index] = digest
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError):
            return False, 1, 0
        ok = (
            code == 0
            and digest == self.expected[index]
            and result["holds"] == (not result["failures"])
        )
        if index >= RANDOM_CHECKS:
            ok = ok and result["property"] == "SLP" and result["holds"]
        return ok, 1, 0


# Each sweep call: (function, keyword arguments, exact case count).  The
# counts are closed forms of the corpus sizes, independent of the package.


def _tensor(limit: int) -> tuple:
    return ("sweep_tensor", {"limit": limit}, sum(a + 1 for a in range(1, limit + 1)) ** 2)


def _type_two(limit: int) -> tuple:
    return ("sweep_type_two", {"limit": limit}, sum(a - 1 for a in range(2, limit + 1)) ** 3)


def _pipeline(box: int) -> tuple:
    cases = sum(comb(a + b, a) for a in range(2, box + 1) for b in range(2, box + 1))
    return ("sweep_pipeline", {"amax": box, "bmax": box}, cases)


def _lgv_oracle(max_value: int, max_len: int) -> tuple:
    cases = sum(comb(max_value + 1, m) ** 2 for m in range(1, max_len + 1))
    return ("sweep_lgv_oracle", {"max_value": max_value, "max_len": max_len}, cases)


class Sweeps:
    """A fixed list of sweep calls, each checked against its exact case count."""

    def __init__(self, calls: list, warm_calls: list) -> None:
        self.inputs = calls
        self.warm_calls = warm_calls

    def warm_up(self, pkg) -> None:
        for call in self.warm_calls:
            self.call(pkg, call)

    def call(self, pkg, call):
        function, kwargs, _cases = call
        return getattr(pkg.sweeps, function)(**kwargs)

    def verify(self, index: int, call, summary: dict) -> tuple[bool, int, int]:
        _function, _kwargs, cases = call
        violations = len(summary["violations"])
        ok = summary["ok"] is True and summary["cases"] == cases and violations == 0
        return ok, summary["cases"], violations


def sweep_small() -> Sweeps:
    return Sweeps([_tensor(3), _type_two(4)], [_tensor(2), _type_two(2)])


def certify_staircase() -> Sweeps:
    return Sweeps([_pipeline(5), _lgv_oracle(7, 3)], [_pipeline(3), _lgv_oracle(3, 2)])


def make(name: str, seed: int):
    if name == "check_large":
        return CheckLarge(seed)
    if name == "sweep_small":
        return sweep_small()
    if name == "certify_staircase":
        return certify_staircase()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("check_large", "sweep_small", "certify_staircase")

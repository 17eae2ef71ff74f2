"""The benchmark's workloads and the checks on every operation's output.

An operation is one ``tmf3`` command line, run in a fresh process. A pass is
the workload's list of operations, run one after another.

- ``verify``: ``tmf3 verify --all --json``, the whole product.
- ``cli``: about thirty quick subcommands whose parameters come from the seed,
  after the fixed README examples; start-up and small-operand arithmetic.
- ``chart``: four chart windows above the default; almost pure ``sseq`` work.
  ``--window 12,300,8`` fails on the current code (see ``NOTES.md``) and is
  kept as a known defect.

The seed only changes the ``cli`` parameters; ``verify`` and ``chart`` take
no inputs that a seed could vary.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# The tmf3 modules each workload's commands import, for `setup_s`: a fresh
# interpreter imports these and runs no command. Each list loads, with its
# imports, exactly the tmf3 modules the workload's operations load.
SETUP_IMPORTS = {
    "verify": ["tmf3.cli", "tmf3.verify", "tmf3.levelmaps", "tmf3.qexp",
               "tmf3.funfield", "tmf3.sseq"],
    "cli": ["tmf3.cli", "tmf3.weierstrass", "tmf3.levelmaps", "tmf3.qexp",
            "tmf3.sseq"],
    "chart": ["tmf3.cli", "tmf3.sseq"],
}

# The message of the known `chart` defect on S = 12 windows with
# W = 2, 6, 12, 16, 20 (mod 24).
CHART_DEFECT = "Delta-multiplication not injective"

_TIMING_FIELD = re.compile(r"\(\d+(?:\.\d+)?s\)")


@dataclass(frozen=True)
class Op:
    """One command line. `same_result_as` names an earlier operation of the
    pass whose ``--json`` result this one must equal; `known_defect` is the
    stderr text of a known failure that does not count as failed."""

    argv: tuple
    same_result_as: int | None = None
    known_defect: str | None = None

    @property
    def key(self):
        return shlex.join(self.argv)

    @property
    def family(self):
        return self.argv[0]


def workload_ops(name, seed):
    if name == "verify":
        return [Op(("verify", "--all", "--json"))]
    if name == "chart":
        return [Op(("chart", "--window", "12,200,8", "--page", "Einf", "--json")),
                Op(("chart", "--window", "12,250,8", "--page", "E4", "--json")),
                Op(("chart", "--window", "8,300,12", "--page", "Einf")),
                Op(("chart", "--window", "12,300,8"), known_defect=CHART_DEFECT)]
    if name == "cli":
        return cli_ops(seed)
    raise ValueError(f"unknown workload {name!r}")


# -- the cli mix ---------------------------------------------------------------

README_OPS = [
    ("invariants", "--curve", "0,0,1,-1,0"),
    ("invariants",),
    ("maps", "--apply", "tstar", "--expr", "a1*a3"),
    ("maps", "--expr", "qstar(c4) - fstar(c4)"),
    ("delta", "--c4-pow", "2", "--val2"),
    ("delta", "--delta-pow", "1", "--range", "1..8"),
    ("qexp", "--expr", "c4^3 - c6^2 - 1728*Delta", "--precision", "20"),
    ("qexp", "--eisenstein", "8"),
    ("chart",),
]


def _frac(rng, span=12, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _csv(values):
    return ",".join(str(v) for v in values)


def _level1_monomial(rng, max_weight=40, min_delta=-1):
    """c4^a c6^b Delta^d with weight 4a + 6b + 12d in 0..max_weight."""
    while True:
        a, b, d = rng.randint(0, 6), rng.randint(0, 3), rng.randint(min_delta, 2)
        if (a or b or d) and 0 <= 4 * a + 6 * b + 12 * d <= max_weight:
            return "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in (("c4", a), ("c6", b), ("Delta", d)) if e)


def normal_form_with_point(rng):
    """A curve with an affine point of order 3, made by moving the origin of
    y^2 + A1 xy + A3 y = x^3 with a random coordinate change (lam, r, s, t).
    Returns the curve's coefficients and the point."""
    while True:
        A1, A3 = _frac(rng, 6, 3), _frac(rng, 6, 3)
        if A3 != 0 and A1 ** 3 != 27 * A3:
            break
    lam = Fraction(rng.choice([1, -1, 2, -2, 3])) / rng.choice([1, 2])
    r, s, t = _frac(rng, 5, 2), _frac(rng, 5, 2), _frac(rng, 5, 2)
    a1, a2, a3, a4, a6 = A1, 0, A3, 0, 0
    curve = (lam * (a1 + 2 * s),
             lam ** 2 * (a2 - s * a1 + 3 * r - s * s),
             lam ** 3 * (a3 + r * a1 + 2 * t),
             lam ** 4 * (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t),
             lam ** 6 * (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1))
    point = (lam ** 2 * -r, lam ** 3 * (s * r - t))
    c1, c2, c3, c4, c6 = curve
    x, y = point
    if y * y + c1 * x * y + c3 * y != x ** 3 + c2 * x * x + c4 * x + c6:
        raise AssertionError("moved point is off the moved curve")
    return curve, point


def cli_ops(seed):
    """The fixed README examples, then seeded commands in ``--json`` form.
    Negative values are passed as ``--flag=value`` so that argparse does not
    read them as flags."""
    rng = random.Random(seed)
    ops = [Op(argv) for argv in README_OPS]

    def add(*argv, same_result_as=None):
        ops.append(Op(tuple(argv) + ("--json",), same_result_as))

    for _ in range(3):
        add("invariants", "--curve=" + _csv(_frac(rng) for _ in range(5)))
    for _ in range(3):
        curve, point = normal_form_with_point(rng)
        add("normalize", "--curve=" + _csv(curve), "--point=" + _csv(point))
    for _ in range(2):
        i = rng.randint(0, 12)
        j = 2 * rng.randint(0, 4) + i % 2   # t* needs a sigma-invariant monomial
        add("maps", "--apply", "tstar", "--expr", f"a1^{i}*a3^{j}")
    form = _level1_monomial(rng)
    add("maps", "--apply", "tstar", "--expr", f"fstar({form})")
    add("maps", "--expr", f"tstar(fstar({form}))", same_result_as=len(ops) - 1)
    form = _level1_monomial(rng)
    add("maps", "--expr", f"qstar({form}) - fstar({form})")
    # fixed-length ranges, one from each half of 1..32, so that the work
    # varies little from seed to seed
    for low, high in ((1, 12), (13, 27)):
        a = rng.randint(low, high)
        add("delta", "--c4-pow", str(a), "--val2", "--range", f"{a}..{a + 5}")
    for low, high in ((1, 12), (13, 27)):
        a = rng.randint(low, high)
        add("delta", "--delta-pow", str(a), "--range", f"{a}..{a + 5}")
    for _ in range(2):
        terms = [f"{rng.randint(-9, 9)}*{_level1_monomial(rng, 24, 0)}" for _ in range(2)]
        expr = " + ".join(terms) + f" - q^{rng.randint(1, 5)}/(1 - q)"
        add("qexp", "--expr=" + expr, "--precision", str(rng.randint(5, 40)))
    for _ in range(2):
        add("qexp", "--eisenstein", str(2 * rng.randint(2, 20)))
    add("chart", "--page", rng.choice(["E2", "E4", "E7", "Einf"]))
    return ops


# -- checks ----------------------------------------------------------------------

def normalize_stdout(text):
    """Stdout with the per-item `(N.NNs)` timings of `verify` blanked."""
    return _TIMING_FIELD.sub("(s)", text)


def digest(text):
    return hashlib.sha256(normalize_stdout(text).encode()).hexdigest()


def load_goldens():
    return json.loads(GOLDENS_PATH.read_text())


def parse_json_output(stdout):
    """(payload, None) for a ``--json`` output with a checks list, else
    (None, reason)."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None, "stdout is not JSON"
    checks = payload.get("checks") if isinstance(payload, dict) else None
    if not isinstance(checks, list):
        return None, "no checks list"
    return payload, None


def _invariants(a1, a2, a3, a4, a6):
    """b2, b4, b6, b8, c4, c6, Delta and (if Delta != 0) j of a curve."""
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4, c6 = b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    inv = {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6,
           "Delta": disc}
    if disc:
        inv["j"] = c4 ** 3 / disc
    return inv


def _flag_values(op, flag):
    value = next(a for a in op.argv if a.startswith(flag + "=")).split("=", 1)[1]
    return [Fraction(x) for x in value.split(",")]


def _oracle(op, payload):
    """Checks the benchmark makes itself, from the command line alone, on
    outputs that the CLI checks only against its own values. Returns a
    failure reason or None."""
    result = payload["result"]
    if op.family == "invariants" and op.argv[1].startswith("--curve="):
        for name, value in _invariants(*_flag_values(op, "--curve")).items():
            if Fraction(result[name]) != value:
                return f"{name} = {result[name]}, expected {value}"
    if op.family == "normalize":
        A1, A3 = Fraction(result["A1"]), Fraction(result["A3"])
        normal = _invariants(A1, 0, A3, 0, 0)
        given = _invariants(*_flag_values(op, "--curve"))
        if "j" not in normal or normal["j"] != given.get("j"):
            return "normal form is not isomorphic to the given curve"
    return None


def judge(op, rc, stdout, stderr, goldens, earlier=()):
    """Classify one finished operation: ("ok", None), ("defect", reason) for
    a known defect, or ("failed", reason). `earlier` holds the parsed
    ``--json`` payloads of the pass so far, by index."""
    if op.known_defect:
        if rc == 1 and op.known_defect in stderr:
            return "defect", op.known_defect
    elif op.key in goldens:
        golden = goldens[op.key]
        if rc != golden["rc"]:
            return "failed", f"exit {rc}, golden exit {golden['rc']}"
        if digest(stdout) != golden["sha256"]:
            return "failed", "stdout differs from the golden output"
    if rc != 0:
        return "failed", f"exit {rc}: {stderr.strip()[-200:]}"
    if "--json" not in op.argv:
        return "ok", None
    payload, reason = parse_json_output(stdout)
    if payload is None:
        return "failed", reason
    bad = [c.get("name") if isinstance(c, dict) else c for c in payload["checks"]
           if not isinstance(c, dict) or c.get("pass") is not True]
    if bad:
        return "failed", f"checks failed: {bad}"
    try:
        reason = _oracle(op, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        reason = f"malformed result: {exc!r}"
    if reason:
        return "failed", reason
    if op.same_result_as is not None:
        other = earlier[op.same_result_as] if op.same_result_as < len(earlier) else None
        if other is None or other.get("result") != payload.get("result"):
            return "failed", f"result differs from operation {op.same_result_as}"
    return "ok", None

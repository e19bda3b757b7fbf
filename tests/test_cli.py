import contextlib
import hashlib
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from circforge import AbelianGroup, DiagonalAction, FracPoly, VarSpace, apply_group, jsonio, root_of_unity
from circforge.cli import COMMANDS, run

from conftest import CHILD_ENV, json_nodes, json_replace

GOLDEN = Path(__file__).parent / "golden"


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_det_cpk_text(capsys):
    code, out = _capture(capsys, ["gcirc", "det", "--group", "Z2", "--cpk"])
    assert code == 0 and out.strip() == "z^2 - w*x^2"
    code, out = _capture(capsys, ["gcirc", "det", "--group", "Z3", "--cpk"])
    assert code == 0 and out.strip() == "z^3 + w*y^3 - 3*w*z*y*x + w^2*x^3"


def test_resinv_atw(capsys):
    code, out = _capture(capsys, ["resinv", "atw", "--parts", "2,2"])
    assert code == 0 and out.strip() == "4,4,6,6,6"
    code, out = _capture(capsys, ["resinv", "atw", "--parts", "3,2"])
    assert code == 0 and out.strip() == "5,5,20/3,20/3,8,10"


def test_abelian_perp(capsys):
    code, out = _capture(capsys, ["abelian", "perp", "--group", "2,4", "--sub", "(1,2)"])
    assert code == 0
    assert "perp = {(0,0), (0,2), (1,1), (1,3)}" in out


def test_json_output_roundtrip(capsys):
    code, out = _capture(capsys, ["--format", "json", "gcirc", "det", "--group", "Z2", "--cpk"])
    assert code == 0
    payload = json.loads(out)
    poly = jsonio.poly_from_json(payload["polynomial"])
    assert jsonio.poly_to_json(poly) == payload["polynomial"]


def test_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        _code, out = _capture(capsys, ["gcirc", "validate", "--spec", "z2z4"])
        runs.append(out)
    assert runs[0] == runs[1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["gcirc", "nonsense"])
    assert err.value.code == 2


# z^2 and 0 over the free variables z, x
_Z2 = '{"space":{"divisorial":[],"free":["z","x"]},"terms":[{"w":[],"free":[2,0],"coeff":{"order":1,"coeffs":["1"]}}]}'
_Z2_ZERO = '{"space":{"divisorial":[],"free":["z","x"]},"terms":[]}'
# z^2 - x^2 with z divisorial
_Z2_DIV = (
    '{"space":{"divisorial":[{"name":"z","bound":1}],"free":["x"]},"terms":['
    '{"w":["0"],"free":[2],"coeff":{"order":1,"coeffs":["-1"]}},{"w":["2"],"free":[0],"coeff":{"order":1,"coeffs":["1"]}}]}'
)
# (z + e3 x)(z + e4 x): it splits, but the discriminant's square root is
# beyond cyclo_nth_root, so the search is undecided
_ZX = VarSpace([], ["z", "x"])
_E3E4 = json.dumps(
    jsonio.poly_to_json(
        math.prod(FracPoly.variable(_ZX, "z") + FracPoly.variable(_ZX, "x").scale(root_of_unity(k)) for k in (3, 4))
    )
)
# the sign action on a, b, and the polynomials 0, a, b and a + b over a, b
_AB_SIGN = '{"moduli":[2],"weights":{"a":[0],"b":[1]}}'
_AB_TERM = '{"w":[],"free":[%s],"coeff":{"order":1,"coeffs":["1"]}}'
_AB_ZERO, _AB_A, _AB_B, _AB_SUM = (
    '{"space":{"divisorial":[],"free":["a","b"]},"terms":[%s]}' % terms
    for terms in ("", _AB_TERM % "1,0", _AB_TERM % "0,1", _AB_TERM % "1,0" + "," + _AB_TERM % "0,1")
)

# a one-factor product spec of cp2, and a spec whose exponent 1/2 lies outside
# (1/3)Z, so that the generator of Z/3 swaps the two eigen factors
_CP2 = {"moduli": [2], "k": 2, "gamma": [["1/2"]], "quotient": {"moduli": [2]}, "labels": [[0], [1]]}
_SPEC_PRODUCT = json.dumps({"factors": [_CP2]})
_SPEC_OUT_OF_RANGE = json.dumps({**_CP2, "moduli": [3]})
# the ladder of cp2 with its exponent 1/2 replaced by 0
_SPEC_UNREALIZED = json.dumps({**_CP2, "gamma": [["0"]]})

# polynomials in x: one with the term x twice, one whose coefficient vector is
# too long, one whose vector is empty, and 0
_X_POLY = '{"space":{"divisorial":[],"free":["x"]},"terms":[%s]}'
_X_TERM = '{"w":[],"free":[1],"coeff":{"order":%d,"coeffs":[%s]}}'
_X_TWICE = _X_POLY % (_X_TERM % (1, '"1"') + "," + _X_TERM % (1, '"2"'))
_X_LONG_COEFF = _X_POLY % (_X_TERM % (2, '"1","1","1"'))
_X_NO_COEFFS = _X_POLY % (_X_TERM % (3, ""))
_X_ZERO = _X_POLY % ""


@pytest.mark.parametrize(
    "argv, match",
    [(argv, None) for argv in [
        ["gcirc", "det", "--group", "Z2xZ2", "--cpk"],
        ["ncquot", "normalize", "--action", '{"moduli":[2]}', "--factors", "[]"],
        ["gcirc", "validate", "--spec", "{}"],
        ["ncquot", "normalize", "--action", '{"moduli":[2],"weights":{"x":[1]}}', "--factors", "[1]"],
        ["ncquot", "normalize", "--action", '{"moduli":[2],"weights":{"x":[1]}}', "--factors", '[{"space":{}}]'],
        ["ncquot", "normalize", "--action", '{"moduli":[2],"weights":[]}', "--factors", "[]"],
        ["ncquot", "normalize", "--action", '{"moduli":[2],"weights":{"x":5}}', "--factors", "[]"],
        ["ncquot", "normalize", "--action", '{"moduli":[2],"weights":{"x":[[1]]}}', "--factors", "[]"],
        ["gcirc", "codim1", "--spec", "cpk:5", "--index", "1"],
        ["gcirc", "validate", "--spec", '{"moduli":5,"k":2,"gamma":[],"quotient":{"moduli":[2]},"labels":[]}'],
        ["split", "newton", "--poly", _Z2, "--z", "q"],
        ["split", "verify", "--poly", _Z2, "--roots", "[]", "--z", "q"],
        ["resinv", "recursion", "--ideal", "[1]"],
        ["resinv", "recursion", "--ideal", "[{}]"],
        ["resinv", "recursion"],
        ["ncquot", "normalize", "--action", '{"moduli":5,"weights":{}}', "--factors", "[]"],
        ["resinv", "recursion", "--ideal", '[{"monomial":5,"order":1}]'],
        ["gcirc", "validate", "--spec", "@/nonexistent"],
        ["split", "newton", "--poly", _Z2.replace('"free":[2,0]', '"free":[null,0]')],
        ["gcirc", "clean", "--gamma", "5", "--moduli", "2"],
        ["gcirc", "det", "--group", "Z2", "--values", "5"],
        ["ncquot", "adapt", "--action", '{"moduli":[2],"weights":{}}', "--stratum", "5"],
        ["resinv", "inv", "--k", "0"],
        ["resinv", "atw"],
        ["blowup", "pullback", "--spec", "cp2", "--chart", "3"],
        ["blowup", "transition", "--params", "x,y", "--weights", "1,1", "--i", "0", "--j", "5"],
        ["gcirc", "det", "--cpk"],
        ["abelian", "perp", "--group", "2,4", "--k", "0"],
        ["ncquot", "normalize", "--action", _AB_SIGN, "--factors", f"[{_AB_ZERO}]"],
        ["ncquot", "normalize", "--action", _AB_SIGN, "--factors", f"[{_AB_SUM},{_AB_SUM}]"],
        ["ncquot", "adapt", "--action", _AB_SIGN, "--divisors", f"[{_AB_B},{_AB_B}]", "--stratum", f"[{_AB_A}]"],
        ["gcirc", "clean", "--gamma", "[[1],[2]]", "--moduli", "2,2"],
        ["gcirc", "clean", "--gamma", "[[1,5,7]]", "--moduli", "2"],
        ["split", "newton", "--poly", _E3E4],
    ]]
    + [
        (["abelian", "quotient", "--group", "2", "--sub", "(1);(1,2)"], "2 residues .* of rank 1"),
        (
            ["gcirc", "validate", "--spec", '{"moduli":[2],"k":2,"gamma":[["1/2"]],"quotient":{"moduli":[2]},"labels":[[0],[1,0]]}'],
            "2 residues .* of rank 1",
        ),
        (["gcirc", "det", "--group", "2", "--values", f"[{_X_TWICE},{_X_ZERO}]"], r"terms\[1\]: repeats the exponents"),
        (["gcirc", "det", "--group", "2", "--values", f"[{_X_LONG_COEFF},{_X_ZERO}]"], r"coeff\.coeffs: expected 2 entries, got 3"),
        (["gcirc", "det", "--group", "2", "--values", f"[{_X_NO_COEFFS},{_X_ZERO}]"], r"coeff\.coeffs: expected 3 entries, got 0"),
        (["gcirc", "clean", "--gamma", '[["1/2"],["1/3"]]', "--moduli", "0"], "moduli must be positive"),
        (["gcirc", "clean", "--gamma", '[["1/2"],["1/3"]]', "--moduli", "-6"], "moduli must be positive"),
        (["abelian", "xi", "--group", "2,4", "--ell", "(1,1);(0,1)"], r"^--ell: expected one element, got 2"),
        (["blowup", "charts", "--params", "w,x", "--weights", "1,2", "--divisorial", "w"], r"^--divisorial: expected name:bound"),
        # a piece that is not an integer names its flag
        (["gcirc", "clean", "--gamma", '[["1/2"],["1/3"]]', "--moduli", "a"], "^--moduli: expected an integer, got 'a'$"),
        (["blowup", "charts", "--params", "w,x", "--weights", "1,x"], "^--weights: expected an integer, got 'x'$"),
        (
            ["blowup", "charts", "--params", "w,x", "--weights", "1,2", "--divisorial", "w:x"],
            "^--divisorial: expected an integer, got 'x'$",
        ),
        (["abelian", "xi", "--group", "2,4", "--ell", "(1,x)"], "^--ell: expected an integer, got 'x'$"),
        (["abelian", "perp", "--group", "2,y"], "^--group: expected an integer, got 'y'$"),
        # a Z prefix with no factor after it names no group
        (["abelian", "perp", "--group", "Z"], "^--group: expected at least one factor$"),
        (["abelian", "perp", "--group", "zx"], "^--group: expected at least one factor$"),
        # a product spec where a single normal form is needed
        (["gcirc", "validate", "--spec", _SPEC_PRODUCT], "^gcirc validate expects a single normal form$"),
        (["gcirc", "codim1", "--spec", _SPEC_PRODUCT], "^gcirc codim1 expects a single normal form$"),
        # a power below 1 or a negative branch cap, refused also when the
        # polynomial has no divisorial variable
        (["split", "newton", "--poly", _Z2, "--powers", "0"], "^powers must be at least 1, got 0$"),
        (["split", "newton", "--poly", _Z2, "--cap", "-1"], "^branch_cap must be at least 0, got -1$"),
        (
            ["split", "verify", "--poly", _Z2, "--roots", f"[{_Z2_ZERO},{_Z2_ZERO}]", "--powers", "0"],
            "^powers must be at least 1, got 0$",
        ),
        # a negative degree bound, refused also when the root count is wrong
        (["split", "verify", "--poly", _Z2, "--roots", "[]", "--degree", "-3"], "^degree bound must be >= 0$"),
        # clearing denominators would rename a divisorial split variable
        (["split", "newton", "--poly", _Z2_DIV], "^the split variable z must be a free variable, not divisorial$"),
        (["split", "verify", "--poly", _Z2_DIV, "--roots", "[]"], "^the split variable z must be a free variable, not divisorial$"),
        # pullback takes one valid single-divisor normal form, refused before
        # any weight is read off its exponents
        (["blowup", "pullback", "--spec", _SPEC_OUT_OF_RANGE], "^blowup pullback: the spec fails validation"),
        (["blowup", "pullback", "--spec", _SPEC_UNREALIZED], "^blowup pullback: the spec fails validation"),
        (["blowup", "pullback", "--spec", "klein"], "supports one divisor"),
        (["blowup", "pullback", "--spec", _SPEC_PRODUCT], "^blowup pullback expects a single normal form$"),
        # a payload that is not JSON names its flag
        (["gcirc", "clean", "--gamma", "x", "--moduli", "2"], r"^--gamma: Expecting value: line 1 column 1 \(char 0\)$"),
        (["split", "newton", "--poly", "z^2-x"], r"^--poly: Expecting value: line 1 column 1 \(char 0\)$"),
        (["ncquot", "normalize", "--action", "{", "--factors", "[]"], "^--action: Expecting property name"),
        # the circulant matrix has order^2 entries, so its order is bounded
        (["gcirc", "matrix", "--group", "2,257"], "^gcirc matrix: group order 514 exceeds the limit 512$"),
    ],
    ids=[
        "det-cpk-noncyclic",
        "normalize-missing-weights",
        "validate-missing-quotient",
        "normalize-non-object-factor",
        "normalize-empty-space",
        "normalize-weights-not-object",
        "normalize-weight-not-list",
        "normalize-weight-entry-not-int",
        "codim1-index-out-of-range",
        "validate-moduli-not-list",
        "newton-z-not-in-space",
        "verify-z-not-in-space",
        "recursion-pair-not-object",
        "recursion-pair-missing-monomial",
        "recursion-no-ideal",
        "normalize-moduli-not-list",
        "recursion-monomial-not-object",
        "validate-unreadable-file",
        "newton-free-exponent-null",
        "clean-gamma-not-list",
        "det-values-not-list",
        "adapt-stratum-not-list",
        "inv-k-zero",
        "atw-no-source",
        "pullback-chart-out-of-range",
        "transition-chart-out-of-range",
        "det-cpk-no-group",
        "perp-k-zero",
        "normalize-zero-factor",
        "normalize-dependent-factors",
        "adapt-dependent-divisors",
        "clean-row-short",
        "clean-row-long",
        "newton-undecided",
        "quotient-element-rank",
        "validate-label-rank",
        "det-values-repeated-exponents",
        "det-values-coeffs-too-long",
        "det-values-coeffs-empty",
        "clean-moduli-zero",
        "clean-moduli-negative",
        "xi-two-elements",
        "charts-divisorial-no-bound",
        "clean-moduli-not-int",
        "charts-weights-not-int",
        "charts-divisorial-bound-not-int",
        "xi-ell-not-int",
        "perp-group-not-int",
        "perp-group-z-no-factor",
        "perp-group-zx-no-factor",
        "validate-product-spec",
        "codim1-product-spec",
        "newton-powers-zero",
        "newton-cap-negative",
        "verify-powers-zero",
        "verify-degree-negative",
        "newton-z-divisorial",
        "verify-z-divisorial",
        "pullback-exponent-out-of-range",
        "pullback-denominator-unrealized",
        "pullback-two-divisors",
        "pullback-product-spec",
        "clean-gamma-not-json",
        "newton-poly-not-json",
        "normalize-action-not-json",
        "matrix-group-too-large",
    ],
)
def test_domain_error_exit_code(capsys, argv, match):
    code = run(argv)
    assert code == 1
    code = run(["--format", "json"] + argv)
    out = capsys.readouterr().out
    assert code == 1 and isinstance(json.loads(out)["error"], str)
    if match is not None:
        assert re.search(match, json.loads(out)["error"])


def test_split_newton_coefficient_truncated_to_zero():
    # z^2 + x^13 z + x^12 at the default bound 12: the coefficient x^13 of z
    # lies wholly past the bound
    sp = VarSpace([], ["x", "z"])
    x, z = FracPoly.variable(sp, "x"), FracPoly.variable(sp, "z")
    poly = json.dumps(jsonio.poly_to_json(z * z + x**13 * z + x**12))
    proc = subprocess.run(
        [sys.executable, "-m", "circforge.cli", "--format", "json", "split", "newton", "--poly", poly],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert len(json.loads(proc.stdout)["roots"]) == 2


def test_det_prints_results_past_the_int_str_limit():
    # Python 3.10.7+ refuses int <-> str conversions past 4300 digits; the CLI
    # entry point lifts that limit, so a 5000-digit determinant prints
    a, b = 4 * 10**2499 + 7, 10**2499 + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    sp = VarSpace([], ["X"])
    vals = json.dumps([jsonio.poly_to_json(FracPoly.constant(sp, c)) for c in (a, b)])
    proc = subprocess.run(
        [sys.executable, "-m", "circforge.cli", "--format", "json", "gcirc", "det", "--group", "2", "--values", vals],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (term,) = json.loads(proc.stdout)["polynomial"]["terms"]
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert term["coeff"] == {"order": 1, "coeffs": [str(a * a - b * b)]}
        assert len(term["coeff"]["coeffs"][0]) == 5000
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_split_newton_undecided_json(capsys):
    code, out = _capture(capsys, ["--format", "json", "split", "newton", "--poly", _E3E4])
    assert code == 1
    assert json.loads(out) == {"error": "splitting undecided: no 2-th root of the coefficient -1 + 2*E12 - E12^2 was found"}


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, circforge.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a child interpreter has loaded after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint()\nprint(*sys.modules)"], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_loads_only_the_layers_a_subcommand_uses():
    assert {m for m in _modules_loaded_by("import sys, circforge") if m.startswith("circforge.")} == set()
    unused = {f"circforge.{m}" for m in ("polyring", "modular", "gcirc", "blowup", "splitting", "quotient_nc")}
    # the library's value types are plain classes, so no command loads
    # dataclasses, nor the inspect module that it imports
    stdlib = {"dataclasses", "inspect"}
    for argv, used, absent in [
        (["abelian", "perp", "--group", "2,4", "--sub", "(1,2)"], "abelian", unused | stdlib),
        (["resinv", "atw", "--parts", "2,2"], "resinv", unused | stdlib),
        (["gcirc", "det", "--spec", "cpk:6"], "gcirc", stdlib),
        (["blowup", "quotient", "--cpk", "6"], "blowup", stdlib),

        # malformed input fails before a layer loads, also in the commands
        # that refuse a product spec
        (["gcirc", "validate", "--spec", "{}"], "jsonio", unused),
        (["gcirc", "codim1", "--spec", "{}"], "jsonio", unused),
        (["blowup", "pullback", "--spec", "{}"], "jsonio", unused),
    ]:
        loaded = _modules_loaded_by(f"import sys, circforge.cli\ncircforge.cli.run({argv!r})")
        assert f"circforge.{used}" in loaded and not loaded & absent, (argv, loaded)


def test_split_example_basic(capsys):
    code, out = _capture(capsys, ["split", "example-basic"])
    assert code == 0
    assert "z^2 + w*x^3 + w^3*x^2" in out
    assert "z^2 + w^3*x^2 + w^3*x^3" in out
    assert "splits to degree 12: True" in out


def test_split_example_basic_runs_at_degree_zero(capsys):
    # --degree 0 is a degree, not a missing option: both roots truncate to zero
    code, out = _capture(capsys, ["--format", "json", "split", "example-basic", "--degree", "0"])
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True
    assert [root["terms"] for root in payload["roots"]] == [[], []]
    code, out = _capture(capsys, ["split", "example-basic", "--degree", "0"])
    assert code == 0 and out.splitlines()[-1] == "splits to degree 0: True"


@pytest.mark.parametrize("degree", [12, 30])
def test_split_example_basic_golden_bytes(capsys, degree):
    # the whole JSON stdout, roots and their Cyclo orders included; the
    # degree-30 run is the one the blowup_split benchmark op makes
    argv = ["--format", "json", "split", "example-basic"] + (["--degree", "30"] if degree == 30 else [])
    code, out = _capture(capsys, argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"split_example_basic_{degree}.json").read_bytes()


@pytest.mark.parametrize("degree", ["40", "48"])
def test_split_example_basic_exceeds_the_branch_cap(capsys, degree):
    # the search runs out of its budget of 64 branches, and says so
    code, out = _capture(capsys, ["--format", "json", "split", "example-basic", "--degree", degree])
    assert code == 1 and json.loads(out) == {"error": "branch cap 64 exceeded"}


# two product specs: cp2 x cp2, and cp2 along w1 times cp3 along w2 over the
# moduli (2, 3), each factor omitting the other's divisor
_CP2_W1 = {"moduli": [2, 3], "k": 2, "gamma": [["1/2", "0"]], "quotient": {"moduli": [2]}, "labels": [[0], [1]]}
_CP3_W2 = {
    "moduli": [2, 3], "k": 3, "gamma": [["0", "1/3"], ["0", "2/3"]], "quotient": {"moduli": [3]}, "labels": [[0], [1], [2]]
}
_PRODUCT_SPECS = {"cp2xcp2": {"factors": [_CP2, _CP2]}, "cp2w1xcp3w2": {"factors": [_CP2_W1, _CP3_W2]}}
SPEC_COMMANDS_GOLDEN = GOLDEN / "spec_commands.json"


def _spec_command_digests(capsys) -> dict:
    """sha256 of the --format json stdout of the commands that build eigen
    factors or blow-up weights from a spec, keyed by the command line (a
    product spec by its name)."""
    commands = {}
    for sub in ("hilbert", "relations", "quotient"):
        commands.update({f"blowup {sub} --cpk {k}": ["blowup", sub, "--cpk", str(k)] for k in range(2, 7)})
    for k in range(2, 7):
        for chart in (0, 1):
            commands[f"blowup pullback --spec cp{k} --chart {chart}"] = [
                "blowup", "pullback", "--spec", f"cp{k}", "--chart", str(chart)
            ]
    for name, spec in _PRODUCT_SPECS.items():
        for command in (["gcirc", "normal-form"], ["blowup", "pipeline"]):
            commands[" ".join(command) + f" --spec {name}"] = command + ["--spec", json.dumps(spec)]
    commands["gcirc codim1 --spec z2z4 --index 1"] = ["gcirc", "codim1", "--spec", "z2z4", "--index", "1"]
    out = {}
    for name, argv in commands.items():
        code, text = _capture(capsys, ["--format", "json", *argv])
        assert code == 0, name
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_spec_commands_golden_bytes(capsys):
    assert _spec_command_digests(capsys) == json.loads(SPEC_COMMANDS_GOLDEN.read_text())


BLOWUP_CPK_GOLDEN = GOLDEN / "blowup_cpk_outputs.json"


def _blowup_cpk_outputs() -> dict:
    """The text stdout, and the sha256 of the --format json stdout, of
    blowup quotient, hilbert and relations --cpk 2..7, keyed by the command
    line: the text prints every strict transform, quotient image and
    generator monomial through str."""
    out = {}
    for sub in ("quotient", "hilbert", "relations"):
        for k in range(2, 8):
            argv = ["blowup", sub, "--cpk", str(k)]
            stdout = {}
            for fmt in ("text", "json"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert run(["--format", fmt, *argv]) == 0
                stdout[fmt] = buf.getvalue()
            out[" ".join(argv)] = {"text": stdout["text"], "json_sha256": hashlib.sha256(stdout["json"].encode()).hexdigest()}
    return out


def test_blowup_cpk_outputs_golden_bytes():
    assert _blowup_cpk_outputs() == json.loads(BLOWUP_CPK_GOLDEN.read_text())


@st.composite
def _character_ladders(draw):
    """A single-divisor spec over Z_p, p = |Q| <= 6: the elements of Q as
    labels, the identity first and the others shuffled, and as gamma column
    the values in (1/p)Z/Z of a random character of Q at the labels."""
    q = draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3)]))
    p = math.prod(q)
    chi = [draw(st.sampled_from([a for a in range(p) if m * a % p == 0])) for m in q]
    group = AbelianGroup(q)
    rest = draw(st.permutations([g.residues for g in group.elements() if not g.is_identity()]))
    gamma = [[str(Fraction(sum(map(operator.mul, chi, label)) % p, p))] for label in rest]
    return {"moduli": [p], "k": p, "gamma": gamma, "quotient": {"moduli": list(q)}, "labels": [[0] * len(q), *rest]}


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_character_ladders())
def test_pullback_multiplicity_is_the_pipelines(capsys, spec):
    # the divisor chart of a valid ladder, in any label order, pulls the
    # normal form back with multiplicity k(p + 1), as the pipeline's first step
    code, out = _capture(capsys, ["--format", "json", "gcirc", "validate", "--spec", json.dumps(spec)])
    assume(json.loads(out)["valid"])
    code, out = _capture(capsys, ["--format", "json", "blowup", "pullback", "--spec", json.dumps(spec)])
    assert code == 0
    multiplicity = Fraction(json.loads(out)["multiplicity"])
    code, out = _capture(capsys, ["--format", "json", "blowup", "pipeline", "--spec", json.dumps(spec)])
    assert code == 0
    p = spec["moduli"][0]
    assert multiplicity == json.loads(out)["steps"][0]["multiplicity"] == p * (p + 1)


def test_pipeline_command(capsys):
    code, out = _capture(capsys, ["blowup", "pipeline", "--spec", "klein"])
    assert code == 0
    assert "normal crossings: True" in out


def test_hilbert_and_relations_commands(capsys):
    code, out = _capture(capsys, ["blowup", "hilbert", "--cpk", "2"])
    assert code == 0 and "4 generators" in out
    code, out = _capture(capsys, ["blowup", "relations", "--cpk", "2"])
    assert code == 0 and "=" in out
    code, out = _capture(capsys, ["blowup", "quotient", "--cpk", "2"])
    assert code == 0 and "image:" in out


def test_ncquot_normalize_command(capsys):
    action = json.dumps({"moduli": [2], "weights": {"y0": [0], "y1": [1]}})
    sp = VarSpace([], ["y0", "y1"])
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    factors = json.dumps([jsonio.poly_to_json(y0 + y1), jsonio.poly_to_json(y0 - y1)])
    code, out = _capture(capsys, ["ncquot", "normalize", "--action", action, "--factors", factors])
    assert code == 0
    assert "chain of cyclic quotients: [2]" in out


def _klein_orbit():
    """The orbit of a + b + c + d under Z2 x Z2 acting by signs (demo 08)."""
    weights = {"a": [0, 0], "b": [1, 0], "c": [0, 1], "d": [1, 1]}
    sp = VarSpace([], list(weights))
    action = DiagonalAction(AbelianGroup((2, 2)), weights)
    f1 = sum((FracPoly.variable(sp, n) for n in "bcd"), FracPoly.variable(sp, "a"))
    return {"moduli": [2, 2], "weights": weights}, [apply_group(f1, action, el) for el in action.group.elements()]


def _z2z4_rescaled_orbit():
    """An orbit of four factors under Z2 x Z4 with stabilizer {(0,0), (0,2)},
    each factor rescaled (by rationals and roots of unity) and shuffled, so
    the product scalar is a root of unity times a rational."""
    weights = {"x": [0, 0], "y": [1, 0], "u": [0, 2], "v": [1, 2]}
    sp = VarSpace([], list(weights))
    action = DiagonalAction(AbelianGroup((2, 4)), weights)
    x, y, u, v = (FracPoly.variable(sp, n) for n in weights)
    f1 = x + y.scale(2) - u + v + x * u
    reps = []
    for el in action.group.elements():
        moved = apply_group(f1, action, el)
        if not any(moved == r or moved == r.scale(-1) for r in reps):
            reps.append(moved)
    scales = [Fraction(-3, 2), root_of_unity(4, 1), Fraction(5), root_of_unity(8, 3) * 2]
    orbit = [r.scale(s) for r, s in zip(reps, scales)]
    return {"moduli": [2, 4], "weights": weights}, [orbit[2], orbit[0], orbit[3], orbit[1]]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, instance", [("klein", _klein_orbit), ("z2z4_rescaled", _z2z4_rescaled_orbit)])
def test_ncquot_normalize_golden_bytes(capsys, fmt, name, instance):
    # recorded before the factor permutation was composed from the generators;
    # the JSON pins the Cyclo order of every entry, the scalar's among them
    action, factors = instance()
    argv = ["--format", fmt, "ncquot", "normalize", "--action", json.dumps(action)]
    code, out = _capture(capsys, argv + ["--factors", json.dumps([jsonio.poly_to_json(f) for f in factors])])
    assert code == 0
    suffix = "txt" if fmt == "text" else "json"
    assert out.encode() == (GOLDEN / f"ncquot_normalize_{name}.{suffix}").read_bytes()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "circforge.cli", "resinv", "inv", "--k", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3,4/3,1,3/2"


def test_closed_stdout_exits_1_without_traceback():
    # `circforge ... | head -1` with the reader gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "circforge.cli", "--format", "json", "resinv", "recursion", "--cpk", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_payload_file_or_stdin_that_is_not_json_names_its_flag(capsys, monkeypatch, tmp_path):
    import io

    path = tmp_path / "poly.json"
    path.write_text("{")
    path_latin1 = tmp_path / "latin1.json"
    path_latin1.write_bytes(b'"\xe9"')
    for argv, stdin in [
        (["--poly", f"@{path}"], ""),
        (["--poly", f"@{path_latin1}"], ""),
        (["--poly", "-"], "z^2 - x"),
    ]:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = run(["--format", "json", "split", "newton", *argv])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 1 and error.startswith("--poly: "), (argv, error)


def test_stdin_payload(capsys, monkeypatch):

    import io

    from circforge import FracPoly, VarSpace

    sp = VarSpace([], ["v", "x", "z"])
    v, x, z = (FracPoly.variable(sp, n) for n in ("v", "x", "z"))
    payload = json.dumps(jsonio.poly_to_json(z * z - v * v * x * x))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out = _capture(capsys, ["split", "newton", "--poly", "-", "--powers", "1"])
    assert code == 0 and "root" in out


def test_det_values_path(capsys):
    from circforge import FracPoly, VarSpace

    sp = VarSpace([], ["X0", "X1"])
    vals = [jsonio.poly_to_json(FracPoly.variable(sp, f"X{i}")) for i in range(2)]
    code, out = _capture(capsys, ["gcirc", "det", "--group", "Z2", "--values", json.dumps(vals)])
    assert code == 0 and out.strip() == "-X1^2 + X0^2"


def test_recursion_ideal_json(capsys):
    ideal = json.dumps(
        [
            {"monomial": {"x0": 2}, "order": 2},
            {"monomial": {"w": 1, "x1": 2}, "order": 2},
        ]
    )
    code, out = _capture(capsys, ["resinv", "recursion", "--ideal", ideal])
    assert code == 0 and out.strip() == "2,3/2,1"


def test_ncquot_semiinv_command(capsys):
    from circforge import FracPoly, VarSpace

    action = json.dumps({"moduli": [2], "weights": {"x": [0], "y": [1]}})
    sp = VarSpace([], ["x", "y"])
    f = FracPoly.variable(sp, "x") + FracPoly.variable(sp, "y")
    gens = json.dumps([jsonio.poly_to_json(f)])
    code, out = _capture(capsys, ["ncquot", "semiinv", "--action", action, "--gens", gens])
    assert code == 0
    assert out.strip().splitlines() == ["x", "y"]


def test_split_nosplit_domain_error(capsys):
    from circforge import FracPoly, VarSpace

    sp = VarSpace([("w", 2)], ["x", "z"])
    w, x, z = (FracPoly.variable(sp, n) for n in ("w", "x", "z"))
    payload = json.dumps(jsonio.poly_to_json(z * z + w * x))
    code = run(["--format", "json", "split", "newton", "--poly", payload, "--powers", "2"])
    out = capsys.readouterr().out
    assert code == 1 and "error" in json.loads(out)


def test_split_zero_polynomial(capsys):
    zero = '{"space":{"divisorial":[],"free":["z","x"]},"terms":[]}'
    code = run(["--format", "json", "split", "newton", "--poly", zero])
    assert code == 1 and json.loads(capsys.readouterr().out) == {"error": "polynomial must be monic in z"}
    code = run(["--format", "json", "split", "verify", "--poly", zero, "--roots", "[]"])
    assert code == 1 and json.loads(capsys.readouterr().out) == {"verified": False}


def test_split_unsupported_domain_error(capsys):
    from circforge import FracPoly, VarSpace

    sp = VarSpace([], ["x", "z"])
    x, z = (FracPoly.variable(sp, n) for n in ("x", "z"))
    payload = json.dumps(jsonio.poly_to_json((z - x) * (z - 2 * x) * (z - 3 * x)))
    code = run(["--format", "json", "split", "newton", "--poly", payload])
    out = capsys.readouterr().out
    assert code == 1 and json.loads(out)["error"].startswith("splitting undecided")


# -- the CLI contract under malformed input ------------------------------------------


def _poly_json(names, build):
    from circforge import FracPoly, VarSpace

    sp = VarSpace([], names)
    return jsonio.poly_to_json(build(*(FracPoly.variable(sp, n) for n in names)))


_SPEC_CP2 = json.dumps({"moduli": [2], "k": 2, "gamma": [["1/2"]], "quotient": {"moduli": [2]}, "labels": [[0], [1]]})
_ACTION_XY = json.dumps({"moduli": [2], "weights": {"x": [0], "y": [1]}})
_X_PLUS_Y = _poly_json(["x", "y"], lambda x, y: x + y)
_X_MINUS_Y = _poly_json(["x", "y"], lambda x, y: x - y)
_SPLIT_POLY = json.dumps(_poly_json(["v", "x", "z"], lambda v, x, z: z * z - v * v * x * x))
_SPLIT_ROOTS = json.dumps([_poly_json(["v", "x", "z"], lambda v, x, z: v * x), _poly_json(["v", "x", "z"], lambda v, x, z: -v * x)])

# One valid argument list per subcommand; the fuzz test mutates these.
VALID = {
    ("abelian", "perp"): ["--group", "2,4", "--sub", "(1,2)", "--k", "4"],
    ("abelian", "xi"): ["--group", "2,4", "--sub", "(1,2)", "--ell", "(1,1)"],
    ("abelian", "quotient"): ["--group", "2,4", "--sub", "(1,2)"],
    ("abelian", "factors"): ["--group", "2,2,4", "--sub", "(1,0,2);(0,1,0)", "--quotient"],
    ("gcirc", "matrix"): ["--group", "Z2xZ2"],
    ("gcirc", "det"): ["--group", "Z2", "--values", json.dumps([_X_PLUS_Y, _X_MINUS_Y])],
    ("gcirc", "normal-form"): ["--spec", _SPEC_CP2],
    ("gcirc", "validate"): ["--spec", _SPEC_CP2],
    ("gcirc", "codim1"): ["--spec", _SPEC_CP2, "--index", "0"],
    ("gcirc", "merge"): ["--k", "2", "--r", "2"],
    ("gcirc", "clean"): ["--gamma", '[["1/3"], ["2/3"]]', "--moduli", "3"],
    ("resinv", "inv"): ["--k", "3"],
    ("resinv", "atw"): ["--parts", "2,2"],
    ("resinv", "weights"): ["--parts", "2,3"],
    ("resinv", "recursion"): ["--ideal", '[{"monomial": {"x0": 2}, "order": 2}, {"monomial": {"w": 1, "x1": 2}, "order": "2"}]'],
    ("blowup", "charts"): ["--params", "w,x,y", "--weights", "3,2,1", "--divisorial", "w:2"],
    ("blowup", "transition"): ["--params", "x,y,z", "--weights", "1,1,1", "--i", "0", "--j", "1"],
    ("blowup", "pullback"): ["--spec", _SPEC_CP2, "--chart", "0"],
    ("blowup", "hilbert"): ["--cpk", "2"],
    ("blowup", "relations"): ["--cpk", "2"],
    ("blowup", "quotient"): ["--cpk", "2"],
    ("blowup", "pipeline"): ["--spec", _SPEC_CP2],
    ("split", "newton"): ["--poly", _SPLIT_POLY, "--degree", "4"],
    ("split", "verify"): ["--poly", _SPLIT_POLY, "--roots", _SPLIT_ROOTS, "--degree", "4"],
    ("split", "example-basic"): ["--degree", "4"],
    ("ncquot", "semiinv"): ["--action", _ACTION_XY, "--gens", json.dumps([_X_PLUS_Y])],
    ("ncquot", "adapt"): ["--action", _ACTION_XY, "--divisors", "[]", "--stratum", json.dumps([_X_PLUS_Y])],
    ("ncquot", "normalize"): ["--action", _ACTION_XY, "--factors", json.dumps([_X_PLUS_Y, _X_MINUS_Y])],
}
SUBCOMMANDS = [(group, name) for group, commands in COMMANDS.items() for name in commands]


# Replacements of another JSON kind.  An int or a string is never replaced by an
# int or a string, because a rational may be either.
_OTHER_VALUES = [None, True, 1.5, "s", 0, [], {}]


@st.composite
def _mutated_argv(draw, command):
    """A valid argument list with one mutation; also whether the result must fail."""
    argv = list(VALID[command])
    values = [i for i in range(1, len(argv)) if not argv[i].startswith("--")]
    i = draw(st.sampled_from(values))
    try:
        payload = json.loads(argv[i])
    except ValueError:
        payload = None
    # A JSON payload is mutated inside most of the time.
    kind = draw(st.sampled_from(["missing-file", "text", "omit"] + (["json"] * 3 if isinstance(payload, (dict, list)) else [])))
    if kind == "omit":  # leave the option out: its default, or a usage error
        del argv[i - 1 : i + 1]
        return argv, False
    if kind == "missing-file":
        argv[i] = "@/nonexistent/circforge-payload.json"
        return argv, True
    if kind == "text":
        argv[i] = draw(st.sampled_from(["", "x", "-1", "0", "1", "3", "(9,9)", "[]", "{}", "2,x", "w:0"]))
        return argv, False
    path, node = draw(st.sampled_from(list(json_nodes(payload))))
    ops = ["type", "nest"] + (["drop"] if isinstance(node, dict) and node else []) + (["int"] if type(node) is int else [])
    op = draw(st.sampled_from(ops))
    if op == "int":  # another small value of the right type: valid or a domain error
        new = draw(st.integers(-2, 4))
    elif op == "type":
        skip = {int, str} if type(node) in (int, str) else {type(node)}
        new = draw(st.sampled_from([v for v in _OTHER_VALUES if type(v) not in skip]))
    elif op == "nest":
        new = [node]
    else:
        key = draw(st.sampled_from(sorted(node)))
        new = {k: v for k, v in node.items() if k != key}
    argv[i] = json.dumps(json_replace(payload, path, new))
    # A dropped name of a weight or monomial map can leave a valid payload.
    return argv, op in ("type", "nest") or (op == "drop" and path[-1:] not in (("weights",), ("monomial",)))


def test_every_subcommand_has_a_valid_example(capsys):
    assert sorted(VALID) == sorted(SUBCOMMANDS)
    for command in SUBCOMMANDS:
        code = run(["--format", "json", *command, *VALID[command]])
        assert code == 0, command
        json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", SUBCOMMANDS, ids=" ".join)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_keeps_the_exit_contract(capsys, command, data):
    argv, must_fail = data.draw(_mutated_argv(command))
    capsys.readouterr()
    try:
        code = run(["--format", "json", *command, *argv])
    except SystemExit as exc:  # argparse: a usage error
        assert exc.code == 2
        return
    obj = json.loads(capsys.readouterr().out)
    assert code in (0, 1) and isinstance(obj, dict), (argv, code)
    if must_fail:  # a result may also exit 1 (e.g. verified: false); a malformed payload may not
        assert code == 1 and isinstance(obj.get("error"), str), (argv, obj)


def test_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch):
    # the parser of a command line adds the subcommands of its group only;
    # help and usage errors must not tell
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    cases = json.loads((GOLDEN / "cli_help.json").read_text())
    helped = {tuple(case["argv"][:-1]) for case in cases if case["argv"][-1:] == ["--help"]}
    assert helped == {()} | {(group,) for group in COMMANDS} | set(SUBCOMMANDS)
    for case in cases:
        try:
            code = run(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (out, err, code) == (case["stdout"], case["stderr"], case["code"]), case["argv"]


SPEC_COMMANDS = [

    (group, name)
    for group, commands in COMMANDS.items()
    for name, (_handler, *arguments) in commands.items()
    if any(flag == "--spec" for flag, _kwargs in arguments)
]


@pytest.mark.parametrize("spec", [_SPEC_PRODUCT, _SPEC_OUT_OF_RANGE], ids=["product", "out-of-range"])
@pytest.mark.parametrize("command", SPEC_COMMANDS, ids=" ".join)
def test_every_spec_command_keeps_the_exit_contract(capsys, command, spec):
    # a command that takes a single normal form refuses a product spec, and
    # an exponent outside (1/p)Z is reported or refused, never a traceback
    code = run(["--format", "json", *command, "--spec", spec])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 or (code == 1 and isinstance(obj.get("error"), str)), (code, obj)


def test_validate_reports_an_exponent_outside_the_moduli(capsys):
    code = run(["--format", "json", "gcirc", "validate", "--spec", _SPEC_OUT_OF_RANGE])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["valid"] is False and report["exponents_in_range"] is False
    assert report["stabilizer"] is None and report["transitive"] is False


def test_validate_reports_no_action_on_labels_that_repeat(capsys):
    # labels [0, 0] do not enumerate Z/2, so labels -> gamma is no map on the
    # quotient group: no action on the eigen factors, hence no stabilizer
    spec = json.dumps({**_CP2, "gamma": [["0"]], "labels": [[0], [0]]})
    code = run(["--format", "json", "gcirc", "validate", "--spec", spec])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "valid": False,
        "transitive": False,
        "stabilizer": None,
        "stabilizer_order": None,
        "quotient_isomorphic": False,
        "exponents_in_range": True,
        "denominators_realized": [False],
        "multiset_condition": [False],
    }


if __name__ == "__main__":
    # python tests/test_cli.py > tests/golden/blowup_cpk_outputs.json
    print(json.dumps(_blowup_cpk_outputs(), indent=1))

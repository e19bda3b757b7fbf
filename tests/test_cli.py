import json
import subprocess
import sys

import pytest

from circforge import jsonio
from circforge.cli import run

from conftest import CHILD_ENV


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


# z^2 over the free variables z, x
_Z2 = '{"space":{"divisorial":[],"free":["z","x"]},"terms":[{"w":[],"free":[2,0],"coeff":{"order":1,"coeffs":["1"]}}]}'


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
def test_domain_error_exit_code(capsys, argv):
    code = run(argv)
    assert code == 1
    code = run(["--format", "json"] + argv)
    out = capsys.readouterr().out
    assert code == 1 and "error" in json.loads(out)


def test_cli_import_does_not_load_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, circforge.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_split_example_basic(capsys):
    code, out = _capture(capsys, ["split", "example-basic"])
    assert code == 0
    assert "z^2 + w*x^3 + w^3*x^2" in out
    assert "z^2 + w^3*x^2 + w^3*x^3" in out
    assert "splits to degree 12: True" in out


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
    from circforge import FracPoly, VarSpace

    sp = VarSpace([], ["y0", "y1"])
    y0, y1 = FracPoly.variable(sp, "y0"), FracPoly.variable(sp, "y1")
    factors = json.dumps([jsonio.poly_to_json(y0 + y1), jsonio.poly_to_json(y0 - y1)])
    code, out = _capture(capsys, ["ncquot", "normalize", "--action", action, "--factors", factors])
    assert code == 0
    assert "chain of cyclic quotients: [2]" in out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "circforge.cli", "resinv", "inv", "--k", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3,4/3,1,3/2"


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

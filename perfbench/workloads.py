"""The benchmark's four workloads: inputs, operations and output checks.

A workload turns a seed into a list of operations.  An operation returns
its output and a check compares that output with the reference recorded
in reference.json (a digest of the canonical JSON), or, for a
malformed-input probe, with the CLI's documented error contract.

In-process operations return the compact, key-sorted JSON of the payload
that the matching `circforge --format json` command prints, built with
`circforge.jsonio`.  Library functions are looked up through their module
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Callable

from cli_child import TRACE_MARK
from circforge import abelian, blowup, gcirc, jsonio, polyring, quotient_nc, splitting

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# nc_batch runs NC_BATCH instances, instance i generated under
# random.Random(i), each with a recorded reference digest.  The run's seed
# orders the passes and picks the oracle's instances; it does not pick the
# batch, because the make-up of a batch drawn per seed (150 of 1000) moved
# the median latency by 12% between seeds.
NC_BATCH = 300
NC_ORACLE_INSTANCES = 3
NC_POOL = (
    (2,), (3,), (4,), (6,), (8,), (12,), (16,),
    (2, 2), (2, 4), (2, 8), (4, 4), (2, 2, 2), (2, 2, 4), (3, 3), (2, 6),
)
NC_VARS = tuple(f"x{i}" for i in range(8))
NC_MAX_ORBIT = 8


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right, else the reason
    probe: bool = False  # a malformed-input probe: failing it breaks the CLI contract, not an answer


@dataclass
class Inputs:
    ops: list
    notes: dict  # figures about the generated inputs, printed next to setup_s
    oracle_data: object = None


def _digest_check(expected: str | None):
    def check(out) -> str | None:
        if expected is None:
            return "no reference digest"
        got = digest(out)
        return None if got == expected else f"digest {got} != reference {expected}"

    return check


def _in_process(key: str, fn, reference: dict) -> Op:
    return Op(key, fn, _digest_check(reference.get(key)))


# -- payloads (the shapes `circforge --format json` prints) ----------------------


def _poly_payload(poly) -> str:
    return canonical({"polynomial": jsonio.poly_to_json(poly)})


def _merge_payload(rep) -> str:
    return canonical({
        "k": rep.k,
        "r": rep.r,
        "verified": rep.verified,
        "transform": {
            f"x_{i}_{j}": [jsonio.cyclo_to_json(c) for c in coeffs] for (i, j), coeffs in rep.transform.items()
        },
    })


def _codim1_payload(rep) -> str:
    return canonical({
        "verified": rep.verified,
        "factors": [jsonio.poly_to_json(f) for f in rep.factor_polys],
        "transform": {
            name: [[jsonio.cyclo_to_json(c), x] for c, x in rows] for name, rows in rep.transform.items()
        },
    })


def _pipeline_payload(rep) -> str:
    return canonical({
        "steps": [
            {
                "divisor_index": s.divisor_index,
                "chart_var": s.chart_var,
                "multiplicity": s.multiplicity,
                "expected_multiplicity": s.expected_multiplicity,
                "group_order": s.group_order,
            }
            for s in rep.steps
        ],
        "group_moduli": list(rep.group_moduli),
        "group_order": rep.group_order,
        "order_bound": rep.order_bound,
        "cyclic_orders_bounded": rep.cyclic_orders_bounded,
        "normal_crossings": rep.normal_crossings,
        "product_verified": rep.product_verified,
        "strict_transform": jsonio.poly_to_json(rep.final_strict_transform),
    })


def _nc_payload(nf) -> str:
    return canonical({
        "chain": list(nf.chain),
        "chain_generators": list(nf.chain_generators),
        "stabilizer": jsonio.subgroup_to_json(nf.stabilizer),
        "coordinates": {"".join(map(str, k)): jsonio.poly_to_json(v) for k, v in sorted(nf.parts.items())},
        "matrix": [[jsonio.cyclo_to_json(c) for c in row] for row in nf.matrix],
        "determinant": jsonio.cyclo_to_json(nf.determinant),
        "scalar": jsonio.cyclo_to_json(nf.scalar),
        "verified": True,
    })


# -- circulant -------------------------------------------------------------------


def build_circulant(seed: int, reference: dict) -> Inputs:
    del seed  # the inputs are fixed; the seed only orders each pass
    cpk7, cpk8 = gcirc.cpk_spec(7), gcirc.cpk_spec(8)
    ops = [
        _in_process("normal_form cpk:7", lambda: _poly_payload(gcirc.normal_form_poly(cpk7)), reference),
        _in_process("normal_form cpk:8", lambda: _poly_payload(gcirc.normal_form_poly(cpk8)), reference),
        _in_process("product_merge 2,4", lambda: _merge_payload(gcirc.product_merge(2, 4)), reference),
        _in_process("product_merge 4,2", lambda: _merge_payload(gcirc.product_merge(4, 2)), reference),
        _in_process("codim1 cpk:7 0", lambda: _codim1_payload(gcirc.codim1_factor(cpk7, 0)), reference),
    ]
    return Inputs(ops, {}, oracle_data=[gcirc.cpk_spec(4), gcirc.cpk_spec(5)])


def oracle_circulant(specs) -> list[str]:
    """Leibniz expansion of the explicit matrix against gcirc_det."""
    failures = []
    for spec in specs:
        space = gcirc.spec_space(spec)
        values = gcirc.spec_values(spec, space)
        mat = gcirc.circulant_matrix(spec.quotient_group, ordering=spec.labels)
        if gcirc.leibniz_det(mat, values) != gcirc.gcirc_det(spec.quotient_group, values, ordering=spec.labels):
            failures.append(f"leibniz_det != gcirc_det for cpk:{spec.k}")
    return failures


# -- nc_batch --------------------------------------------------------------------


def _nc_draw(rng: random.Random):
    """One draw shaped like acceptance criterion 15: a random diagonal action
    on eight variables and a random linear form plus two quadratic terms."""
    group = abelian.AbelianGroup(rng.choice(NC_POOL))
    space = polyring.VarSpace([], NC_VARS)
    action = polyring.DiagonalAction(group, {n: tuple(rng.randrange(p) for p in group.moduli) for n in NC_VARS})
    f1 = polyring.FracPoly.zero(space)
    for n in NC_VARS:
        f1 = f1 + polyring.FracPoly.variable(space, n).scale(rng.randint(-2, 2))
    for _ in range(2):
        i, j = rng.choice(NC_VARS), rng.choice(NC_VARS)
        f1 = f1 + polyring.FracPoly.monomial(space, {i: 1}) * polyring.FracPoly.monomial(space, {j: 1}, rng.randint(-1, 1))
    return action, f1


def _nc_orbit_reps(action, f1):
    """Group elements whose translates of f1 are pairwise non-proportional,
    first in enumeration order, and the number of distinct characters on the
    linear part of f1.

    g.f1 and h.f1 are proportional exactly when every term of f1 gets the
    same phase ratio under g and h, so integer phase vectors decide it.  The
    translates' linear parts span one dimension per distinct character.
    """
    group = action.group
    n = lcm(*group.moduli)
    keys = list(f1.terms)
    weights = [[int(action.term_weight(f1.space, key, i)) for i in range(group.rank)] for key in keys]
    reps = {}
    for el in group.elements():
        phases = tuple(
            sum(el.residues[i] * (w[i] - weights[0][i]) * (n // group.moduli[i]) for i in range(group.rank)) % n
            for w in weights
        )
        reps.setdefault(phases, el)
    linear_chars = {
        tuple(w % p for w, p in zip(action.weights[f1.space.names[key.index(1)]], group.moduli))
        for key in keys
        if sum(key) == 1
    }
    return list(reps.values()), len(linear_chars)


def nc_instance(index: int):
    """Instance `index`: the first accepted draw of a generator seeded with
    the index.  Accepted orbits have at most eight factors, with independent
    linear parts.  Returns the action, the orbit and the rejected draws."""
    rng = random.Random(index)
    rejected = 0
    while True:
        action, f1 = _nc_draw(rng)
        if not f1.is_zero():
            reps, rank = _nc_orbit_reps(action, f1)
            if len(reps) <= NC_MAX_ORBIT and rank == len(reps):
                return action, [polyring.apply_group(f1, action, el) for el in reps], rejected
        rejected += 1


def nc_normalize(action, orbit):
    return quotient_nc.invariant_nc_normal_form(quotient_nc.InvariantNCInput(action, orbit))


def build_nc_batch(seed: int, reference: dict) -> Inputs:
    ops, instances, rejected = [], [], 0
    for index in range(NC_BATCH):
        action, orbit, rej = nc_instance(index)
        rejected += rej
        instances.append((action, orbit))
        ops.append(_in_process(f"nc #{index}", lambda a=action, o=orbit: _nc_payload(nc_normalize(a, o)), reference))
    notes = {"nc_draws": NC_BATCH + rejected, "nc_rejected_draws": rejected}
    return Inputs(ops, notes, oracle_data=random.Random(seed).sample(instances, NC_ORACLE_INSTANCES))


def _product(polys):
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def oracle_nc_batch(instances) -> list[str]:
    """Full expansion: the recombined factors multiply to scalar times the
    product of the input orbit."""
    failures = []
    for action, orbit in instances:
        nf = nc_normalize(action, orbit)
        if _product(nf.factors) != _product(orbit).scale(nf.scalar):
            failures.append(f"product identity fails for an orbit of {len(orbit)} factors")
    return failures


# -- blowup_split ----------------------------------------------------------------

SPLIT_DEGREE = 30


def _split_chain(space) -> str:
    """The `split example-basic` chain: three blow-ups of the origin in the
    w-chart, w = v^2, then the verified series splitting."""
    FracPoly = polyring.FracPoly
    w, x, z = (FracPoly.variable(space, n) for n in ("w", "x", "z"))
    current = z * z + (w ** 3 + x) * x * x
    stages = [current]
    for _ in range(3):
        blown = current.substitute({"x": w * x, "z": w * z}, target_space=space)
        current, _mult = polyring.strict_transform(blown, "w")
        stages.append(current)
    sub = polyring.substitute_power(current, "w", 2)
    roots = splitting.split_newton(current, "z", powers=2, degree_bound=SPLIT_DEGREE)
    ok = splitting.verify_split(current, 2, roots, SPLIT_DEGREE)
    return canonical({
        "stages": [jsonio.poly_to_json(s) for s in stages],
        "substituted": jsonio.poly_to_json(sub),
        "roots": [jsonio.poly_to_json(r) for r in roots],
        "verified": ok,
    })


def _cpk_quotient(spec) -> str:
    """Strict transform of the cpk normal form in the first chart of its
    weighted blow-up, and its image in the Hilbert-basis coordinates."""
    k = spec.k
    poly = gcirc.normal_form_poly(spec)
    params = ["w"] + [n for n in poly.space.names if n != "w"]
    atlas = blowup.charts(poly.space, params, [k] + [k - j + 1 for j in range(k)])
    _cmap, action = atlas.charts[0]
    _total, strict, _mult = blowup.pullback(poly, atlas, 0)
    basis = blowup.hilbert_basis(action)
    image = blowup.quotient_image(strict, basis)
    return canonical({
        "image": jsonio.poly_to_json(image),
        "generators": {basis.names()[i]: str(basis.monomial(i)) for i in range(len(basis.generators))},
    })


def build_blowup_split(seed: int, reference: dict) -> Inputs:
    del seed
    klein, z2z4, cpk6 = gcirc.klein_spec(), gcirc.z2z4_spec(), gcirc.cpk_spec(6)
    split_space = polyring.VarSpace([("w", 2)], ["x", "z"])
    ops = [
        _in_process("pipeline klein", lambda: _pipeline_payload(blowup.gcirc_blowup_sequence(klein)), reference),
        _in_process("pipeline z2z4", lambda: _pipeline_payload(blowup.gcirc_blowup_sequence(z2z4)), reference),
        _in_process("pipeline cpk:6", lambda: _pipeline_payload(blowup.gcirc_blowup_sequence(cpk6)), reference),
        _in_process(f"split example-basic {SPLIT_DEGREE}", lambda: _split_chain(split_space), reference),
        _in_process("quotient cpk:6", lambda: _cpk_quotient(cpk6), reference),
    ]
    return Inputs(ops, {})


# -- cli_calls -------------------------------------------------------------------

CLI_COMMANDS = (
    ("abelian", "perp", "--group", "2,4", "--sub", "(1,2)"),
    ("abelian", "factors", "--group", "2,2,4", "--sub", "(1,0,2);(0,1,0)"),
    ("resinv", "atw", "--parts", "2,2"),
    ("resinv", "recursion", "--parts", "2,3"),
    ("gcirc", "validate", "--spec", "z2z4"),
    ("gcirc", "det", "--spec", "cpk:6"),
    ("blowup", "quotient", "--cpk", "6"),
)
# Malformed input.  The README promises exit code 1 (domain error) or 2
# (usage error) and, under --format json, an {"error": ...} object.
CLI_PROBES = (
    ("ncquot", "normalize", "--action", '{"moduli":[2]}', "--factors", "[]"),
    ("gcirc", "validate", "--spec", "{}"),
    ("gcirc", "det"),
    ("resinv", "atw", "--parts", "2,x"),
)


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    trace: dict | None = None


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIRCFORGE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_cli(prefix: list, argv: tuple, env: dict) -> CliResult:
    proc = subprocess.run(
        prefix + ["--format", "json", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    stderr, trace = proc.stderr, None
    head, sep, tail = stderr.rpartition(TRACE_MARK)
    if sep:
        stderr, trace = head, json.loads(tail)
    return CliResult(proc.returncode, proc.stdout, stderr, trace)


def _cli_check(expected: str | None):
    digest_check = _digest_check(expected)

    def check(res: CliResult) -> str | None:
        if res.returncode != 0:
            return f"exit code {res.returncode}"
        if "Traceback" in res.stderr:
            return "traceback on stderr"
        return digest_check(res.stdout)

    return check


def probe_check(res: CliResult) -> str | None:
    if res.returncode not in (1, 2):
        return f"exit code {res.returncode}, expected 1 or 2"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    try:
        obj = json.loads(res.stdout)
    except ValueError:
        return "stdout is not a JSON error object"
    if not (isinstance(obj, dict) and isinstance(obj.get("error"), str)):
        return "stdout is not a JSON error object"
    return None


def build_cli_calls(seed: int, reference: dict, traced: bool = False) -> Inputs:
    del seed
    prefix = [sys.executable, str(HERE / "cli_child.py")] if traced else [sys.executable, "-m", "circforge.cli"]
    env = cli_env()
    ops = []
    for argv in CLI_COMMANDS:
        key = " ".join(argv)
        ops.append(Op(key, lambda a=argv: _run_cli(prefix, a, env), _cli_check(reference.get(key))))
    for argv in CLI_PROBES:
        ops.append(Op(" ".join(argv), lambda a=argv: _run_cli(prefix, a, env), probe_check, probe=True))
    return Inputs(ops, {})


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, the workload's part of reference.json) -> Inputs
    oracle: Callable | None = None  # (oracle_data) -> list of failures
    subprocess_ops: bool = False  # the work runs in child processes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("circulant", build_circulant, oracle_circulant),
        Workload("nc_batch", build_nc_batch, oracle_nc_batch),
        Workload("blowup_split", build_blowup_split),
        Workload("cli_calls", build_cli_calls, subprocess_ops=True),
    )
}

"""Differential run of this tree against another checkout of the project
(typically the parent commit): the same seeded cases, run by each tree's
own library, must print the same bytes.

    python tests/differential.py PARENT_DIR [--seed N] [--count N]

PARENT_DIR is a checkout with src/, perfbench/ and demos/ (for example a
`git archive` export).  The runner starts two fresh interpreters, one per
tree, each with that tree's src/ first on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1, so that neither tree is left with bytecode.
Each prints one JSON line per case: the case's output, or the class and
message of the exception it raised.  The cases:

- `invariant_nc_normal_form` on the benchmark's `nc_instance(i)` (the
  tree's own perfbench/workloads.py), for i in [seed * count, (seed + 1) *
  count): every field of the normal form, with maps in their order and
  every Cyclo's order and coefficients; and on the same orbit with one
  factor moved into a larger space;
- `quotient_image` on count polynomials drawn from random.Random(seed):
  products of Hilbert basis generators under small diagonal actions, some
  with a non-invariant or a Laurent term added, printed the same way;
- `match_scalar` and `apply_group` on count draws each, with coefficients
  of mixed `Cyclo` orders (a value stored at several orders among them),
  some with a polynomial in a larger space;
- `inv_cpk` and `atwinv_cpk` of the first part, and `atwinv_product`,
  `weights` and `inv_recursion(product_ideal(...))`, on count part tuples
  (1-4 parts, some of them below 2), and `inv_recursion` on count
  `MonomialMarkedIdeal`s of its supported shape (some without a
  divisor-free pair); and, for the same draws, `resinv inv|atw|weights|
  recursion` in both formats, run in process;
- every `VALID` example of tests/test_cli.py (this tree's), in both
  formats, and the `ncquot normalize` golden instances, run in process:
  the exit code, stdout and stderr;
- the stdout of each demo under demos/.

The runner prints the number of cases and of mismatches, and the first
mismatching case in full, and exits with status 1 if any case differs or
runs in one tree only.  It needs only the standard library, and runs
outside the tier-1 suite, like tests/mutants.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_COUNT = 300

# groups and weights of the quotient_image and apply_group draws
_QUOTIENT_POOL = ((2,), (3,), (4,), (5,), (2, 2), (2, 3), (3, 3))
_QUOTIENT_VARS = ("x0", "x1", "x2")
# orders of the drawn Cyclo coefficients
_ORDERS = (1, 2, 3, 4, 6, 8, 12)


def canon(value):
    """A JSON form of a library value: maps as lists of pairs in their
    order, polynomials with their space and terms, Cyclo numbers with their
    order and coefficients, and records field by field."""
    from circforge.abelian import GroupElement, Subgroup
    from circforge.cyclotomic import Cyclo
    from circforge.polyring import FracPoly
    from circforge.record import Record
    from circforge.resinv import ATWSequence, InvSequence, WeightVector

    if isinstance(value, Cyclo):
        return {"cyclo": value.order, "coeffs": list(value.coeff_strings)}
    if isinstance(value, FracPoly):
        return {"space": [list(value.space.names), list(value.space.scales)], "terms": canon(value.terms)}
    if isinstance(value, Subgroup):
        return {"parent": list(value.parent.moduli), "elements": [list(e.residues) for e in value.elements]}
    if isinstance(value, GroupElement):
        return list(value.residues)
    if isinstance(value, Record):
        return {type(value).__name__: [[name, canon(getattr(value, name))] for name in type(value).__slots__]}
    if isinstance(value, (InvSequence, ATWSequence)):
        return {type(value).__name__: [canon(value.entries), list(value.contacts)]}
    if isinstance(value, WeightVector):
        return {"WeightVector": [canon(getattr(value, name)) for name in WeightVector.__slots__]}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return [[canon(k), canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _draw_quotient_case(rng: random.Random):
    """(f, basis): a random diagonal action on two or three variables, its
    Hilbert basis, and a sum of up to four products of generators with
    small rational coefficients; one draw in eight also gets a
    non-invariant term, one in eight a term with a negative exponent."""
    from circforge import AbelianGroup, DiagonalAction, FracPoly, VarSpace, hilbert_basis

    group = AbelianGroup(rng.choice(_QUOTIENT_POOL))
    names = list(_QUOTIENT_VARS[: rng.randint(2, 3)])
    action = DiagonalAction(group, {n: tuple(rng.randrange(p) for p in group.moduli) for n in names})
    basis = hilbert_basis(action)
    space = VarSpace((), names)
    f = FracPoly.zero(space)
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(names)
        for _ in range(rng.randint(0, 12)):
            gen = rng.choice(basis.generators)
            power = rng.randint(1, 6)
            exps = [e + power * g for e, g in zip(exps, gen)]
        f = f + FracPoly.monomial(space, dict(zip(names, exps)), rng.choice([-3, -2, -1, 1, 2, 3]))
    extra = rng.random()
    if extra < 1 / 8:
        f = f + FracPoly.monomial(space, {rng.choice(names): 1})
    elif extra < 2 / 8:
        f = f + FracPoly.monomial(space, {rng.choice(names): -rng.randint(1, 3) * group.order})
    return f, basis


def _respaced(orbit: list, index: int) -> list:
    """The orbit with factor index % len(orbit) moved into a larger space:
    a divisorial t of bound 2 in front (even index), or the same names in
    reverse order (odd index)."""
    from circforge import VarSpace

    j = index % len(orbit)
    names = orbit[j].space.names
    space = VarSpace([("t", 2)], names) if index % 2 == 0 else VarSpace([], names[::-1])
    return orbit[:j] + [orbit[j].in_space(space)] + orbit[j + 1:]


def _draw_cyclo(rng: random.Random):
    """A nonzero Cyclo of an order drawn from _ORDERS: a rational (so a
    rational stored above order 1 too), a rational times a root of unity,
    or that plus a root of unity."""
    from circforge import Cyclo, root_of_unity

    k = rng.choice(_ORDERS)
    q = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    kind = rng.randrange(3)
    c = Cyclo.rational(q, k) if kind == 0 else root_of_unity(k, rng.randrange(k)) * q
    if kind == 2:
        c = c + root_of_unity(k, rng.randrange(k))
    return Cyclo.rational(q, k) if c.is_zero() else c


def _restored(rng: random.Random, c):
    """c, or c stored at twice or three times its order."""
    return c.embed(c.order * rng.choice((1, 1, 2, 3)))


def _draw_poly(rng: random.Random, w_exponents):
    """Up to four terms in w (divisorial, bound 2, exponents drawn from
    w_exponents) and the free x0, x1, x2, as (face-value key, coefficient)
    pairs."""
    keys = {(rng.choice(w_exponents), *(rng.randrange(3) for _ in _QUOTIENT_VARS)) for _ in range(rng.randint(1, 4))}
    return [(key, _draw_cyclo(rng)) for key in sorted(keys)]


def _larger(rng: random.Random, f):
    """f itself, or one time in four f in a space with one more variable
    and with w of bound 4."""
    from circforge import VarSpace

    if rng.random() < 0.75:
        return f
    return f.in_space(VarSpace([("w", 4)], _QUOTIENT_VARS + ("y",)))


def _draw_match_case(rng: random.Random):
    """(a, b) for match_scalar: coefficients c drawn by _draw_poly, b with
    each c and a with each s * c for a scalar s (one time in four 1 of a
    drawn order), each coefficient of either maybe stored at a multiple of
    its order; one draw in five changes a coefficient of a, one in ten
    drops a term of a, and either may be moved into a larger space."""
    from circforge import Cyclo, FracPoly, VarSpace, root_of_unity

    space = VarSpace([("w", 2)], _QUOTIENT_VARS)
    terms = _draw_poly(rng, (0, Fraction(1, 2), 1))
    scalar = Cyclo.one(rng.choice(_ORDERS)) if rng.random() < 0.25 else _draw_cyclo(rng)
    scaled = [[key, _restored(rng, c * scalar)] for key, c in terms]
    terms = [(key, _restored(rng, c)) for key, c in terms]
    change = rng.random()
    if change < 0.2:
        scaled[rng.randrange(len(scaled))][1] *= root_of_unity(rng.choice(_ORDERS[1:]), 1)
    elif change < 0.3 and len(scaled) > 1:
        del scaled[rng.randrange(len(scaled))]
    a, b = FracPoly(space, dict(map(tuple, scaled))), FracPoly(space, dict(terms))
    return _larger(rng, a), _larger(rng, b)


def _draw_group_case(rng: random.Random):
    """(f, action, g) for apply_group: f drawn by _draw_poly (a term w^(1/2)
    has fractional weight when w's weight is odd), a diagonal action on w
    and the x's, and an element of its group, one time in sixteen of
    another group; f may be moved into a larger space."""
    from circforge import AbelianGroup, DiagonalAction, FracPoly, VarSpace

    moduli = rng.choice(_QUOTIENT_POOL)
    group = AbelianGroup(moduli)
    action = DiagonalAction(group, {n: tuple(rng.randrange(p) for p in moduli) for n in ("w",) + _QUOTIENT_VARS})
    # w^(1/2) in one term in 25
    terms = _draw_poly(rng, (0, 1) * 12 + (Fraction(1, 2),))
    f = FracPoly(VarSpace([("w", 2)], _QUOTIENT_VARS), {key: _restored(rng, c) for key, c in terms})
    if rng.random() < 1 / 16:
        group = AbelianGroup(rng.choice([m for m in _QUOTIENT_POOL if m != moduli]))
    return _larger(rng, f), action, group.element(rng.randrange(p) for p in group.moduli)


def _draw_parts(rng: random.Random) -> list:
    """1-4 parts in 2..9, one time in ten with one of them in -1..1."""
    parts = [rng.randint(2, 9) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.1:
        parts[rng.randrange(len(parts))] = rng.randint(-1, 1)
    return parts


def _draw_ideal(rng: random.Random) -> list:
    """1-5 pairs (w^e x_i^d, d) on distinct x_i, shuffled, with d one of
    1, 2, 3, 4, 6, 1/2, 3/2, 5/2 and e one of 0, 1, 2, 1/2, so that
    normalized exponents e/d tie; x_0 has e = 0, except in one draw in ten,
    where every pair may carry w, which the recursion refuses."""
    pairs = []
    for i in range(rng.randint(1, 5)):
        d = rng.choice((1, 2, 3, 4, 6, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)))
        e = 0 if i == 0 and rng.random() >= 0.1 else rng.choice((0, 1, 2, Fraction(1, 2)))
        pairs.append(({f"x{i}": d, "w": e}, d))
    rng.shuffle(pairs)
    return pairs


def _resinv_cases(rng: random.Random, seed: int, count: int):
    """(name, thunk) of the resinv draws, each API case then its CLI commands."""
    from circforge import resinv

    for draw in range(count):
        parts = _draw_parts(rng)
        k, text = parts[0], ",".join(map(str, parts))
        yield f"inv_cpk {seed}/{draw}", lambda k=k: resinv.inv_cpk(k)
        yield f"atwinv_cpk {seed}/{draw}", lambda k=k: resinv.atwinv_cpk(k)
        yield f"atwinv_product {seed}/{draw}", lambda p=parts: [p, resinv.atwinv_product(p)]
        yield f"weights {seed}/{draw}", lambda p=parts: [p, resinv.weights(p)]
        yield f"inv_recursion parts {seed}/{draw}", lambda p=parts: [p, resinv.inv_recursion(resinv.product_ideal(p))]
        for command, flag, value in (
            ("inv", "--k", k), ("inv", "--parts", text), ("atw", "--k", k), ("atw", "--parts", text),
            ("weights", "--parts", text), ("recursion", "--cpk", k), ("recursion", "--parts", text),
        ):
            for fmt in ("text", "json"):
                argv = ["--format", fmt, "resinv", command, f"{flag}={value}"]
                yield f"cli {fmt} resinv {command} {flag} {seed}/{draw}", lambda argv=argv: _run_cli(argv)
    for draw in range(count):
        pairs = _draw_ideal(rng)
        ideal = json.dumps([{"monomial": {v: str(e) for v, e in m.items()}, "order": str(d)} for m, d in pairs])
        yield f"inv_recursion ideal {seed}/{draw}", lambda p=pairs: [p, resinv.inv_recursion(resinv.MonomialMarkedIdeal(p))]
        for fmt in ("text", "json"):
            argv = ["--format", fmt, "resinv", "recursion", "--ideal", ideal]
            yield f"cli {fmt} resinv recursion --ideal {seed}/{draw}", lambda argv=argv: _run_cli(argv)


def _cli_examples():
    """(argv, name) of every VALID example of this tree's tests/test_cli.py
    and of the `ncquot normalize` golden instances, without --format."""
    sys.path[:0] = [str(ROOT / "tests")]
    from circforge import jsonio

    import test_cli

    for command, argv in test_cli.VALID.items():
        yield [*command, *argv], " ".join(command)
    for name in ("klein", "z2z4_rescaled"):
        action, factors = getattr(test_cli, f"_{name}_orbit")()
        factors = json.dumps([jsonio.poly_to_json(f) for f in factors])
        yield ["ncquot", "normalize", "--action", json.dumps(action), "--factors", factors], f"ncquot normalize {name}"


def _run_cli(argv):
    from circforge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "returncode": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cases(tree: Path, seed: int, count: int):
    """(name, thunk) of every case, in order."""
    from circforge import blowup, polyring, quotient_nc

    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    for index in range(seed * count, (seed + 1) * count):
        def nc(index=index):
            action, orbit, _rejected = workloads.nc_instance(index)
            return quotient_nc.invariant_nc_normal_form(quotient_nc.InvariantNCInput(action, orbit))

        def nc_respaced(index=index):
            action, orbit, _rejected = workloads.nc_instance(index)
            return quotient_nc.invariant_nc_normal_form(quotient_nc.InvariantNCInput(action, _respaced(orbit, index)))

        yield f"nc_instance {index}", nc
        yield f"nc_instance {index} respaced", nc_respaced
    rng = random.Random(seed)
    for draw in range(count):
        f, basis = _draw_quotient_case(rng)
        yield f"quotient_image {seed}/{draw}", lambda f=f, basis=basis: blowup.quotient_image(f, basis)
    for draw in range(count):
        a, b = _draw_match_case(rng)
        yield f"match_scalar {seed}/{draw}", lambda a=a, b=b: [a, b, polyring.match_scalar(a, b)]
    for draw in range(count):
        f, action, g = _draw_group_case(rng)
        yield f"apply_group {seed}/{draw}", lambda f=f, action=action, g=g: [f, polyring.apply_group(f, action, g)]
    yield from _resinv_cases(rng, seed, count)
    for argv, name in _cli_examples():
        for fmt in ("text", "json"):
            yield f"cli {fmt} {name}", lambda argv=["--format", fmt, *argv]: _run_cli(argv)
    for demo in sorted((tree / "demos").glob("*.py")):
        def run(demo=demo):
            proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=os.environ)
            return {"returncode": proc.returncode, "stdout": proc.stdout}

        yield f"demo {demo.name}", run


def child(tree: Path, seed: int, count: int) -> int:
    import circforge

    sys.set_int_max_str_digits(0)  # as the circforge command does

    if not Path(circforge.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"circforge came from {circforge.__file__}, not from {tree}")
    for name, thunk in _cases(tree, seed, count):
        try:
            line = {"case": name, "out": canon(thunk())}
        except Exception as exc:  # the outcome being compared
            line = {"case": name, "raises": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0


def run_tree(tree: Path, seed: int, count: int) -> dict:
    env = {
        **os.environ,
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])),
    }
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree), "--seed", str(seed), "--count", str(count)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tree)
    if proc.returncode:
        raise SystemExit(f"the run in {tree} failed:\n{proc.stderr}")
    return {json.loads(line)["case"]: line for line in proc.stdout.splitlines()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, nargs="?", help="the other checkout")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=DEFAULT_COUNT, help="nc instances and quotient draws, each")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child, args.seed, args.count)
    if args.parent is None:
        ap.error("the other checkout, PARENT_DIR, is required")
    head, parent = run_tree(ROOT, args.seed, args.count), run_tree(args.parent, args.seed, args.count)
    cases = list(dict.fromkeys([*head, *parent]))
    one_sided = [c for c in cases if (c in head) != (c in parent)]
    mismatches = [c for c in cases if c in head and c in parent and head[c] != parent[c]]
    print(f"{len(cases)} cases, {len(mismatches)} mismatches, {len(one_sided)} in one tree only")
    if mismatches:
        first = mismatches[0]
        print(f"first mismatch: {first}\nthis tree: {head[first]}\nparent:    {parent[first]}")
    if one_sided:
        print("in one tree only: " + ", ".join(one_sided))
    return 1 if mismatches or one_sided else 0


if __name__ == "__main__":
    sys.exit(main())

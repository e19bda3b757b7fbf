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
  every Cyclo's order and coefficients;
- `quotient_image` on count polynomials drawn from random.Random(seed):
  products of Hilbert basis generators under small diagonal actions, some
  with a non-invariant or a Laurent term added, printed the same way;
- the stdout of each demo under demos/.

The runner prints the number of cases and of mismatches, and the first
mismatching case in full, and exits with status 1 if any case differs or
runs in one tree only.  It needs only the standard library, and runs
outside the tier-1 suite, like tests/mutants.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_COUNT = 300

# groups and weights of the quotient_image draws
_QUOTIENT_POOL = ((2,), (3,), (4,), (5,), (2, 2), (2, 3), (3, 3))
_QUOTIENT_VARS = ("x0", "x1", "x2")


def canon(value):
    """A JSON form of a library value: maps as lists of pairs in their
    order, polynomials with their space and terms, Cyclo numbers with their
    order and coefficients, and records field by field."""
    from circforge.abelian import GroupElement, Subgroup
    from circforge.cyclotomic import Cyclo
    from circforge.polyring import FracPoly
    from circforge.record import Record

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


def _cases(tree: Path, seed: int, count: int):
    """(name, thunk) of every case, in order."""
    from circforge import blowup, quotient_nc

    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    for index in range(seed * count, (seed + 1) * count):
        def nc(index=index):
            action, orbit, _rejected = workloads.nc_instance(index)
            return quotient_nc.invariant_nc_normal_form(quotient_nc.InvariantNCInput(action, orbit))

        yield f"nc_instance {index}", nc
    rng = random.Random(seed)
    for draw in range(count):
        f, basis = _draw_quotient_case(rng)
        yield f"quotient_image {seed}/{draw}", lambda f=f, basis=basis: blowup.quotient_image(f, basis)
    for demo in sorted((tree / "demos").glob("*.py")):
        def run(demo=demo):
            proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=os.environ)
            return {"returncode": proc.returncode, "stdout": proc.stdout}

        yield f"demo {demo.name}", run


def child(tree: Path, seed: int, count: int) -> int:
    import circforge

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

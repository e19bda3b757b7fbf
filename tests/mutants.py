"""Named mutants of the certificates: each row breaks one exact check of
the library, and lists the tests that must fail without it.

Run every row with

    python tests/mutants.py

For each row the runner copies src/ to a temporary directory, replaces the
row's snippet in its module, and runs each listed test in its own pytest
process, one at a time, with -x and a timeout of TIMEOUT_S seconds,
importing circforge from the copy.  A row is killed when every listed test
fails.  Rows list only tests whose outcome does not depend on drawn
examples, so that a verdict repeats.  Before any mutant, the listed tests
run once on an unchanged copy, since a test that fails there kills
nothing.  The runner prints one line per row and exits with status 1 if
a row survives (2 if a listed test fails unchanged).  It needs only the
standard library and pytest.

tests/test_mutants.py checks in tier-1 that each snippet occurs exactly
once in its module, so that the table cannot rot silently.  A change that
adds a certificate adds its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/circforge
    snippet: str  # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "valid-transitive",
        "gcirc.py",
        "all(self.denominators_realized) and self.transitive",
        "all(self.denominators_realized)",
        ("tests/test_gcirc.py::test_validate_non_transitive",),
    ),
    Mutant(
        "additive-gamma-pairs",
        "gcirc.py",
        "gamma[tuple(map(mod, map(add, a, b), g.moduli))] == tuple(map(mod, map(add, ga, gb), dens))",
        "True",
        ("tests/test_gcirc.py::test_validate_transitivity_matches_polynomial_orbits",),
    ),
    Mutant(
        "rank-row-swap",
        "smith.py",
        "        e[r], e[piv] = e[piv], e[r]\n        p = e[r][col]\n",
        "        p = e[r][col]\n",
        ("tests/test_smith.py::test_rank_swaps_a_pivot_row_up",),
    ),
    Mutant(
        "reduced-echelon-clears-above",
        "smith.py",
        "        for a in range(r):\n"
        "            c = e[a][col]\n"
        "            if c:\n"
        "                e[a] = [x - c * y for x, y in zip(e[a], e[r])]\n",
        "",
        (
            "tests/test_smith.py::test_reduced_echelon_clears_above_each_pivot",
            "tests/test_smith.py::test_elimination_on_rationals",
            "tests/test_cyclotomic.py::test_descend_inverts_embed",
        ),
    ),
    Mutant(
        "square-multiply-squares",
        "cyclotomic.py",
        "        base = base * base if n > 1 else base\n",
        "",
        (
            "tests/test_cyclotomic.py::test_power_is_the_left_fold_of_products",
            "tests/test_cyclotomic.py::test_embed_examples",
            "tests/test_polyring.py::test_ring_identities",
        ),
    ),
    Mutant(
        "perp-vector-test",
        "abelian.py",
        "if not any(sum(map(mul, res, v)) % k for v in vecs)",
        "if not any(sum(map(mul, res, v)) for v in vecs)",
        ("tests/test_abelian.py::test_perp_examples",),
    ),
    Mutant(
        "subgroup-closure",
        "abelian.py",
        '                if a + b not in elems:\n                    raise ValueError("subgroup not closed under addition")\n',
        "                pass\n",
        ("tests/test_abelian.py::test_subgroup_validation",),
    ),
    Mutant(
        "intertwines",
        "blowup.py",
        "        if tuple(w % p for w, p in zip(action_i.weights[v], moduli)) != action_j.characters(image.space, key):\n"
        "            return False\n",
        "",
        ("tests/test_blowup.py::test_transition_equivariance_and_a_wrong_image",),
    ),
    Mutant(
        "codim1-match",
        "gcirc.py",
        "        verified=match_factors(lhs, rhs) == 1,\n",
        "        verified=True,\n",
        ("tests/test_gcirc.py::test_codim1_certificate_fails_on_wrong_cosets",),
    ),
    Mutant(
        "merge-match",
        "gcirc.py",
        "transform=transform, verified=match_factors(lhs, rhs) == 1)",
        "transform=transform, verified=True)",
        ("tests/test_gcirc.py::test_product_merge_certificate_fails_on_a_wrong_transform",),
    ),
    Mutant(
        "verify-split",
        "splitting.py",
        "    if not verify_split(f, powers, roots, d, z=z):\n",
        "    if False:\n",
        ("tests/test_splitting.py::test_split_newton_checks_the_candidate_of_the_search",),
    ),
    Mutant(
        "prime-field-phi",
        "modular.py",
        "        if phi_at_w == 0:\n",
        "        if True:\n",
        ("tests/test_modular.py::test_prime_field_root_is_a_root_of_phi",),
    ),
    Mutant(
        "nc-entries",
        "quotient_nc.py",
        "    if any(row[j] != table[w] for table, row in zip(phases, matrix) for w, j in piece_of.items()):\n",
        "    if False:\n",
        (
            "tests/test_quotient_nc.py::test_a_corrupted_entry_fails_the_recombination_check",
            "tests/test_quotient_nc.py::test_a_corrupted_matrix_entry_fails_the_recombination_check",
        ),
    ),
    Mutant(
        # the cache keyed by the character set alone: a set seen first under
        # one group keeps that group's skeleton under every other
        "nc-skeleton-key",
        "quotient_nc.py",
        "_skeleton(action.group.moduli, frozenset(chars))",
        "_skeleton(_skeleton.__dict__.setdefault(frozenset(chars), action.group.moduli), frozenset(chars))",
        ("tests/test_quotient_nc.py::test_one_character_set_under_two_moduli_has_two_skeletons",),
    ),
    Mutant(
        # row m translated by the phase table of row m - 1 (the identity's
        # for the first row after it)
        "nc-phase-table-row",
        "quotient_nc.py",
        "for table in skeleton.phases[1:]",
        "for table in skeleton.phases[:-1]",
        ("tests/test_quotient_nc.py::test_the_cached_skeleton_matches_the_reference_copy",),
    ),
    Mutant(
        "nc-pieces",
        "quotient_nc.py",
        "    if not all(map(linear_part, parts.values())):\n",
        "    if False:\n",
        ("tests/test_quotient_nc.py::test_a_piece_without_a_linear_part_is_caught_by_the_pieces_check",),
    ),
    Mutant(
        "nc-rank-fallback",
        "quotient_nc.py",
        "        if linear_rank([linear_part(f) for f in factors], space.names) != len(factors):\n"
        "            raise DegenerateInput(NOT_INDEPENDENT) from None\n",
        "",
        (
            "tests/test_quotient_nc.py::test_a_dependent_system_is_reported_whatever_step_fails",
            "tests/test_quotient_nc.py::test_normal_form_degenerate",
        ),
    ),
    Mutant(
        # 1 of the order of a's first coefficient whenever a = b, also when
        # the two first coefficients differ in order (e_4 against e_8^2)
        "match-same-order",
        "polyring.py",
        "    if equal and a.terms[key].order == b.terms[key].order:\n",
        "    if equal:\n",
        ("tests/test_polyring.py::test_match_scalar_keeps_the_order_of_the_quotient",),
    ),
    Mutant(
        "product-zero-restart",
        "polyring.py",
        "                    if s:\n                        entry[0] = s\n",
        "                    if True:\n                        entry[0] = s\n",
        (
            "tests/test_polyring.py::test_product_order_follows_zero_reset",
            "tests/test_polyring.py::test_chain_product_restarts_at_an_intermediate_level",
            "tests/test_polyring.py::test_integral_product_keeps_a_restart_at_the_last_level",
        ),
    ),
    Mutant(
        "product-rational-order",
        "cyclotomic.py",
        "        return _make(m, [packed] + [0] * (_reducer(m)[0] - 1), den)\n",
        "        return _make(k, [packed] + [0] * (_reducer(k)[0] - 1), den)\n",
        ("tests/test_polyring.py::test_last_level_rational_sum_keeps_its_order",),
    ),
    Mutant(
        "product-degree-bound",
        "polyring.py",
        "[item for item in walk if item[0] >> offset <= room]",
        "[item for item in walk if item[0] >> offset < room]",
        ("tests/test_polyring.py::test_bounded_product_keeps_the_pairs_at_the_bound",),
    ),
    Mutant(
        # increments taken for a one-term image whatever its coefficient;
        # every draw of the fold test has a term with a non-unit image
        "substitute-unit-image",
        "polyring.py",
        "        if c == 1:\n            # the entry",
        "        if True:\n            # the entry",
        ("tests/test_polyring.py::test_substitute_matches_the_term_by_term_fold",),
    ),
    Mutant(
        # the packed field one bit short, so an entry's top bit is its guard;
        # the oracle's explicit example v0^300 needs the full ten bits
        "quotient-packed-guard",
        "blowup.py",
        ".bit_length() + 1\n",
        ".bit_length()\n",
        ("tests/test_blowup.py::test_quotient_image_matches_the_reference_search",),
    ),
    Mutant(
        "chain-branch-charge",
        "splitting.py",
        "        state.charge_branch()\n        for key in low:\n",
        "        for key in low:\n",
        (
            "tests/test_splitting.py::test_a_linear_root_charges_a_branch_per_degree_part",
            "tests/test_cli.py::test_split_example_basic_exceeds_the_branch_cap",
        ),
    ),
    Mutant(
        "chain-failed-at",
        "splitting.py",
        "    if top is not None:\n        state.failed_at = max(state.failed_at, Fraction(top, state.space.lcm))\n",
        "",
        ("tests/test_splitting.py::test_the_linear_chain_ends_as_the_recursive_search_does",),
    ),
    Mutant(
        "chain-exact-division",
        "splitting.py",
        "        if any(min(diff) < 0 for diff, _key in diffs):\n            break\n",
        "",
        ("tests/test_splitting.py::test_the_linear_chain_ends_as_the_recursive_search_does",),
    ),
    Mutant(
        # the product of the denominators for their lcm: still integers,
        # but not the least ones
        "weights-least-integers",
        "resinv.py",
        "Fraction(lcm(*(q.denominator for q in rational)))",
        "Fraction(__import__('math').prod(q.denominator for q in rational))",
        ("tests/test_resinv.py::test_weights_match_the_closed_forms",),
    ),
    Mutant(
        "record-checks-fields",
        "record.py",
        "        if len(args) != len(fields):\n",
        "        if False:\n",
        ("tests/test_record.py::test_a_missing_field_or_an_extra_argument_is_a_type_error",),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Replace the mutant's snippet in the copy of the package under src."""
    path = src / "circforge" / mutant.module
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet does not occur exactly once in {mutant.module}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run_test(node: str, src: Path, cwd: Path) -> str:
    """'passed', 'failed', 'timeout' or 'error' (the test could not run)
    for one test against the package copy under src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", "--rootdir", str(ROOT), str(ROOT / node),
    ]
    try:
        # cwd is the scratch directory, so that Hypothesis keeps no examples of a mutant
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(proc.returncode, "error")


def _copy(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="circforge-mutants-") as tmp:
        base = Path(tmp) / "base"
        src = _copy(base)
        for node in dict.fromkeys(n for m in MUTANTS for n in m.tests):
            outcome = run_test(node, src, base)
            if outcome != "passed":
                print(f"{node} is {outcome} on the unchanged source; no mutant can be judged by it")
                return 2
        survivors = []
        for m in MUTANTS:
            work = Path(tmp) / m.name
            src = _copy(work)
            apply(m, src)
            outcomes = [run_test(node, src, work) for node in m.tests]
            killed = all(o == "failed" for o in outcomes)
            if not killed:
                survivors.append(m.name)
            detail = ", ".join(f"{node.rsplit('::', 1)[-1]} {o}" for node, o in zip(m.tests, outcomes))
            print(f"{'killed' if killed else 'SURVIVED'}  {m.name}  ({detail})", flush=True)
            shutil.rmtree(work)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} rows killed in {time.perf_counter() - start:.0f} s")
    if survivors:
        print("survivors: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

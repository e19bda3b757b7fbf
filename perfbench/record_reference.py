"""Write reference.json: the digest of every operation's canonical output.

    python3 perfbench/record_reference.py

The benchmark fails any operation whose output digest differs from the one
recorded here, so rerun this only when an output is meant to change, and
say so where the change is reviewed.  Malformed-input probes have no
digest: they are scored against the CLI's error contract.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("CIRCFORGE_DEGREE_BOUND", None)

import workloads  # noqa: E402


def main():
    reference = {}
    for name in ("circulant", "nc_batch", "blowup_split"):
        ops = workloads.WORKLOADS[name].build(0, {}).ops
        reference[name] = {op.key: workloads.digest(op.run()) for op in ops}
    reference["cli_calls"] = {}
    for op in workloads.build_cli_calls(0, {}).ops:
        if op.probe:
            continue
        res = op.run()
        if res.returncode != 0 or "Traceback" in res.stderr:
            sys.exit(f"{op.key}: exit code {res.returncode}\n{res.stderr}")
        reference["cli_calls"][op.key] = workloads.digest(res.stdout)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

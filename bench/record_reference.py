"""Record the reference digest of every op's outcome at the default seed.

    python3 bench/record_reference.py

Writes bench/reference_digests.json.  Runs at the default seed must then
reproduce every digest, which holds report bodies, documents and witnesses
byte-identical.  Record only at a commit whose outputs are the reference,
and only after every op passes its own checks.
"""

from __future__ import annotations

import json
import os
import shutil

import run


def main() -> int:
    code = run.with_hash_seed(__file__)
    if code is not None:
        return code
    run.prepare()
    import workloads

    reference = {}
    for name in workloads.NAMES:
        gate = run.Gate({}, require_reference=False)
        work = run.OUT / f"reference-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            _, failed = run.run_pass(workloads.build(name, run.DEFAULT_SEED, work), gate)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if failed:
            raise SystemExit(f"{name}: {failed} ops failed; no reference written")
        reference[name] = dict(sorted(gate.digests.items()))
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Regenerate the reference outputs under ``reference/<workload>/``.

    python3 perfbench/make_reference.py [workload ...]

Generates each workload's bundle at its default seed, runs one job and
stores the outputs the checks compare against (gzip-compressed).  Run it
only when an output change is intended, and say why in the change log.
"""

from __future__ import annotations

import shutil
import sys

import checks
import jobs
import workload
from run import ROOT, SRC


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(workload.WORKLOADS["workloads"])
    sys.path.insert(0, str(SRC))
    from netsafety import cli

    seed = workload.WORKLOADS["default_seed"]
    for name in names:
        bundle = ROOT / ".perfbench_work" / f"reference-{name}" / "bundle"
        if bundle.parent.exists():
            shutil.rmtree(bundle.parent)
        workload.make_bundle(cli, name, seed, bundle)
        result = jobs.run_job(cli, bundle)
        if result.error:
            print(f"{name}: job failed:\n{result.error}", file=sys.stderr)
            return 1
        problems = checks.structural_problems(bundle)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        checks.write_reference(bundle, checks.REFERENCE_DIR / name)
        shutil.rmtree(bundle.parent)
        print(f"{name}: reference written")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the tier-1 test suite and check that only the deliberate pair fails.

Tier-1 is ``python -m pytest -q --continue-on-collection-errors`` run from
the repository root with ``src`` on ``PYTHONPATH``. Two acceptance tests
fail on purpose: they pin sharp-cutoff approximations that the
exponential-cutoff values do not meet, and they stay strict (see the
README). The script exits 0 only if exactly those two fail. It prints
every other failure or error, and says so if one of the two starts to
pass.

    python tools/check_tier1.py
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DELIBERATE = frozenset(
    {
        "tests/test_acceptance.py::test_criterion_3_fig1_onset_levels",
        "tests/test_acceptance.py::test_criterion_6_tail_law",
    }
)

# a line of pytest's short test summary: "FAILED <node id> - <message>"
_SUMMARY = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")


def failing_set(output):
    """Node ids of the failures and errors in pytest's short summary."""
    return {m.group(1) for m in map(_SUMMARY.match, output.splitlines()) if m}


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)

    failed = failing_set(proc.stdout)
    # pytest exits 1 when tests fail; any other nonzero code means the run
    # itself broke (interrupted, usage error, nothing collected)
    ok = proc.returncode in (0, 1) and failed == DELIBERATE
    if proc.returncode not in (0, 1):
        print(f"tier-1: pytest exited with code {proc.returncode}")
    for test in sorted(failed - DELIBERATE):
        print(f"tier-1: unexpected failure: {test}")
    for test in sorted(DELIBERATE - failed):
        print(f"tier-1: deliberate failure no longer fails: {test}")
    print(f"tier-1: {'OK' if ok else 'FAILED'} ({len(failed)} failing)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

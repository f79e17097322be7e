"""tools/check_tier1.py reads the failing set from pytest's short summary."""

import importlib.util
import os

CHECK = os.path.join(os.path.dirname(__file__), "..", "tools", "check_tier1.py")


def test_failing_set_reads_the_short_summary():
    spec = importlib.util.spec_from_file_location("check_tier1", CHECK)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    output = "\n".join(
        [
            "..F.E",
            "=========================== short test summary info ===",
            "FAILED tests/test_acceptance.py::test_criterion_6_tail_law - Assert...",
            "FAILED tests/test_quadrature.py::TestInvariances::test_a[eta2-w0t0.1]",
            "ERROR tests/test_cli.py - ImportError: cannot import name 'x'",
            "2 failed, 2 passed, 1 error in 1.00s",
        ]
    )
    assert check.failing_set(output) == {
        "tests/test_acceptance.py::test_criterion_6_tail_law",
        "tests/test_quadrature.py::TestInvariances::test_a[eta2-w0t0.1]",
        "tests/test_cli.py",
    }
    assert check.failing_set("3 passed in 1.00s") == set()

"""The tools: check_tier1.py reads the failing set from pytest's short
summary and the deliberate pair's ACCEPTANCE lines, and record_bench.py
summarises runs in the BENCH_<n>.json layout."""

import importlib.util
import json
import os
import subprocess

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


def load_tool(name):
    path = os.path.join(os.path.dirname(__file__), "..", "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_deliberate_pair_keeps_its_numbers(monkeypatch, capsys):
    # each deliberate failure's ACCEPTANCE line, from pytest's captured
    # stdout, must be the pasted one verbatim; a changed or missing line
    # fails the gate, which prints both versions
    check = load_tool("check_tier1")
    (t3, line3), (t6, line6) = check.DELIBERATE.items()

    def output(printed3, printed6):
        return "\n".join(
            [
                "----------------------------- Captured stdout call ----------",
                printed3,
                "----------------------------- Captured stdout call ----------",
                printed6,
                "=========================== short test summary info ===",
                f"FAILED {t3} - AssertionError: eta=3.0: ratio(t_F)=3.0245 ...",
                f"FAILED {t6} - AssertionError: (ratio-1)*w0t deviates ...",
                "2 failed, 806 passed in 20.99s",
            ]
        )

    assert check.changed_reports(output(line3, line6)) == []
    moved = line6.replace("0.291", "0.292")
    assert check.changed_reports(output(line3, moved)) == [(t6, line6, moved)]
    assert check.changed_reports(output(line3, "")) == [(t6, line6, None)]

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout=output(line3, moved), stderr="")

    monkeypatch.setattr(check.subprocess, "run", run)
    assert check.main() == 1
    printed = capsys.readouterr().out.splitlines()
    assert f"  pasted:  {line6}" in printed and f"  printed: {moved}" in printed
    assert printed[-1] == "tier-1: FAILED (2 failing)"


class TestRecordBench:
    """tools/record_bench.py: its pure parts, without running a benchmark."""

    def test_sides_alternate(self):
        bench = load_tool("record_bench")
        assert [bench.side_order(i) for i in range(3)] == [
            ("parent", "change"),
            ("change", "parent"),
            ("parent", "change"),
        ]

    def test_parse_run_py_reads_the_last_line(self):
        bench = load_tool("record_bench")
        metrics = {name: float(i) for i, name in enumerate(bench.RUN_PY_METRICS)}
        reported = {name: {"value": v, "unit": "s"} for name, v in metrics.items()}
        last = json.dumps({"correct": True, "attempted": 9, "failed": 0,
                           "metrics": dict(reported, extra={"value": 1.0, "unit": "s"})})
        got, correct = bench.parse_run_py('{"meta": 1}\n' + last + "\n")
        assert got == dict(metrics, attempted=9) and correct is True

    def test_summarise_workload_in_bench_schema(self):
        bench = load_tool("record_bench")
        per_seed = {
            side: {name: [3.0 + k, 1.0 + k, 2.0 + k] for name in bench.RUN_PY_METRICS}
            for k, side in enumerate(bench.SIDES)
        }
        correct = {"parent": [True, True, True], "change": [True, False, True]}
        out = bench.summarise_workload(per_seed, correct)
        assert set(out) == {"parent", "parent_per_seed", "change", "change_per_seed"}
        assert out["parent"]["points_per_s"] == 2.0 and out["change"]["setup_s"] == 3.0
        assert out["parent"]["correct"] is True and out["change"]["correct"] is False
        assert out["change_per_seed"]["peak_rss_mb"] == [4.0, 2.0, 3.0]

    def test_pairs_won_follows_the_metric_direction(self):
        bench = load_tool("record_bench")
        parent, change = [1.0, 2.0, 3.0], [2.0, 1.0, 4.0]
        assert bench.pairs_won(parent, change, "points_per_s") == 2
        assert bench.pairs_won(parent, change, "point_ms_p50") == 1

    def test_claim_summary(self):
        bench = load_tool("record_bench")
        parent, change = [10.0, 12.0, 11.0, 13.0, 9.0], [60.0, 61.0, 10.5, 62.0, 63.0]
        got = bench.claim_summary("fig1_broadband", "points_per_s", parent, change)
        assert got["parent_median"] == 11.0 and got["change_median"] == 61.0
        assert got["parent_iqr"] == 3.0  # quartiles 9.5 and 12.5
        assert got["pairs_won"] == "4/5"

    def test_rss_per_thousand_attempted(self):
        bench = load_tool("record_bench")
        per_seed = {
            "parent": {"peak_rss_mb": [50.0, 60.0, 70.0], "attempted": [1000, 2000, 4000]},
            "change": {"peak_rss_mb": [55.0, 66.0, 77.0], "attempted": [1100, 2200, 4400]},
        }
        got = bench.rss_per_thousand(per_seed)
        assert got == {"parent": 30.0, "change": 30.0}  # medians of 50, 30, 17.5

    def test_verdicts_against_each_bound(self):
        bench = load_tool("record_bench")
        assert bench.BOUNDS["points_per_s"] == 0.25 and bench.BOUNDS["peak_rss_mb"] == 0.1
        steady = [100.0, 101.0, 99.0, 100.0, 100.5]
        wide = [0.8, 1.0, 1.5, 2.0, 2.2]  # quartiles 0.9 and 2.1: 80 % of 1.5
        cases = {
            # 30 % fewer points a second, beyond the 25 % bound
            "points_per_s": (steady, [70.0, 71.0, 69.0, 70.0, 70.5], "beyond bound"),
            # a 10 % drop is beyond the 4 % bound, in the higher-is-better direction
            "success_frac": ([1.0] * 5, [0.9] * 5, "beyond bound"),
            # an unchanged median inside a parent spread wider than the bound
            "point_ms_p50": (wide, [1.6, 1.4, 1.5, 1.7, 1.3], "unresolved"),
            # the same spread, but every change run beats every parent run
            "point_ms_tail": (wide, [0.5, 0.6, 0.55, 0.7, 0.65], "within bound"),
            # 3 % more memory, inside the 10 % bound
            "peak_rss_mb": ([50.0, 51.0, 50.5, 50.2, 50.8],
                            [52.0, 52.5, 51.8, 52.2, 52.1], "within bound"),
        }
        got = {metric: bench.verdict(metric, parent, change)
               for metric, (parent, change, _) in cases.items()}
        for metric, (_, _, word) in cases.items():
            assert got[metric]["verdict"] == word, (metric, got[metric])
            assert got[metric]["bound"] == bench.BOUNDS[metric]
        fewer = got["points_per_s"]
        assert fewer["parent_median"] == 100.0 and fewer["change_median"] == 70.0
        assert fewer["change_worse"] == 0.3 and fewer["parent_rel_iqr"] == 0.0125
        assert got["point_ms_p50"]["change_worse"] == 0.0
        assert got["point_ms_p50"]["parent_rel_iqr"] == 0.8

    def test_verdicts_cover_every_workload_and_metric(self):
        bench = load_tool("record_bench")
        per_seed = {side: {m: [1.0, 2.0, 3.0] for m in bench.RUN_PY_METRICS}
                    for side in bench.SIDES}
        got = bench.verdicts({w: (per_seed, None) for w in bench.WORKLOADS})
        assert set(got) == set(bench.WORKLOADS)
        for table in got.values():
            assert list(table) == list(bench.RUN_PY_METRICS)

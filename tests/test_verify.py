"""Verify reports: determinism under the thread-count knob."""

import json

from finslerkit.verify import report_to_json, run_verification

# a quadratic model on a line, g(x) = exp(x/2): one quick report takes seconds
LINE_MODEL = {
    "dimension": 1,
    "homogeneity_degree": 2,
    "family": "quadratic",
    "parameters": {"metric": [["exp(0.5 * x1)"]]},
    "domain": {"x_min": [-1.0], "x_max": [1.0]},
}


def test_reports_do_not_depend_on_thread_count(monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FINSLERKIT_THREADS", threads)
        reports.append(report_to_json(run_verification(LINE_MODEL, seed=7, budget="quick")))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["checks"]

"""Tests for the verification report machinery."""

from spmatroids.combinum import stirling2
from spmatroids.config import RunConfig
from spmatroids.verify import run_verify


def test_default_report_is_clean():
    report = run_verify()
    assert report.ok
    failed = [c for c in report.checks if c.status == "fail"]
    assert failed == []


def test_flagged_items_present_with_evidence():
    report = run_verify()
    flagged = {c.name: c for c in report.checks if c.status == "flagged"}
    assert set(flagged) == {
        "reciprocal-corollary-printed-variant",
        "inversion-formula-display-sign",
        "inverse-defining-equation-variable",
        "simple-count-r2-special-case",
    }
    r2 = flagged["simple-count-r2-special-case"]
    assert "5" in r2.detail and "1" in r2.detail
    cor = flagged["reciprocal-corollary-printed-variant"]
    assert "2" in cor.detail and "1/3" in cor.detail


def test_corrupted_stirling_table_is_localized():
    def corrupt(n, k):
        if (n, k) == (9, 4):
            return stirling2(n, k) + 1
        return stirling2(n, k)

    report = run_verify(stirling2_fn=corrupt)
    assert not report.ok
    failed = {c.name: c for c in report.checks if c.status == "fail"}
    assert "stirling-alternating-lemma" in failed
    assert "(m, l)" in failed["stirling-alternating-lemma"].detail
    rendered = report.render()
    assert "FAIL" in rendered


def test_low_order_config_reported_as_such():
    report = run_verify(RunConfig(truncation_order=3))
    assert report.ok
    series_checks = [c for c in report.checks if c.name.startswith("gf-")]
    assert series_checks
    assert all("order 3" in c.ranges for c in series_checks)


def test_render_summary_line():
    report = run_verify()
    rendered = report.render()
    assert rendered.endswith("flagged, 0 failed\n")
    assert "PASS" in rendered and "FLAG" in rendered

"""The serving self-check: every probe passes on a working stack, a
broken stack is reported (not raised), and the exit code follows."""

import json

import pytest

import repro.serve.doctor as doctor
from repro.serve import ServeBroker, format_doctor_report, run_doctor

PROBES = ["broker-end-to-end", "graceful-drain",
          "typed-invalid-shedding", "typed-backpressure"]


def test_platform_only_report():
    report = run_doctor(system=None)
    assert report["ok"] is True
    assert report["checks"] == []
    assert set(report["info"]) == {"python", "numpy", "cpu_count"}


def test_live_probe_passes_every_check(tiny_system):
    report = run_doctor(system=tiny_system)
    assert [c["name"] for c in report["checks"]] == PROBES
    assert all(c["ok"] for c in report["checks"]), report["checks"]
    assert report["ok"] is True
    probe = report["info"]["broker_probe"]
    assert probe["invalid_reason"] == "invalid"
    # The burst is fully accounted for: served + typed rejections.
    assert probe["overload_rejected"] > 0
    assert probe["overload_served"] + probe["overload_rejected"] == 8


def test_broker_failure_is_reported_not_raised(tiny_system,
                                               monkeypatch):
    async def broken(self, image, boxes):
        raise RuntimeError("zone path down")

    monkeypatch.setattr(ServeBroker, "check_zones", broken)
    report = run_doctor(system=tiny_system)
    assert report["ok"] is False
    (check,) = report["checks"]
    assert check["name"] == "broker-end-to-end"
    assert check["ok"] is False
    assert "zone path down" in check["detail"]


def test_format_marks_failures():
    report = {"ok": False,
              "info": {"python": "3.x", "numpy": "2.x", "cpu_count": 2},
              "checks": [{"name": "graceful-drain", "ok": True,
                          "detail": "fine"},
                         {"name": "typed-backpressure", "ok": False,
                          "detail": "silent drop"}]}
    text = format_doctor_report(report)
    assert "2 cpu(s)" in text
    assert "[ok  ] graceful-drain: fine" in text
    assert "[FAIL] typed-backpressure: silent drop" in text
    assert text.endswith("status: UNHEALTHY")
    assert format_doctor_report(
        dict(report, ok=True, checks=[])).endswith("status: healthy")


@pytest.mark.parametrize("json_flag", [False, True])
def test_main_platform_only(capsys, json_flag):
    argv = ["--system", "none"] + (["--json"] if json_flag else [])
    assert doctor.main(argv) == 0
    out = capsys.readouterr().out
    if json_flag:
        assert json.loads(out)["ok"] is True
    else:
        assert "status: healthy" in out


def test_main_exits_nonzero_when_unhealthy(capsys, monkeypatch):
    monkeypatch.setattr(
        doctor, "run_doctor",
        lambda system=None: {"ok": False, "checks": [],
                             "info": {"python": "", "numpy": "",
                                      "cpu_count": 1}})
    assert doctor.main(["--system", "none"]) == 1
    assert "UNHEALTHY" in capsys.readouterr().out

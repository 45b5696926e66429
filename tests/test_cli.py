"""Command-line front end: roundtrips, exit codes, determinism."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from tetrametric import CSV_COLUMNS
from tetrametric.cli import main


def _make(tmp_path, *extra):
    path = tmp_path / "tet.json"
    rc = main(["make", "--kind", "regular", *extra, "-o", str(path)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# happy path: make -> metrics -> check

def test_make_metrics_check_roundtrip(tmp_path, capsys):
    tet = _make(tmp_path)
    data = json.loads(tet.read_text())
    assert data["schema"] == "tetrametric-tetrahedron/1"
    assert len(data["vertices"]) == 4
    assert all(abs(e - 1.0) < 1e-9 for e in data["edge_lengths"])

    rep = tmp_path / "report.json"
    assert main(["metrics", "-i", str(tet), "-o", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["schema"] == "tetrametric-report/2"
    assert set(report["metrics"]) == {"Diam", "diam", "Rad", "rad"}

    assert main(["check", "-i", str(rep)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "tetrametric-check/1"
    assert out["violations"] == []
    assert len(out["margins"]) == 12


def test_make_isosceles_sides(tmp_path):
    path = tmp_path / "iso.json"
    assert main(["make", "--kind", "isosceles", "--sides", "5", "6", "7",
                 "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    assert sorted(data["edge_lengths"])[-1] == pytest.approx(1.0, abs=1e-9)
    # normalized output: the longest pair maps to 1, the rest scale by 1/7
    assert sorted(data["edge_lengths"])[0] == pytest.approx(5 / 7, rel=1e-9)


def test_make_seeded_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for p in (a, b):
        assert main(["make", "--kind", "eps-thick", "--eps", "0.02",
                     "--seed", "5", "-o", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_flags_violations(tmp_path, capsys):
    tet = _make(tmp_path)
    rep = tmp_path / "report.json"
    assert main(["metrics", "-i", str(tet), "-o", str(rep)]) == 0
    payload = json.loads(rep.read_text())
    payload["ratios"]["Rad_over_diam"] = 1.1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["check", "-i", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert len(out["violations"]) == 1
    assert out["violations"][0]["inequality"] == "m_Rad_diam_hi"


# ---------------------------------------------------------------------------
# campaigns

def test_campaign_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    rc = main(["campaign", "--kind", "random", "--n", "3", "--seed", "42",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    summary = json.loads(capsys.readouterr().out)
    assert summary["schema"] == "tetrametric-campaign/1"
    assert summary["instances"] == 3
    assert summary["violations"] == []


def test_campaign_deterministic_across_threads(tmp_path, capsys, monkeypatch):
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    assert main(["campaign", "--n", "3", "-o", str(serial)]) == 0
    first = capsys.readouterr().out
    monkeypatch.setenv("TETRA_THREADS", "2")
    assert main(["campaign", "--n", "3", "-o", str(threaded)]) == 0
    second = capsys.readouterr().out
    assert serial.read_bytes() == threaded.read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# rendering

def test_unfold_modes(tmp_path):
    tet = _make(tmp_path)
    for k, (source, mode) in enumerate((("v:0", "star"),
                                        ("f:1:0.3,0.3,0.4", "source"),
                                        ("f:1:0.5,0.5,0", "star"),
                                        ("f:1:0.5,0.5,0", "source"))):
        out = tmp_path / ("out_%d.svg" % k)
        assert main(["unfold", "-i", str(tet), "--source", source,
                     "--mode", mode, "-o", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")


# ---------------------------------------------------------------------------
# failure modes map to exit code 3

def test_unknown_kind_exits_3(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["make", "--kind", "banana", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 3


def test_missing_input_exits_3(tmp_path):
    assert main(["metrics", "-i", str(tmp_path / "nope.json")]) == 3


@pytest.mark.parametrize("command, document", [
    ("check", [1, 2]), ("check", {"ratios": 3}),
    ("metrics", [1, 2]), ("metrics", {"vertices": 5})])
def test_input_of_the_wrong_shape_exits_3(tmp_path, capsys, command,
                                          document):
    # valid JSON of the wrong type is bad input, reported on one line
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert main([command, "-i", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("tetra %s: " % command) and err.count("\n") == 1


def test_bad_source_exits_3(tmp_path):
    tet = _make(tmp_path)
    assert main(["unfold", "-i", str(tet), "--source", "x:9"]) == 3
    assert main(["unfold", "-i", str(tet), "--source", "f:0:0.3,0.3"]) == 3
    assert main(["unfold", "-i", str(tet), "--source", "v:7"]) == 3


@pytest.mark.parametrize("edge", ["1e100", "1e-100"])
def test_a_shape_out_of_range_exits_3(tmp_path, capsys, edge):
    # a longest edge outside [2**-150, 2**150] is refused on the way in,
    # by make and by metrics alike, where its report overflowed
    out = tmp_path / "big.json"
    assert main(["make", "--kind", "regular", "--edge", edge,
                 "-o", str(out)]) == 3
    assert not out.exists()
    tet = _make(tmp_path)
    data = json.loads(tet.read_text())
    data["vertices"] = [[float(edge) * c for c in v] for v in data["vertices"]]
    tet.write_text(json.dumps(data))
    assert main(["metrics", "-i", str(tet)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("outside [7.006e-46, 1.427e+45]" in line
                                 for line in err)


def test_campaign_zero_instances_exits_3(tmp_path):
    assert main(["campaign", "--n", "0", "-o", str(tmp_path / "x.csv")]) == 3


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_3(tmp_path, capsys, tol):
    # check and campaign refuse the tolerance as metrics does, before any
    # output: a negative one flagged bounds that hold and NaN flagged none
    rep = tmp_path / "rep.json"
    assert main(["metrics", "-i", str(_make(tmp_path)), "-o", str(rep)]) == 0
    assert main(["check", "-i", str(rep), "--tol", tol]) == 3
    out = tmp_path / "x.csv"
    assert main(["campaign", "--n", "2", "--tol", tol, "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("tolerance") == 2
    assert not out.exists()


def test_metrics_refuses_an_infinite_tolerance(tmp_path, capsys):
    # the config refuses it before any report is computed, where the
    # report was computed whole and failed only as text
    rep = tmp_path / "rep.json"
    tet = _make(tmp_path)
    assert main(["metrics", "-i", str(tet), "-o", str(rep),
                 "--tol", "inf"]) == 3
    assert capsys.readouterr().err == (
        "tetra metrics: tolerances must be finite\n")
    assert not rep.exists()


@pytest.mark.parametrize("value", ["four", "0", "-2"])
def test_campaign_bad_thread_count_exits_3(tmp_path, capsys, monkeypatch,
                                           value):
    # TETRA_THREADS comes from outside the program: a value that is not an
    # integer of at least 1 is refused, naming the variable, and nothing runs
    monkeypatch.setenv("TETRA_THREADS", value)
    out = tmp_path / "x.csv"
    assert main(["campaign", "--n", "3", "-o", str(out)]) == 3
    assert "TETRA_THREADS" in capsys.readouterr().err
    assert not out.exists()


def test_campaign_refine_with_no_instance_left(tmp_path, capsys):
    # every instance fails, so there is no smallest Diam/Rad to refine: the
    # summary is written and the refinement is skipped with a message
    out = tmp_path / "rows.csv"
    rc = main(["campaign", "--kind", "eps-thick", "--eps", "0.001", "--n",
               "3", "--seed", "3", "--refine", "-o", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["instances"] == 0
    assert len(summary["failures"]) == 3
    assert summary["extremal"] == {}
    assert "refinement" not in summary
    assert "nothing to refine" in captured.err
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_console_entry_point(tmp_path):
    # the module runs as a script; stdout carries the payload
    proc = subprocess.run(
        [sys.executable, "-m", "tetrametric.cli", "make", "--kind", "regular"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "tetrametric-tetrahedron/1"

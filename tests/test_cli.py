"""End-to-end runs of every CLI subcommand against tmp output directories.

Each invocation goes through ``main(argv)`` in-process so the exit code,
the printed summary, and the written artifacts can all be asserted without
shelling out; one test runs the console script's entry point as a
separate process.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ckfield import cli, potentials
from ckfield.cli import main
from ckfield.grid import GridSpec
from ckfield.quadrature import QuadBox
from ckfield.spinops import apply_D

ROOT = Path(__file__).resolve().parent.parent


def run(*args, outdir):
    return main([*args, "--outdir", str(outdir)])


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# usage plumbing


def test_version_and_usage_errors(tmp_path):
    assert main(["--version"]) == 0
    assert main(["no-such-subcommand"]) == 2
    assert run("classify", outdir=tmp_path) == 2           # missing --ckf
    assert run("classify", "--ckf", "garbage", outdir=tmp_path) == 2
    assert run("spectrum-sweep", outdir=tmp_path) == 2     # missing --potential
    assert run("field-lines", "--ckf", "ro", outdir=tmp_path) == 2


def test_malformed_number_lists_are_usage_errors(tmp_path, capsys):
    ops = ("verify-operators", "--ckf", "ro", "--points", "2")
    for flag, argv in (
            ("--box", (*ops, "--quadrature", "8", "--box=-1,1,-1,1,-1")),
            ("--box", (*ops, "--quadrature", "8", "--box=-1,1,-1,1,-1,1,2")),
            ("--spinor gaussian:", (*ops, "--spinor", "gaussian:1,0,0")),
            ("--spinor gaussian:", (*ops, "--spinor", "gaussian:1,0,0,0.5,2")),
            ("--spinor bump:", (*ops, "--spinor", "bump:0.3,2.2,-0.9")),
            ("--spinor bump:", (*ops, "--spinor", "bump:")),
            ("--at", ("field-eval", "--ckf", "ro", "--at", "1,2,3,4")),
            ("--at", ("field-eval", "--ckf", "ro", "--at", "1,2")),
            ("--at", ("field-eval", "--ckf", "ro", "--at", "0,0,1;1,2")),
            ("--seed-point", ("field-lines", "--ckf", "ro",
                              "--seed-point", "0.9,0")),
            ("--seed-point", ("loop-integrals", "--ckf", "ro",
                              "--seed-point", "0.9,0,0.1,0")),
            ("--orbit-seed", ("holonomy", "--ckf", "ro",
                              "--orbit-seed", "0.9,0"))):
        assert run(*argv, outdir=tmp_path) == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("ckf", ['{"a": [0, 0, 0]}',
                                 '{"a": [1e-12, 0, 0], "c": [0, 1e-12, 0]}'])
def test_identity_run_without_sample_points_is_an_error(tmp_path, ckf):
    # w is below EPS_FRAME on the whole sampling box: no point can be
    # drawn, and the run must stop instead of drawing forever
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "ckfield.cli",
                          "verify-identities", "--ckf", ckf,
                          "--outdir", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 2
    assert "FrameUndefined" in out.stderr
    assert "Traceback" not in out.stderr


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ckf": "ro", "points": 30,
                               "outdir": str(tmp_path)}))
    assert main(["verify-identities", "--config", str(cfg)]) == 0
    man = _read_json(tmp_path / "verify-identities" / "manifest.json")
    assert man["ckf"] == "ro"
    assert man["points"] == 30
    assert "threads" not in man

    assert main(["verify-identities", "--config", str(cfg),
                 "--points", "10"]) == 0
    man = _read_json(tmp_path / "verify-identities" / "manifest.json")
    assert man["points"] == 10     # flag wins over the file value


# cheap inputs for every subcommand
CHEAP = {
    "classify": ("--ckf", "ro"),
    "verify-identities": ("--ckf", "ro", "--points", "3"),
    "field-lines": ("--ckf", "ro", "--seed-point", "0.9,0,0.2"),
    "loop-integrals": ("--ckf", "ro", "--seed-point", "0.9,0,0.1"),
    "verify-operators": ("--ckf", "ro", "--points", "2"),
    "holonomy": ("--ckf", "ro", "--orbit-seed", "0.9,0,0.2"),
    "spectrum-sweep": ("--potential", "axial", "--grid", "8,3", "--ts", "0"),
    "control-losyau": ("--grid", "8,2.5", "--ns", "8,12", "--points", "50"),
    "field-eval": ("--ckf", "ro", "--at", "1,0,0"),
}


def _options(name):
    """option -> (parser, default) of a subcommand; required ones have
    the default None."""
    _, required, further = cli._SUBCOMMANDS[name]
    return {**{k: (parse, None) for k, parse in required.items()},
            **cli._COMMON, **further}


def test_manifest_records_every_option(tmp_path):
    assert CHEAP.keys() == cli._SUBCOMMANDS.keys()
    for name, argv in CHEAP.items():
        assert run(name, *argv, outdir=tmp_path) == 0, name
        path = tmp_path / name / "manifest.json"
        man = _read_json(path)
        flags = {**dict(zip(argv[::2], argv[1::2])),
                 "--outdir": str(tmp_path)}
        for key, (parse, default) in _options(name).items():
            v = flags.get(cli._flag(key), default)
            assert man[key] == (None if v is None else parse(v, key)), \
                (name, key)
        # a run's manifest given back as its --config rewrites it
        text = path.read_text()
        assert main([name, "--config", str(path)]) == 0, name
        assert path.read_text() == text, name
    # the defaults as they were before the table held them, typed
    man = _read_json(tmp_path / "field-lines" / "manifest.json")
    assert (man["t_max"], man["rk_tol"], man["max_rows"]) == (None, 1e-12,
                                                              4096)
    assert man["seed_point"] == [0.9, 0.0, 0.2]
    man = _read_json(tmp_path / "spectrum-sweep" / "manifest.json")
    assert (man["stencil"], man["coupling"], man["tol"]) == (4, "site", 1e-7)
    assert (man["grid"], man["ts"]) == ([8, 3.0], [0.0])
    man = _read_json(tmp_path / "verify-operators" / "manifest.json")
    assert man["spinor"] == "gaussian:1.5,0,0,0.6"
    assert man["potential"] is None and man["quadrature"] is None
    assert man["box"] == [-2.2, 2.2, -2.2, 2.2, -1.7, 1.7]
    assert man["points"] == 2
    man = _read_json(tmp_path / "control-losyau" / "manifest.json")
    assert (man["ns"], man["points"], man["seed"]) == ([8, 12], 50, 0)


# a value for each option that is unset by default
SAMPLE = {"t_max": "1.5", "quadrature": "8", "lambdas": "0.5,1.5",
          "potential": "axial", "ckf": "ro"}


def test_one_configuration_one_manifest(tmp_path, monkeypatch):
    # every way of giving a value writes the same manifest: left at its
    # default, as a flag string, or in a --config file as that string or
    # as the JSON value a manifest records.  The handlers are stubbed,
    # since some defaults (a 24^3 grid) take minutes; CHEAP runs them.
    monkeypatch.setenv("CKFIELD_OUTDIR", str(tmp_path))
    conf = tmp_path / "conf.json"

    def manifest(name, argv, config=None):
        if config is not None:
            conf.write_text(json.dumps(config))
            argv = [*argv, "--config", str(conf)]
        assert main([name, *argv]) == 0, (name, argv, config)
        return (tmp_path / name / "manifest.json").read_text()

    for name, (_, required, further) in list(cli._SUBCOMMANDS.items()):
        monkeypatch.setitem(cli._SUBCOMMANDS, name,
                            (lambda cfg: 0, required, further))
        cheap = dict(zip(CHEAP[name][::2], CHEAP[name][1::2]))
        for key, (parse, default) in _options(name).items():
            flag = cli._flag(key)
            base = [f"{cli._flag(k)}={cheap[cli._flag(k)]}"
                    for k in required if k != key]
            value = default
            if value is None:
                value = cheap.get(flag, SAMPLE.get(key, str(tmp_path)))
            runs = [manifest(name, [*base, f"{flag}={value}"]),
                    manifest(name, base, {key: value})]
            typed = json.loads(runs[0])[key]
            # only the string options record the flag's string
            assert isinstance(typed, str) == (parse is cli._string), key
            runs.append(manifest(name, base, {key: typed}))
            if default is not None:
                runs.append(manifest(name, base))
            assert len(set(runs)) == 1, (name, key)
            if key in required or default is not None:
                continue
            unset = [manifest(name, base), manifest(name, base, {key: None})]
            if parse is cli._string:
                unset.append(manifest(name, [*base, f"{flag}=none"]))
            assert len(set(unset)) == 1, (name, key)


# one malformed value for every option: a flag string, or a JSON value
# given in a --config file
BAD = [
    ("classify", "--ckf", "cr:x"),
    ("classify", "--ckf", '{"a": [1, 2]}'),
    ("verify-identities", "--points", "2.5"),
    ("verify-identities", "--points", "x"),
    ("verify-identities", "--seed", "x"),
    ("verify-identities", "--seed", "-1"),
    ("field-lines", "--seed-point", "0.9,a,0"),
    ("field-lines", "--seed-point", [0.9, 0.0]),
    ("field-lines", "--t-max", "x"),
    ("field-lines", "--t-max", "inf"),
    ("field-lines", "--t-max", "-1"),
    ("field-lines", "--t-max", "0"),
    ("field-lines", "--rk-tol", "nan"),
    ("field-lines", "--rk-tol", "0"),
    ("field-lines", "--rk-tol", "-1e-9"),
    ("field-lines", "--max-rows", "0"),
    ("loop-integrals", "--potential", "axial:1,2"),
    ("loop-integrals", "--seed-point", "0.9,0"),
    ("verify-operators", "--spinor", "gaussian:1,0,0,a"),
    ("verify-operators", "--spinor", 7),
    ("verify-operators", "--points", "0"),
    ("verify-operators", "--quadrature", "0"),
    ("verify-operators", "--quadrature", "3"),
    ("verify-operators", "--box", "-1,1,-1,1,-1,x"),
    ("holonomy", "--orbit-seed", "0.9,0,inf"),
    ("holonomy", "--lambdas", "0.5,q"),
    ("holonomy", "--lambdas", []),
    ("holonomy", "--potential", "hopfbase:x"),
    ("spectrum-sweep", "--potential", "modulated:1:0.1"),
    ("spectrum-sweep", "--grid", "8"),
    ("spectrum-sweep", "--grid", "8.5,3"),
    ("spectrum-sweep", "--grid", "4,3"),
    ("spectrum-sweep", "--grid", "8,-3"),
    ("spectrum-sweep", "--stencil", "x"),
    ("spectrum-sweep", "--stencil", "3"),
    ("spectrum-sweep", "--tol", "inf"),
    ("spectrum-sweep", "--tol", "0"),
    ("spectrum-sweep", "--tol", "-1"),
    ("spectrum-sweep", "--coupling", 1),
    ("spectrum-sweep", "--coupling", "bogus"),
    ("spectrum-sweep", "--ts", "0,x"),
    ("control-losyau", "--grid", "8,nan"),
    ("control-losyau", "--ns", "8,x"),
    ("control-losyau", "--ns", "4,8"),
    ("control-losyau", "--stencil", "3"),
    ("control-losyau", "--tol", "-1e-7"),
    ("control-losyau", "--points", "-3"),
    ("field-eval", "--at", "1,2"),
    ("field-eval", "--at", "0,0,1;x,0,0"),
    ("field-eval", "--ckf", "cr:x"),
    ("field-eval", "--potential", "axial:1,2"),
    ("field-eval", "--outdir", 5),
]


@pytest.mark.parametrize("name, flag, value", BAD,
                         ids=[f"{n}{f}={v}" for n, f, v in BAD])
def test_malformed_values_exit_2_naming_their_flag(tmp_path, capsys,
                                                    monkeypatch, name, flag,
                                                    value):
    monkeypatch.setenv("CKFIELD_OUTDIR", str(tmp_path / "runs"))
    argv = list(CHEAP[name])
    if flag in argv:
        i = argv.index(flag)
        del argv[i:i + 2]
    if isinstance(value, str):
        argv.append(f"{flag}={value}")
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        argv += ["--config", str(conf)]
    assert main([name, *argv]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "runs" / name).exists()    # refused before work


# values only the library refuses, with the library's refusal
LIBRARY_REFUSED = [
    (("spectrum-sweep", "--potential", "axial", "--grid", "4,3", "--ts", "0"),
     "--grid", lambda: GridSpec(L=3.0, n=4)),
    (("spectrum-sweep", "--potential", "axial", "--grid", "8,3", "--ts", "0",
      "--stencil", "3"), "--stencil", lambda: GridSpec(L=3.0, n=8, order=3)),
    (("spectrum-sweep", "--potential", "axial", "--grid", "8,3", "--ts", "0",
      "--coupling", "bogus"),
     "--coupling", lambda: GridSpec(L=3.0, n=8, coupling="bogus")),
    (("control-losyau", "--ns", "4,8", "--grid", "8,2.5"),
     "--ns", lambda: GridSpec(L=2.5, n=4)),
    (("verify-operators", "--ckf", "ro", "--quadrature", "3"),
     "--quadrature", lambda: QuadBox(((-1, 1),) * 3, n=3)),
    (("verify-operators", "--ckf", "ro", "--quadrature", "8",
      "--box=1,-1,-1,1,-1,1"),
     "--box", lambda: QuadBox(((1, -1), (-1, 1), (-1, 1)), n=8)),
]


@pytest.mark.parametrize("argv, flag, make", LIBRARY_REFUSED,
                         ids=[f for _, f, _ in LIBRARY_REFUSED])
def test_library_refusals_name_their_flag_and_reason(tmp_path, capsys, argv,
                                                     flag, make):
    with pytest.raises(ValueError) as refusal:
        make()
    assert run(*argv, outdir=tmp_path) == 2
    assert f"error: {flag}: {refusal.value}\n" == capsys.readouterr().err
    assert not (tmp_path / argv[0]).exists()


def test_norm_check_refuses_a_spinor_the_box_cannot_hold(tmp_path, capsys,
                                                         monkeypatch):
    # the default Gaussian packet reaches the default box's boundary; the
    # norm check says so before the commutator loop and the output
    # directory
    def never(*args):
        raise AssertionError("commutators computed")

    monkeypatch.setattr(cli, "commutator_residuals", never)
    assert run("verify-operators", "--ckf", "ro", "--potential", "axial",
               "--points", "3", "--quadrature", "16", outdir=tmp_path) == 2
    err = capsys.readouterr().err
    assert "SupportViolation" not in err
    assert "--spinor" in err and "--box" in err and "bump:" in err
    assert not (tmp_path / "verify-operators").exists()


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("CKFIELD_OUTDIR", str(tmp_path / "envruns"))
    assert main(["classify", "--ckf", "ud"]) == 0
    assert (tmp_path / "envruns" / "classify" / "classify.json").exists()


# ---------------------------------------------------------------------------
# subcommands


def test_classify_canonical_fields(tmp_path):
    for arg, kind in (("ud", "Translation"), ("ro", "Rotation"),
                      ("cr:2", "Special")):
        assert run("classify", "--ckf", arg, outdir=tmp_path) == 0
        rec = _read_json(tmp_path / "classify" / "classify.json")
        assert rec["kind"] == kind
        assert rec["roundtrip_exact"] is True
    assert rec["nu"] == pytest.approx(2.0)
    assert rec["degenerate_zero_set"]["kind"] == "circle"


def test_classify_rejects_non_simple_field(tmp_path, capsys):
    iso = json.dumps({"a": [0, 0, 0.5], "b0": 0.0,
                      "b": [0, 0, 1], "c": [0, 0, 1]})
    assert run("classify", "--ckf", iso, outdir=tmp_path) == 1
    assert "not classifiable" in capsys.readouterr().out
    # same field by its short name
    assert run("classify", "--ckf", "iso", outdir=tmp_path) == 1
    assert "not classifiable" in capsys.readouterr().out


def test_verify_identities_cmd(tmp_path):
    assert run("verify-identities", "--ckf", "ro", "--points", "40",
               outdir=tmp_path) == 0
    header, rows = _read_csv(tmp_path / "verify-identities" / "identities.csv")
    assert header[0] == "identity"
    assert len(rows) == 20 * 40        # every identity at every point
    assert {r[-1] for r in rows} == {"True"}


def test_field_lines_closed_orbit(tmp_path):
    assert run("field-lines", "--ckf", "ro", "--seed-point", "0.9,0,0.2",
               outdir=tmp_path) == 0
    summ = _read_json(tmp_path / "field-lines" / "summary.json")
    assert summ["closed"] is True
    assert summ["period"] == pytest.approx(2.0 * np.pi, abs=1.0e-8)
    assert summ["max_plane_deviation"] < 1.0e-9
    # the solver's work and the speed ratio behind the node count
    assert summ["nfev"] > 0 and summ["steps"] > 0
    assert summ["speed_ratio"] == pytest.approx(1.0, abs=1.0e-9)
    with open(tmp_path / "field-lines" / "curve.jsonl") as fh:
        pts = [json.loads(line) for line in fh]
    assert len(pts) >= 2
    assert abs(np.hypot(*pts[0]["x"][:2]) - 0.9) < 1.0e-9


def test_field_lines_reports_blowup(tmp_path):
    assert run("field-lines", "--ckf", "cr:1", "--seed-point", "0,0,0.2",
               outdir=tmp_path) == 0
    summ = _read_json(tmp_path / "field-lines" / "summary.json")
    assert summ["blowup"] is True


def _strict(name):
    raise ValueError(f"{name} is not JSON")


def test_field_lines_summary_is_strict_json(tmp_path, capsys):
    # the axis curve of a special field, stopped before it escapes, has an
    # infinite speed ratio: written as null, not as Infinity
    assert run("field-lines", "--ckf", "cr:1", "--seed-point", "0,0,0.2",
               "--t-max", "1.0", outdir=tmp_path) == 0
    text = (tmp_path / "field-lines" / "summary.json").read_text()
    summ = json.loads(text, parse_constant=_strict)
    assert summ["closed"] is False
    assert summ["speed_ratio"] is None
    assert json.loads(capsys.readouterr().out, parse_constant=_strict) == summ


def test_loop_integrals_cmd(tmp_path):
    assert run("loop-integrals", "--ckf", "ro", "--seed-point", "0.9,0,0.1",
               "--potential", "axial", outdir=tmp_path) == 0
    header, rows = _read_csv(tmp_path / "loop-integrals" / "loop_integrals.csv")
    assert [r[0] for r in rows] == ["div_integral", "absY_integral",
                                    "flux_integral"]
    assert {r[-1] for r in rows} == {"True"}


def test_verify_operators_cmd(tmp_path):
    assert run("verify-operators", "--ckf", "ro", "--potential", "axial",
               "--points", "15", outdir=tmp_path) == 0
    rep = _read_json(tmp_path / "verify-operators" / "report.json")
    assert rep["worst_commutator_residual"] < 1.0e-9
    _, rows = _read_csv(tmp_path / "verify-operators" / "commutators.csv")
    assert len(rows) == 15


def test_verify_operators_with_quadrature(tmp_path):
    # --box=... keeps argparse from reading the leading minus as a flag
    assert run("verify-operators", "--ckf", "ro", "--potential", "axial",
               "--points", "5", "--spinor", "bump:0.3,2.2,-0.9,0.9",
               "--quadrature", "64", "--box=-1.6,1.6,-1.6,1.6,-1,1",
               outdir=tmp_path) == 0
    rep = _read_json(tmp_path / "verify-operators" / "report.json")
    assert rep["norm_rel_err"] <= 1.0e-3
    assert rep["norm_pass"] is True


def test_holonomy_cmd(tmp_path):
    assert run("holonomy", "--ckf", "ro", "--potential", "axial",
               "--orbit-seed", "0.9,0,0.2", "--lambdas", "0.5,1.5",
               outdir=tmp_path) == 0
    rec = _read_json(tmp_path / "holonomy" / "holonomy.json")
    assert rec["offset"] == pytest.approx(0.5, abs=1.0e-9)
    assert rec["step"] == pytest.approx(1.0, abs=1.0e-9)
    assert rec["monodromy_defect_at_zero"] < 1.0e-9
    _, rows = _read_csv(tmp_path / "holonomy" / "transport.csv")
    assert len(rows) == 2
    assert all(float(r[-1]) < 1.0e-9 for r in rows)   # both lambdas admissible


def test_spectrum_sweep_cmd(tmp_path):
    assert run("spectrum-sweep", "--potential", "axial", "--grid", "8,3",
               "--ts", "0:1:0.5", outdir=tmp_path) == 0
    header, rows = _read_csv(tmp_path / "spectrum-sweep" / "sweep.csv")
    assert header == ["t", "sigma_min", "above_floor", "iterations", "eta"]
    assert len(rows) == 3
    assert {r[2] for r in rows} == {"True"}
    # dim 1024 takes the dense path: no iterations, no Ritz residual
    assert {(r[3], float(r[4])) for r in rows} == {("0", 0.0)}
    man = _read_json(tmp_path / "spectrum-sweep" / "manifest.json")
    assert man["ts"] == [0.0, 0.5, 1.0]     # the range, expanded
    assert man["sigma_floor"] == pytest.approx(0.5 * man["sigma_free"])
    assert man["tol"] == 1.0e-7     # the library's default

    # dim 2000 runs the iterative solver; every t carries its certificate
    assert run("spectrum-sweep", "--potential", "axial", "--grid", "10,3",
               "--ts", "0:1:0.5", outdir=tmp_path) == 0
    _, rows = _read_csv(tmp_path / "spectrum-sweep" / "sweep.csv")
    assert len(rows) == 3
    for r in rows:
        sigma, its, eta = float(r[1]), int(r[3]), float(r[4])
        assert its > 0
        assert 0.0 < eta <= 0.05 * sigma ** 2


def test_spectrum_sweep_refuses_odd_grid(tmp_path, capsys):
    # odd n has sigma_free = 0, so a floor check would pass vacuously
    assert run("spectrum-sweep", "--potential", "axial", "--grid", "9,3",
               "--ts", "0", outdir=tmp_path) == 2
    assert "FreeZeroMode" in capsys.readouterr().err


@pytest.mark.parametrize("ts", ["0:20:0", "0:20:-2", "5:0:1"])
def test_spectrum_sweep_rejects_an_empty_ts_range(tmp_path, capsys, ts):
    assert run("spectrum-sweep", "--potential", "axial", "--grid", "8,3",
               "--ts", ts, outdir=tmp_path) == 2
    assert f"--ts {ts!r} is not a range" in capsys.readouterr().err
    assert not (tmp_path / "spectrum-sweep").exists()   # refused before work


def test_control_losyau_cmd(tmp_path):
    assert run("control-losyau", "--grid", "12,2.5", "--ns", "8,12",
               "--points", "300", outdir=tmp_path) == 0
    rec = _read_json(tmp_path / "control-losyau" / "control.json")
    assert rec["continuum_residual"] <= 1.0e-10
    rs = [row["residual"] for row in rec["grid_residuals"]]
    assert rs[0] > rs[1]
    _, rows = _read_csv(tmp_path / "control-losyau" / "residuals.csv")
    assert len(rows) == 2
    man = _read_json(tmp_path / "control-losyau" / "manifest.json")
    assert man["tol"] == 1.0e-7     # the library's default


@pytest.mark.parametrize("ns", ["16", "12,8", "8,8"])
def test_control_losyau_needs_a_refinement_ladder(tmp_path, capsys, ns):
    # the refinement check compares consecutive sizes: fewer than two, or
    # sizes that do not increase, would make it pass vacuously or wrongly
    assert run("control-losyau", "--grid", "8,2.5", "--ns", ns,
               "--points", "50", outdir=tmp_path) == 2
    assert f"--ns {ns!r}" in capsys.readouterr().err
    assert not (tmp_path / "control-losyau").exists()   # refused before work


def test_control_losyau_checks_points_the_construction_did_not(
        tmp_path, monkeypatch):
    # construct_losyau certifies the pair on the points default_rng(seed)
    # draws; the CLI's continuum check must look elsewhere
    seen = []

    def spy(spec, mode, pts):
        seen.append(pts)
        return apply_D(spec, mode, pts)

    monkeypatch.setattr(cli, "apply_D", spy)
    assert run("control-losyau", "--grid", "8,2.5", "--ns", "8,12",
               "--points", "300", "--seed", "3", outdir=tmp_path) == 0
    (pts,) = seen
    certified = np.random.default_rng(3).normal(scale=1.5, size=(3, 300))
    assert pts.shape == certified.shape
    assert not np.isin(pts, certified).any()


def test_failed_construction_is_a_failed_check(tmp_path, capsys,
                                               monkeypatch):
    # a certificate the library checks itself is a check, not a usage error
    # (tests/test_holonomy.py does the same for SectorMismatch)
    monkeypatch.setattr(potentials, "LOSYAU_TOL", -1.0)
    assert run("control-losyau", "--grid", "8,2.5", "--ns", "8,12",
               "--points", "50", outdir=tmp_path) == 1
    assert "ConstructionFailed" in capsys.readouterr().err


def test_field_eval_cmd(tmp_path):
    assert run("field-eval", "--potential", "hopfbase:1",
               "--at", "0,0,0;0.5,0.2,-0.3", outdir=tmp_path) == 0
    with open(tmp_path / "field-eval" / "values.jsonl") as fh:
        recs = [json.loads(line) for line in fh]
    assert len(recs) == 2
    # parent field of the potential is inferred when --ckf is omitted
    np.testing.assert_allclose(recs[0]["X"], [0.0, 0.0, 0.5], atol=1.0e-15)
    assert "A" in recs[0] and "B" in recs[0]
    assert run("field-eval", "--at", "1,0,0", outdir=tmp_path) == 2


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_runs(tmp_path):
    # the [project.scripts] entry names cli.main; run that module as a
    # separate process from the source tree, installed or not
    tomllib = pytest.importorskip("tomllib")       # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"ckfield": "ckfield.cli:main"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "ckfield.cli", "classify",
                          "--ckf", "ro", "--outdir", str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "kind=Rotation" in out.stdout

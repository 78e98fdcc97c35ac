"""Command-line interface: outputs, schemas, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "qillum.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_qfi_tmsv_value():
    out = run_cli("qfi", "--family", "tmsv", "--ns", "1", "--nb", "50")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert abs(payload["H"] - 0.0526316) < 1e-6
    assert payload["family"] == "tmsv"


def test_qfi_coherent_value():
    out = run_cli("qfi", "--family", "coherent", "--ns", "1", "--nb", "50")
    payload = json.loads(out.stdout)
    assert abs(payload["H"] - 0.0396040) < 1e-6
    assert payload["equals_classical"]


def test_qfi_maxfock_value_and_flag():
    out = run_cli("qfi", "--family", "maxfock:5", "--nb", "2")
    payload = json.loads(out.stdout)
    assert abs(payload["H"] - 1.6) < 1e-10
    assert payload["equals_classical"]
    assert payload["gain_db"] == pytest.approx(0.0, abs=1e-9)


def test_qfi_csv_schema():
    out = run_cli("qfi", "--family", "tmsv", "--ns", "0.5", "--nb", "1",
                  "--format", "csv")
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "# schema: qi.qfi.v1"
    assert lines[1].startswith("family,N_S,N_B,H,")
    assert lines[2].startswith("tmsv,")


def test_qfi_invalid_family_exits_2():
    out = run_cli("qfi", "--family", "squeezed", "--ns", "1", "--nb", "50")
    assert out.returncode == 2
    assert "unknown family" in out.stderr


def test_qfi_invalid_params_exit_2(capsys):
    out = run_cli("qfi", "--family", "tmsv", "--ns", "-1", "--nb", "50")
    assert out.returncode == 2
    import qillum.cli as cli

    # cutoffs below 1 are rejected before any state is built
    for family, cutoff in (("coherent", "0"), ("cat:2", "0"), ("tmsv", "-5"),
                           ("maxfock:3", "0")):
        assert cli.main(["qfi", "--family", family, "--ns", "1", "--nb", "1",
                         "--cutoff", cutoff]) == 2
        assert "cutoff must be >= 1" in capsys.readouterr().err
    assert cli.main(["curves", "--nb", "1", "--ns", "0.5", "--families", "tmsv",
                     "--cutoff", "0"]) == 2
    assert "cutoff must be >= 1" in capsys.readouterr().err
    # non-finite photon numbers and phases are rejected at the boundary
    for argv in (["--family", "tmsv", "--ns", "1", "--nb", "nan"],
                 ["--family", "tmsv", "--ns", "1", "--nb", "inf"],
                 ["--family", "coherent", "--ns", "1", "--nb", "1", "--phase", "nan"],
                 ["--family", "coherent", "--ns", "inf", "--nb", "1"]):
        assert cli.main(["qfi", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err
    assert cli.main(["curves", "--nb", "nan", "--ns", "0.5", "--families", "tmsv"]) == 2
    assert "must be finite" in capsys.readouterr().err
    # a non-finite convergence tolerance would grow the cutoff forever (nan)
    # or accept the first one (inf)
    for rel_tol in ("nan", "inf"):
        assert cli.main(["qfi", "--family", "coherent", "--ns", "1", "--nb", "1",
                         "--rel-tol", rel_tol]) == 2
        assert "rel_tol must be positive and finite" in capsys.readouterr().err
        assert cli.main(["curves", "--nb", "1", "--ns", "0.5", "--families", "tmsv",
                         "--rel-tol", rel_tol]) == 2
        assert "rel_tol must be positive and finite" in capsys.readouterr().err


def test_qfi_fully_pruned_state_exits_2(capsys):
    # every Poisson weight of cat:inf at N_S = 100 is pruned at the first
    # cutoffs of the doubling, which must not read as a converged H = 0
    import qillum.cli as cli

    assert cli.main(["qfi", "--family", "cat:inf", "--ns", "100", "--nb", "50",
                     "--rel-tol", "1e-10"]) == 2
    assert "no Schmidt term" in capsys.readouterr().err


def test_usage_error_exits_2():
    out = run_cli("qfi", "--family", "tmsv")
    assert out.returncode == 2


def test_curves_output(tmp_path):
    path = tmp_path / "curves.csv"
    out = run_cli("curves", "--nb", "50", "--ns", "0.0001,0.1,0.5,1",
                  "--families", "tmsv,cat:2", "--out", str(path))
    assert out.returncode == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# schema: qi.curves.v1"
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    gains = {(r["family"], float(r["N_S"])): float(r["gain"]) for r in rows}
    assert all(g <= 2.0 + 1e-9 for g in gains.values())
    assert gains[("tmsv", 0.0001)] == pytest.approx(101.0 / 51.0, abs=1e-3)
    for ns in (0.1, 0.5, 1.0):
        assert gains[("cat:2", ns)] < gains[("tmsv", ns)]


def test_curves_grid_spec():
    for spec in ("0.1:1:3", "0.1:1:3:log"):
        out = run_cli("curves", "--nb", "2", "--ns", spec, "--families", "tmsv")
        lines = out.stdout.strip().split("\n")
        assert len(lines) == 2 + 3
        ns = [float(ln.split(",")[1]) for ln in lines[2:]]
        assert ns[0] == pytest.approx(0.1) and ns[-1] == pytest.approx(1.0)
    bad = run_cli("curves", "--nb", "2", "--ns", "0.1:1:3:lg", "--families", "tmsv")
    assert bad.returncode == 2
    assert "'lg'" in bad.stderr


def test_curves_rejects_empty_grid_and_families(capsys):
    import qillum.cli as cli

    assert cli.main(["curves", "--nb", "2", "--ns", ","]) == 2
    assert "no values" in capsys.readouterr().err
    assert cli.main(["curves", "--nb", "2", "--ns", "0.1", "--families", ","]) == 2
    assert "no families" in capsys.readouterr().err


def test_cutoff_and_rel_tol_are_exclusive(capsys):
    import qillum.cli as cli

    for argv in (["qfi", "--family", "tmsv", "--ns", "1", "--nb", "50"],
                 ["curves", "--nb", "50", "--ns", "1", "--families", "tmsv"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--cutoff", "30", "--rel-tol", "1e-8"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.fixture()
def sim_config(tmp_path):
    cfg = {
        "family": "coherent",
        "n_signal": 0.5,
        "n_bath": 1.0,
        "eta": 0.1,
        "m": [50, 100],
        "xi": [0.3, 0.5, 0.7],
        "trials": 20000,
        "seed": 77,
    }
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_deterministic_across_runs_and_threads(tmp_path, sim_config):
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")):
        path = tmp_path / name
        res = run_cli("simulate", "--config", str(sim_config),
                      "--out", str(path), "--threads", threads)
        assert res.returncode == 0, res.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_simulate_schema_and_xi_flag(tmp_path, sim_config):
    path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    res = run_cli("simulate", "--config", str(sim_config), "--out", str(path),
                  "--json-out", str(json_path))
    assert res.returncode == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# schema: qi.sim.v1"
    assert lines[1].startswith("family,N_S,N_B,eta,xi,M,")
    assert lines[-1].startswith("# max-min-rate at xi=0.5")
    # classical closed-form columns ride along with the Monte Carlo ones
    header = lines[1].split(",")
    assert "P_I_classical" in header and "Pr_err_opt_classical" in header
    payload = json.loads(json_path.read_text())
    assert len(payload) == 6


def test_simulate_unresolved_exits_4(tmp_path):
    cfg = {
        "family": "coherent",
        "n_signal": 0.5,
        "n_bath": 1.0,
        "eta": 0.5,
        "m": 500,
        "xi": 0.5,
        "trials": 100,
        "seed": 3,
        "trials_cap_factor": 1,
    }
    path = tmp_path / "rare.json"
    path.write_text(json.dumps(cfg))
    res = run_cli("simulate", "--config", str(path))
    assert res.returncode == 4


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    import qillum.cli as cli

    res = run_cli("simulate", "--config", str(tmp_path / "nope.json"))
    assert res.returncode == 2
    # bad values in an existing config are rejected before any spectral work
    good = {"family": "coherent", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.1,
            "m": 50, "xi": 0.5, "trials": 100}
    for key, value, message in (("m", [], "at least one value"),
                                ("xi", [], "at least one value"),
                                ("eta", 1.5, "reflectivity"),
                                ("n_signal", -0.5, "photon numbers"),
                                ("n_bath", -1.0, "photon numbers"),
                                ("family", "cat:x", "unknown family"),
                                ("d_signal", 0, "d_signal must be >= 1"),
                                ("dim_bath", 1, "dim_bath must be >= 2")):
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(dict(good, **{key: value})))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_simulate_warns_only_for_one_sector_states(tmp_path, capsys):
    """A level state reaches the bright bath N_B = 50 in q-blocks and
    runs without the desk-scale warning; a state with general vectors is
    one rank x bath-cutoff sector and still warns above N_B = 3."""
    import qillum.cli as cli
    from qillum.qfi import qfi_gaussian_closed

    base = {"n_signal": 0.5, "eta": 0.1, "m": 50, "xi": 0.5, "trials": 200, "seed": 7}
    bright = tmp_path / "bright.json"
    bright.write_text(json.dumps(dict(base, family="tmsv", n_bath=50.0)))
    out = tmp_path / "bright.csv"
    assert cli.main(["simulate", "--config", str(bright), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    header, row = out.read_text().strip().split("\n")[1:3]
    h = float(dict(zip(header.split(","), row.split(",")))["H"])
    assert h == pytest.approx(qfi_gaussian_closed(0.5, 50.0), rel=1e-8)
    general = tmp_path / "general.json"
    general.write_text(json.dumps(dict(base, family="coherent", n_bath=4.0)))
    cli.main(["simulate", "--config", str(general), "--out", str(tmp_path / "general.csv")])
    assert "general signal vectors" in capsys.readouterr().err


def test_simulate_cli_overrides(tmp_path, sim_config):
    a = tmp_path / "o1.csv"
    b = tmp_path / "o2.csv"
    run_cli("simulate", "--config", str(sim_config), "--m", "80", "--xi", "0.5",
            "--trials", "4000", "--out", str(a))
    run_cli("simulate", "--config", str(sim_config), "--m", "80", "--xi", "0.5",
            "--trials", "4000", "--seed", "123", "--out", str(b))
    rows_a = a.read_text().strip().split("\n")
    assert len(rows_a) == 3  # schema, header, single point
    assert ",80," in rows_a[2]
    assert a.read_bytes() != b.read_bytes()  # seed override took effect


def test_qfi_rel_tol_autoconverge():
    out = run_cli("qfi", "--family", "tmsv", "--ns", "5", "--nb", "50",
                  "--rel-tol", "1e-8")
    payload = json.loads(out.stdout)
    exact = 4 * 5 / 51 / (1 + (5 / 6) * (50 / 51))
    assert payload["H"] == pytest.approx(exact, rel=1e-7)
    assert payload["cutoff"] > 60


@pytest.mark.slow
def test_validate_fast_suite(tmp_path):
    summary_path = tmp_path / "summary.json"
    res = run_cli("validate", "--suite", "fast", "--json-out", str(summary_path))
    assert res.returncode == 0, res.stdout + res.stderr
    lines = [ln for ln in res.stdout.splitlines() if ln.startswith("[")]
    assert all(ln.startswith("[PASS]") for ln in lines)
    summary = json.loads(summary_path.read_text())
    assert summary["failed"] == 0
    assert summary["total"] == len(lines)


def test_bright_tmsv_nonconvergence_exits_3_quickly(capsys):
    # the geometric tail at N_S = 1000 outruns the 32768 cutoff cap of
    # converge_cutoff; level states make each of the doublings O(cutoff),
    # so the verdict is fast
    import time

    import qillum.cli as cli

    start = time.perf_counter()
    rc = cli.main(["qfi", "--family", "tmsv", "--ns", "1000", "--nb", "50",
                   "--rel-tol", "1e-10"])
    assert rc == 3
    assert time.perf_counter() - start < 2.0
    # N_S = 150 converges below that cap
    assert cli.main(["qfi", "--family", "tmsv", "--ns", "150", "--nb", "50",
                     "--rel-tol", "1e-10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    exact = 4 * 150 / 51 / (1 + (150 / 151) * (50 / 51))
    assert payload["H"] == pytest.approx(exact, rel=1e-9)


def test_bright_tmsv_default_cutoff_has_one_cap(capsys):
    # the 1e-12 tail rule asks for cutoff 27647 at N_S = 1000, below the
    # 32768 cap of converge_cutoff, and for more than the cap at N_S = 2000
    import qillum.cli as cli

    assert cli.main(["qfi", "--family", "tmsv", "--ns", "1000", "--nb", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cutoff"] == 27647
    exact = 4 * 1000 / 51 / (1 + (1000 / 1001) * (50 / 51))
    assert payload["H"] == pytest.approx(exact, rel=1e-8)
    assert cli.main(["qfi", "--family", "tmsv", "--ns", "2000", "--nb", "50"]) == 3
    assert "cap 32768" in capsys.readouterr().err


def test_nonconvergence_exits_3(monkeypatch):
    import qillum.cli as cli
    from qillum.qfi import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "_qfi_report", boom)
    rc = cli.main(["qfi", "--family", "tmsv", "--ns", "1", "--nb", "1"])
    assert rc == 3

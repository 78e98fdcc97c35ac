"""Command-line interface: outputs, schemas, exit codes, determinism."""

import json
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

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
    # non-finite photon numbers are rejected at the boundary
    for argv in (["--family", "tmsv", "--ns", "1", "--nb", "nan"],
                 ["--family", "tmsv", "--ns", "1", "--nb", "inf"],
                 ["--family", "coherent", "--ns", "inf", "--nb", "1"]):
        assert cli.main(["qfi", *argv]) == 2
        assert "must be finite" in capsys.readouterr().err
    assert cli.main(["curves", "--nb", "nan", "--ns", "0.5", "--families", "tmsv"]) == 2
    assert "must be finite" in capsys.readouterr().err
    # a non-finite convergence tolerance would grow the cutoff forever (nan)
    # or accept the first one (inf)
    for rel_tol in ("nan", "inf"):
        for family in ("coherent", "maxfock:3"):
            assert cli.main(["qfi", "--family", family, "--ns", "1", "--nb", "1",
                             "--rel-tol", rel_tol]) == 2
            assert "rel_tol must be positive and finite" in capsys.readouterr().err
        assert cli.main(["curves", "--nb", "1", "--ns", "0.5", "--families", "tmsv",
                         "--rel-tol", rel_tol]) == 2
        assert "rel_tol must be positive and finite" in capsys.readouterr().err


def test_qfi_fully_pruned_state_exits_2(capsys):
    # every Poisson weight of cat:inf at N_S = 100 is pruned at cutoff 16,
    # which must not read as a converged H = 0
    import qillum.cli as cli

    assert cli.main(["qfi", "--family", "cat:inf", "--ns", "100", "--nb", "50",
                     "--cutoff", "16"]) == 2
    assert "no Schmidt term" in capsys.readouterr().err
    # the convergence run starts from the Poisson rule, past the pruned levels
    assert cli.main(["qfi", "--family", "cat:inf", "--ns", "100", "--nb", "50",
                     "--rel-tol", "1e-10"]) == 0
    assert json.loads(capsys.readouterr().out)["gain"] <= 2.0


def test_cutoff_that_zeroes_h_with_photons_lost_exits_2(capsys):
    # cutoff 1 keeps only the vacuum of a coherent state at N_S = 1: H = 0
    # and 1 - e^-1 of its probability lost to the cut
    import qillum.cli as cli

    for command in (["qfi", "--family", "coherent", "--ns", "1", "--nb", "1"],
                    ["curves", "--families", "coherent", "--ns", "1", "--nb", "1"]):
        assert cli.main(command + ["--cutoff", "1"]) == 2
        err = capsys.readouterr().err
        assert "cutoff 1 leaves H = 0" in err and "0.632" in err


def test_zero_h_with_nothing_lost_exits_0(capsys):
    # the vacuum and maxfock:1 carry no information at any cutoff
    import qillum.cli as cli

    for command in (["qfi", "--family", "coherent", "--ns", "0", "--nb", "1"],
                    ["qfi", "--family", "maxfock:1", "--nb", "1"]):
        assert cli.main(command) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["H"] == 0.0 and report["deficit"] == 0.0


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


def test_curves_maxfock_rows_report_the_state_photon_number(capsys):
    # maxfock:5 has N_S = 2 whatever the grid asks for, so it gets one row;
    # tmsv keeps the grid's
    import qillum.cli as cli

    assert cli.main(["curves", "--nb", "1", "--ns", "0.1,0.5,1",
                     "--families", "maxfock:5,tmsv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    assert [r["N_S"] for r in rows if r["family"] == "maxfock:5"] == ["2.0"]
    assert [r["N_S"] for r in rows if r["family"] == "tmsv"] == ["0.1", "0.5", "1.0"]


def test_readme_command_lines_parse():
    # every qillum line of the README's command-line block is a valid
    # invocation; the parser only reads it, nothing runs
    import qillum.cli as cli

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, flags=re.S).group(1)
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "qillum"]
    assert {argv[1] for argv in commands} == {"qfi", "curves", "simulate", "validate"}
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


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


def test_simulate_draws_once_per_m(tmp_path, monkeypatch):
    import qillum.cli as cli
    import qillum.sim as sim

    draws = []
    sample_means = sim.sample_means

    def counting(values, probabilities, m, trials, *args, **kwargs):
        draws.append(m * trials)
        return sample_means(values, probabilities, m, trials, *args, **kwargs)

    monkeypatch.setattr(sim, "sample_means", counting)
    cfg = {"family": "coherent", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.3,
           "m": [100, 200], "xi": [0.3, 0.5, 0.7], "trials": 300, "seed": 11,
           "trials_cap_factor": 64, "d_signal": 16, "dim_bath": 16}
    path = tmp_path / "protocol.json"
    path.write_text(json.dumps(cfg))
    sweep = tmp_path / "sweep.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(sweep)]) == 0
    rows = [line.split(",") for line in sweep.read_text().split("\n")[2:8]]
    # one shared draw per M: both hypotheses up to that M's largest row
    budget = {}
    for row in rows:
        m, trials = int(row[5]), int(row[6])
        budget[m] = max(budget.get(m, 0), trials)
    assert len({row[6] for row in rows}) > 2
    assert sum(draws) == sum(2 * m * trials for m, trials in budget.items())
    # and every row is the row of a run with that xi alone
    for xi in cfg["xi"]:
        single = tmp_path / f"xi{xi}.csv"
        assert cli.main(["simulate", "--config", str(path), "--out", str(single),
                         "--xi", str(xi)]) == 0
        assert single.read_text().split("\n")[2:4] == \
            [",".join(row) for row in rows if row[4] == repr(xi)]


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
                                ("m", [50.9], "integers >= 1"),
                                ("trials", 2.5, "integers >= 1"),
                                ("n_signal", -0.5, "photon numbers"),
                                ("n_bath", -1.0, "photon numbers"),
                                ("family", "cat:x", "unknown family"),
                                ("d_signal", 0, "d_signal must be >= 1"),
                                ("dim_bath", 1, "dim_bath must be >= 2"),
                                ("d_signal", True, "d_signal must be >= 1"),
                                ("d_signal", 20.0, "d_signal must be >= 1"),
                                ("dim_bath", 40.0, "dim_bath must be >= 2"),
                                ("dim_bath", 1e400, "dim_bath must be >= 2"),
                                ("seed", -1, "seed must be"),
                                ("seed", True, "seed must be"),
                                ("seed", 1 << 64, "seed must be")):
        path = tmp_path / f"bad_{key}.json"
        path.write_text(json.dumps(dict(good, **{key: value})))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_simulate_bad_config_exits_2_naming_the_key(tmp_path, capsys):
    # each reaches main as a ValueError, not as a TypeError of Python's own
    import qillum.cli as cli

    good = {"family": "coherent", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.1,
            "m": 50, "xi": 0.5, "trials": 100}
    cases = [(dict(good, n_signal="0.5"), "n_signal"),
             (dict(good, eta=None), "eta"),
             (dict(good, n_bath={"mean": 1.0}), "n_bath"),
             (dict(good, prior_absent="half"), "prior_absent"),
             (dict(good, xi=[0.5, None]), "xi"),
             (dict(good, xi={"lo": 0.3}), "xi"),
             (dict(good, xi="0.5"), "xi"),
             (dict(good, m=[[200]]), "m, trials"),
             (dict(good, m=None), "m, trials"),
             (dict(good, trials="100"), "trials"),
             (dict(good, trials_cap_factor=[8]), "trials_cap_factor"),
             (dict(good, seed=None), "seed"),
             (dict(good, d_signal=[20]), "d_signal"),
             (dict(good, family=None), "family"),
             (dict(good, family=["tmsv"]), "family"),
             (dict(good, foo=1), "'foo'"),
             (dict(good, phase=0.0), "'phase'"),
             (dict(good, m_copies=50), "'m_copies'"),
             ([1, 2], "JSON object"),
             ("tmsv", "JSON object"),
             (None, "JSON object")]
    path = tmp_path / "bad.json"
    for payload, key in cases:
        path.write_text(json.dumps(payload))
        assert cli.main(["simulate", "--config", str(path)]) == 2, payload
        assert key in capsys.readouterr().err, payload
    # a file that is not JSON, or not UTF-8
    for raw in (b'{"family": ', b"\xff\xfe"):
        path.write_bytes(raw)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_simulate_threads_and_os_errors_exit_2(tmp_path, capsys):
    import qillum.cli as cli

    config = tmp_path / "protocol.json"
    config.write_text(json.dumps({"family": "tmsv", "n_signal": 0.5, "n_bath": 1.0,
                                  "eta": 0.1, "m": 20, "xi": 0.5, "trials": 200}))
    for threads in ("0", "-3"):
        assert cli.main(["simulate", "--config", str(config), "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
    # a directory where a file belongs is a usage error, like a missing file
    for argv in (["simulate", "--config", str(tmp_path)],
                 ["simulate", "--config", str(config), "--out", str(tmp_path)],
                 ["simulate", "--config", str(config), "--out", str(tmp_path / "s.csv"),
                  "--json-out", str(tmp_path)],
                 ["qfi", "--family", "tmsv", "--ns", "1", "--nb", "1", "--out", str(tmp_path)]):
        assert cli.main(argv) == 2
        assert "directory" in capsys.readouterr().err


def assert_bad_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, bad):
    import qillum.cli as cli

    def prepare(cfg):
        raise AssertionError("distributions prepared")

    monkeypatch.setattr(cli, "prepare_distributions", prepare)
    config = tmp_path / "protocol.json"
    config.write_text(json.dumps({"family": "tmsv", "n_signal": 0.5, "n_bath": 1.0,
                                  "eta": 0.1, "m": 20, "xi": 0.5, "trials": 200}))
    outs = {"--out": tmp_path / "s.csv", "--json-out": tmp_path / "s.json"}
    outs[bad] = tmp_path / "no_such_dir" / outs[bad].name
    argv = ["simulate", "--config", str(config)]
    assert cli.main(argv + [arg for flag, path in outs.items() for arg in (flag, str(path))]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    # neither output was written
    assert list(tmp_path.iterdir()) == [config]


def test_simulate_bad_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    assert_bad_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, "--out")


def test_simulate_bad_json_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # the CSV path is good, and is not written either
    assert_bad_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, "--json-out")


def test_validate_and_curves_bad_output_exit_2_before_any_work(tmp_path, capsys,
                                                              monkeypatch):
    import qillum.cli as cli
    import qillum.validate as validate

    def boom(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(validate, "run_suite", boom)
    monkeypatch.setattr(cli, "_qfi_report", boom)
    missing = str(tmp_path / "no_such_dir" / "x")
    for argv in (["validate", "--suite", "full", "--json-out", missing],
                 ["curves", "--nb", "1", "--ns", "0.1", "--out", missing],
                 ["qfi", "--family", "tmsv", "--ns", "1", "--nb", "1", "--out", missing]):
        assert cli.main(argv) == 2
        assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_csv_rows_are_the_library_reports(tmp_path):
    import qillum.cli as cli
    from qillum.sim import ProtocolConfig, simulate

    payload = {"family": "coherent", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.3,
               "m": [100, 200], "xi": [0.3, 0.5, 0.7], "trials": 300, "seed": 11,
               "trials_cap_factor": 64, "d_signal": 16, "dim_bath": 16}
    config, out, json_out = (tmp_path / name for name in ("c.json", "s.csv", "s.json"))
    config.write_text(json.dumps(payload))
    assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--json-out", str(json_out)]) == 0
    reports = simulate(ProtocolConfig(**payload))
    lines = out.read_text().split("\n")
    assert lines[2:2 + len(reports)] == [rep.to_csv_row() for rep in reports]
    assert [(r.m_copies, r.xi) for r in reports] == \
        [(m, xi) for m in payload["m"] for xi in payload["xi"]]
    assert json_out.read_text() == json.dumps([asdict(rep) for rep in reports],
                                              sort_keys=True, indent=2)


def test_simulate_distinct_seeds_give_distinct_rows(tmp_path, capsys):
    import qillum.cli as cli

    base = {"family": "tmsv", "n_signal": 0.5, "n_bath": 1.0, "eta": 0.1,
            "m": 20, "xi": 0.5, "trials": 200}
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(base))
    rows = []
    for seed in ((1 << 63) + 5, (1 << 63) + 99, 7):
        out = tmp_path / f"{seed}.csv"
        assert cli.main(["simulate", "--config", str(path), "--seed", str(seed),
                         "--out", str(out)]) == 0
        row = out.read_text().strip().split("\n")[2].split(",")
        assert row[-1] == str(seed)
        rows.append(row[:-1])
    assert rows[0] != rows[1] and rows[0] != rows[2] and rows[1] != rows[2]
    # negative seeds used to wrap to one shared key; now they are usage errors
    for seed in ("-1", "-3"):
        assert cli.main(["simulate", "--config", str(path), "--seed", seed]) == 2
        assert "seed must be" in capsys.readouterr().err


def test_commands_never_import_scipy(tmp_path):
    """qillum needs only numpy and the standard library at run time: a
    fresh interpreter that runs qfi, curves and simulate has no scipy
    module loaded, neither at import nor lazily inside a command.  None of
    them loads statistics either, nor the decimal and fractions it pulls
    in: simulate's rates invert erfc with math alone."""
    config = tmp_path / "protocol.json"
    config.write_text(json.dumps({"family": "tmsv", "n_signal": 0.5, "n_bath": 1.0,
                                  "eta": 0.1, "m": [20, 40], "xi": [0.3, 0.5],
                                  "trials": 200, "seed": 7}))
    argvs = [["qfi", "--family", "cat:inf", "--ns", "3", "--nb", "1", "--rel-tol", "1e-10",
              "--out", str(tmp_path / "qfi.json")],
             ["curves", "--nb", "1", "--ns", "0.1,1", "--families", "tmsv,cat:2,cat:inf",
              "--out", str(tmp_path / "curves.csv")],
             ["simulate", "--config", str(config), "--out", str(tmp_path / "sim.csv")]]
    code = ("import json, sys\n"
            "import qillum.cli\n"
            "def loaded(*names):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in names)\n"
            f"codes = [qillum.cli.main(argv) for argv in {argvs!r}]\n"
            "light = loaded('statistics', 'decimal', 'fractions')\n"
            "print(json.dumps([codes, light, loaded('scipy')]))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    codes, light, modules = json.loads(res.stdout)
    assert codes == [0, 0, 0]
    assert light == []
    assert modules == []


def test_simulate_runs_bright_baths_without_warnings(tmp_path, capsys):
    """A level state reaches the bright bath N_B = 50 in q-blocks, and a
    state with general vectors runs above N_B = 3 too: the channel route
    builds no (signal x bath) factor, so neither warns."""
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
    assert cli.main(["simulate", "--config", str(general),
                     "--out", str(tmp_path / "general.csv")]) == 0
    assert capsys.readouterr().err == ""


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


def test_qfi_rel_tol_evaluates_each_cutoff_once(monkeypatch, capsys):
    import qillum.cli as cli
    from qillum import qfi

    calls, evals = [], []
    qfi_schmidt, converge_cutoff = cli.qfi_schmidt, qfi.converge_cutoff

    def counting_qfi(state, n_bath):
        calls.append(state.d_signal)
        return qfi_schmidt(state, n_bath)

    def counting_converge(f, *args, **kwargs):
        return converge_cutoff(lambda d: evals.append(d) or f(d), *args, **kwargs)

    monkeypatch.setattr(cli, "qfi_schmidt", counting_qfi)
    monkeypatch.setattr(qfi, "converge_cutoff", counting_converge)
    for family in ("tmsv", "coherent", "cat:2"):
        calls.clear()
        evals.clear()
        assert cli.main(["qfi", "--family", family, "--ns", "5", "--nb", "50",
                         "--rel-tol", "1e-8"]) == 0
        assert json.loads(capsys.readouterr().out)["cutoff"] == evals[-1]
        assert len(evals) >= 2
        assert calls == evals


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
    # the 1e-12 tail rule asks for more than the 32768 cutoff cap at
    # N_S = 2000, so the convergence run stops before it starts
    import time

    import qillum.cli as cli

    start = time.perf_counter()
    rc = cli.main(["qfi", "--family", "tmsv", "--ns", "2000", "--nb", "50",
                   "--rel-tol", "1e-10"])
    assert rc == 3
    assert time.perf_counter() - start < 2.0
    assert "cap 32768" in capsys.readouterr().err
    # N_S = 1000 starts at 27647 and its clamped doubling stays within the cap
    assert cli.main(["qfi", "--family", "tmsv", "--ns", "1000", "--nb", "50",
                     "--rel-tol", "1e-10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cutoff"] <= 32768
    exact = 4 * 1000 / 51 / (1 + (1000 / 1001) * (50 / 51))
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
    # at N_S = 1e17 the ratio N_S / (1 + N_S) rounds to 1, whose log is 0
    assert cli.main(["qfi", "--family", "tmsv", "--ns", "1e17", "--nb", "50"]) == 3
    assert "cap 32768" in capsys.readouterr().err


def test_nonconvergence_exits_3(monkeypatch):
    import qillum.cli as cli
    from qillum.qfi import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(cli, "_qfi_report", boom)
    rc = cli.main(["qfi", "--family", "tmsv", "--ns", "1", "--nb", "1"])
    assert rc == 3


def test_qfi_and_simulate_share_one_cutoff_rule():
    import qillum.cli as cli
    from qillum.sim import ProtocolConfig, prepare_distributions

    for family in ("tmsv", "coherent", "cat:2", "cat:3", "cat:inf", "maxfock:4"):
        _, report = cli._qfi_report(family, 0.5, 0.1, None)
        cfg = ProtocolConfig(family=family, n_signal=0.5, n_bath=0.1)
        assert prepare_distributions(cfg).state.d_signal == report.cutoff, family
        assert report.family == family


def test_bright_cats_converge_in_order(capsys):
    # started at the Poisson rule, cat:2 and cat:3 resolve every component
    # at N_S = 30 and keep the gain ordering cat:2 <= cat:inf <= tmsv
    import qillum.cli as cli

    h = {}
    for family in ("cat:2", "cat:3", "cat:inf", "tmsv"):
        assert cli.main(["qfi", "--family", family, "--ns", "30", "--nb", "50",
                         "--rel-tol", "1e-10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == family
        h[family] = payload["H"]
    assert h["cat:2"] <= h["cat:inf"] * (1 + 1e-9)
    assert h["cat:3"] <= h["cat:inf"] * (1 + 1e-9)
    assert h["cat:inf"] <= h["tmsv"] * (1 + 1e-9)


def test_simulate_bath_beyond_the_cap_exits_3_before_spectral_work(tmp_path, capsys,
                                                                     monkeypatch):
    import qillum.cli as cli
    import qillum.sim as sim

    def spectral(*args, **kwargs):
        raise AssertionError("spectral work started")

    for name in ("sld_observable", "received_state"):
        monkeypatch.setattr(sim, name, spectral)
    cfg = tmp_path / "bright.json"
    cfg.write_text(json.dumps({"family": "tmsv", "n_signal": 0.5, "n_bath": 2000.0,
                               "eta": 0.1, "m": 50, "xi": 0.5, "trials": 200}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 3
    assert "cap 32768" in capsys.readouterr().err

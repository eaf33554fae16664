"""Config parsing, artifact contracts and exit codes of the command line."""

import csv
import json
from fractions import Fraction as F
from textwrap import dedent

import pytest

from shrinktarget import cli
from shrinktarget.errors import ConfigError


def parse(text):
    return cli.parse_config(dedent(text))


# ---------------------------------------------------------------------------
# parsing


def test_parse_approx_roundtrip():
    config = parse("""\
        # best approximations of a rational pair
        command=approx
        theta=2/7, 3/11
        limit=100
        mode=linear
    """)
    assert config.command == "approx"
    assert config.values["theta"] == (F(2, 7), F(3, 11))
    assert config.values["limit"] == 100
    assert config.values["mode"] == "linear"
    # raw echo preserves the original strings for the manifest
    assert config.raw["theta"] == "2/7, 3/11"
    assert config.raw["command"] == "approx"


def test_decimal_values_parse_exactly():
    """tau=0.1 must mean 1/10, not the nearest binary float."""
    config = parse("""\
        command=criteria
        series=type
        theta=1/3
        tau=0.1
        mode=simultaneous
        depth=4
    """)
    assert config.values["tau"] == F(1, 10)


def test_duplicate_key_is_rejected_with_position():
    with pytest.raises(ConfigError, match=r"line 3, col 1: duplicate key"):
        parse("""\
            command=approx
            limit=5
            limit=6
        """)


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match=r"line 3, col 1: unknown key 'frobnicate'"):
        parse("""\
            command=approx
            limit=5
            frobnicate=1
        """)


def test_bad_value_points_at_the_value_column():
    err = None
    try:
        cli.parse_config("command=approx\nlimit=xyz\ntheta=1/3\n")
    except ConfigError as exc:
        err = exc
    assert err is not None
    assert err.line == 2
    assert err.column == 7  # one past "limit="
    assert "expected an integer" in str(err)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="requires the key 'limit'"):
        parse("""\
            command=approx
            theta=1/3
        """)


def test_missing_command_key():
    with pytest.raises(ConfigError, match="missing required key 'command'"):
        parse("limit=5\n")


def test_unknown_command():
    with pytest.raises(ConfigError, match="unknown command 'frobnicate'"):
        parse("command=frobnicate\n")


def test_line_without_equals():
    with pytest.raises(ConfigError, match=r"line 2, col 1: expected key=value"):
        parse("""\
            command=approx
            just some words
        """)


def test_inadmissible_constant_sequence_rejected():
    with pytest.raises(ConfigError, match=r"a_n > 32"):
        parse("""\
            command=construct
            a=const:32
            h0=1
            steps=3
        """)


def test_theta_and_transcript_are_mutually_exclusive():
    with pytest.raises(ConfigError, match="exactly one of"):
        parse("""\
            command=simulate
            theta=1/3
            transcript=t.txt
            delta=1
            n_max=10
        """)
    with pytest.raises(ConfigError, match="exactly one of"):
        parse("""\
            command=simulate
            delta=1
            n_max=10
        """)


def test_series_specific_requirements():
    with pytest.raises(ConfigError, match="series=lemma22 requires the key 'delta'"):
        parse("""\
            command=criteria
            series=lemma22
            theta=1/3
            k_max=4
        """)


def test_window_needs_two_endpoints():
    with pytest.raises(ConfigError, match="exactly two integers"):
        parse("""\
            command=simulate
            theta=1/3
            delta=1
            n_max=100
            window=1,2,3
        """)


@pytest.mark.parametrize("raw,expected", [
    ("const:33", ("const", 33)),
    ("33", ("const", 33)),
    ("poly:4", ("poly", 4)),
    ("geom:24a", ("geom", None)),
    ("33,34,35", ("list", (33, 34, 35))),
])
def test_sequence_spec_forms(raw, expected):
    assert cli._p_seq(raw, (1, 1)) == expected


def test_sequence_spec_rejects_other_geometric_rules():
    with pytest.raises(ConfigError):
        cli._p_seq("geom:25a", (1, 1))
    with pytest.raises(ConfigError):
        cli._p_seq("poly:0", (1, 1))


# ---------------------------------------------------------------------------
# decimal formatting and plot files


def test_dec_truncates_toward_zero():
    assert cli._dec(F(2, 3)) == "0.666666666666"
    assert cli._dec(F(-1, 8), places=3) == "-0.125"
    assert cli._dec(F(999, 1000), places=2) == "0.99"
    assert cli._dec(F(7)) == "7.000000000000"


def test_plot_data_for_approximations(tmp_path):
    from shrinktarget import CertifiedVector, best_simultaneous
    records = best_simultaneous(CertifiedVector((F(2, 7),), F(0)), 7)
    path = tmp_path / "approx.dat"
    cli.emit_plot_data(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# columns: height error_hi"
    assert lines[1].startswith("# precision: decimals truncated at 12")
    assert len(lines) == 2 + len(records)
    height, error = lines[2].split()
    assert int(height) == records[0].height
    assert "." in error


# ---------------------------------------------------------------------------
# end-to-end runs through main()


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(dedent(text))
    return str(path)


def test_main_approx_writes_artifacts_and_manifest(tmp_path):
    cfg = write_config(tmp_path, """\
        command=approx
        theta=2/7, 3/11
        limit=80
    """)
    out = tmp_path / "out"
    assert cli.main(["approx", "--config", cfg, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "shrinktarget"
    assert manifest["command"] == "approx"
    assert manifest["threads"] == 1
    assert sorted(manifest["outputs"]) == ["approx.csv", "approx.dat"]
    assert manifest["config"]["theta"] == "2/7, 3/11"

    with open(out / "approx.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "height", "witness", "error_lo", "error_hi",
                       "error_exact"]
    assert rows[1][1] == "1"  # the first best approximation has height 1


def test_main_transfer_ok(tmp_path):
    cfg = write_config(tmp_path, """\
        command=transfer
        theta=2/7, 3/7
        h=3,6
    """)
    out = tmp_path / "out"
    assert cli.main(["transfer", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "transfer.json").read_text())
    assert payload["dimension"] == 2
    assert [row["holds"] for row in payload["rows"]] == [True, True]


def test_main_config_error_exit_2_and_error_json(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
        command=approx
        theta=2/7
        limit=nope
    """)
    out = tmp_path / "out"
    assert cli.main(["approx", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert err["exit_code"] == 2
    assert "line 3" in err["message"]
    # the same payload goes to stderr for scripting
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip())["exit_code"] == 2


def test_main_command_mismatch(tmp_path):
    cfg = write_config(tmp_path, """\
        command=approx
        theta=2/7
        limit=5
    """)
    code = cli.main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2


def test_main_missing_config_file(tmp_path, capsys):
    code = cli.main(["approx", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    capsys.readouterr()


def test_main_resource_exhaustion_exit_4(tmp_path):
    cfg = write_config(tmp_path, """\
        command=simulate
        theta=1/2
        delta=1
        n_max=100000000000000000000
    """)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ResourceError"


def test_main_samples_bound_exit_4(tmp_path):
    # refused by the samples bound before any start is drawn, not by a
    # failed allocation of the start table (exit 5)
    cfg = write_config(tmp_path, """\
        command=simulate
        theta=1/3
        delta=1
        n_max=100
        samples=1000000000000
        precision_bits=64
    """)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ResourceError" and "samples" in err["message"]


def test_run_rejects_bad_thread_count(tmp_path):
    config = parse("""\
        command=approx
        theta=1/3
        limit=4
    """)
    from shrinktarget.errors import DomainError
    with pytest.raises(DomainError, match="threads"):
        cli.run(config, tmp_path, threads=0)

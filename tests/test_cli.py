"""Config parsing, artifact contracts and exit codes of the command line."""

import csv
import json
import re
from fractions import Fraction as F
from pathlib import Path
from textwrap import dedent

import pytest

from shrinktarget import cli
from shrinktarget.construct import build_theta, minimal_heights
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


def test_verify_tampered_certification_step_exit_2(tmp_path):
    """Doubling Delta_{depth+1} and its norm widens the refined radius until a
    gap enclosure is undecidable; verify still writes its report, naming the
    primitivity failure, and exits 2 (a failed verification), not 3."""
    a = lambda n: 33
    lines = build_theta(a, minimal_heights(a, 1, 5), 2).to_text().splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("step 3 "):
            parts = ln.split()
            parts[2:5] = [str(2 * int(v)) for v in parts[2:5]]
            parts[8] = str(2 * int(parts[8]))
            lines[i] = " ".join(parts)
    transcript = tmp_path / "tampered.txt"
    transcript.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, f"""\
        command=verify
        transcript={transcript}
    """)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    report = (out / "verify_report.txt").read_text()
    assert "[FAIL] primitivity of Delta_n and P_n (n in [0, 3]) -- failing n: [3]" in report
    assert json.loads((out / "error.json").read_text())["error"] == "DomainError"


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


def test_removed_options_are_rejected(tmp_path):
    """The verifier's scan cap is no config key, and the command line has no
    --threads flag: both are refused with exit code 2."""
    cfg = write_config(tmp_path, """\
        command=verify
        transcript=t.txt
        scan_cap=5
    """)
    with pytest.raises(ConfigError, match=r"line 3, col 1: unknown key 'scan_cap'"):
        cli.parse_config(Path(cfg).read_text())
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"
    cfg = write_config(tmp_path, """\
        command=approx
        theta=1/3
        limit=4
    """)
    with pytest.raises(SystemExit) as exc:
        cli.main(["approx", "--config", cfg, "--out", str(out), "--threads", "2"])
    assert exc.value.code == 2


def test_readme_key_table_matches_the_schemas():
    """Each row of README's per-command key table names exactly the config
    keys of its command.  A parenthesised slash list after a key gives that
    key's values, not keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        m = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if m and m[1] in cli._SCHEMAS:
            keys = re.sub(r"\((`[^`]+`/)+`[^`]+`\)", "", m[2])
            rows[m[1]] = set(re.findall(r"`([^`]+)`", keys))
    assert rows == {cmd: set(schema) for cmd, schema in cli._SCHEMAS.items()}


# ---------------------------------------------------------------------------
# series artifacts, text pinned (prop32 and thm5 on a const:33 transcript)

SERIES_CONFIGS = {
    "thm5": "series=thm5\ntranscript={t}\nn_terms=3\n",
    "prop32": "series=prop32\ntranscript={t}\nn_terms=3\n",
    "lemma22": "series=lemma22\ntheta=2/7, 3/11\nk_max=6\ndelta=3/2\n",
    "dyadic": "series=dyadic\ntheta=5/13\nk_max=4\n",
}

# series.csv, series.dat and series.json of each config, recorded before the
# series terms were computed from exact endpoints
SERIES_ARTIFACTS = {
    "thm5": {
        "series.csv": """\
index,term_lo,term_hi,partial_lo,partial_hi,term_exact_lo,term_exact_hi
0,0.315950728819,0.315950728819,0.315950728819,0.315950728819,93252195751068790429/295147905179352825856,186504391502137580859/590295810358705651712
1,0.315874530091,0.315874530091,0.631825258911,0.631825258911,46614852928081368707/147573952589676412928,186459411712325474829/590295810358705651712
2,0.316064354239,0.316064354239,0.947889613151,0.947889613151,186571464111179715921/590295810358705651712,11660716506948891191/36893488147419103232
""",
        "series.dat": """\
# columns: index term_hi partial_sum_hi
# precision: decimals truncated at 12 digits
0 0.315950728819 0.315950728819
1 0.315874530091 0.631825258911
2 0.316064354239 0.947889613151
""",
        "series.json": """\
{
  "label": "vector-sequence series",
  "partial_sum_hi": "69941908415705664343/73786976294838206464",
  "partial_sum_lo": "559535267325642771607/590295810358705651712",
  "series": "thm5",
  "terms": 3,
  "verdict": "partial sums up to 3 terms; no convergence claim"
}
""",
    },
    "prop32": {
        "series.csv": """\
index,term_lo,term_hi,partial_lo,partial_hi,term_exact_lo,term_exact_hi
1,0.562094946449,0.562094946449,0.562094946449,0.562094946449,41475286489111409599/73786976294838206464,165901145956445638397/295147905179352825856
2,0.562027161347,0.562027161347,1.124122107796,1.124122107796,165881139325553383979/295147905179352825856,41470284831388345995/73786976294838206464
3,0.562196010515,0.562196010515,1.686318118312,1.686318118312,20741371850475216255/36893488147419103232,82965487401900888607/147573952589676412928
""",
        "series.dat": """\
# columns: index term_hi partial_sum_hi
# precision: decimals truncated at 12 digits
1 0.562094946449 0.562094946449
2 0.562027161347 1.124122107796
3 0.562196010515 1.686318118312
""",
        "series.json": """\
{
  "label": "simultaneous-denominator series",
  "partial_sum_hi": "497713260085800799591/295147905179352825856",
  "partial_sum_lo": "497713260085800752415/295147905179352825856",
  "series": "prop32",
  "terms": 3,
  "verdict": "partial sums up to 3 terms; no convergence claim"
}
""",
    },
    "lemma22": {
        "series.csv": """\
index,term_lo,term_hi,partial_lo,partial_hi,term_exact_lo,term_exact_hi
1,0.175955849814,0.175955849814,0.175955849814,0.175955849814,103866000953415416501/590295810358705651712,207732001906830833003/1180591620717411303424
2,0.133349598268,0.133349598268,0.309305448083,0.309305448083,78715709171138274389/590295810358705651712,157431418342276548779/1180591620717411303424
3,0.113384896520,0.113384896520,0.422690344603,0.422690344603,133861258748005356327/1180591620717411303424,16732657343500669541/147573952589676412928
4,0.101060097616,0.101060097616,0.523750442220,0.523750442220,238621408870617517159/2361183241434822606848,29827676108827189645/295147905179352825856
5,0.092430586376,0.092430586376,0.616181028597,0.616181028597,218245551549099030695/2361183241434822606848,27280693943637378837/295147905179352825856
6,0.085929683024,0.085929683024,0.702110711621,0.702110711621,202895727498286667807/2361183241434822606848,6340491484321458369/73786976294838206464
""",
        "series.dat": """\
# columns: index term_hi partial_sum_hi
# precision: decimals truncated at 12 digits
1 0.175955849814 0.175955849814
2 0.133349598268 0.309305448083
3 0.113384896520 0.422690344603
4 0.101060097616 0.523750442220
5 0.092430586376 0.616181028597
6 0.085929683024 0.702110711621
""",
        "series.json": """\
{
  "label": "harmonic weighted-error series (delta=3/2)",
  "partial_sum_hi": "414453011478057172971/590295810358705651712",
  "partial_sum_lo": "1657812045912228691875/2361183241434822606848",
  "series": "lemma22",
  "terms": 6,
  "verdict": "partial sums up to 6 terms; no convergence claim"
}
""",
    },
    "dyadic": {
        "series.csv": """\
index,term_lo,term_hi,partial_lo,partial_hi,term_exact_lo,term_exact_hi
0,0.620173672946,0.620173672946,0.620173672946,0.620173672946,45760740104352364507/73786976294838206464,183042960417409458029/295147905179352825856
1,0.679366220486,0.679366220486,1.299539893432,1.299539893432,100256758413140396577/147573952589676412928,200513516826280793155/295147905179352825856
2,0.784464540552,0.784464540552,2.084004433985,2.084004433985,115766532915811771119/147573952589676412928,7235408307238235695/9223372036854775808
3,0.784464540552,0.784464540552,2.868468974538,2.868468974538,115766532915811771119/147573952589676412928,7235408307238235695/9223372036854775808
""",
        "series.dat": """\
# columns: index term_hi partial_sum_hi
# precision: decimals truncated at 12 digits
0 0.620173672946 0.620173672946
1 0.679366220486 1.299539893432
2 0.784464540552 2.084004433985
3 0.784464540552 2.868468974538
""",
        "series.json": """\
{
  "label": "dyadic weighted-error series",
  "partial_sum_hi": "52913913056683583479/18446744073709551616",
  "partial_sum_lo": "423311304453468667829/147573952589676412928",
  "series": "dyadic",
  "terms": 4,
  "verdict": "partial sums up to 4 terms; no convergence claim"
}
""",
    },
}


@pytest.mark.parametrize("series", sorted(SERIES_CONFIGS))
def test_series_artifacts_pinned(tmp_path, series):
    from shrinktarget.construct import build_theta, minimal_heights
    a = lambda n: 33
    transcript = tmp_path / "const33.txt"
    transcript.write_text(build_theta(a, minimal_heights(a, 1, 6), 3).to_text())
    cfg = write_config(tmp_path, "command=criteria\n"
                       + SERIES_CONFIGS[series].format(t=transcript))
    out = tmp_path / "out"
    assert cli.main(["criteria", "--config", cfg, "--out", str(out)]) == 0
    for name, text in SERIES_ARTIFACTS[series].items():
        assert (out / name).read_text() == text, name

"""Config parsing, artifact contracts and exit codes of the command line."""

import csv
import json
import re
from fractions import Fraction as F
from pathlib import Path
from textwrap import dedent

import pytest
from hypothesis import given, settings, strategies as st

from shrinktarget import cli
from shrinktarget.construct import _materialize, build_theta, minimal_heights
from shrinktarget.errors import ConfigError, InternalError


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
    """At the value's first character, however the line is spaced."""
    for line, column in [("limit=xyz", 7), ("limit =  xyz", 10), ("  limit=\txyz  ", 10)]:
        with pytest.raises(ConfigError, match="expected an integer") as err:
            cli.parse_config(f"command=approx\n{line}\ntheta=1/3\n")
        assert (err.value.line, err.value.column) == (2, column), line


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


def test_sequence_rules_for_the_other_key_fail_at_parse_time():
    """geom:24a is a height rule and poly:p an a rule: each is refused by
    parse_config, at the position of its value."""
    with pytest.raises(ConfigError, match=r"line 2, col 3: geom:24a is only meaningful for h0"):
        cli.parse_config("command=construct\na=geom:24a\nh0=1\nsteps=3\n")
    with pytest.raises(ConfigError, match=r"line 3, col 4: h0 accepts an integer start, "
                                          r"a comma list, or geom:24a"):
        cli.parse_config("command=construct\na=33\nh0=poly:4\nsteps=3\n")


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


@pytest.mark.parametrize("text,line,message", [
    ("command=simulate\ntheta=1/3\nrefined=1\ndelta=2\nn_max=50\nwindow=10,20\n",
     3, "the key 'refined' is not used with 'theta'"),
    ("command=simulate\ntheta=1/3\ndelta=2\nn_max=50\nn_lo=5\nwindow=10,20\n",
     5, "the key 'n_lo' is not used with 'window'"),
    ("command=simulate\ntranscript=t.txt\nradius=1/1000\ndelta=2\nn_max=50\n",
     3, "the key 'radius' is not used with 'transcript'"),
    ("command=criteria\nseries=thm5\ntranscript=t.txt\nradius=1/1000\nn_terms=3\n",
     4, "the key 'radius' is not used with 'transcript'"),
    ("command=criteria\nseries=dyadic\ntheta=1/3\ndelta=2\nk_max=4\nn_terms=3\n"
     "tau=1/2\n", 4, "the key 'delta' is not used by series=dyadic"),
    ("command=criteria\nseries=lemma22\ntheta=1/3\ndelta=2\nk_max=4\ndepth=3\n",
     6, "the key 'depth' is not used by series=lemma22"),
    ("command=criteria\nseries=type\ntheta=1/3\ntau=0\nmode=linear\ndepth=3\n"
     "k_max=4\n", 7, "the key 'k_max' is not used by series=type"),
    ("command=criteria\nseries=prop32\ntranscript=t.txt\nn_terms=3\nmode=linear\n",
     5, "the key 'mode' is not used by series=prop32"),
])
def test_keys_the_run_ignores_are_rejected(text, line, message):
    """A key the chosen run would not read is refused at parse time, at its
    line, instead of being echoed into manifest.json."""
    with pytest.raises(ConfigError, match=rf"^line {line}, col 1: {re.escape(message)}$"):
        cli.parse_config(text)


@pytest.mark.parametrize("text,line,column,message", [
    ("command=approx\ntheta=1/3\nlimit=0\n", 3, 7, "limit must be >= 1"),
    ("command=approx\nlimit=-5\ntheta=1/3\nmode=linear\n", 2, 7, "limit must be >= 1"),
    ("command=verify\ntranscript=t.txt\nbruteforce_depth=-1\n", 3, 18,
     "bruteforce_depth must be >= 0"),
    ("command=approx\ntheta=1/3\nlimit=5\nradius = 1/0\n", 4, 10,
     "expected a rational (like 3/7 or 0.125), got '1/0'"),
    ("command=approx\ntheta=1/3, x\nlimit=5\n", 2, 7,
     "expected a rational (like 3/7 or 0.125), got 'x'"),
    ("command=approx\ntheta=1/3\nlimit=5\nmode=diagonal\n", 4, 6,
     "expected one of simultaneous, linear; got 'diagonal'"),
    ("command=construct\na=33\nh0=1\nsteps=3\nverify=maybe\n", 5, 8,
     "expected a boolean (0/1), got 'maybe'"),
    ("command=approx\ntheta=1/3\n =5\n", 3, 1, "empty key"),
])
def test_values_the_run_cannot_use_are_rejected(text, line, column, message):
    """A value its key's parser cannot read, an approx limit below 1 (no
    multiplier or height to scan), a negative verify bruteforce_depth (no
    level to scan) and a line with an empty key are refused at parse time, at
    the value's (or the line's) line and column, before any artifact is
    written."""
    with pytest.raises(ConfigError,
                       match=rf"^line {line}, col {column}: {re.escape(message)}$"):
        cli.parse_config(text)


@pytest.mark.parametrize("raw,expected", [
    ("const:33", ((33, 33, 33), (33, 26136, 20699712))),
    ("33", ((33, 33, 33), (33, 26136, 20699712))),
    ("poly:4", ((81, 256, 625), None)),
    ("geom:24a", (None, (1, 792, 627264))),
    ("33,34,35", ((33, 34, 35), (33, 34, 35))),
])
def test_sequence_spec_forms(raw, expected):
    """Each form as the first terms of the `a` it gives and the heights of
    the `h0` it gives (a start grows under a_n = 33); None where that key
    refuses the form."""
    a_terms, heights = expected
    if a_terms is None:
        with pytest.raises(ConfigError, match="only meaningful for h0"):
            cli._p_a(raw, (1, 1))
    else:
        assert _materialize(cli._p_a(raw, (1, 1)), 3, "a") == a_terms
    if heights is None:
        with pytest.raises(ConfigError, match="h0 accepts an integer start"):
            cli._p_h0(raw, (1, 1))
    else:
        h0 = cli._p_h0(raw, (1, 1))
        if isinstance(h0, int):
            h0 = minimal_heights(lambda n: 33, h0, 3)
        assert h0 == heights


@pytest.mark.parametrize("raw, value", [("1", True), ("true", True), ("yes", True),
                                        ("0", False), ("false", False), ("no", False)])
def test_flag_spellings(raw, value):
    config = cli.parse_config(f"command=construct\na=33\nh0=1\nsteps=3\nverify={raw}\n")
    assert config.values["verify"] is value


def test_sequence_spec_rejects_other_geometric_rules():
    with pytest.raises(ConfigError, match="the only geometric rule is geom:24a"):
        cli._p_h0("geom:25a", (1, 1))
    with pytest.raises(ConfigError, match="only meaningful for h0"):
        cli._p_a("geom:25a", (1, 1))
    with pytest.raises(ConfigError, match=r"a=poly:0 is inadmissible"):
        cli._p_a("poly:0", (1, 1))


# ---------------------------------------------------------------------------
# decimal formatting and plot files


def test_dec_truncates_toward_zero():
    assert cli._dec(F(2, 3)) == "0.666666666666"
    assert cli._dec(F(-1, 8), places=3) == "-0.125"
    assert cli._dec(F(999, 1000), places=2) == "0.99"
    assert cli._dec(F(7)) == "7.000000000000"


def _dec_by_division(x, places):
    """The decimal by one integer division and divmod, as _dec computed it
    before it formatted the quotient's digits with str().rjust."""
    whole, frac = divmod(abs(x.numerator) * 10 ** places // x.denominator, 10 ** places)
    return f"{'-' if x < 0 else ''}{whole}.{frac:0{places}d}"


@settings(max_examples=300)
@given(st.integers(-2 ** 200, 2 ** 200),
       st.one_of(st.integers(0, 200).map(lambda e: 2 ** e), st.integers(1, 2 ** 100)),
       st.sampled_from([6, 12, 30]))
def test_dec_matches_the_division_formula(num, den, places):
    x = F(num, den)
    assert cli._dec(x, places) == _dec_by_division(x, places)


def test_plot_data_for_approximations(tmp_path):
    from shrinktarget import CertifiedVector, best_simultaneous
    records = best_simultaneous(CertifiedVector((F(2, 7),), F(0)), 7)
    paths = cli._run_approx({"theta": (F(2, 7),), "limit": 7}, tmp_path)
    assert paths[1] == tmp_path / "approx.dat"
    lines = paths[1].read_text().splitlines()
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


def test_successive_main_calls_each_parse_their_own_command(tmp_path):
    """main parses with one parser for the whole process: a second call
    with another command, config and output runs as if it came first."""
    approx = tmp_path / "approx.cfg"
    approx.write_text("command=approx\ntheta=2/7, 3/11\nlimit=80\n")
    transfer = tmp_path / "transfer.cfg"
    transfer.write_text("command=transfer\ntheta=2/7, 3/7\nh=3,6\n")
    assert cli.main(["approx", "--config", str(approx), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["transfer", "--config", str(transfer), "--out", str(tmp_path / "t")]) == 0
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())["command"] == "approx"
    assert json.loads((tmp_path / "t" / "manifest.json").read_text())["command"] == "transfer"
    assert sorted(p.name for p in (tmp_path / "t").iterdir()) == ["manifest.json",
                                                                  "transfer.json"]


def test_main_config_error_exit_2_and_error_json(tmp_path, capsys, monkeypatch):
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
    # a failed invariant of the package is no input error: exit 5
    def broken(values, out):
        raise InternalError("an invariant failed")
    monkeypatch.setitem(cli._RUNNERS, "approx", broken)
    cfg = write_config(tmp_path, "command=approx\ntheta=2/7\nlimit=5\n")
    assert cli.main(["approx", "--config", cfg, "--out", str(out)]) == 5
    err = json.loads((out / "error.json").read_text())
    assert (err["error"], err["exit_code"]) == ("InternalError", 5)


def test_verify_tampered_certification_step_exit_2(tmp_path):
    """Tampered transcripts: verify writes its report, naming the failed
    checks, and exits 2 (a failed verification), not 3 or 5.  Doubling
    Delta_{depth+1} and its norm widens the refined radius until a gap
    enclosure is undecidable.  An `a` line whose a_1 is 0 fails the sandwich
    at level 1 and the weighted enclosure, whose bounds divide by a_1, at
    level 0."""
    a = lambda n: 33

    def step3(ln):
        parts = ln.split()
        parts[2:5] = [str(2 * int(v)) for v in parts[2:5]]
        parts[8] = str(2 * int(parts[8]))
        return " ".join(parts)
    sandwich = "sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2)"
    cases = [
        (2, "step 3 ", step3,
         ["primitivity of Delta_n and P_n (n in [0, 3]) -- failing n: [3]",
          "Delta_n ^ Delta_{n+1} = P_n (n in [0, 2]) -- failing n: [2]",
          "P_n ^ P_{n+1} = Delta_{n+1} (n in [0, 2]) -- failing n: [2]",
          f"{sandwich} (n in [0, 3]) -- failing n: [3]",
          "theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n (n in [0, 2]) -- "
          "lower fails: [2], upper fails: []",
          "orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1})"
          " (n in [0, 2]) -- failing n: [2]"]),
        (3, "a ", lambda ln: ln.replace(" 33 33", " 33 0", 1),
         [f"{sandwich} (n in [0, 4]) -- failing n: [1]",
          "weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| <= 10/a_{n+1}"
          " (n in [0, 3]) -- failing n: [0]"])]
    for depth, prefix, edit, failed in cases:
        lines = build_theta(a, minimal_heights(a, 1, 5), depth).to_text().splitlines()
        lines = [edit(ln) if ln.startswith(prefix) else ln for ln in lines]
        transcript = tmp_path / f"tampered{depth}.txt"
        transcript.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, f"""\
            command=verify
            transcript={transcript}
        """)
        out = tmp_path / f"out{depth}"
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        report = (out / "verify_report.txt").read_text().splitlines()
        assert [ln[7:] for ln in report if ln.startswith("[FAIL]")] == failed
        assert json.loads((out / "error.json").read_text())["error"] == "DomainError"


def test_simulate_on_a_transcript_runs_the_refined_theta(tmp_path):
    """refined=1, as census and late window jobs set it, runs simulate on
    the transcript's refined theta, whose radius summary.json records."""
    a = lambda n: 33
    state = build_theta(a, minimal_heights(a, 1, 5), 3)
    transcript = tmp_path / "t.txt"
    transcript.write_text(state.to_text())
    cfg = write_config(tmp_path, f"""\
        command=simulate
        transcript={transcript}
        refined=1
        delta=2
        n_max=1000
        samples=3
        precision_bits=64
    """)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["config"]
    fine = state.refined_theta()
    assert fine.radius < state.theta.radius
    assert summary["theta_radius"] == str(fine.radius)
    assert summary["theta"] == [str(c) for c in fine.coords]


def test_main_command_mismatch(tmp_path):
    cfg = write_config(tmp_path, """\
        command=approx
        theta=2/7
        limit=5
    """)
    code = cli.main(["transfer", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2


def test_main_missing_config_file(tmp_path):
    """A config that cannot be read exits 2 with a ConfigError naming it, in
    error.json like every other failure."""
    path, out = str(tmp_path / "absent.cfg"), tmp_path / "out"
    assert cli.main(["approx", "--config", path, "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert repr(path) in err["message"]


def test_main_undecodable_config_file(tmp_path):
    """A config that is not UTF-8 exits 2 with a ConfigError naming it (it
    raised an uncaught UnicodeDecodeError, exit 1)."""
    path, out = tmp_path / "latin1.cfg", tmp_path / "out"
    path.write_bytes(b"command=approx\ntheta=1/3\nlimit=5\n# \xff\n")
    assert cli.main(["approx", "--config", str(path), "--out", str(out)]) == 2
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2
    assert repr(str(path)) in err["message"]


@pytest.mark.parametrize("command,keys", [
    ("verify", ""),
    ("simulate", "delta=2\nn_max=50\n"),
    ("criteria", "series=prop32\nn_terms=2\n"),
])
def test_unreadable_transcript_is_a_config_error_naming_it(tmp_path, command, keys):
    """A missing transcript or a directory in its place exits 2 with a
    ConfigError that names the path, as a missing config file does."""
    for path in (tmp_path / "absent.txt", tmp_path):
        cfg = write_config(tmp_path, f"command={command}\ntranscript={path}\n{keys}")
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError" and repr(str(path)) in err["message"]


def test_unusable_out_is_a_config_error_naming_it(tmp_path, capsys):
    """An --out that names an existing file, or a path below one, exits 2
    with a ConfigError that names it (on stderr: no error.json can be
    written there)."""
    cfg = write_config(tmp_path, "command=transfer\ntheta=2/7, 3/7\nh=3\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        capsys.readouterr()
        assert cli.main(["transfer", "--config", cfg, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and repr(str(out)) in err["message"]
    assert blocker.read_text() == ""


def test_successful_rerun_removes_a_stale_error_json(tmp_path):
    out = tmp_path / "out"
    bad = write_config(tmp_path, "command=transfer\ntheta=2/7, 3/7\nh=nope\n")
    assert cli.main(["transfer", "--config", bad, "--out", str(out)]) == 2
    assert (out / "error.json").exists()
    good = write_config(tmp_path, "command=transfer\ntheta=2/7, 3/7\nh=3\n")
    assert cli.main(["transfer", "--config", good, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "transfer.json"]


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


def test_main_approx_budget_exit_4(tmp_path):
    """A simultaneous scan one multiplier over its budget is refused."""
    cfg = write_config(tmp_path, """\
        command=approx
        theta=3/1000003,7/1000003
        limit=1001
        budget=1000
    """)
    out = tmp_path / "out"
    assert cli.main(["approx", "--config", cfg, "--out", str(out)]) == 4
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ResourceError"
    assert "scan of 1001 multipliers exceeds budget 1000" in err["message"]


def test_main_inconclusive_order_exit_3(tmp_path):
    """A radius too wide to order two linear forms exits 3 with error.json."""
    cfg = write_config(tmp_path, """\
        command=approx
        theta=1/10,799999/1000000
        radius=1/100000
        mode=linear
        limit=1
    """)
    out = tmp_path / "out"
    assert cli.main(["approx", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "PrecisionError" and err["exit_code"] == 3
    assert ("cannot order <(1, 1),theta> against <(1, 0),theta> at radius 1/100000"
            in err["message"])


def test_main_delta_with_large_terms_exit_4(tmp_path):
    cfg = write_config(tmp_path, """\
        command=simulate
        theta=1/3
        delta=1.0001
        n_max=1000
        precision_bits=64
    """)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ResourceError" and "10001/10000" in err["message"]


@pytest.mark.parametrize("delta, code", [("129/127", 0), ("129/128", 4)])
def test_main_lemma22_root_order_bound(tmp_path, delta, code):
    """series=lemma22 takes roots of order p + q: 256 is answered, 257 is
    refused with exit 4 and error.json."""
    cfg = write_config(tmp_path, f"""\
        command=criteria
        series=lemma22
        theta=2/7, 3/11
        delta={delta}
        k_max=8
    """)
    out = tmp_path / "out"
    assert cli.main(["criteria", "--config", cfg, "--out", str(out)]) == code
    if code:
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ResourceError" and delta in err["message"]
    else:
        assert not (out / "error.json").exists()
        assert (out / "series.csv").read_text().count("\n") == 9


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

# a const:75 transcript (h0 = 2, depth 3) on which the two ends of prop32's
# terms 1 and 4 take their roots at different scales 2^-m (68 and 69)
SCALES_TRANSCRIPT = Path(__file__).resolve().parent / "data" / "const75_h2_depth3.txt"

SERIES_CONFIGS = {
    "thm5": "series=thm5\ntranscript={t}\nn_terms=3\n",
    "prop32": "series=prop32\ntranscript={t}\nn_terms=3\n",
    "lemma22": "series=lemma22\ntheta=2/7, 3/11\nk_max=6\ndelta=3/2\n",
    "dyadic": "series=dyadic\ntheta=5/13\nk_max=4\n",
    # eps_l reaches an exact 0 at height 5, so terms 5..8 are zero
    "lemma22-zero-tail": "series=lemma22\ntheta=1/5, 3/7\nk_max=8\ndelta=2\n",
    "prop32-two-scales": f"series=prop32\ntranscript={SCALES_TRANSCRIPT}\nn_terms=4\n",
}

# series.csv, series.dat and series.json of each config, recorded before the
# series terms were computed from exact endpoints (the last two before they
# were computed as integer dyadic ends)
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
    "lemma22-zero-tail": {
        "series.csv": """\
index,term_lo,term_hi,partial_lo,partial_hi,term_exact_lo,term_exact_hi
1,0.584803547642,0.584803547642,0.584803547642,0.584803547642,21575442753519917687/36893488147419103232,172603542028159341497/295147905179352825856
2,0.242642750320,0.242642750320,0.827446297962,0.827446297962,71615499463981084943/295147905179352825856,143230998927962169887/590295810358705651712
3,0.211967966589,0.211967966589,1.039414264552,1.039414264552,125123802608133517467/590295810358705651712,31280950652033379367/147573952589676412928
4,0.192585678555,0.192585678555,1.231999943107,1.231999943107,14210314898293949981/73786976294838206464,227365038372703199697/1180591620717411303424
5,0.000000000000,0.000000000000,1.231999943107,1.231999943107,0,0
6,0.000000000000,0.000000000000,1.231999943107,1.231999943107,0,0
7,0.000000000000,0.000000000000,1.231999943107,1.231999943107,0,0
8,0.000000000000,0.000000000000,1.231999943107,1.231999943107,0,0
""",
        "series.dat": """\
# columns: index term_hi partial_sum_hi
# precision: decimals truncated at 12 digits
1 0.584803547642 0.584803547642
2 0.242642750320 0.827446297962
3 0.211967966589 1.039414264552
4 0.192585678555 1.231999943107
5 0.000000000000 1.231999943107
6 0.000000000000 1.231999943107
7 0.000000000000 1.231999943107
8 0.000000000000 1.231999943107
""",
        "series.json": """\
{
  "label": "harmonic weighted-error series (delta=2)",
  "partial_sum_hi": "1454488809557531940395/1180591620717411303424",
  "partial_sum_lo": "727244404778765970193/590295810358705651712",
  "series": "lemma22",
  "terms": 8,
  "verdict": "partial sums up to 8 terms; no convergence claim"
}
""",
    },
    "prop32-two-scales": {
        "series.csv": """\
index,term_lo,term_hi,partial_lo,partial_hi,term_exact_lo,term_exact_hi
1,0.491423821309,0.491423821309,0.491423821309,0.491423821309,145042711414818750923/295147905179352825856,290085422829637501847/590295810358705651712
2,0.491392164520,0.491392164520,0.982815985830,0.982815985830,145033367979800915273/295147905179352825856,72516683989900457637/147573952589676412928
3,0.491451497104,0.491451497104,1.474267482934,1.474267482934,72525439933799435371/147573952589676412928,72525439933799437131/147573952589676412928
4,0.491692688439,0.491692757908,1.965960171374,1.965960240843,72561033492523016837/147573952589676412928,145122087488630893571/295147905179352825856
""",
        "series.dat": """\
# columns: index term_hi partial_sum_hi
# precision: decimals truncated at 12 digits
1 0.491423821309 0.491423821309
2 0.491392164520 0.982815985830
3 0.491451497104 1.474267482934
4 0.491692757908 1.965960240843
""",
        "series.json": """\
{
  "label": "simultaneous-denominator series",
  "partial_sum_hi": "1160498093501698868061/590295810358705651712",
  "partial_sum_lo": "145062256561816142653/73786976294838206464",
  "series": "prop32",
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


def test_scales_transcript_is_the_const75_build():
    a = lambda n: 75
    assert SCALES_TRANSCRIPT.read_text() == build_theta(a, minimal_heights(a, 2, 6), 3).to_text()


# ---------------------------------------------------------------------------
# artifacts of construct, series=type, linear approx and simulate, text pinned

# the artifacts of each config except manifest.json, recorded before the
# sequence keys were parsed into the values their runner uses; the construct
# reports' brute-force lines restated when the verifier began to report every
# level (scanned within the default budget, skipped beyond it)
RUN_CONFIGS = {
    "construct-const33": (
        "command=construct\n"
        "a=const:33\n"
        "h0=1\n"
        "steps=3\n"
    ),
    "construct-poly4-geom": (
        "command=construct\n"
        "a=poly:4\n"
        "h0=geom:24a\n"
        "steps=3\n"
    ),
    "construct-lists": (
        "command=construct\n"
        "a=33,34,35,36,37\n"
        "h0=1,800,700000,600000000,520000000000\n"
        "steps=3\n"
    ),
    "type-simultaneous": (
        "command=criteria\n"
        "series=type\n"
        "theta=195025/470832\n"
        "radius=1/535190300000000\n"
        "tau=0\n"
        "mode=simultaneous\n"
        "depth=6\n"
    ),
    "type-linear": (
        "command=criteria\n"
        "series=type\n"
        "theta=195025/470832\n"
        "radius=1/535190300000000\n"
        "tau=1/10\n"
        "mode=linear\n"
        "depth=6\n"
    ),
    "approx-linear": (
        "command=approx\n"
        "theta=195025/470832, 80782/195025\n"
        "radius=1/10000000000000000000000\n"
        "mode=linear\n"
        "limit=300\n"
    ),
    "simulate-census": (
        "command=simulate\n"
        "theta=195025/470832, 80782/195025\n"
        "delta=2\n"
        "n_max=3000\n"
        "samples=3\n"
        "seed=7\n"
        "precision_bits=64\n"
    ),
    "simulate-census-one-step": (
        "command=simulate\n"
        "theta=195025/470832, 80782/195025\n"
        "delta=2\n"
        "n_max=1\n"
        "samples=3\n"
        "seed=7\n"
        "precision_bits=64\n"
    ),
    "simulate-window": (
        "command=simulate\n"
        "theta=195025/470832, 80782/195025\n"
        "delta=2\n"
        "n_max=3000\n"
        "samples=5\n"
        "seed=7\n"
        "precision_bits=64\n"
        "window=20,60\n"
    ),
}

RUN_ARTIFACTS = {
    "construct-const33": {
        "theta.json": """\
{
  "coords": [
    "246793927278259176/8144504531291981969",
    "246793533818762329/8144504531291981969"
  ],
  "coords_decimal": [
    "0.030301895754376807137564145028",
    "0.030301847444563075032660799560"
  ],
  "denominators": [
    "33",
    "20699728",
    "12984173432719",
    "8144504531291981969",
    "5108754469762387254508367"
  ],
  "depth": 3,
  "heights": [
    1,
    808,
    639704,
    507102337,
    401479710423
  ],
  "radius": "1204439131269/83216547856475859353877636003245468247269246"
}
""",
        "transcript.txt": """\
# shrinktarget transcript v1
depth 3
a 33 33 33 33 33
h0 1 792 627264 496793088 393460125696
step 0 1 -1 0 1 1 33 1 33
step 1 808 -775 -1 627241 627240 20699728 808 20699728
step 2 639704 -587959 -1568 393445069815 393444442552 12984173432719 639704 12984173432719
step 3 507102337 -445786191 -1858017 246793927278259176 246793533818762329 8144504531291981969 507102337 8144504531291981969
step 4 401479710423 -336874026952 -1957690960 154804945377446418884560 154804698574469581605280 5108754469762387254508367 401479710423 5108754469762387254508367
""",
        "verify_report.txt": """\
[PASS] primitivity of Delta_n and P_n (n in [0, 4])
[PASS] <Delta_n, P_n> = 0 (n in [0, 4])
[PASS] norm bookkeeping (|Delta_n| = h_n, |P_n| = z_n = q_n, |(r_n,s_n)| = h_n) (n in [0, 4])
[PASS] Delta_n ^ Delta_{n+1} = P_n (n in [0, 3])
[PASS] P_n ^ P_{n+1} = Delta_{n+1} (n in [0, 3])
[PASS] <Delta_n, P_{n+1}> = 1 (n in [0, 3])
[PASS] sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2) (n in [0, 4])
[PASS] projective gap contraction (ratio 1/(2^18*3^3)) (n in [1, 3])
[PASS] crude gap decay <= 32^-(n+1) (n in [0, 3])
[PASS] base point within 1/32 of the origin (n = 0) -- d(0, P~_0) = 1/33
[PASS] |theta| <= 1/8 (certified) -- certified sup norm <= 0.030302
[PASS] theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n (n in [0, 3])
[PASS] orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1}) (n in [0, 3])
[PASS] line-value enclosure 3/(4q_{n+1}) <= |<Delta_n, theta_bar>| <= 5/(4q_{n+1}) (n in [0, 3])
[PASS] weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| <= 10/a_{n+1} (n in [0, 3])
[PASS] no better approximation below q_{n+1} (brute force) (level 0: q < 20699728) -- exceptions [20699695]: ['leq']
[SKIP] no better approximation below q_{n+1} (brute force) (level 1: q < 12984173432719) -- scan of 12984173432718 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 2: q < 8144504531291981969) -- scan of 8144504531291981968 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 3: q < 5108754469762387254508367) -- scan of 5108754469762387254508366 exceeds budget 100000000
""",
    },
    "construct-poly4-geom": {
        "theta.json": """\
{
  "coords": [
    "513566374565402104586088/41598958165310767293101225",
    "513566331567234370856089/41598958165310767293101225"
  ],
  "coords_decimal": [
    "0.012345654728287483756616714760",
    "0.012345653694651795986291064940"
  ],
  "denominators": [
    "81",
    "967458856",
    "89161004298139129",
    "41598958165310767293101225",
    "74559347679638283315350287441845041"
  ],
  "depth": 3,
  "heights": [
    1,
    1984,
    12193432,
    182969721369,
    5693578732447474
  ],
  "radius": "8540368098671211/3101591184958133376621468400107986590375380176163344777275225"
}
""",
        "transcript.txt": """\
# shrinktarget transcript v1
depth 3
a 81 256 625 1296 2401
h0 1 1944 11943936 179159040000 5572562780160000
step 0 1 -1 0 1 1 81 1 81
step 1 1984 -1903 -1 11943913 11943912 967458856 1984 967458856
step 2 12193432 -11207985 -12166 1100750974292182 1100750882132186 89161004298139129 12193432 89161004298139129
step 3 182969721369 -160870285598 -272832170 513566374565402104586088 513566331567234370856089 41598958165310767293101225 182969721369 41598958165310767293101225
step 4 5693578732447474 -4778542985453483 -11296720335701 920483963219156803103791939762805 920483886151954184554041102180863 74559347679638283315350287441845041 5693578732447474 74559347679638283315350287441845041
""",
        "verify_report.txt": """\
[PASS] primitivity of Delta_n and P_n (n in [0, 4])
[PASS] <Delta_n, P_n> = 0 (n in [0, 4])
[PASS] norm bookkeeping (|Delta_n| = h_n, |P_n| = z_n = q_n, |(r_n,s_n)| = h_n) (n in [0, 4])
[PASS] Delta_n ^ Delta_{n+1} = P_n (n in [0, 3])
[PASS] P_n ^ P_{n+1} = Delta_{n+1} (n in [0, 3])
[PASS] <Delta_n, P_{n+1}> = 1 (n in [0, 3])
[PASS] sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2) (n in [0, 4])
[PASS] projective gap contraction (ratio 1/(2^18*3^3)) (n in [1, 3])
[PASS] crude gap decay <= 32^-(n+1) (n in [0, 3])
[PASS] base point within 1/32 of the origin (n = 0) -- d(0, P~_0) = 1/81
[PASS] |theta| <= 1/8 (certified) -- certified sup norm <= 0.012346
[PASS] theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n (n in [0, 3])
[PASS] orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1}) (n in [0, 3])
[PASS] line-value enclosure 3/(4q_{n+1}) <= |<Delta_n, theta_bar>| <= 5/(4q_{n+1}) (n in [0, 3])
[PASS] weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| <= 10/a_{n+1} (n in [0, 3])
[SKIP] no better approximation below q_{n+1} (brute force) (level 0: q < 967458856) -- scan of 967458855 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 1: q < 89161004298139129) -- scan of 89161004298139128 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 2: q < 41598958165310767293101225) -- scan of 41598958165310767293101224 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 3: q < 74559347679638283315350287441845041) -- scan of 74559347679638283315350287441845040 exceeds budget 100000000
""",
    },
    "construct-lists": {
        "theta.json": """\
{
  "coords": [
    "392712753577684981/12959987213342504373",
    "130904052663281262/4319995737780834791"
  ],
  "coords_decimal": [
    "0.030301939894923755437165604035",
    "0.030301893939026470150244988409"
  ],
  "denominators": [
    "33",
    "21759993",
    "17149986107492",
    "12959987213342504373",
    "10004799059029117461715025"
  ],
  "depth": 3,
  "heights": [
    1,
    816,
    713143,
    612006993,
    530876756625
  ],
  "radius": "21235070265/3457655143388759518058813304398490163794782"
}
""",
        "transcript.txt": """\
# shrinktarget transcript v1
depth 3
a 33 34 35 36 37
h0 1 800 700000 600000000 520000000000
step 0 1 -1 0 1 1 33 1 33
step 1 816 -783 -1 659370 659369 21759993 816 21759993
step 2 713143 -657636 -1682 519677848228 519677060085 17149986107492 713143 17149986107492
step 3 612006993 -540323392 -2172177 392712753577684981 392712157989843786 12959987213342504373 612006993 12959987213342504373
step 4 530876756625 -447519629339 -2525903227 303164819747490062849282 303164359967972146171925 10004799059029117461715025 530876756625 10004799059029117461715025
""",
        "verify_report.txt": """\
[PASS] primitivity of Delta_n and P_n (n in [0, 4])
[PASS] <Delta_n, P_n> = 0 (n in [0, 4])
[PASS] norm bookkeeping (|Delta_n| = h_n, |P_n| = z_n = q_n, |(r_n,s_n)| = h_n) (n in [0, 4])
[PASS] Delta_n ^ Delta_{n+1} = P_n (n in [0, 3])
[PASS] P_n ^ P_{n+1} = Delta_{n+1} (n in [0, 3])
[PASS] <Delta_n, P_{n+1}> = 1 (n in [0, 3])
[PASS] sandwich bounds h_n ~ h_n°, q_n ~ q_n° (factor 2) (n in [0, 4])
[PASS] projective gap contraction (ratio 1/(2^18*3^3)) (n in [1, 3])
[PASS] crude gap decay <= 32^-(n+1) (n in [0, 3])
[PASS] base point within 1/32 of the origin (n = 0) -- d(0, P~_0) = 1/33
[PASS] |theta| <= 1/8 (certified) -- certified sup norm <= 0.030302
[PASS] theta gap enclosure (1/2)g_n <= |P~_n - theta| <= (3/2)g_n (n in [0, 3])
[PASS] orbit enclosure h_{n+1}/(2q_{n+1}) <= |q_n theta| <= 3h_{n+1}/(2q_{n+1}) (n in [0, 3])
[PASS] line-value enclosure 3/(4q_{n+1}) <= |<Delta_n, theta_bar>| <= 5/(4q_{n+1}) (n in [0, 3])
[PASS] weighted enclosure 3/(32a_{n+1}) <= h_{n+1}^2 |<Delta_n, theta_bar>| <= 10/a_{n+1} (n in [0, 3])
[PASS] no better approximation below q_{n+1} (brute force) (level 0: q < 21759993) -- exceptions [21759960]: ['leq']
[SKIP] no better approximation below q_{n+1} (brute force) (level 1: q < 17149986107492) -- scan of 17149986107491 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 2: q < 12959987213342504373) -- scan of 12959987213342504372 exceeds budget 100000000
[SKIP] no better approximation below q_{n+1} (brute force) (level 3: q < 10004799059029117461715025) -- scan of 10004799059029117461715024 exceeds budget 100000000
""",
    },
    "type-simultaneous": {
        "type_evidence.json": """\
{
  "liminf": {
    "positive_inf": true,
    "running_inf": "1351054462956220573/3937261239525000000",
    "tail_sup": "5568956116019001893/15749044958100000000"
  },
  "limsup": {
    "positive_tail_sup": true,
    "running_inf": "6523468016093720573/7874522479050000000",
    "tail_sup": "1120387443655396617/1312420413175000000"
  },
  "mode": "simultaneous",
  "tau": "0"
}
""",
        "type_liminf.dat": """\
# columns: index scaled_value_lo
# precision: decimals truncated at 12 digits
0 0.414213562374
1 0.343145750501
2 0.355339059367
3 0.353247018044
4 0.353605957112
5 0.353544364010
""",
        "type_limsup.dat": """\
# columns: index scaled_value_lo
# precision: decimals truncated at 12 digits
0 0.828427124749
1 0.857864376253
2 0.852813742481
3 0.853680293607
4 0.853531620616
5 0.853557107396
""",
    },
    "type-linear": {
        "type_evidence.json": """\
{
  "liminf": {
    "positive_inf": true,
    "running_inf": "213690672324427255646211796776024253409/581037203494832937283553014579200000000",
    "tail_sup": "12566596038537085489732560304011436553/23241488139793317491342120583168000000"
  },
  "limsup": {
    "positive_tail_sup": true,
    "running_inf": "1031789838579687189042030373798311753409/1162074406989665874567106029158400000000",
    "tail_sup": "662697269758095638953064875633239463/464829762795866349826842411663360000"
  },
  "mode": "linear",
  "tau": "1/10"
}
""",
        "type_liminf.dat": """\
# columns: index scaled_value_lo
# precision: decimals truncated at 12 digits
0 0.414213562374
1 0.367774509169
2 0.417387990351
3 0.452894064538
4 0.495175755248
5 0.540696704227
""",
        "type_limsup.dat": """\
# columns: index scaled_value_lo
# precision: decimals truncated at 12 digits
0 0.887886207951
1 1.007663746947
2 1.093382993762
3 1.195460018772
4 1.305357350310
5 1.425677361475
""",
    },
    "approx-linear": {
        "approx.csv": """\
index,height,witness,error_lo,error_hi,error_exact
0,1,1 -1,0.000000000010,0.000000000010,
""",
        "approx.dat": """\
# columns: height error_hi
# precision: decimals truncated at 12 digits
1 0.000000000010
""",
    },
    "simulate-census": {
        "census.csv": """\
sample_id,hit_count,stat_lo,stat_hi,inconclusive_count
0,13,0.249107507616,0.249107507667,0
1,8,0.186407460801,0.186407460849,0
2,8,0.192897013167,0.192897013215,0
""",
        "summary.json": """\
{
  "aggregates": {
    "inconclusive_total": 0,
    "mean": "29/3",
    "mean_decimal": "9.666666",
    "median": "8",
    "q1": "8",
    "q3": "21/2"
  },
  "config": {
    "delta": "2",
    "generator": "PCG64",
    "n_max": 3000,
    "precision_bits": 64,
    "samples": 3,
    "seed": 7,
    "theta": [
      "195025/470832",
      "80782/195025"
    ],
    "theta_radius": "0"
  },
  "n_lo": 1,
  "tool": "shrinktarget",
  "version": "1.0.0"
}
""",
    },
    # one step: no n >= 2, so the statistic's cells are empty
    "simulate-census-one-step": {
        "census.csv": """\
sample_id,hit_count,stat_lo,stat_hi,inconclusive_count
0,1,,,0
1,1,,,0
2,1,,,0
""",
        "summary.json": """\
{
  "aggregates": {
    "inconclusive_total": 0,
    "mean": "1",
    "mean_decimal": "1.000000",
    "median": "1",
    "q1": "1",
    "q3": "1"
  },
  "config": {
    "delta": "2",
    "generator": "PCG64",
    "n_max": 1,
    "precision_bits": 64,
    "samples": 3,
    "seed": 7,
    "theta": [
      "195025/470832",
      "80782/195025"
    ],
    "theta_radius": "0"
  },
  "n_lo": 1,
  "tool": "shrinktarget",
  "version": "1.0.0"
}
""",
    },
    "simulate-window": {
        "window_estimate.json": """\
{
  "confidence_radius": "237633383/536870912",
  "confidence_radius_decimal": "0.442626",
  "fraction": "3/5",
  "fraction_decimal": "0.600000",
  "hits": 3,
  "inconclusive": 0,
  "samples": 5,
  "window": [
    20,
    60
  ]
}
""",
    },
}


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_run_artifacts_pinned(tmp_path, name):
    text = RUN_CONFIGS[name]
    command = text.partition("\n")[0].removeprefix("command=")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert produced == set(RUN_ARTIFACTS[name])
    for file, pinned in RUN_ARTIFACTS[name].items():
        assert (out / file).read_text() == pinned, file

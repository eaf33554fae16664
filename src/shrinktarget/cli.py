"""Command-line front end: structured configs in, CSV/JSON artifacts out.

Usage: ``shrinktarget <command> --config <file> [--out <dir>]``.  Every run
is one process, and its artifacts depend only on its config.

Config format: UTF-8 text, one ``key=value`` pair per line; blank lines and
``#`` comments are ignored.  Parsing is strict (unknown, duplicate or unused
keys are rejected with a line/column diagnostic) and exact (decimal values
become rationals with no float round-trip: ``tau=0.1`` is 1/10).

Sequence-valued keys (``a``, ``h0``) accept a comma list (``33,34,35``) or a
generator rule:

* ``const:33`` — the constant sequence 33, 33, ... (``a`` only; a bare
  integer means the same).
* ``poly:4``   — the degree-4 polynomial regime entering at its first
  admissible index: value (n+3)^4 at step n (``a`` only).
* ``geom:24a`` — the tightest admissible growth h_{n+1} = 24 a_n h_n
  (``h0`` only, start 1); a bare integer or ``const:k`` for ``h0`` means
  the same rule from that start.

Each key's parser returns the value its runner uses: ``a`` becomes a list
or the function n -> a_n, ``h0`` a list or an integer start.  A rule on the
wrong key or an inadmissible ``a`` (``const:k`` with k <= 32, ``poly:p``
with p < 4) fails at parse time, with the line and column of its value.

This module writes every artifact; the library only computes.  A runner
passes the library only the keys its config sets, so each default has its
home in the library.  Every run writes ``manifest.json`` (tool version,
config echo, timings, output list) next to its artifacts.  Failures write
``error.json`` and exit with a stable code: 2 domain or config (a config
file that cannot be read or decoded as UTF-8, and an ``--out`` that cannot
be a directory, are config errors), 3 precision, 5 internal, and 4
resource -- a refusal made before any work by a scan ``budget``, the orbit
error budget, the bound of 10^6 samples, or a ``delta`` whose numerator or
denominator exceeds 256.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__, bestapprox, criteria
from .construct import (ConstructionState, build_theta, minimal_heights,
                        verify_construction)
from .errors import ConfigError, DomainError, exit_code_for
from .exact import CertifiedVector, rational
from .orbit import CensusSummary, OrbitConfig, bc_window_estimate, hit_census

_DEC_PLACES = 12  # the default places of _dec: plot files and CSV columns


# ---------------------------------------------------------------------------
# config parsing


def _p_int(raw, where):
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", *where)


def _p_rational(raw, where):
    try:
        return rational(raw)
    except (ValueError, ZeroDivisionError, DomainError):
        raise ConfigError(f"expected a rational (like 3/7 or 0.125), got {raw!r}",
                          *where)


def _p_vector(raw, where):
    return tuple(_p_rational(part.strip(), where) for part in raw.split(","))


def _p_int_list(raw, where):
    return tuple(_p_int(part.strip(), where) for part in raw.split(","))


def _p_a(raw, where):
    """a: a comma list, or the rule 'const:k' / 'k' (k > 32) or 'poly:p'
    (p >= 4), as the function n -> a_n."""
    if raw.startswith("poly:"):
        p = _p_int(raw[5:], where)
        if p < 4:
            raise ConfigError(
                f"a=poly:{p} is inadmissible: degree >= 4 keeps a_n > 32 from "
                f"the first index", *where)
        return lambda n: (n + 3) ** p
    if raw.startswith("geom:"):
        raise ConfigError("geom:24a is only meaningful for h0", *where)
    if raw.startswith("const:") or "," not in raw:
        k = _p_int(raw.removeprefix("const:"), where)
        if k <= 32:
            raise ConfigError(
                f"a=const:{k} is inadmissible: the construction needs a_n > 32", *where)
        return lambda n: k
    return _p_int_list(raw, where)


def _p_h0(raw, where):
    """h0: a comma list of heights, or the start of the tightest admissible
    growth: 'geom:24a' (start 1), 'const:k' or 'k'."""
    if raw.startswith("poly:"):
        raise ConfigError("h0 accepts an integer start, a comma list, or geom:24a",
                          *where)
    if raw.startswith("geom:"):
        if raw[5:] != "24a":
            raise ConfigError(
                f"the only geometric rule is geom:24a, got {raw!r}", *where)
        return 1
    if raw.startswith("const:") or "," not in raw:
        return _p_int(raw.removeprefix("const:"), where)
    return _p_int_list(raw, where)


def _p_choice(*options):
    def parse(raw, where):
        if raw not in options:
            raise ConfigError(
                f"expected one of {', '.join(options)}; got {raw!r}", *where)
        return raw
    return parse


def _p_flag(raw, where):
    if raw in ("1", "true", "yes"):
        return True
    if raw in ("0", "false", "no"):
        return False
    raise ConfigError(f"expected a boolean (0/1), got {raw!r}", *where)


def _p_str(raw, where):
    return raw


# key -> (parser, required) per command
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "approx": {
        "theta": (_p_vector, True),
        "radius": (_p_rational, False),
        "mode": (_p_choice("simultaneous", "linear"), False),
        "limit": (_p_int, True),
        "budget": (_p_int, False),
    },
    "criteria": {
        "series": (_p_choice("thm5", "lemma22", "prop32", "dyadic", "type"), True),
        "theta": (_p_vector, False),
        "radius": (_p_rational, False),
        "transcript": (_p_str, False),
        "delta": (_p_rational, False),
        "tau": (_p_rational, False),
        "k_max": (_p_int, False),
        "n_terms": (_p_int, False),
        "depth": (_p_int, False),
        "mode": (_p_choice("simultaneous", "linear"), False),
    },
    "construct": {
        "a": (_p_a, True),
        "h0": (_p_h0, True),
        "steps": (_p_int, True),
        "verify": (_p_flag, False),
    },
    "simulate": {
        "theta": (_p_vector, False),
        "radius": (_p_rational, False),
        "transcript": (_p_str, False),
        "refined": (_p_flag, False),
        "delta": (_p_rational, True),
        "n_max": (_p_int, True),
        "samples": (_p_int, False),
        "seed": (_p_int, False),
        "precision_bits": (_p_int, False),
        "n_lo": (_p_int, False),
        "window": (_p_int_list, False),
    },
    "transfer": {
        "theta": (_p_vector, True),
        "radius": (_p_rational, False),
        "h": (_p_int_list, True),
        "budget": (_p_int, False),
    },
    "verify": {
        "transcript": (_p_str, True),
        "bruteforce_depth": (_p_int, False),
    },
}
_COMMANDS = tuple(_SCHEMAS)


class RunConfig(NamedTuple):
    """A validated command plus its exactly-parsed parameters."""

    command: str
    values: dict
    raw: dict[str, str]


def parse_config(text: str) -> RunConfig:
    """Parse and validate the key=value config format (strict, exact)."""
    pairs: dict[str, tuple[str, tuple]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected key=value", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        after = line[line.index("=") + 1:]
        vcol = len(line) - len(after.lstrip()) + 1  # first non-blank after "="
        if not key:
            raise ConfigError("empty key", lineno, 1)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        pairs[key] = (value, (lineno, vcol))
    if "command" not in pairs:
        raise ConfigError("missing required key 'command'")
    cmd_raw, cmd_where = pairs.pop("command")
    if cmd_raw not in _COMMANDS:
        raise ConfigError(
            f"unknown command {cmd_raw!r}; expected one of {', '.join(_COMMANDS)}",
            *cmd_where)
    schema = _SCHEMAS[cmd_raw]
    values: dict = {}
    for key, (value, where) in pairs.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key {key!r} for command {cmd_raw!r}", where[0], 1)
        parser = schema[key][0]
        values[key] = parser(value, where)
    for key, (_parser, required) in schema.items():
        if required and key not in values:
            raise ConfigError(
                f"command {cmd_raw!r} requires the key {key!r}")
    _validate_combination(cmd_raw, values, pairs)
    raw = {"command": cmd_raw} | {k: value for k, (value, _) in pairs.items()}
    return RunConfig(cmd_raw, values, raw)


# the criteria keys each series uses, all required, besides `series` and
# `radius`; and pairs of keys whose first is not used with the second
_SERIES_KEYS = {"thm5": ("transcript", "n_terms"),
                "prop32": ("transcript", "n_terms"),
                "lemma22": ("theta", "delta", "k_max"),
                "dyadic": ("theta", "k_max"),
                "type": ("theta", "tau", "mode", "depth")}
_UNUSED_WITH = (("radius", "transcript"), ("refined", "theta"), ("n_lo", "window"))


def _validate_combination(command: str, values: dict, pairs) -> None:
    def unused(key, why):
        raise ConfigError(f"the key {key!r} is not used {why}", pairs[key][1][0], 1)

    if command in ("criteria", "simulate"):
        if ("theta" in values) == ("transcript" in values):
            raise ConfigError(
                f"command {command!r} needs exactly one of 'theta' or "
                f"'transcript'")
    for key, other in _UNUSED_WITH:
        if key in values and other in values:
            unused(key, f"with {other!r}")
    if command == "criteria":
        series = values["series"]
        for key in _SERIES_KEYS[series]:
            if key not in values:
                raise ConfigError(f"series={series} requires the key {key!r}")
        for key in values:
            if key not in ("series", "radius", *_SERIES_KEYS[series]):
                unused(key, f"by series={series}")
    for key, least in (("limit", 1), ("bruteforce_depth", 0)):
        if values.get(key, least) < least:
            raise ConfigError(f"{key} must be >= {least}", *pairs[key][1])
    if command == "simulate" and "window" in values:
        if len(values["window"]) != 2:
            raise ConfigError("window needs exactly two integers 'lo,hi'",
                              *pairs["window"][1])


# ---------------------------------------------------------------------------
# artifact writers


def _dec(x, places: int = _DEC_PLACES) -> str:
    """Decimal string by integer division (round toward zero), no floats;
    None gives the empty string.  places >= 1."""
    if x is None:
        return ""
    x = rational(x)
    num = x.numerator
    digits = str(abs(num) * 10 ** places // x.denominator).rjust(places + 1, "0")
    return f"{'-' if num < 0 else ''}{digits[:-places]}.{digits[-places:]}"


def _write_json(path, payload) -> None:
    """A JSON artifact: indented, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """A CSV artifact: one header row, then the rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_census_csv(census: CensusSummary, path) -> None:
    """One row per sample: sample_id, hit_count, stat_lo, stat_hi,
    inconclusive_count (stable column contract)."""
    _write_csv(path, ["sample_id", "hit_count", "stat_lo", "stat_hi",
                      "inconclusive_count"],
               ([rec.sample_id, count, _dec(rec.stat_lo), _dec(rec.stat_hi),
                 rec.inconclusive] for rec, count in zip(census.records, census.counts)))


def write_summary_json(census: CensusSummary, path) -> None:
    """The census's configuration (generator included) and aggregates."""
    cfg = census.config
    _write_json(path, {
        "tool": "shrinktarget",
        "version": __version__,
        "config": {
            "theta": [str(c) for c in cfg.theta.coords],
            "theta_radius": str(cfg.theta.radius),
            "delta": str(cfg.delta),
            "n_max": cfg.n_max,
            "samples": cfg.samples,
            "seed": cfg.seed,
            "precision_bits": cfg.precision_bits,
            "generator": "PCG64",
        },
        "n_lo": census.n_lo,
        "aggregates": {
            "mean": str(census.mean),
            "mean_decimal": _dec(census.mean, 6),
            "median": str(census.median),
            "q1": str(census.quartiles[0]),
            "q3": str(census.quartiles[1]),
            "inconclusive_total": census.inconclusive_total,
        },
    })


def emit_plot_data(path, header, rows) -> None:
    """A .dat artifact for external plotting: numeric columns separated by
    spaces, under a header naming them.

    Decimals are truncated at 12 digits (annotated in the header); the exact
    rational values live in the run's other artifacts.
    """
    with open(path, "w") as fh:
        fh.write(f"# columns: {' '.join(header)}\n")
        fh.write(f"# precision: decimals truncated at {_DEC_PLACES} digits\n")
        for row in rows:
            fh.write(" ".join(str(c) for c in row) + "\n")


# ---------------------------------------------------------------------------
# command runners


def _given(values: dict, *keys) -> dict:
    """The listed keys the config sets: the library owns every default."""
    return {k: values[k] for k in keys if k in values}


def _read(path, what: str) -> str:
    """A UTF-8 input file; one that cannot be read or decoded is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the {what} {path!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}")


def _theta_from(values: dict):
    """theta, and the construction state when a transcript (read only here) gives it."""
    if "transcript" in values:
        state = ConstructionState.from_text(_read(values["transcript"], "transcript"))
        if values.get("refined", False):
            return state.refined_theta(), state
        return state.theta, state
    return CertifiedVector(values["theta"], **_given(values, "radius")), None


def _run_approx(values: dict, out: Path) -> list[Path]:
    theta, _ = _theta_from(values)
    best = (bestapprox.best_linear if values.get("mode") == "linear"
            else bestapprox.best_simultaneous)
    records = best(theta, values["limit"], **_given(values, "budget"))
    csv_path = out / "approx.csv"
    _write_csv(csv_path, ["index", "height", "witness", "error_lo", "error_hi",
                          "error_exact"],
               ([r.index, r.height, " ".join(map(str, r.witness)), _dec(r.value.lo),
                 _dec(r.value.hi), str(r.value.lo) if r.value.is_exact else ""]
                for r in records))
    plot = out / "approx.dat"
    emit_plot_data(plot, ["height", "error_hi"],
                   ((r.height, _dec(r.value.hi)) for r in records))
    return [csv_path, plot]


def _run_criteria(values: dict, out: Path) -> list[Path]:
    series = values["series"]
    theta, state = _theta_from(values)
    outputs = []
    if series == "type":
        limsup, liminf = criteria.type_evidence(
            theta, values["tau"], values["mode"], values["depth"])
        for ev in (limsup, liminf):
            p = out / f"type_{ev.kind}.dat"
            emit_plot_data(p, ["index", "scaled_value_lo"],
                           ((n, _dec(v.lo)) for n, v in ev.samples))
            outputs.append(p)
        summary = out / "type_evidence.json"
        _write_json(summary, {
            "mode": limsup.mode, "tau": str(limsup.tau),
            "limsup": {"running_inf": str(limsup.running_inf),
                       "tail_sup": str(limsup.tail_sup),
                       "positive_tail_sup": limsup.positive_tail_sup},
            "liminf": {"running_inf": str(liminf.running_inf),
                       "tail_sup": str(liminf.tail_sup),
                       "positive_inf": liminf.positive_inf},
        })
        outputs.append(summary)
        return outputs
    if series == "thm5":
        n_terms = values["n_terms"]
        report = criteria.series_thm5(
            state.refined_theta(), state.linear_witnesses(), n_terms)
    elif series == "prop32":
        n_terms = values["n_terms"]
        report = criteria.series_prop32(
            state.refined_theta(), state.denominators, n_terms)
    elif series == "lemma22":
        report = criteria.series_lemma22(
            theta, values["k_max"], values["delta"])
    else:
        report = criteria.dyadic_condition_iii(theta, values["k_max"])
    rows = [[n, _dec(t.lo), _dec(t.hi), _dec(s.lo), _dec(s.hi), t.lo, t.hi]
            for (n, t), s in zip(report.terms, report.partial_sums)]
    csv_path = out / "series.csv"
    _write_csv(csv_path, ["index", "term_lo", "term_hi", "partial_lo", "partial_hi",
                          "term_exact_lo", "term_exact_hi"], rows)
    plot = out / "series.dat"
    emit_plot_data(plot, ["index", "term_hi", "partial_sum_hi"],
                   ((r[0], r[2], r[4]) for r in rows))
    summary = out / "series.json"
    total = report.partial_sums[-1] if report.partial_sums else None
    _write_json(summary, {
        "label": report.label,
        "series": series,
        "terms": len(report.terms),
        "partial_sum_lo": str(total.lo) if total else "0",
        "partial_sum_hi": str(total.hi) if total else "0",
        "verdict": report.verdict,
    })
    return [csv_path, plot, summary]


def _run_construct(values: dict, out: Path) -> list[Path]:
    a, h0, steps = values["a"], values["h0"], values["steps"]
    if isinstance(h0, int):  # a start: the tightest admissible growth from it
        h0 = minimal_heights(a, h0, steps + 2)
    state = build_theta(a, h0, steps)
    transcript = out / "transcript.txt"
    transcript.write_text(state.to_text())
    outputs = [transcript]
    theta_path = out / "theta.json"
    _write_json(theta_path, {
        "coords": [str(c) for c in state.theta.coords],
        "coords_decimal": [_dec(c, 30) for c in state.theta.coords],
        "radius": str(state.theta.radius),
        "depth": state.depth,
        "heights": list(state.heights),
        "denominators": [str(q) for q in state.denominators],
    })
    outputs.append(theta_path)
    if values.get("verify", True):
        outputs.append(_report(verify_construction(state), out, "construction verification"))
    return outputs


def _run_simulate(values: dict, out: Path) -> list[Path]:
    theta, _ = _theta_from(values)
    orbit_cfg = OrbitConfig(theta, **_given(values, "delta", "n_max", "samples",
                                             "seed", "precision_bits"))
    if "window" in values:
        est = bc_window_estimate(orbit_cfg, values["window"])
        path = out / "window_estimate.json"
        _write_json(path, {
            "window": list(est.window),
            "samples": est.samples,
            "hits": est.hits,
            "inconclusive": est.inconclusive,
            "fraction": str(est.fraction),
            "fraction_decimal": _dec(est.fraction, 6),
            "confidence_radius": str(est.confidence_radius),
            "confidence_radius_decimal": _dec(est.confidence_radius, 6),
        })
        return [path]
    census = hit_census(orbit_cfg, **_given(values, "n_lo"))
    csv_path = out / "census.csv"
    write_census_csv(census, csv_path)
    summary = out / "summary.json"
    write_summary_json(census, summary)
    return [csv_path, summary]


def _run_transfer(values: dict, out: Path) -> list[Path]:
    theta, _ = _theta_from(values)
    rows = []
    for h in values["h"]:
        rep = criteria.transfer_check(theta, h, **_given(values, "budget"))
        rows.append({
            "h": str(rep.h),
            "constant": str(rep.constant),
            "lhs_hi": str(rep.lhs.hi),
            "rhs_lo": str(rep.rhs.lo),
            "holds": rep.holds,
        })
    path = out / "transfer.json"
    _write_json(path, {"dimension": theta.dim, "rows": rows})
    if not all(r["holds"] for r in rows):
        raise DomainError("transfer inequality violated (see transfer.json)")
    return [path]


def _run_verify(values: dict, out: Path) -> list[Path]:
    _, state = _theta_from(values)
    report = verify_construction(state, *_given(values, "bruteforce_depth").values())
    return [_report(report, out, "verification")]


def _report(report, out: Path, what: str) -> Path:
    """verify_report.txt; a failed check raises DomainError once it is written."""
    path = out / "verify_report.txt"
    path.write_text("\n".join(report.to_lines()) + "\n")
    if not report.ok:
        raise DomainError(f"{what} failed: " + "; ".join(c.name for c in report.failed()))
    return path


_RUNNERS = {
    "approx": _run_approx,
    "criteria": _run_criteria,
    "construct": _run_construct,
    "simulate": _run_simulate,
    "transfer": _run_transfer,
    "verify": _run_verify,
}


def run(config: RunConfig, out_dir=".") -> list[Path]:
    """Execute a parsed config; returns the artifact paths (manifest last)."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").unlink(missing_ok=True)  # left by an earlier failed run
    except OSError as exc:
        raise ConfigError(f"cannot use the output directory {str(out)!r}: "
                          f"{exc.strerror or exc}")
    started = time.time()
    outputs = _RUNNERS[config.command](config.values, out)
    manifest = out / "manifest.json"
    _write_json(manifest, {
        "tool": "shrinktarget",
        "version": __version__,
        "command": config.command,
        "config": config.raw,
        "elapsed_s": round(time.time() - started, 3),
        "outputs": [p.name for p in outputs],
    })
    return outputs + [manifest]


_PARSER = argparse.ArgumentParser(
    prog="shrinktarget",
    description="Certified experiments with shrinking targets on torus translations.")
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True, help="key=value config file")
_PARSER.add_argument("--out", default=".", help="output directory")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = parse_config(_read(args.config, "config"))
        if config.command != args.command:
            raise ConfigError(
                f"config file says command={config.command!r} but the "
                f"command line says {args.command!r}")
        run(config, args.out)
        return 0
    except Exception as exc:  # noqa: BLE001 -- every failure maps to a code
        code = exit_code_for(exc)
        payload = {"error": type(exc).__name__, "message": str(exc),
                   "exit_code": code}
        _write_error(args.out, payload)
        return code


def _write_error(out_dir, payload) -> None:
    print(json.dumps(payload), file=sys.stderr)
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "error.json", "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())

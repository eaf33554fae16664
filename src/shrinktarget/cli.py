"""Command-line front end: structured configs in, CSV/JSON artifacts out.

Usage: ``shrinktarget <command> --config <file> [--out <dir>]``.  Every run
is one process, and its artifacts depend only on its config.

Config format: UTF-8 text, one ``key=value`` pair per line; blank lines and
``#`` comments are ignored.  Parsing is strict (unknown or duplicate keys are
rejected with a line/column diagnostic) and exact (decimal values become
rationals with no float round-trip: ``tau=0.1`` is 1/10).

Sequence-valued keys (``a``, ``h0``) accept a comma list (``33,34,35``) or a
generator rule:

* ``const:33`` — the constant sequence 33, 33, ...
* ``poly:4``   — the degree-4 polynomial regime entering at its first
  admissible index: value (n+3)^4 at step n.
* ``geom:24a`` — the tightest admissible growth h_{n+1} = 24 a_n h_n
  (start 1); a bare integer for ``h0`` means the same rule from that start.

Every run writes ``manifest.json`` (tool version, config echo, timings,
output list) next to its artifacts.  Failures write ``error.json`` and
exit with a stable code: 2 domain, 3 precision, 5 internal, and 4 resource
-- a refusal made before any work by a scan ``budget``, the orbit error
budget or the bound of 10^6 samples.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import __version__, bestapprox, criteria
from ._scan import DEFAULT_BUDGET
from .construct import (ConstructionState, build_theta, minimal_heights,
                        verify_construction)
from .errors import ConfigError, DomainError, exit_code_for
from .exact import CertifiedVector, _dec, rational
from .orbit import (OrbitConfig, bc_window_estimate, hit_census,
                    write_census_csv, write_summary_json)

_DEC_PLACES = 12  # the default places of _dec


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


def _p_seq(raw, where):
    """Sequence spec: comma list, 'const:k', 'poly:p' or 'geom:24a'."""
    if raw.startswith("const:"):
        k = _p_int(raw[6:], where)
        return ("const", k)
    if raw.startswith("poly:"):
        p = _p_int(raw[5:], where)
        if p < 1:
            raise ConfigError("poly degree must be >= 1", *where)
        return ("poly", p)
    if raw.startswith("geom:"):
        if raw[5:] != "24a":
            raise ConfigError(
                f"the only geometric rule is geom:24a, got {raw!r}", *where)
        return ("geom", None)
    if "," not in raw:
        return ("const", _p_int(raw, where))
    return ("list", _p_int_list(raw, where))


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
        "a": (_p_seq, True),
        "h0": (_p_seq, True),
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


class RunConfig:
    """A validated command plus its exactly-parsed parameters."""

    def __init__(self, command: str, values: dict, raw: dict[str, str]):
        self.command = command
        self.values = values
        self.raw = raw

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(
                f"command {self.command!r} needs the key {key!r}")
        return self.values[key]


def parse_config(text: str) -> RunConfig:
    """Parse and validate the key=value config format (strict, exact)."""
    pairs: dict[str, tuple[str, tuple]] = {}
    order: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected key=value", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        vcol = line.index("=") + 2
        if not key:
            raise ConfigError("empty key", lineno, 1)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        pairs[key] = (value, (lineno, vcol))
        order.append(key)
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
    raw = {"command": cmd_raw}
    raw.update({k: pairs[k][0] for k in order if k in pairs})
    return RunConfig(cmd_raw, values, raw)


def _validate_combination(command: str, values: dict, pairs) -> None:
    def where(key):
        return pairs[key][1] if key in pairs else (None, None)

    if command == "construct":
        kind, payload = values["a"]
        if kind == "const" and payload <= 32:
            raise ConfigError(
                f"a=const:{payload} is inadmissible: the construction needs "
                f"a_n > 32", *where("a"))
        if kind == "poly" and payload < 4:
            raise ConfigError(
                f"a=poly:{payload} is inadmissible: degree >= 4 keeps "
                f"a_n > 32 from the first index", *where("a"))
    if command in ("criteria", "simulate"):
        if ("theta" in values) == ("transcript" in values):
            raise ConfigError(
                f"command {command!r} needs exactly one of 'theta' or "
                f"'transcript'")
    if command == "criteria":
        series = values["series"]
        needs = {"thm5": ("transcript", "n_terms"),
                 "prop32": ("transcript", "n_terms"),
                 "lemma22": ("theta", "delta", "k_max"),
                 "dyadic": ("theta", "k_max"),
                 "type": ("theta", "tau", "mode", "depth")}[series]
        for key in needs:
            if key not in values:
                raise ConfigError(
                    f"series={series} requires the key {key!r}")
    if command == "simulate" and "window" in values:
        if len(values["window"]) != 2:
            raise ConfigError("window needs exactly two integers 'lo,hi'",
                              *where("window"))


# ---------------------------------------------------------------------------
# sequence materialization


def _seq_fn(spec):
    kind, payload = spec
    if kind == "const":
        return lambda n: payload
    if kind == "poly":
        return lambda n: (n + 3) ** payload
    if kind == "list":
        return payload
    raise DomainError("geom:24a is only meaningful for h0")


def _heights(spec, a_fn, count):
    kind, payload = spec
    if kind == "geom":
        return minimal_heights(a_fn, 1, count)
    if kind == "const":
        # a bare integer start: tightest admissible growth from it
        return minimal_heights(a_fn, payload, count)
    if kind == "list":
        return payload
    raise DomainError("h0 accepts an integer start, a comma list, or geom:24a")


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(report, path) -> None:
    """Two/three-column numeric text for external plotting.

    Decimals are truncated at 12 digits (annotated in the header); the exact
    rational values live in the run's JSON artifacts.
    """
    rows: list[tuple]
    if isinstance(report, criteria.SeriesReport):
        header = "index term_hi partial_sum_hi"
        rows = [(n, _dec(t.hi), _dec(s.hi))
                for (n, t), s in zip(report.terms, report.partial_sums)]
    elif isinstance(report, criteria.TypeEvidence):
        header = "index scaled_value_lo"
        rows = [(n, _dec(v.lo)) for n, v in report.samples]
    elif isinstance(report, (list, tuple)) and report and \
            isinstance(report[0], bestapprox.ApproxRecord):
        header = "height error_hi"
        rows = [(r.height, _dec(r.value.hi)) for r in report]
    else:
        raise DomainError(f"no plot emitter for {type(report).__name__}")
    with open(path, "w") as fh:
        fh.write(f"# columns: {header}\n")
        fh.write(f"# precision: decimals truncated at {_DEC_PLACES} digits\n")
        for row in rows:
            fh.write(" ".join(str(c) for c in row) + "\n")


# ---------------------------------------------------------------------------
# command runners


def _write_json(path, payload) -> None:
    """A JSON artifact: indented, keys sorted, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _theta_from(config: RunConfig):
    if "transcript" in config.values:
        state = ConstructionState.from_text(
            Path(config.require("transcript")).read_text())
        if config.get("refined", False):
            return state.refined_theta(), state
        return state.theta, state
    coords = config.require("theta")
    return CertifiedVector(coords, config.get("radius", 0)), None


def _run_approx(config: RunConfig, out: Path) -> list[Path]:
    theta, _ = _theta_from(config)
    mode = config.get("mode", "simultaneous")
    limit = config.require("limit")
    budget = config.get("budget", DEFAULT_BUDGET)
    if mode == "simultaneous":
        records = bestapprox.best_simultaneous(theta, limit, budget=budget)
    else:
        records = bestapprox.best_linear(theta, limit, budget=budget)
    csv_path = out / "approx.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "height", "witness", "error_lo", "error_hi",
                    "error_exact"])
        for r in records:
            w.writerow([r.index, r.height, " ".join(map(str, r.witness)),
                        _dec(r.value.lo), _dec(r.value.hi),
                        str(r.value.lo) if r.value.is_exact else ""])
    plot = out / "approx.dat"
    emit_plot_data(records, plot)
    return [csv_path, plot]


def _series_csv(report, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "term_lo", "term_hi", "partial_lo", "partial_hi",
                    "term_exact_lo", "term_exact_hi"])
        for (n, t), s in zip(report.terms, report.partial_sums):
            w.writerow([n, _dec(t.lo), _dec(t.hi), _dec(s.lo), _dec(s.hi), t.lo, t.hi])


def _run_criteria(config: RunConfig, out: Path) -> list[Path]:
    series = config.require("series")
    theta, state = _theta_from(config)
    outputs = []
    if series == "type":
        limsup, liminf = criteria.type_evidence(
            theta, config.require("tau"), config.require("mode"),
            config.require("depth"))
        for ev in (limsup, liminf):
            p = out / f"type_{ev.kind}.dat"
            emit_plot_data(ev, p)
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
        n_terms = config.require("n_terms")
        report = criteria.series_thm5(
            state.refined_theta(), state.linear_witnesses(), n_terms)
    elif series == "prop32":
        n_terms = config.require("n_terms")
        report = criteria.series_prop32(
            state.refined_theta(), state.denominators, n_terms)
    elif series == "lemma22":
        report = criteria.series_lemma22(
            theta, config.require("k_max"), config.require("delta"))
    else:
        report = criteria.dyadic_condition_iii(theta, config.require("k_max"))
    csv_path = out / "series.csv"
    _series_csv(report, csv_path)
    plot = out / "series.dat"
    emit_plot_data(report, plot)
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


def _run_construct(config: RunConfig, out: Path) -> list[Path]:
    steps = config.require("steps")
    a_fn = _seq_fn(config.require("a"))
    h0 = _heights(config.require("h0"), a_fn, steps + 2)
    state = build_theta(a_fn, h0, steps)
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
    if config.get("verify", True):
        report = verify_construction(state)
        report_path = out / "verify_report.txt"
        report_path.write_text("\n".join(report.to_lines()) + "\n")
        outputs.append(report_path)
        if not report.ok:
            raise DomainError(
                "construction verification failed: "
                + "; ".join(c.name for c in report.failed()))
    return outputs


def _run_simulate(config: RunConfig, out: Path) -> list[Path]:
    theta, _ = _theta_from(config)
    orbit_cfg = OrbitConfig(
        theta=theta,
        delta=config.require("delta"),
        n_max=config.require("n_max"),
        samples=config.get("samples", 1),
        seed=config.get("seed", 0),
        precision_bits=config.get("precision_bits", 128),
    )
    if "window" in config.values:
        lo, hi = config.values["window"]
        est = bc_window_estimate(orbit_cfg, (lo, hi))
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
    census = hit_census(orbit_cfg, config.get("n_lo", 1))
    csv_path = out / "census.csv"
    write_census_csv(census, csv_path)
    summary = out / "summary.json"
    write_summary_json(census, summary)
    return [csv_path, summary]


def _run_transfer(config: RunConfig, out: Path) -> list[Path]:
    theta, _ = _theta_from(config)
    budget = config.get("budget", DEFAULT_BUDGET)
    rows = []
    for h in config.require("h"):
        rep = criteria.transfer_check(theta, h, budget=budget)
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


def _run_verify(config: RunConfig, out: Path) -> list[Path]:
    state = ConstructionState.from_text(
        Path(config.require("transcript")).read_text())
    report = verify_construction(state, config.get("bruteforce_depth"))
    path = out / "verify_report.txt"
    path.write_text("\n".join(report.to_lines()) + "\n")
    if not report.ok:
        raise DomainError(
            "verification failed: " + "; ".join(c.name for c in report.failed()))
    return [path]


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
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    outputs = _RUNNERS[config.command](config, out)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shrinktarget",
        description="Certified experiments with shrinking targets on torus "
                    "translations.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(json.dumps({"error": "ConfigError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
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

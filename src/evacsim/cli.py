"""Command-line surface.

Subcommands: validate, gen-population, simulate, sweep, analyze, series,
emit-demo. Exit codes: 0 success, 1 bad input, 2 internal invariant
violation. Data goes to stdout or files; diagnostics go to stderr. Every
invocation is reproducible byte for byte given the same inputs and seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import engine, geo, population, risk, stats, sweep as sweep_mod, worldgen
from .errors import InputError, InternalError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2

ASSET_DIR_ENV = "EVACSIM_ASSET_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1, not 2."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        raise InputError(message)


# flag -> (EngineParams field it sets, help). The field's default value
# gives the flag its type and default.
_ENGINE_FLAGS = {
    "--rescuers": ("nb_rescuers", "number of rescuer agents"),
    "--rescuer-radius": ("rescuer_radius", "rescuer perception radius, m"),
    "--shelter-radius": ("shelter_radius", "shelter manager perception radius, m"),
    "--household-speed": ("household_speed", "walking speed, m/s"),
    "--rescuer-speed": ("rescuer_speed", "rescuer speed, m/s"),
    "--tick-seconds": ("tick_seconds", "simulated seconds per tick"),
    "--max-ticks": ("max_ticks", "hard stop for a run"),
    "--fallback-min": ("fallback_tick_min",
                       "earliest tick for the non-rescuer information channel"),
    "--fallback-max": ("fallback_tick_max",
                       "latest tick for the non-rescuer information channel"),
    "--fallback-friends-prob": ("fallback_friends_prob",
                                "probability the fallback warning comes from friends (else media)"),
    "--epsilon-min": ("epsilon_min", "lower bound of the bounded-rationality draw"),
    "--epsilon-max": ("epsilon_max", "upper bound of the bounded-rationality draw"),
}


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    defaults = engine.EngineParams()
    for flag, (field, help_text) in _ENGINE_FLAGS.items():
        default = getattr(defaults, field)
        p.add_argument(flag, dest=field, type=type(default), default=default, help=help_text)


def _scenario_from_args(args: argparse.Namespace) -> risk.Scenario:
    if args.raw:
        try:
            storm_code = float(args.storm)
            rain_code = float(args.rain)
            time_code = float(args.time)
        except ValueError:
            raise InputError("--raw expects numeric codes for --storm/--rain/--time") from None
        return risk.Scenario(storm_code, rain_code, time_code)
    try:
        storm_level = int(args.storm)
    except ValueError:
        raise InputError(f"--storm expects a PSWS level 1-3, got {args.storm!r}") from None
    rain = args.rain.lower()
    tod = {"day": "daytime", "night": "nighttime"}.get(args.time.lower(), args.time.lower())
    return risk.Scenario.from_names(storm_level, rain, tod)


def _weights_from_arg(text: str) -> risk.Weights:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("--weights expects w_cdm,w_hrf,w_crf")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        raise InputError(f"--weights expects three floats, got {text!r}") from None
    return risk.Weights(*values)


def _params_from_args(args: argparse.Namespace) -> engine.EngineParams:
    return engine.EngineParams(**{field: getattr(args, field)
                                  for field, _ in _ENGINE_FLAGS.values()})


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write text to a temporary file next to path, then rename it over path,
    so a write that fails partway leaves path as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    created = False
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            created = True
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from exc
        raise


def _cmd_validate(args: argparse.Namespace) -> int:
    world = geo.load_world(args.world)
    print(
        f"ok: {len(world.nodes)} nodes, {len(world.edges)} edges, "
        f"{len(world.buildings)} buildings, {len(world.waterways)} waterways, "
        f"{len(world.internal_shelters())} internal shelters, "
        f"{len(world.external_shelters())} external shelters, "
        f"{len(world.rescuer_starts)} rescuer starts"
    )
    return EXIT_OK


def _cmd_gen_population(args: argparse.Namespace) -> int:
    world = geo.load_world(args.world)
    if args.spec:
        spec = population.parse_population_spec(_read(args.spec, "population spec"))
    else:
        spec = population.default_population_spec(count=args.count)
    profiles = population.synthesize(spec, world, args.seed)
    _write(args.out, population.serialize_population(profiles))
    print(f"wrote {len(profiles)} households to {args.out}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    world = geo.load_world(args.world)
    profiles = population.load_population(args.population, world)
    scenario = _scenario_from_args(args)
    weights = _weights_from_arg(args.weights)
    cfg = engine.RunConfig(scenario, weights, args.threshold, args.seed)
    index = engine.WorldIndex(world, profiles, _params_from_args(args))
    result = engine.run(index, cfg, collect_events=bool(args.out_events))
    if args.out_summary:
        row = sweep_mod.SweepRow(
            combo_index=0, replicate=0, seed=args.seed,
            storm=scenario.storm_level, rainfall=scenario.rainfall_severity,
            time_of_day=scenario.time_of_day, threshold=args.threshold,
            w_cdm=weights.w_cdm, w_hrf=weights.w_hrf, w_crf=weights.w_crf,
            evacuated=result.evacuated, ticks=result.ticks_elapsed,
            truncated=result.truncated,
        )
        _write(args.out_summary, sweep_mod.rows_to_csv([row]))
    if args.out_events:
        _write(args.out_events, engine.event_log_csv(result.events or []))
    if args.out_series:
        lines = ["tick,evacuated_so_far"]
        lines += [f"{i + 1},{v}" for i, v in enumerate(result.time_series)]
        _write(args.out_series, "\n".join(lines) + "\n")
    shelter_part = " ".join(
        f"shelter{sid}={count}" for sid, count in sorted(result.sheltered_by_shelter.items())
    )
    print(
        f"evacuated={result.evacuated} stayed={result.stayed} "
        f"ticks={result.ticks_elapsed} truncated={'true' if result.truncated else 'false'} "
        f"seed={args.seed} {shelter_part}"
    )
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    world = geo.load_world(args.world)
    profiles = population.load_population(args.population, world)
    spec = sweep_mod.parse_sweep_spec(_read(args.spec, "sweep spec"))
    rows = sweep_mod.execute(spec, world, profiles, _params_from_args(args),
                             workers=args.workers)
    _write(args.out, sweep_mod.rows_to_csv(rows))
    truncated = sum(1 for r in rows if r.truncated)
    print(f"wrote {len(rows)} rows to {args.out} (truncated runs: {truncated})")
    return EXIT_OK


def _read_rows(path: str) -> list[sweep_mod.SweepRow]:
    return sweep_mod.rows_from_csv(_read(path, "results file"))


def _cmd_analyze(args: argparse.Namespace) -> int:
    rows = _read_rows(args.infile)
    report = stats.sensitivity(rows, mode=args.mode)
    if args.csv:
        _write(args.csv, stats.report_to_csv(report))
    print(stats.report_to_text(report), end="")
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    rows = _read_rows(args.infile)
    scenario = _scenario_from_args(args)
    points = stats.series(
        rows,
        storm=scenario.storm_level,
        rainfall=scenario.rainfall_severity,
        time_of_day=scenario.time_of_day,
        threshold=args.threshold,
    )
    csv_text = stats.series_to_csv(points)
    if args.out:
        _write(args.out, csv_text)
        print(f"wrote {len(points)} series points to {args.out}")
    else:
        print(csv_text, end="")
    return EXIT_OK


def emit_demo_assets(directory: str) -> list[str]:
    """Write the demo world, default population spec, and default sweep spec."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create directory {directory}: {exc}") from exc
    world_path = os.path.join(directory, "village.world")
    pop_path = os.path.join(directory, "population.cfg")
    sweep_path = os.path.join(directory, "sweep.cfg")
    _write(world_path, geo.serialize_world(worldgen.build_demo_world()))
    _write(pop_path, population.serialize_population_spec(population.default_population_spec()))
    _write(sweep_path, sweep_mod.serialize_sweep_spec(sweep_mod.default_sweep_spec()))
    return [world_path, pop_path, sweep_path]


def _cmd_emit_demo(args: argparse.Namespace) -> int:
    paths = emit_demo_assets(args.dir)
    for p in paths:
        print(p)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="evacsim",
        description="Typhoon preemptive-evacuation simulator, sweep harness, and sensitivity analysis.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("validate", help="check a world file", formatter_class=fmt)
    p.add_argument("--world", required=True, help="world file to validate")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-population", help="synthesize a coded population CSV",
                       formatter_class=fmt)
    p.add_argument("--world", required=True, help="world file (buildings to assign)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec", default=None,
                        help="population spec file (default: built-in spec)")
    source.add_argument("--count", type=int, default=population.default_population_spec().count,
                        help="household count when no spec file is given")
    p.add_argument("--seed", type=int, default=42, help="sampling seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_population)

    p = sub.add_parser("simulate", help="run one simulation", formatter_class=fmt)
    p.add_argument("--world", required=True)
    p.add_argument("--population", required=True, help="population CSV")
    p.add_argument("--storm", default="1", help="PSWS level 1-3 (or raw code with --raw)")
    p.add_argument("--rain", default="yellow", help="rainfall advisory: yellow/orange/red")
    p.add_argument("--time", default="daytime", help="day/daytime or night/nighttime")
    p.add_argument("--raw", action="store_true",
                   help="interpret --storm/--rain/--time as raw numeric codes")
    p.add_argument("--threshold", type=float, default=0.7, help="evacuation decision threshold")
    p.add_argument("--weights", default="0.1,0.1,0.1", help="w_cdm,w_hrf,w_crf")
    p.add_argument("--seed", type=int, default=1, help="run seed")
    p.add_argument("--out-summary", default=None, help="write a one-row summary CSV here")
    p.add_argument("--out-events", default=None, help="write the event log CSV here")
    p.add_argument("--out-series", default=None, help="write the per-tick series CSV here")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run the batch experiment grid", formatter_class=fmt)
    p.add_argument("--spec", required=True, help="sweep spec file")
    p.add_argument("--world", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes (output is identical for any count)")
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("analyze", help="OLS sensitivity report from sweep results",
                       formatter_class=fmt)
    p.add_argument("--in", dest="infile", required=True, help="sweep results CSV")
    p.add_argument("--mode", default="drop-one-weight", choices=list(stats.SENSITIVITY_MODES),
                   help="collinearity handling for the weight columns")
    p.add_argument("--csv", default=None, help="also write the report as CSV here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("series", help="plot-data extraction for one scenario+threshold slice",
                       formatter_class=fmt)
    p.add_argument("--in", dest="infile", required=True, help="sweep results CSV")
    p.add_argument("--storm", default="2", help="PSWS level (or raw code with --raw)")
    p.add_argument("--rain", default="orange")
    p.add_argument("--time", default="nighttime")
    p.add_argument("--raw", action="store_true")
    p.add_argument("--threshold", type=float, default=0.8)
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("emit-demo", help="write demo world and default spec files",
                       formatter_class=fmt)
    p.add_argument("--dir", default=os.environ.get(ASSET_DIR_ENV, "assets"),
                   help=f"target directory (env {ASSET_DIR_ENV} overrides)")
    p.set_defaults(func=_cmd_emit_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_INPUT
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:  # pragma: no cover - unexpected crash is an internal bug
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

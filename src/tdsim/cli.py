"""Command-line front end: simulate | ode | bifurcate | converge | validate.

Every command writes one dataset file, CSV by default ('#'-prefixed header
lines carrying the full configuration, then one row per record) or JSON
(an object with "config", "columns" and "rows" mirroring the CSV schema).
Every float cell is ``repr`` of the float64, its shortest round-trip form,
so a rerun with the same configuration and seed reproduces the file byte
for byte.  Each format has one layout and one speller of cells, and
writes the rows in blocks of :data:`WRITE_BLOCK_ROWS`, so the whole text is
never held in memory.  `simulate` streams its rows: the writer takes the
sampler's float tables (:class:`tdsim.jump.Records`) as they are recorded,
so no run holds its whole path.  `ode` hands the writer one float array.
Float rows are spelled once per distinct value of a column in a block; the
other commands' rows of mixed cells are spelled cell by cell.  An existing
regular file at the output path is replaced by a new file, not truncated
in place, so a hard link to the old dataset keeps its bytes; a symlink or a
device is written through.  A dataset whose writing fails is removed, so no
partial file is left.

Exit codes: 0 success, 1 runtime or check failure, 2 configuration error
(the message names the offending field).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
from dataclasses import replace

import numpy as np

from . import __version__, analysis, jump, micro, ode
from .model import DensityState, LoopSpec


# Largest number of points a start:stop:step grid may expand to.
MAX_GRID_POINTS = 10_000
# Largest t_end / sample_dt, and t_end / step for rk4, that `ode` accepts, and
# largest t_end / analysis.REFERENCE_SAMPLE_DT that `converge` accepts.
MAX_ODE_NODES = 1_000_000
# Rows formatted and written at a time when a table goes out.
WRITE_BLOCK_ROWS = 4096


class ConfigError(ValueError):
    """A bad configuration value; the message names the offending field."""


def _parse_grid(text: str) -> list[float]:
    """Grid spec: 'start:stop:step', a comma list, or a single value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid: expected start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
        if step <= 0 or not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError("grid: step must be positive and bounds finite")
        span = (stop - start) / step + 1e-9
        if span >= MAX_GRID_POINTS:
            raise ConfigError(f"grid: more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        values = [round(start + i * step, 12) for i in range(count)]
    else:
        try:
            values = [float(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from None
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError("grid: must be non-empty and finite")
    return values


def _parse_x0(args, k: int) -> tuple[float, ...]:
    """``--x0`` as k densities; 1/2 each if absent, recorded as if given."""
    if args.x0 is None:
        args.x0 = ",".join(["0.5"] * k)
    try:
        vals = tuple(float(p) for p in args.x0.split(","))
    except ValueError as exc:
        raise ConfigError(f"x0: {exc}") from None
    if len(vals) != k:
        raise ConfigError(f"x0: expected {k} comma-separated values, got {len(vals)}")
    if any(not math.isfinite(v) or v < 0 or v > 1 for v in vals):
        raise ConfigError("x0: entries must be finite and in [0, 1]")
    return vals


def _resolve_kappa(values: list[str] | None, J: float, k: int) -> tuple[float, ...]:
    if not values or (len(values) == 1 and values[0] == "half-J"):
        return (J / 2.0,) * k
    try:
        floats = [float(v) for part in values for v in part.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"kappa: {exc}") from None
    return tuple(floats)


def _build_spec(args) -> LoopSpec:
    kappa = _resolve_kappa(args.kappa, args.J, args.k)
    try:
        return LoopSpec(J=args.J, delta=args.delta, kappa=kappa, N=args.N, k=args.k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_rates(spec: LoopSpec):
    """The sampler's range of N and of rates, before any event is drawn."""
    try:
        jump._check_rates(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_t_end(t_end: float):
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ConfigError("t-end: must be finite and non-negative")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:  # SeedSequence takes non-negative integers only
            raise ConfigError("seed: must be a non-negative integer")
        return args.seed
    seed = secrets.randbelow(2**63)
    print(f"seed = {seed}", file=sys.stderr)
    return seed


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain shortest-repr even for numpy scalars
    return str(value)


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it: ``repr``, or NaN / Infinity / -Infinity."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if value != value else ("Infinity" if value > 0 else "-Infinity")


# The spellers of the two formats: the cells of a sequence of values.  A
# float is tested for inline, so the cells of a float array cost one
# ``repr`` or :func:`_json_float` each, with no further call.
def _csv_cells(values) -> list[str]:
    """CSV cells: :func:`_fmt` of each value."""
    return [repr(v) if type(v) is float else _fmt(v) for v in values]


def _json_cells(values) -> list[str]:
    """JSON cells as ``json.dumps`` writes them: a float through
    :func:`_json_float`, anything else through ``json.dumps`` itself."""
    return [_json_float(v) if type(v) is float else json.dumps(v) for v in values]


def _row_blocks(tables):
    """The rows of a stream of float tables, :data:`WRITE_BLOCK_ROWS` at a
    time (the last block may be shorter), each block as the list of table
    pieces that make it up.  Pieces are views, so a block that lies in one
    table is never copied."""
    pieces, held = [], 0
    for table in tables:
        while len(table):
            take = WRITE_BLOCK_ROWS - held
            pieces.append(table[:take])
            held += len(pieces[-1])
            table = table[take:]
            if held == WRITE_BLOCK_ROWS:
                yield pieces
                pieces, held = [], 0
    if pieces:
        yield pieces


def _cell_blocks(rows, spell):
    """The cells of ``rows`` as text, :data:`WRITE_BLOCK_ROWS` rows at a time.

    Each block is an iterable of rows of cells, from ``spell`` (a sequence
    of values to their cells).  A list of rows is spelled row by row.  A
    float array, or a stream of them, is regrouped by :func:`_row_blocks`;
    only rows that straddle two tables are copied.  Each block is spelled
    once per distinct bit pattern of a column; keying on bits keeps -0.0
    apart from 0.0 and every nan payload apart.
    """
    if isinstance(rows, list):
        for start in range(0, len(rows), WRITE_BLOCK_ROWS):
            yield map(spell, rows[start:start + WRITE_BLOCK_ROWS])
        return
    for pieces in _row_blocks([rows] if isinstance(rows, np.ndarray) else rows):
        block = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        columns = []
        for column in np.ascontiguousarray(block, dtype=np.float64).view(np.uint64).T:
            distinct, inverse = np.unique(column, return_inverse=True)
            spelled = np.array(spell(distinct.view(np.float64).tolist()), dtype=object)
            columns.append(spelled[inverse].tolist())
        yield zip(*columns)


def _csv_blocks(rows):
    """The CSV data lines of ``rows``, as newline-terminated blocks of text."""
    for cells in _cell_blocks(rows, _csv_cells):
        yield "\n".join(map(",".join, cells)) + "\n"


def _json_rows(rows):
    """The ``"rows"`` array of the JSON dataset, as blocks of text.

    The text equals that of one ``json.dumps`` with ``indent=1`` over the
    whole payload, where the array sits one level deep, with cells from
    :func:`_json_cells`; ``[]`` if no row arrives.
    """
    opening = "[\n"
    for cells in _cell_blocks(rows, _json_cells):
        yield opening + ",\n".join("  [\n   " + ",\n   ".join(row) + "\n  ]" for row in cells)
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n ]"


def _regular_file(path: str) -> bool:
    """Whether ``path`` names a regular file itself, not a link, device or
    directory: the only kind :func:`write_dataset` removes."""
    return os.path.isfile(path) and not os.path.islink(path)


def write_dataset(
    path: str,
    config: dict,
    columns: list[str],
    rows,
    fmt: str,
    footer: dict | None = None,
):
    """Emit one dataset; ``footer`` entries land after the rows (CSV) or in
    the config object (JSON), and re-parse into config either way.

    ``rows`` is a list of rows, an ``(M, len(columns))`` float array, or an
    iterable of such arrays, each written as it arrives.  A regular file
    already at ``path`` is removed first, so the dataset goes to a new file
    (with default permissions) instead of truncating the old one in place:
    truncating a file that was just written can block until the kernel has
    flushed it (tens of milliseconds per rerun on ext4).  A hard link to
    the old file keeps its bytes; a symlink, or a device such as
    ``/dev/null``, is written through.  If writing raises, a regular file at
    ``path`` is removed before the error goes on, so no partial dataset is
    left.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: unknown format {fmt!r}")
    if _regular_file(path):
        os.remove(path)
    fh = open(path, "w")
    try:
        with fh:
            if fmt == "json":
                merged = dict(config, **(footer or {}))
                head = {"tdsim": __version__, "config": merged, "columns": columns, "rows": []}
                # Everything up to the rows array, which is the last value.
                fh.write(json.dumps(head, indent=1)[:-len("[]\n}")])
                fh.writelines(_json_rows(rows))
                fh.write("\n}\n")
                return
            fh.write(f"# tdsim {__version__}\n")
            for key, value in config.items():
                fh.write(f"# {key} = {_fmt(value)}\n")
            fh.write(",".join(columns) + "\n")
            fh.writelines(_csv_blocks(rows))
            for key, value in (footer or {}).items():
                fh.write(f"# {key} = {_fmt(value)}\n")
    except BaseException:
        if _regular_file(path):
            os.remove(path)
        raise


def read_dataset(path: str):
    """Parse a dataset file back into (config, columns, rows)."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return payload["config"], payload["columns"], payload["rows"]
    config: dict = {}
    columns: list[str] = []
    rows: list[list] = []
    for line in text.splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if " = " in body:
                key, raw = body.split(" = ", 1)
                config[key.strip()] = _parse_scalar(raw.strip())
            continue
        if not line.strip():
            continue
        if not columns:
            columns = line.split(",")
            continue
        rows.append([_parse_scalar(cell) for cell in line.split(",")])
    return config, columns, rows


def _parse_scalar(raw: str):
    if raw == "":
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _common_config(args, spec: LoopSpec, **extra) -> dict:
    config = {
        "command": args.command,
        "J": float(spec.J),
        "delta": float(spec.delta),
        "kappa": ",".join(repr(v) for v in spec.kappa),
        "N": spec.N,
        "k": spec.k,
    }
    config.update(extra)
    return config


def _path_columns(k: int) -> list[str]:
    """The columns of a path dataset: t, x_A, x_B, ..."""
    return ["t"] + [f"x_{chr(65 + i)}" for i in range(k)]


def cmd_simulate(args) -> int:
    spec = _build_spec(args)
    _check_rates(spec)
    _check_t_end(args.t_end)
    if args.thinning is not None and args.thinning < 1:
        raise ConfigError("thinning: must be >= 1")
    # A micro path records every event; a stride it cannot honour is refused.
    if args.level == "micro" and args.thinning not in (None, 1):
        raise ConfigError("thinning: the micro level records every event; use 1 or omit it")
    seed = _resolve_seed(args)
    x0 = _parse_x0(args, spec.k)
    state0 = DensityState.nearest(x0, spec.N)
    # The micro chain projects to the density process (see
    # micro.micro_simulate), so its path is the density path, every event kept.
    thinning = 1 if args.level == "micro" else args.thinning
    rows = jump.Records(spec, state0, args.t_end, seed, thinning)
    config = _common_config(
        args, spec, level=args.level, t_end=float(args.t_end), seed=seed, x0=args.x0
    )
    write_dataset(args.out, config, _path_columns(spec.k), rows, args.format)
    return 0


def cmd_ode(args) -> int:
    spec = _build_spec(args)
    _check_t_end(args.t_end)
    x0 = _parse_x0(args, spec.k)
    try:
        settings = ode.IntegratorSettings(
            method=args.method, step=args.step, rtol=args.rtol,
            atol=args.atol, sample_dt=args.sample_dt,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # Checked before integrating, so no node list or grid is ever built.
    if args.sample_dt is not None and args.t_end / args.sample_dt > MAX_ODE_NODES:
        raise ConfigError(f"sample-dt: t_end / sample_dt is above {MAX_ODE_NODES} nodes")
    if args.method == "rk4" and args.t_end / args.step > MAX_ODE_NODES:
        raise ConfigError(f"step: t_end / step is above {MAX_ODE_NODES} nodes")
    traj = ode.integrate(spec, np.array(x0), args.t_end, settings)
    config = _common_config(
        args, spec, t_end=float(args.t_end), x0=args.x0, method=args.method,
        step=float(args.step), rtol=float(args.rtol), atol=float(args.atol),
    )
    table = np.column_stack((traj.times, traj.states))
    write_dataset(args.out, config, _path_columns(spec.k), table, args.format)
    return 0


def cmd_bifurcate(args) -> int:
    grid = _parse_grid(args.grid)
    if not (0.0 <= args.delta <= 1.0):
        raise ConfigError("delta: must lie in [0, 1]")
    for J in grid:  # before the scan, so no point is classified
        try:
            LoopSpec.with_half_j(J, args.delta, N=1)
        except ValueError as exc:
            raise ConfigError(f"grid: J = {J!r}: {exc}") from None
    records = analysis.scan(grid, args.delta)
    config = {
        "command": args.command,
        "delta": float(args.delta),
        "grid": args.grid,
        "k": 3,
    }
    columns = [
        "J", "delta", "classification",
        "lambda1_re", "lambda1_im", "lambda2_re", "lambda2_im", "lambda3_re", "lambda3_im",
        "fp_low", "fp_mid", "fp_high", "orbit_min_A", "orbit_max_A",
    ]
    rows = []
    for rec in records:
        eig = rec.spectrum.eigenvalues
        fps = sorted(p[0] for p in rec.fixed_points)
        if len(fps) == 1:
            fp_cells = [None, fps[0], None]
        else:
            fp_cells = [fps[0], fps[1], fps[2]]
        rows.append(
            [rec.J, rec.delta, rec.classification]
            + [val for z in eig for val in (z.real, z.imag)]
            + fp_cells
            + [
                rec.orbit_min[0] if rec.orbit_min else None,
                rec.orbit_max[0] if rec.orbit_max else None,
            ]
        )
    write_dataset(args.out, config, columns, rows, args.format)
    return 0


def cmd_converge(args) -> int:
    if min(args.N_list) < 1:
        raise ConfigError("N: every reservoir size must be >= 1")
    if len(set(args.N_list)) < len(args.N_list):
        raise ConfigError("N: every reservoir size must be distinct")
    if args.replicas < 1:
        raise ConfigError("replicas: must be >= 1")
    _check_t_end(args.t_end)
    # The reference ODE is sampled every REFERENCE_SAMPLE_DT up to t_end.
    if args.t_end / analysis.REFERENCE_SAMPLE_DT > MAX_ODE_NODES:
        raise ConfigError(f"t-end: t_end / {analysis.REFERENCE_SAMPLE_DT!r} (the reference "
                          f"sample step) is above {MAX_ODE_NODES} nodes")
    seed = _resolve_seed(args)
    args.N = args.N_list[0]  # base spec; the sweep replaces N per entry
    base = _build_spec(args)
    for N in args.N_list:
        _check_rates(replace(base, N=N))
    x0 = _parse_x0(args, base.k)
    result = analysis.convergence_experiment(
        base, args.N_list, np.array(x0), args.t_end, args.replicas, seed
    )
    config = _common_config(
        args, base, t_end=float(args.t_end), seed=seed, x0=args.x0,
        replicas=args.replicas, N_list=",".join(str(n) for n in args.N_list),
    )
    columns = ["N", "median", "q25", "q75"]
    rows = [[row.N, row.median, row.q25, row.q75] for row in result.rows]
    footer = {"slope": result.slope} if result.slope is not None else None
    write_dataset(args.out, config, columns, rows, args.format, footer=footer)
    return 0


def _validate_checks(spec: LoopSpec, seed: int):
    """Run the verification battery; yields (name, residual, threshold, note),
    where a row without a threshold always has a note."""
    rng = jump._stream(seed)
    # Both exact micro checks enumerate configurations; the generator check
    # stops at the dense generator's limit, the residual at the enumeration
    # guards.
    refusal = micro._enumeration_refusal(spec, micro.GENERATOR_LIMIT)
    if refusal is None:
        # The difference and its abs are taken in place, so no third or
        # fourth matrix of this size is held; the generator frame would keep
        # ``gap`` through the later checks, hence the del.
        gap = micro.lumped_density_generator(spec)
        gap -= micro.density_generator(spec)
        res = float(np.abs(gap, out=gap).max())
        del gap
        yield "micro-macro generator equivalence", res, 1e-12, None
    else:
        yield "micro-macro generator equivalence", None, 1e-12, f"skipped ({refusal})"

    zero_spec = LoopSpec(J=0.0, delta=spec.delta, kappa=(0.0,) * 3, N=min(spec.N, 2), k=3)
    yield "reversibility residual at J=0", micro.reversibility_residual(zero_spec), 1e-12, None

    refusal = micro._enumeration_refusal(spec)
    if refusal is not None:
        yield "reversibility residual at config", None, None, f"skipped ({refusal})"
    else:
        res = micro.reversibility_residual(spec)
        yield "reversibility residual at config", res, None, f"info ({res:.3e})"

    from .model import jacobian, vector_field

    # Row j of the shifted batch is x +/- h e_j, so column j of fd is dF/dx_j.
    h = 1e-6
    shifts = h * np.eye(spec.k)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.05, 0.95, size=spec.k)
        fd = (vector_field(spec, x + shifts) - vector_field(spec, x - shifts)).T / (2 * h)
        worst = max(worst, float(np.max(np.abs(jacobian(spec, x) - fd))))
    yield "jacobian vs finite differences", worst, 1e-6, None

    r = analysis.rotation_matrix()
    yield "rotation orthonormality", float(np.max(np.abs(r.T @ r - np.eye(3)))), 1e-14, None

    worst = 0.0
    for J in (-2.0, 0.0, spec.J, 2.0, 3.0):
        for delta in (0.0, spec.delta, 0.5, 1.0):
            z = analysis.z_system(J, delta)
            spec_j = LoopSpec.with_half_j(J=J, delta=delta, N=1)
            numeric = r.T @ jacobian(spec_j, np.full(3, 0.5)) @ r
            worst = max(worst, float(np.max(np.abs(numeric - z))))
    yield "rotated linearization closed form", worst, 1e-10, None

    a = analysis.z_system(2.0, spec.delta)
    traj = ode.integrate_linear(a, np.array([0.6, -0.3, 0.2]), 10.0)
    r2 = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
    drift = float(np.max(np.abs(r2 - r2[0])) / r2[0])
    yield "radius conservation at J=2", drift, 1e-6, None


def cmd_validate(args) -> int:
    spec = _build_spec(args)
    seed = _resolve_seed(args)
    columns = ["check", "residual", "threshold", "status"]
    rows = []
    failed = False
    for name, residual, threshold, note in _validate_checks(spec, seed):
        if note is not None:
            status = note
        else:
            status = "pass" if residual <= threshold else "FAIL"
            failed = failed or status == "FAIL"
        rows.append([name, residual, threshold, status])
    config = _common_config(args, spec, seed=seed)
    write_dataset(args.out, config, columns, rows, args.format)
    for name, residual, threshold, status in rows:
        res = "" if residual is None else f" residual={residual:.3e}"
        print(f"{status:>8}  {name}{res}")
    return 1 if failed else 0


def _add_model_args(p: argparse.ArgumentParser, default_N: int, repeat_N: bool = False):
    p.add_argument("--J", type=float, default=1.0, help="coupling strength")
    p.add_argument("--delta", type=float, default=0.0, help="asymmetry in [0, 1]")
    p.add_argument(
        "--kappa", action="append", default=None,
        help="external field: 'half-J' (default), one value, or k comma-separated values",
    )
    if repeat_N:
        p.add_argument(
            "--N", type=int, action="append", default=None, dest="N_list",
            help="reservoir size; repeat for a sweep", required=True,
        )
    else:
        p.add_argument("--N", type=int, default=default_N, help="reservoir size per type")
    p.add_argument("--k", type=int, default=3, help="number of types on the cycle")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdsim",
        description="Feedback-cycle spin dynamics: simulation, fluid limits, bifurcations",
    )
    parser.add_argument("--version", action="version", version=f"tdsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a stochastic path")
    _add_model_args(p, default_N=100)
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--x0", default=None, help="k densities (default 0.5 each)")
    p.add_argument("--level", choices=("density", "micro"), default="density")
    p.add_argument("--thinning", type=int, default=None, help="record every n-th event")
    _add_output_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ode", help="integrate the deterministic limit")
    _add_model_args(p, default_N=100)
    p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p.add_argument("--x0", default=None, help="k densities (default 0.5 each)")
    p.add_argument("--method", choices=("rk4", "rk45"), default="rk45")
    defaults = ode.IntegratorSettings()
    p.add_argument("--step", type=float, default=defaults.step, help="rk4 step size")
    p.add_argument("--rtol", type=float, default=defaults.rtol)
    p.add_argument("--atol", type=float, default=defaults.atol)
    p.add_argument("--sample-dt", dest="sample_dt", type=float, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_ode)

    p = sub.add_parser("bifurcate", help="classification scan over a J grid")
    p.add_argument("--grid", required=True, help="J grid: start:stop:step or comma list")
    p.add_argument("--delta", type=float, default=0.0)
    _add_output_args(p)
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("converge", help="stochastic-to-deterministic distance vs N")
    _add_model_args(p, default_N=100, repeat_N=True)
    p.add_argument("--t-end", dest="t_end", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--x0", default=None, help="k densities (default 0.5 each)")
    p.add_argument("--replicas", type=int, default=100)
    _add_output_args(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("validate", help="run the internal consistency battery")
    _add_model_args(p, default_N=2)
    p.add_argument("--seed", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"tdsim: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"tdsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

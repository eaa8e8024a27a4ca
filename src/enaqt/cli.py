"""Command-line interface.

Subcommands: single (one efficiency evaluation), sweep (disorder x dephasing
grid with ensemble averaging), bound (invariant-subspace efficiency bound),
trajectory (time series of trap observables), delta-max (disorder gain per
dephasing rate, from a sweep CSV). All quantities are in units of the
nearest-neighbour coupling V; output is plain CSV with a header row.
Every subcommand is deterministic given its flags and seed.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from . import analysis, dynamics, ensemble, graph, model

SINGLE_CSV_HEADER = ("delta_eps,gamma_phi,kappa,gamma_recomb,"
                     "eta,eta_loss,residual_trace,method,horizon")
TRAJECTORY_CSV_HEADER = "t,re_rho11,im_rho12,im_rho13,trace"
PURE_CSV_HEADER = "t,re_psi1,im_psi2,im_psi3,norm_sq"
DELTA_MAX_CSV_HEADER = "gamma_phi,delta_max,best_disorder,stderr"
CLUSTER_CSV_HEADER = "cluster,energy,multiplicity,trap_overlap"

# --graph family: the flag that sizes or names it, and the name of its
# builder in graph, looked up at call time as bench/tracing.py wraps it there
_GRAPHS = {graph.BINARY_TREE: ("--generations", "build_binary_tree"),
           graph.HYPERCUBE: ("--dimension", "build_hypercube"),
           graph.CUSTOM: ("--edge-file", "load_edge_list")}
_SOLVERS = ("liouvillian", "timestepping")


@contextlib.contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _write_csv(path, header: str, rows) -> None:
    with _open_out(path) as fh:
        ensemble.write_csv(fh, header, rows)


def _print_values(names, values) -> None:
    for name, value in zip(names, values):
        print(f"{name} = {ensemble.format_cell(value)}")


def _at_least(low, kind=float):
    """An argparse type: a finite number of the given kind (float or int) >= low."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be {'finite and ' * (kind is float)}>= {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _trap(text: str) -> str | int:
    """--trap: 'root', or a 0-based site index that the problem checks."""
    try:
        return text if text == "root" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'root' or a site index, got {text!r}") from None


def _grid_spec(text: str) -> tuple[float, ...]:
    try:
        return ensemble.parse_grid_values(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    # --graph may also come from a sweep config, so _grid checks it
    p.add_argument("--graph", choices=list(_GRAPHS), help="transport graph family")
    p.add_argument("--generations", type=_at_least(1, int),
                   help="binary tree generations (g >= 1)")
    p.add_argument("--dimension", type=_at_least(1, int),
                   help="hypercube dimension (d >= 1)")
    p.add_argument("--edge-file",
                   help="custom graph file: first line N, then 0-based 'i j' lines")
    p.add_argument("--init", choices=(model.LEAF_MIXTURE, model.UNIFORM_MIXTURE,
                                      model.SINGLE_SITE),
                   help="initial state: statistical mixture of tree leaves, "
                        "uniform mixture of all sites, or a single site "
                        "(default: leaves on trees, uniform otherwise)")
    p.add_argument("--init-site", type=_at_least(0, int),
                   help="0-based site index for --init site")
    p.add_argument("--trap", type=_trap,
                   help="trap placement: 'root' (trees) or a 0-based site index "
                        "(default: root on trees, 0 otherwise)")
    p.add_argument("--kappa", type=_at_least(0), default=1.0,
                   help="trapping rate kappa >= 0 (units of V, default 1)")
    p.add_argument("--gamma-recomb", type=_at_least(0), default=0.01,
                   help="uniform recombination rate Gamma >= 0 (default 0.01)")
    p.add_argument("--seed", type=_at_least(0, int),
                   default=ensemble.DEFAULT_MASTER_SEED,
                   help=f"master seed (default {ensemble.DEFAULT_MASTER_SEED})")


def _add_draw_args(p: argparse.ArgumentParser, dephasing: bool = True) -> None:
    p.add_argument("--disorder", type=_at_least(0), default=0.0,
                   help="site-energy disorder standard deviation (default 0)")
    p.add_argument("--realization", type=_at_least(0, int), default=0,
                   help="disorder realization index (default 0)")
    if dephasing:  # bound is a zero-dephasing statement
        p.add_argument("--dephasing", type=_at_least(0), default=0.0,
                       help="dephasing rate gamma_phi >= 0 (default 0)")


def _grid(args, parser, disorder_values, dephasing_values,
          n_realizations: int = 1) -> ensemble.SweepGrid:
    """The flags' problem on the given grids; what SweepGrid rejects is a flag error."""
    if args.graph is None:
        parser.error("--graph is required")
    flag, build = _GRAPHS[args.graph]
    value = getattr(args, flag[2:].replace("-", "_"))
    if value is None:
        parser.error(f"--graph {args.graph} requires {flag}")
    top = getattr(graph, build)(value)
    tree = top.kind == graph.BINARY_TREE
    if args.trap == "root" and not tree:
        parser.error("--trap root needs --graph binary-tree; give a site index")
    if getattr(args, "solver", None) == "liouvillian" and args.gamma_recomb == 0:
        parser.error("--gamma-recomb must be > 0 with --solver liouvillian")
    # the root of a tree is site 0 (heap label 1), as is the default trap
    try:
        return ensemble.SweepGrid(
            topology=top, disorder_values=disorder_values,
            dephasing_values=dephasing_values, n_realizations=n_realizations,
            initial_kind=args.init or (model.LEAF_MIXTURE if tree
                                       else model.UNIFORM_MIXTURE),
            initial_site=args.init_site,
            trap_site=0 if args.trap in (None, "root") else args.trap,
            trap_rate=args.kappa, recomb_rate=args.gamma_recomb,
            master_seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_single(args, parser) -> int:
    grid = _grid(args, parser, (args.disorder,), (args.dephasing,))
    res = dynamics.compute_efficiency(
        grid.initial_state(),
        grid.model(args.disorder, args.dephasing, args.realization),
        solver=args.solver)
    row = (args.disorder, args.dephasing, args.kappa, args.gamma_recomb,
           res.eta, res.eta_loss, res.residual_trace, res.method, res.horizon)
    # the result columns, from eta on, are also printed
    _print_values(SINGLE_CSV_HEADER.split(",")[4:], row[4:])
    if args.output:
        _write_csv(args.output, SINGLE_CSV_HEADER, [row])
    return 0


def _cmd_sweep(args, parser) -> int:
    grid = _grid(args, parser, args.disorder_grid, args.dephasing_grid, args.realizations)
    table = ensemble.run_sweep(grid, n_workers=args.workers, solver=args.solver)
    with _open_out(args.output) as fh:
        table.to_csv(fh)
    if table.failures:
        print(f"{len(table.failures)} job(s) failed:", file=sys.stderr)
        for line in table.failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_bound(args, parser) -> int:
    # the bound is a zero-dephasing statement: energies of cell (disorder, 0)
    grid = _grid(args, parser, (args.disorder,), (0.0,))
    mdl = grid.model(args.disorder, 0.0, args.realization)
    h = model.assemble_system_hamiltonian(grid.topology, mdl.site_energies)
    sub = analysis.invariant_subspace(h, grid.trap_site)
    bound = analysis.efficiency_upper_bound(sub, grid.initial_state())
    _print_values(("dimension", "bound"), (sub.dimension, bound))
    _write_csv(args.output, CLUSTER_CSV_HEADER,
               ((k, *cluster) for k, cluster in enumerate(sub.clusters)))
    return 0


def _trap_columns(traj, trap: int, nbrs) -> np.ndarray:
    """The trajectory CSV columns after t, shape (4, T): Re of the trap
    entry, Im of the entries at the first two neighbours (0 where there is
    none) and the trace. The entries come from the trap's row of rho, or
    from psi itself.
    """
    row = traj.states if traj.is_pure else traj.states[:, trap]
    zero = np.zeros(len(traj.times))
    ims = [row[:, nbrs[k]].imag if k < len(nbrs) else zero for k in range(2)]
    if traj.is_pure:
        trace = np.array([np.linalg.norm(psi) ** 2 for psi in traj.states])
    else:
        trace = np.einsum("tii->t", traj.states).real
    return np.array([row[:, trap].real, *ims, trace])


def _dump_full_state(path, traj) -> None:
    n = traj.states.shape[1]
    names = ([f"psi_{i}" for i in range(n)] if traj.is_pure
             else [f"rho_{i}_{j}" for i in range(n) for j in range(n)])
    # interleaved (re, im) of each component; .view(float) needs C order
    flat = np.ascontiguousarray(
        traj.states.reshape(len(traj.times), -1)).view(float)
    _write_csv(path, "t," + ",".join(f"{c}_re,{c}_im" for c in names),
               ((t, *values) for t, values in zip(traj.times, flat)))


def _cmd_trajectory(args, parser) -> int:
    grid = _grid(args, parser, (args.disorder,), (args.dephasing,))
    if not 0 < args.t_final < math.inf:
        parser.error("--t-final must be finite and > 0")
    if args.full_state and args.realizations != 1:
        parser.error("--full-state requires --realizations 1")
    trap = grid.trap_site
    nbrs = graph.neighbors(grid.topology, trap)[:2]
    if args.pure:
        if args.dephasing != 0.0:
            parser.error("--pure requires --dephasing 0 "
                         "(pure states do not close under dephasing)")
        if args.realizations != 1:
            parser.error("--pure does not support ensemble averaging")
        if grid.initial_kind != model.SINGLE_SITE:
            parser.error("--pure requires --init site")
        mdl = grid.model(args.disorder, args.dephasing, args.realization)
        psi0 = np.zeros(grid.topology.n_sites, dtype=complex)
        psi0[grid.initial_site] = 1.0
        traj = dynamics.propagate_pure(psi0, mdl, args.t_final, args.points)
        header, columns = PURE_CSV_HEADER, _trap_columns(traj, trap, nbrs)
    else:
        rho0 = grid.initial_state()
        # at zero disorder every draw is the same model, as in a sweep cell
        n_real = args.realizations if args.disorder else 1
        columns = 0.0
        for r in range(n_real):
            # ensemble averages run draws 0..n-1; a single run honors --realization
            mdl = grid.model(args.disorder, args.dephasing,
                             r if n_real > 1 else args.realization)
            traj = dynamics.propagate(rho0, mdl, args.t_final, args.points)
            columns = columns + _trap_columns(traj, trap, nbrs)
        header, columns = TRAJECTORY_CSV_HEADER, columns / n_real
    _write_csv(args.output, header, zip(traj.times, *columns))
    if args.full_state:  # one draw: --full-state requires --realizations 1
        _dump_full_state(args.full_state, traj)
    return 0


def _cmd_delta_max(args, parser) -> int:
    with open(args.input, encoding="utf-8") as fh:
        table = ensemble.SweepTable.from_csv(fh)
    gains = (analysis.max_disorder_gain(table, g) for g in table.dephasing_values())
    _write_csv(args.output, DELTA_MAX_CSV_HEADER,
               ((d.gamma_phi, d.gain, d.best_disorder, d.stderr) for d in gains))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enaqt",
        description="Energy-transport efficiency of a single excitation on "
                    "tight-binding networks with dephasing, uniform loss and "
                    "a trap. All rates and times are in units of the "
                    "nearest-neighbour coupling V (hbar = 1).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("single", help="one efficiency evaluation")
    p.set_defaults(run=_cmd_single, parser=p)
    _add_problem_args(p)
    _add_draw_args(p)
    p.add_argument("--solver", choices=_SOLVERS, default=_SOLVERS[0])
    p.add_argument("--output", help="also write a CSV row ('-' for stdout)")

    p = sub.add_parser("sweep", help="(disorder x dephasing) ensemble sweep")
    p.set_defaults(run=_cmd_sweep, parser=p)
    p.add_argument("--config", help="key = value file; flags override it")
    _add_problem_args(p)
    p.add_argument("--disorder-grid", type=_grid_spec,
                   default=ensemble.default_disorder_grid(),
                   help="grid spec: a:b:step or comma list")
    p.add_argument("--dephasing-grid", type=_grid_spec,
                   default=ensemble.default_dephasing_grid(),
                   help="grid spec: a:b:step, log:a:b:count, or comma list")
    p.add_argument("--realizations", type=_at_least(1, int), default=100,
                   help="disorder realizations per cell (default 100)")
    p.add_argument("--solver", choices=_SOLVERS, default=_SOLVERS[0])
    p.add_argument("--workers", type=_at_least(1, int), default=1,
                   help="parallel worker processes (default 1)")
    p.add_argument("--output", default="-", help="sweep CSV path (default stdout)")

    p = sub.add_parser("bound", help="invariant-subspace efficiency bound "
                                     "(zero dephasing)")
    p.set_defaults(run=_cmd_bound, parser=p)
    _add_problem_args(p)
    _add_draw_args(p, dephasing=False)
    p.add_argument("--output", default="-",
                   help="cluster-structure CSV (default stdout)")

    p = sub.add_parser("trajectory", help="time series of trap observables")
    p.set_defaults(run=_cmd_trajectory, parser=p)
    _add_problem_args(p)
    _add_draw_args(p)
    p.add_argument("--t-final", type=float, default=50.0,
                   help="time window in 1/V units (default 50)")
    p.add_argument("--points", type=_at_least(2, int), default=2000,
                   help="uniform output points (default 2000)")
    p.add_argument("--pure", action="store_true",
                   help="propagate amplitudes of a pure state instead of the "
                        "density matrix (needs --init site and --dephasing 0)")
    p.add_argument("--realizations", type=_at_least(1, int), default=1,
                   help="average observables over this many disorder draws")
    p.add_argument("--output", default="-", help="trajectory CSV (default stdout)")
    p.add_argument("--full-state",
                   help="also dump every state component to this CSV "
                        "(single realization only)")

    p = sub.add_parser("delta-max",
                       help="disorder gain per dephasing rate from a sweep CSV")
    p.set_defaults(run=_cmd_delta_max, parser=p)
    p.add_argument("--input", required=True, help="sweep CSV produced by 'sweep'")
    p.add_argument("--output", default="-", help="output CSV (default stdout)")

    return parser


# sweep config keys whose flag is not "--" + the key with "-" for "_"
_CONFIG_FLAGS = {"disorder_values": "--disorder-grid",
                 "dephasing_values": "--dephasing-grid",
                 "n_realizations": "--realizations"}


def _config_flags(path) -> list[str]:
    """The lines of a sweep config file as flags."""
    return [f"{_CONFIG_FLAGS.get(key, '--' + key.replace('_', '-'))}={value}"
            for key, value in ensemble.load_sweep_config(path).items()]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            try:
                flags = _config_flags(args.config)
            except (OSError, ValueError) as exc:  # no file, a bad line or key
                args.parser.error(str(exc))
            # config lines go before the user's flags, so a flag wins
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        return args.run(args, args.parser)
    except (ValueError, KeyError, OSError, dynamics.SolverError,
            dynamics.IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

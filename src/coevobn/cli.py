"""Command-line interface.

Subcommands: random-net, sample, score, learn-ccga, learn-k2, compare,
enumerate, count-dags. Exit codes: 0 success, 1 runtime failure or other OS
error, 2 usage/validation error or an output path the user got wrong.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from functools import partial
from pathlib import Path

from .baselines import K2Config, count_dags, k2_learn, score_all_dags
from .bayesnet import (
    Dag,
    ancestral_sample,
    load_dataset,
    load_network,
    random_network,
    read_json,
    save_dataset,
    save_network,
    save_structure,
    write_dataset,
    write_network,
)
from .encoding import decode
from .errors import (
    CoevoBnError,
    EmptyDataError,
    ParseError,
    SchemaError,
    ValidationError,
    config_from_dict,
)
from .evolution import GaConfig, evolve, trace_csv
from .harness import ExperimentConfig, run_comparison, score_structure
from .scoring import fit_network

USAGE_ERRORS = (ValidationError, ParseError, SchemaError, EmptyDataError, FileNotFoundError,
                FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevobn",
        description="Bayesian network structure learning toolkit",
        allow_abbrev=False,
    )
    # no parser takes a prefix of a flag for the flag itself
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("random-net",
                       help="generate a synthetic ground-truth network")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--max-arity", type=int, default=2)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out-file", type=str, default=None)

    p = sub.add_parser("sample",
                       help="draw a dataset from a network by ancestral sampling")
    p.add_argument("--net", type=str, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out-file", type=str, default=None)

    p = sub.add_parser("score",
                       help="BDe log-score of a stored structure on a dataset")
    p.add_argument("--net", type=str, required=True)
    p.add_argument("--data", type=str, required=True)

    p = sub.add_parser("learn-ccga",
                       help="learn a structure with the coevolutionary GA")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of GaConfig fields")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: the config's seed, else 0)")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--fit-cpts", action="store_true",
                   help="with --out, also export the structure with "
                        "posterior-mean CPTs")

    p = sub.add_parser("learn-k2",
                       help="learn a structure with greedy K2 (random ordering)")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--max-parents", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--fit-cpts", action="store_true",
                   help="with --out, also export the structure with "
                        "posterior-mean CPTs")

    p = sub.add_parser("compare",
                       help="paired CCGA vs K2 experiment from a JSON config")
    p.add_argument("--config", type=str, required=True,
                   help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: the config's master_seed)")
    p.add_argument("--out", type=str, default=None,
                   help="output directory (default: the config's out_dir)")

    p = sub.add_parser("enumerate",
                       help="score every DAG on a dataset's variables (up to 5)")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out-file", type=str, default=None)

    p = sub.add_parser("count-dags",
                       help="exact number of labeled DAGs on n nodes")
    p.add_argument("n", type=int)

    return parser


def _check_out(out) -> None:
    """Refuse before any work an --out whose nearest existing path is not a directory."""
    if out is None:
        return
    path = Path(out).absolute()
    while not path.exists():  # a root always exists
        path = path.parent
    if not path.is_dir():
        raise NotADirectoryError(f"--out {out}: {path} is not a directory")


def _save_learned(args, prefix: str, data, dag: Dag, score: float,
                  trace=None) -> int:
    """Print the best score; with --out, write <prefix>_structure.json (and
    <prefix>_trace.csv when a trace is given), and with --fit-cpts also
    <prefix>_network.json. The CPTs are fitted before anything is written,
    so a structure that cannot be fitted leaves no files behind."""
    print(f"best_score={score:.6f}")
    if args.out is None:
        return 0
    network = fit_network(data, dag) if args.fit_cpts else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / f"{prefix}_structure.json"]
    save_structure(data.variables, dag, written[0])
    if trace is not None:
        written.append(out / f"{prefix}_trace.csv")
        written[1].write_text(trace_csv(trace.records), newline="")
    print("wrote " + " and ".join(map(str, written)))
    if network is not None:
        network_path = out / f"{prefix}_network.json"
        save_network(network, network_path)
        print(f"wrote {network_path}")
    return 0


def _cmd_random_net(args) -> int:
    net = random_network(args.nodes, args.max_arity, args.density, args.seed)
    if args.out_file:
        save_network(net, args.out_file)
        print(f"wrote {args.out_file} ({net.n} nodes, {net.dag.edge_count} edges)")
    else:
        write_network(net.variables, net.dag, sys.stdout, net.cpts)
    return 0


def _cmd_sample(args) -> int:
    net = load_network(args.net)
    data = ancestral_sample(net, args.rows, args.seed)
    if args.out_file:
        save_dataset(data, args.out_file)
        print(f"wrote {args.out_file} ({data.n_rows} rows)")
    else:
        write_dataset(data, sys.stdout)
    return 0


def _cmd_score(args) -> int:
    print(f"{score_structure(args.net, args.data):.6f}")
    return 0


def _cmd_learn_ccga(args) -> int:
    _check_out(args.out)
    data = load_dataset(args.data)
    doc = read_json(args.config) if args.config else {}
    cfg = config_from_dict(GaConfig, doc, "ga config")
    if args.seed is not None:
        cfg.seed = args.seed
    state, trace = evolve(data, cfg)
    best = state.best_so_far
    return _save_learned(args, "ccga", data, decode((best.perm, best.bits)),
                         best.log_score, trace)


def _cmd_learn_k2(args) -> int:
    _check_out(args.out)
    data = load_dataset(args.data)
    dag, score = k2_learn(data, K2Config(max_parents=args.max_parents,
                                         seed=args.seed))
    return _save_learned(args, "k2", data, dag, score)


def _cmd_compare(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    if args.out is not None:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.master_seed = args.seed
    report = run_comparison(cfg)
    for entry in report["results"]:
        p = entry["p_value_ccga_greater"]
        print(f"sample_size={entry['sample_size']} "
              f"ccga_mean={entry['ccga']['mean']:.6f} "
              f"k2_mean={entry['k2']['mean']:.6f} "
              f"p={'n/a' if p is None else format(p, '.6f')}")
    print(f"wrote {Path(cfg.out_dir) / 'report.json'}")
    return 0


def _cmd_enumerate(args) -> int:
    lines = ["dag,score"]
    for dag, score in score_all_dags(load_dataset(args.data)):
        spec = ";".join(",".join(map(str, ps)) for ps in dag.parents)
        lines.append(f"{spec},{score:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out_file:
        Path(args.out_file).write_text(text)
        print(f"wrote {args.out_file} ({len(lines) - 1} structures)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_count_dags(args) -> int:
    print(Decimal(count_dags(args.n)))  # str(int) stops at 4300 digits
    return 0


_COMMANDS = {
    "random-net": _cmd_random_net,
    "sample": _cmd_sample,
    "score": _cmd_score,
    "learn-ccga": _cmd_learn_ccga,
    "learn-k2": _cmd_learn_k2,
    "compare": _cmd_compare,
    "enumerate": _cmd_enumerate,
    "count-dags": _cmd_count_dags,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # options that do nothing without another one
        if getattr(args, "fit_cpts", False) and args.out is None:
            parser.error("--fit-cpts needs --out")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CoevoBnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()

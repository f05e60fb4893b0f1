"""Command-line front end.

Subcommands: ``compute``, ``distances``, ``build``, ``axioms``,
``alpha-bounds``, ``extremal``, ``counterexample``.  Each ends in
:func:`_emit`: a summary line on stdout, and the report in ``--out``, JSON by
default (``--format csv`` for tabular outputs) with the resolved configuration
embedded, so identical invocations produce byte-identical files.
Exit codes: 0 success, 1 domain error or unwritable ``--out``, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import builders
from .alpha_bounds import admissible_interval
from .axioms import run_suite
from .errors import NetpolarError, ValidationError
from .extremal import counterexample_search, verify_bipolar_max
from .graph import Network, geodesic_distances, network_from_dict
from .measures import MeasureParams, normalized_polarization, polarization


def parse_network_file(path: str | Path, allow_disconnected: bool = False) -> Network:
    """Load and validate a network JSON file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, over-long integers, deep nesting
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return network_from_dict(raw, allow_disconnected=allow_disconnected)


def _json(payload: dict, **lists: list[str]) -> str:
    """``json.dumps(payload | lists, indent=2, sort_keys=True)`` and a newline.

    Each keyword is a top-level list whose items arrive rendered as json renders
    them two levels deep; they replace a placeholder in one pass.
    """
    text = json.dumps({**payload, **dict.fromkeys(lists, 0)}, indent=2, sort_keys=True) + "\n"
    bodies = {encode_basestring_ascii(key): "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"
              for key, items in lists.items()}
    # a top-level key starts a line two spaces in: no rendered string holds a newline
    keys = "|".join(map(re.escape, bodies))
    return re.sub(f"^  ({keys}): 0", lambda m: f"  {m[1]}: {bodies[m[1]]}", text,
                  flags=re.M) if lists else text


def _emit(args: argparse.Namespace, summary: str, report: str) -> int:
    """Print the summary line and write ``report`` to ``--out`` if given; exit code 0."""
    print(summary)
    if args.out:
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"{args.out}: {exc.strerror or exc}") from exc
    return 0


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _cmd_compute(args) -> int:
    net = parse_network_file(args.network, args.allow_disconnected_longest_path)
    params = MeasureParams(K=args.K, alpha=args.alpha)
    if args.normalize:
        result = normalized_polarization(net, params)
        summary = f"value={result.value:.12g} normalized={result.normalized:.12g}"
    else:
        result = polarization(net, params)
        summary = f"value={result.value:.12g}"
    return _emit(args, summary, _json({"config": _config_echo(args), "result": result.to_dict()}))


def _cmd_distances(args) -> int:
    net = parse_network_file(args.network, args.allow_disconnected_longest_path)
    dist = geodesic_distances(net)
    summary = f"diameter={dist.diameter:.12g} pair={dist.diameter_pair}"
    if args.format == "csv":
        # each id as csv.writer writes a field: quoted if it holds a comma, a quote, CR or LF
        ids = ['"' + i.replace('"', '""') + '"' if any(c in i for c in ',"\r\n') else i
               for i in dist.ids]
        lines = ["," + ",".join(ids)]
        lines += [i + "," + ",".join(row)
                  for i, row in zip(ids, _float_texts(dist.d, "{:.12g}".format))]
        return _emit(args, summary, "\n".join(lines) + "\n")
    pair = list(dist.diameter_pair) if dist.diameter_pair else None
    payload = {"config": _config_echo(args), "order": list(dist.ids),
               "diameter": dist.diameter, "diameter_pair": pair}
    # the distances are finite, so each one renders as float.__repr__, as json does
    d = ["    [\n      " + ",\n      ".join(row) + "\n    ]"
         for row in _float_texts(dist.d, float.__repr__)]
    return _emit(args, summary, _json(payload, d=d))


def _float_texts(values: np.ndarray, render: Callable[[float], str]) -> list:
    """``render`` of each entry of the float64 array ``values``, as nested lists of its shape.

    ``render`` runs once per distinct value: a distance matrix holds each value
    at least twice, and a graph's weights and masses often repeat.  Values are
    told apart by their bits, so -0.0 and 0.0 keep their own texts.
    """
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(render, keys.view(float).tolist())), dtype=object)
    return texts[inverse.reshape(values.shape)].tolist()


BUILDERS = {  # kind -> (loader, builder)
    "line": (builders.load_mass_points_csv, builders.build_line),
    "complete": (builders.load_mass_points_csv,
                 lambda p: builders.build_complete_uniform([m for _, m in p.points])),
    "votes": (builders.load_votes_csv, builders.build_vote_hypercube),
    "reps": (builders.load_votes_csv, builders.build_representatives),
    "prefs": (builders.load_preferences_csv, builders.build_preference_kemeny),
    "lattice": (builders.load_mass_points_csv, builders.build_lattice),
    "cosponsor": (builders.load_votes_csv, builders.build_cosponsorship),
    "parties": (builders.load_votes_csv, builders.build_parties),
}
# kind -> (dest, flag, choices) of the one keyword option its builder reads;
# the first choice is the default
BUILD_OPTIONS = {
    "lattice": ("norm", "--norm", ("manhattan", "euclidean", "chebyshev")),
    "parties": ("tie_rule", "--tie-rule", ("strict-majority", "exclude-bill")),
}


def _network_json(net: Network) -> str:
    """``_json(network_to_dict(net))``, with the edges and nodes rendered column by column.

    Ids go through the string encoder json uses, and masses and weights are
    finite after validation, so each renders as float.__repr__, as json does;
    each distinct weight and mass is rendered once (:func:`_float_texts`).
    """
    ids = dict(zip(net.ids, map(encode_basestring_ascii, net.ids)))
    # itemgetter, not zip(*net.edges): zip's one iterator per edge would wake the
    # garbage collector for a full pass on a large network
    u, v, w = (map(itemgetter(k), net.edges) for k in range(3))
    edge = '    {\n      "u": %s,\n      "v": %s,\n      "w": %s\n    }'
    node = '    {\n      "id": %s,\n      "mass": %s\n    }'
    return _json({}, edges=_records(edge, list(map(ids.get, u)), list(map(ids.get, v)),
                                    _float_texts(np.fromiter(w, float, len(net.edges)),
                                                 float.__repr__)),
                 nodes=_records(node, list(ids.values()),
                                _float_texts(net.mass_vector(), float.__repr__)))


def _records(template: str, *columns: list[str]) -> list[str]:
    """``[template % row for row in zip(*columns)]`` as one ``_json`` list item.

    The item is the text ``_json`` would join from one item per record.
    Slicing each column into the repeated template costs one join in all,
    where formatting record by record costs one per record.
    """
    pieces = template.split("%s")
    parts = [s for piece in pieces[:-1] for s in (piece, "")] + [pieces[-1], ",\n"]
    parts *= len(columns[0])
    for j, column in enumerate(columns):
        parts[2 * j + 1::2 * len(columns) + 2] = column
    return ["".join(parts[:-1])] if columns[0] else []


def _cmd_build(args) -> int:
    load, build = BUILDERS[args.kind]
    dest = BUILD_OPTIONS.get(args.kind, (None,))[0]
    net = build(load(args.input), **({dest: getattr(args, dest)} if dest else {}))
    summary = f"nodes={net.n} edges={len(net.edges)} total_mass={net.total_mass:.12g}"
    return _emit(args, summary, _network_json(net))


def _cmd_axioms(args, usage_error) -> int:
    if args.c is not None and args.suite != "A3c":
        usage_error("argument --c: applies to --suite A3c only")
    report = run_suite(args.suite, alpha=args.alpha, count=args.samples, seed=args.seed,
                       c=args.c, K=args.K)
    summary = f"suite={report.axiom} samples={report.samples} failures={report.failures}"
    return _emit(args, summary, _json(asdict(report)))


def _cmd_alpha_bounds(args) -> int:
    intervals = [admissible_interval(c, tol=args.tol) for c in args.c_list]
    last = intervals[-1]
    lower = "none" if last.lower is None else f"{last.lower:.6g}"
    summary = f"c={last.c:g} alpha_lower={lower} alpha_upper={last.upper:.6g}"
    if args.format == "csv":
        lines = ["c,alpha_lower,alpha_upper"]
        for iv in intervals:
            lo = "" if iv.lower is None else f"{iv.lower:.12g}"
            lines.append(f"{iv.c:g},{lo},{iv.upper:.12g}")
        return _emit(args, summary, "\n".join(lines) + "\n")
    payload = {"config": _config_echo(args), "intervals": [iv.to_dict() for iv in intervals]}
    return _emit(args, summary, _json(payload))


def _cmd_extremal(args) -> int:
    net = parse_network_file(args.network, args.allow_disconnected_longest_path)
    report = verify_bipolar_max(net, alpha=args.alpha, grid_step=args.step)
    summary = (f"is_bipolar_max={report.is_bipolar_max} "
               f"bipolar={report.bipolar_value:.12g} best={report.best_value:.12g}")
    return _emit(args, summary, _json(asdict(report)))


def _cmd_counterexample(args) -> int:
    witness = counterexample_search(args.alpha)
    summary = "witness=none" if witness is None else (
        f"witness eps={witness['eps']:g} value={witness['value']:.12g} "
        f"bipolar={witness['bipolar_value']:.12g}")
    return _emit(args, summary, _json({"config": _config_echo(args), "witness": witness}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netpolar",
                                     description="Polarization measures on weighted networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def network_command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--network", required=True, help="network JSON file")
        p.add_argument("--allow-disconnected-longest-path", action="store_true",
                       dest="allow_disconnected_longest_path")
        p.add_argument("--out", default=None, help="report file path")
        return p

    p = network_command("compute", "evaluate P_alpha on a network")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = network_command("distances", "all-pairs geodesic distances")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_distances)

    p = sub.add_parser("build", help="construct a network from data files")
    # every build namespace keeps both options, at their defaults unless the kind reads one
    p.set_defaults(func=_cmd_build, **{dest: ch[0] for dest, _, ch in BUILD_OPTIONS.values()})
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in BUILDERS:
        k = kinds.add_parser(kind)
        k.add_argument("--input", required=True, help="CSV input file")
        if kind in BUILD_OPTIONS:
            dest, flag, choices = BUILD_OPTIONS[kind]
            k.add_argument(flag, choices=choices, default=choices[0], dest=dest)
        k.add_argument("--out", default=None)

    p = sub.add_parser("axioms", help="run a randomized axiom suite")
    p.add_argument("--suite", required=True, choices=["A1", "A2", "A3", "A3c"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--K", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--c", type=float, default=None, help="threshold for A3c")
    p.add_argument("--out", default=None)
    p.set_defaults(func=partial(_cmd_axioms, usage_error=p.error))

    p = sub.add_parser("alpha-bounds", help="admissible exponent interval(s)")
    p.add_argument("--c", "--c-list", type=float, nargs="+", default=[2.0], dest="c_list",
                   metavar="C", help="lateral-distance ratio(s) (default 2.0)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_alpha_bounds)

    p = network_command("extremal", "exhaustive bipolar maximality check")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1.0 / 6.0)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("counterexample", help="construct a bipolar-beating distribution")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_counterexample)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NetpolarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line front end: presets, JSON/CSV I/O, report emission.

Every invocation runs one job and writes one report; the report embeds a
hash of the fully-resolved job document and the scalar backend, so a run is
reproducible from its own output.  Exit codes: 0 success, 2 validation
error or an f64 result beyond the double range, 3 indeterminate verdict under
--strict, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compactness import associate_matrix, chi_norm, operator_norm, supplied_associate
from .conditions import CONDITION_SUMMARY, classify_map
from .duality import associate_row, basis_vector, dual_membership
from .errors import DimensionError, GenmeansError, InconsistencyError, ParameterError, SchemaError
from .operators import (
    PRESET_ARGS, PRESET_NAMES, PresetSpec, inverse_transform, preset, space_norm, transform)
from .scalars import FLOAT_MODE, backend_for
from .serialize import (
    canonical_number,
    make_report,
    matrix_from_json,
    number_from_text,
    params_from_json,
    params_to_json,
    sequence_from_json,
    sequence_to_csv,
)
from .triangle import ZERO_TAIL


def _parse_number(text, backend, what):
    """A scalar flag value: 'p/q' or decimal text, read exactly, in ``backend``."""
    try:
        return backend.convert(number_from_text(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParameterError([f"{what}: cannot parse {text!r} ({exc})"]) from None


def _parse_sequence_arg(text, length, backend, what):
    """Sequence-valued flags accept 'ones', a comma list, or @file.json."""
    if text == "ones":
        return tuple(backend.one for _ in range(length))
    if text.startswith("@"):
        return sequence_from_json(_load_json(text[1:], what), path=what, backend=backend).values
    return tuple(_parse_number(part, backend, what) for part in text.split(","))


def _load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParameterError([f"{what}: file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise SchemaError(what, f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
                                f"{exc.msg}") from None
    except (ValueError, RecursionError) as exc:    # not UTF-8, an int too long, nested too deep
        raise SchemaError(what, f"unreadable JSON: {exc}") from None


def _resolve_params(args, backend):
    """Build the parameter set from --params or a preset, recording how."""
    if getattr(args, "params", None):
        doc = _load_json(args.params, "params")
        p = params_from_json(doc)
        if backend.mode == FLOAT_MODE and p.backend.mode != FLOAT_MODE:
            # the float boundary is the parameters': rational ones take rational inputs
            raise ParameterError(["params: rational parameters cannot take --scalar f64"])
        return p, {"params_file": args.params, "params": params_to_json(p)}
    name, order = args.preset or "identity", args.n
    # the family's flags that are given, each named as its argument
    kwargs = {key: _parse_number(text, backend, f"--{key}") if key == "alpha"
              else _parse_sequence_arg(text, 4 * order, backend, f"--{key}")
              for key in PRESET_ARGS[name] if (text := getattr(args, key)) is not None}
    p = preset(PresetSpec(name, **kwargs), order, m=args.m, backend=backend)
    job = {"preset": name, "n": order, "m": p.m, "scalar": backend.mode}
    for key, value in kwargs.items():
        # str() of each value, with integers of any size
        job[key] = _text(value) if key == "alpha" else list(map(_text, value))
    return p, job


def _text(value):
    return canonical_number(value).removesuffix("/1")


def _load_sequence(path, backend, p):
    doc = _load_json(path, "input")
    seq = sequence_from_json(doc, path="input", backend=backend)
    if len(seq) != p.order:
        raise DimensionError(f"input length {len(seq)} does not match --n {p.order}")
    return seq, doc


def _load_matrix(path, backend):
    doc = _load_json(path, "matrix")
    return matrix_from_json(doc, path="matrix", backend=backend), doc


def _on_sequence(fn, key):
    """The handler of a command that maps its one input sequence through ``fn``."""
    def handler(args, backend, p):
        x, raw = _load_sequence(args.input, backend, p)
        result = fn(p, x)
        return {"input": raw}, {key: result}, result, False
    return handler


def _cmd_basis(args, backend, p):
    b = basis_vector(p, args.j)
    result = {"index": args.j, "vector": b, "transformed": transform(p, b)}
    return {"j": args.j}, result, b, False


def _cmd_dual(args, backend, p):
    a, raw = _load_sequence(args.input, backend, p)
    verdict = dual_membership(p, a, args.dual, args.space)
    result = {"dual": args.dual, "space": args.space, "verdict": verdict}
    if a.tail == ZERO_TAIL:
        result["associate_row"] = list(associate_row(p, a))
    job = {"dual": args.dual, "space": args.space, "input": raw}
    return job, result, None, verdict.status == "indeterminate"


def _cmd_matclass(args, backend, p):
    matrix, raw = _load_matrix(args.matrix, backend)
    report = classify_map(p, matrix, args.source, args.target)
    job = {"source": args.source, "target": args.target, "matrix": raw}
    result = {
        "source": report.source,
        "target": report.target,
        "conditions": {cond: {"summary": CONDITION_SUMMARY[cond],
                              "estimate": report.estimates[cond],
                              "verdict": report.verdicts[cond]}
                       for cond in report.estimates},
        "overall": report.overall,
        "notes": list(report.notes),
    }
    return job, result, None, report.overall.status == "indeterminate"


def _cmd_chi(args, backend, p):
    if args.atilde:
        matrix, raw = _load_matrix(args.atilde, backend)
        operand = supplied_associate(matrix)
        source_doc = {"atilde": raw}
    else:
        matrix, raw = _load_matrix(args.matrix, backend)
        operand = associate_matrix(p, matrix)
        source_doc = {"matrix": raw}
    estimate = chi_norm(p, operand, args.target)
    verdict = estimate.verdict()
    norm = operator_norm(p, operand)
    job = {"target": args.target, **source_doc}
    result = {"chi": estimate, "compactness": verdict, "operator_norm": norm}
    # an indeterminate chi makes the verdict read off it indeterminate too
    return job, result, None, verdict.status == "indeterminate"


def _cmd_selftest(args, backend, p):
    from .selfcheck import run_selftest    # the oracles load only for selftest

    lines = []
    ok = run_selftest(seed=args.seed, emit=lines.append)
    for line in lines:
        print(line, file=sys.stderr)
    if not ok:
        raise InconsistencyError("selftest failed; see report lines")
    return {"seed": args.seed}, {"passed": ok, "lines": lines}, None, False


# each handler takes (args, backend, the resolved parameters; None for selftest) and
# returns (its own job keys, result, the CSV sequence or None, indeterminate)
COMMANDS = {
    "transform": _on_sequence(transform, "sequence"),
    "inverse-transform": _on_sequence(inverse_transform, "sequence"),
    "norm": _on_sequence(space_norm, "norm"),
    "basis": _cmd_basis,
    "dual": _cmd_dual,
    "matclass": _cmd_matclass,
    "chi": _cmd_chi,
    "selftest": _cmd_selftest,
}

CSV_COMMANDS = ("transform", "inverse-transform", "basis")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="genmeans",
        description="Finite-truncation operator algebra for mean-difference sequence spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_params=True):
        if with_params:
            sp.add_argument("--preset", choices=PRESET_NAMES,
                            help="named parameter family (default: identity)")
            sp.add_argument("--params", help="JSON file with explicit r/s/t windows")
            sp.add_argument("--alpha", help="euler/aydin parameter in (0, 1)")
            sp.add_argument("--u", help="uv preset: 'ones', comma list, or @file.json")
            sp.add_argument("--v", help="uv preset: 'ones', comma list, or @file.json")
            sp.add_argument("--lam", help="lambda preset window: comma list or @file.json")
            sp.add_argument("--n", type=int, default=16, help="truncation order (default 16)")
            sp.add_argument("--m", type=int, default=1, help="difference order (default 1)")
        sp.add_argument("--scalar", choices=("rational", "f64"), default="rational",
                        help="arithmetic backend (default rational)")
        sp.add_argument("--strict", action="store_true",
                        help="exit 3 when the verdict is indeterminate")
        sp.add_argument("--output", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (csv only for flat sequence payloads)")

    for name, text in (("transform", "apply the composite operator to a sequence"),
                       ("inverse-transform",
                        "apply the inverse of the composite operator to a sequence"),
                       ("norm", "sup-norm of the transformed sequence")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--input", required=True, help="sequence JSON file")
        add_common(sp)

    sp = sub.add_parser("basis", help="emit basis vector j with its transform")
    sp.add_argument("--j", type=int, required=True, help="basis index (>= -1)")
    add_common(sp)

    sp = sub.add_parser("dual", help="dual membership verdict for a zero-tail sequence")
    sp.add_argument("--input", required=True, help="sequence JSON file")
    sp.add_argument("--dual", choices=("alpha", "beta", "gamma"), required=True)
    sp.add_argument("--space", choices=("c0", "c", "l_inf"), default="c0")
    add_common(sp)

    sp = sub.add_parser("matclass", help="source/target classification of a matrix")
    sp.add_argument("--matrix", required=True, help="matrix JSON file")
    sp.add_argument("--source", choices=("c0", "c", "l_inf"), required=True)
    sp.add_argument("--target", choices=("c0", "c", "l_inf"), required=True)
    add_common(sp)

    sp = sub.add_parser("chi", help="noncompactness gauge and compactness verdict")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="matrix JSON file (associate computed from it)")
    source.add_argument("--atilde", help="user-supplied associate matrix JSON file")
    sp.add_argument("--target", choices=("c0", "c", "l_inf"), required=True)
    add_common(sp)

    sp = sub.add_parser("selftest", help="run the seeded rational-backend invariant suite")
    sp.add_argument("--seed", type=int, default=20240601)
    add_common(sp, with_params=False)

    return parser


def _emit(report, payload_seq, args):
    if args.format == "csv":
        if args.command not in CSV_COMMANDS or payload_seq is None:
            raise ParameterError(
                [f"csv output is only available for {', '.join(CSV_COMMANDS)}"])
        text = sequence_to_csv(report, payload_seq)
    else:
        text = json.dumps(report, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    backend = backend_for(args.scalar)
    try:
        p, job = (None, {}) if args.command == "selftest" else _resolve_params(args, backend)
        extra, result, payload_seq, indeterminate = COMMANDS[args.command](args, backend, p)
        # float parameters run on their exact twin and round on f64 whatever
        # --scalar says, so the report names the parameters' backend
        report = make_report({"command": args.command, **job, **extra},
                             backend if p is None else p.backend, result)
        _emit(report, payload_seq, args)
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except GenmeansError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: a result is beyond the f64 range (about 1.8e308)", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    if args.strict and indeterminate:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

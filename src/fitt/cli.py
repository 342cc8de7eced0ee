"""Command-line frontend.

One verb per library operation: ideal utilities (gb, member, saturate,
intersect, eliminate), module utilities (fitting, kaehler), the Rees
constructions (rees print|chart|micali), and the verification harness
(verify thm41|cor42|image|nonnormal|grid|props).

Every subcommand is a row of `_COMMANDS`: its path, help string, handler
and arguments.  A handler takes the parsed arguments and returns
`(json_payload, text, exit_code)`; `main` alone reads `--format`, writes
either the indented JSON payload or the text to stdout, and maps library
and file errors to exit code 2.

Exit codes: 0 on success or a passing verification, 1 when a verification
fails, 2 on usage or validation errors.  All output is deterministic for a
fixed input; per-chart timings are the one exception and are zeroed by
--no-timing so reports can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .fitmod import PresentedAlgebra, PresentedModule, fitting_ideal
from .groebner import (
    Ideal,
    eliminate,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    saturate,
)
from .kaehler import kaehler_fitting, kaehler_presentation
from .polyring import (
    GREVLEX,
    LEX,
    CoefficientField,
    MonomialOrder,
    PolyError,
    PolyRing,
    print_polynomial,
)
from .properties import DEFAULT_SEED, properties_ok, run_properties
from .rees import (
    ReesParams,
    ReesParamsError,
    chart_presentation,
    micali_kernel,
    rees_presentation,
)
from .verify import (
    POLICY_CORRECTED,
    VerificationReport,
    check_theorem41,
    corollary42_details,
    fitting_index,
    image_details,
    nonnormality_probe,
    policy_label,
    run_grid,
)

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}

_Result = tuple[object, str, int]  # (json_payload, text, exit_code)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Inputs

def _parse_field(spec: str) -> CoefficientField:
    spec = spec.strip().lower()
    if spec in ("rationals", "q", "qq", "0"):
        return CoefficientField(0)
    if spec.startswith("p="):
        try:
            p = int(spec[2:])
        except ValueError:
            raise UsageError(f"--field: bad prime in {spec!r}") from None
        try:
            return CoefficientField(p)
        except ValueError as err:
            raise UsageError(f"--field: {err}") from None
    raise UsageError(f"--field must be 'p=<prime>' or 'rationals', got {spec!r}")


def _split_polys(text: str) -> list[str]:
    chunks = [c.strip() for c in text.replace(";", ",").split(",")]
    return [c for c in chunks if c]


def _read_lines(path: str) -> list[str]:
    """The lines of a file with '#' comments and blank lines dropped."""
    lines = (raw.split("#", 1)[0].strip() for raw in Path(path).read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line]


def _ring(args) -> PolyRing:
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not names:
        raise UsageError("--vars needs at least one variable name")
    return PolyRing(_parse_field(args.field), names)


def _make_ideal(ring: PolyRing, texts: Sequence[str]) -> Ideal:
    return Ideal(ring, [ring.parse(t) for t in texts])


def _ideal(args) -> Ideal:
    """The ideal from --gens or --input, in the ring from --field and --vars."""
    ring = _ring(args)
    gens = _split_polys(args.gens or "")
    if gens and args.input:
        raise UsageError("give either --gens or --input, not both")
    if args.input:
        return _make_ideal(ring, _read_lines(args.input))
    if gens:
        return _make_ideal(ring, gens)
    raise UsageError("an ideal is required: pass --gens or --input")


def _algebra(args) -> PresentedAlgebra:
    """The ring from --field and --vars modulo the --relations ideal."""
    ring = _ring(args)
    return PresentedAlgebra(ring, _make_ideal(ring, _split_polys(args.relations)))


def _params_from_args(args) -> ReesParams:
    try:
        v = tuple(int(x) for x in args.v.split(","))
    except ValueError:
        raise UsageError(f"--v: expected comma-separated integers, got {args.v!r}") from None
    return ReesParams(args.p, args.n, args.s, args.l, v)


def _policy_from_args(args) -> object:
    return args.policy if args.index is None else args.index


def _parse_matrix(ring: PolyRing, text: str) -> tuple[tuple, ...]:
    """A blank row is a generator with no relation entries; any other row
    must have a polynomial in every entry."""
    rows = []
    for k, row_text in enumerate(text.split(";"), 1):
        entries = [e.strip() for e in row_text.split(",")] if row_text.strip() else []
        if "" in entries:
            raise UsageError(f"--matrix row {k} has an empty entry: {row_text.strip()!r}")
        rows.append(tuple(ring.parse(e) for e in entries))
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise UsageError("--matrix rows have unequal lengths")
    return tuple(rows)


# ---------------------------------------------------------------------------
# Shared output shapes: each returns (json_payload, text, exit_code) or a
# piece of one

def _bool(flag) -> str:
    return "true" if flag else "false"


def _listing(gens: Sequence, order: MonomialOrder = GREVLEX) -> tuple[list[str], str]:
    """Printed generators, and their text: one per line, "0" when there are none."""
    printed = [print_polynomial(g, order) for g in gens]
    return printed, "".join(p + "\n" for p in printed) or "0\n"


def _generators(gens: Sequence, **head) -> _Result:
    printed, text = _listing(gens)
    return {**head, "generators": printed}, text, 0


def _presentation(ring: PolyRing, relations: Sequence, title: str = "", **head) -> _Result:
    printed, text = _listing(relations)
    payload = {**head, "ambient": list(ring.variables), "relations": printed}
    return payload, title + "ambient: " + ", ".join(ring.variables) + "\nrelations:\n" + text, 0


def _report(report: VerificationReport, args) -> _Result:
    """A thm41, cor42 or image report; the micali and image lines appear
    when the report carries that check."""
    timing = not args.no_timing
    lines = [f"{report.params.flag_string()} policy={report.policy} index={report.index_used}"]
    for c in report.charts:
        suffix = f" ({c.ms} ms)" if timing else ""
        lines.append(f"chart r={c.r}: {'equal' if c.equal else 'unequal'}{suffix}")
    for name, flag in (("micali", report.micali_ok), ("image", report.image_ok)):
        if flag is not None:
            lines.append(f"{name}: {_bool(flag)}")
    lines.append(f"status: {report.status}")
    text = "".join(line + "\n" for line in lines)
    return report.to_dict(include_timing=timing), text, 0 if report.status == "pass" else 1


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_gb(args) -> _Result:
    order = _ORDERS[args.order]
    basis, text = _listing(_ideal(args).groebner_basis(order), order)
    return {"order": args.order, "basis": basis}, text, 0


def _cmd_member(args) -> _Result:
    ideal = _ideal(args)
    verdict = ideal_member(ideal.ring.parse(args.poly), ideal)
    return {"member": verdict}, _bool(verdict) + "\n", 0


def _cmd_saturate(args) -> _Result:
    ideal = _ideal(args)
    return _generators(saturate(ideal, ideal.ring.parse(args.by)).groebner_basis())


def _cmd_intersect(args) -> _Result:
    left = _ideal(args)
    right = _make_ideal(left.ring, _split_polys(args.other))
    return _generators(ideal_intersect(left, right).groebner_basis())


def _cmd_eliminate(args) -> _Result:
    ideal = _ideal(args)
    block = [v.strip() for v in args.block.split(",") if v.strip()]
    if not block:
        raise UsageError("--block needs at least one variable name")
    return _generators(eliminate(ideal, block).generators)


def _cmd_fitting(args) -> _Result:
    algebra = _algebra(args)
    matrix = _parse_matrix(algebra.ring, args.matrix)
    labels = tuple(f"g{i + 1}" for i in range(len(matrix)))
    module = PresentedModule(algebra, matrix, labels)
    return _generators(fitting_ideal(module, args.index).generators, index=args.index)


def _cmd_kaehler(args) -> _Result:
    algebra = _algebra(args)
    if args.index is not None:
        return _generators(kaehler_fitting(algebra, args.index).generators, index=args.index)
    pres = kaehler_presentation(algebra)
    matrix = [[print_polynomial(e) for e in row] for row in pres.matrix]
    payload = {"rows": list(pres.row_labels), "columns": pres.relation_count, "matrix": matrix}
    text = "".join(f"{label}: {', '.join(row) or '-'}\n" for label, row in zip(pres.row_labels, matrix))
    return payload, text, 0


def _cmd_rees_print(args) -> _Result:
    algebra = rees_presentation(_params_from_args(args))
    return _presentation(algebra.ring, algebra.relations.generators)


def _cmd_rees_chart(args) -> _Result:
    chart = chart_presentation(_params_from_args(args), args.r)
    relations = chart.algebra.relations
    return _presentation(relations.ring, relations.groebner_basis(), f"chart r={chart.r}\n", r=chart.r)


def _cmd_rees_micali(args) -> _Result:
    params = _params_from_args(args)
    kernel = micali_kernel(params)
    same = ideal_equal(kernel, rees_presentation(params).relations)
    printed, listing = _listing(kernel.generators)
    text = f"kernel:\n{listing}equals_relations: {_bool(same)}\n"
    return {"kernel": printed, "equals_relations": same}, text, 0


def _cmd_verify_thm41(args) -> _Result:
    return _report(check_theorem41(_params_from_args(args), _policy_from_args(args)), args)


def _chart_report(args, params: ReesParams, policy, details, **checks) -> _Result:
    report = VerificationReport(
        params, policy_label(policy), fitting_index(params, policy), list(details), **checks
    )
    return _report(report, args)


def _cmd_verify_cor42(args) -> _Result:
    params, policy = _params_from_args(args), _policy_from_args(args)
    details = corollary42_details(params, policy)
    return _chart_report(args, params, policy, details, corollary_ok=all(c.equal for c in details))


def _cmd_verify_image(args) -> _Result:
    params, policy = _params_from_args(args), _policy_from_args(args)
    ok, details = image_details(params, policy)
    return _chart_report(args, params, policy, details, image_ok=ok)


def _cmd_verify_nonnormal(args) -> _Result:
    probe = nonnormality_probe(args.p, 4, 3, 4)
    verdict = probe.nonnormal
    payload = {
        "p": args.p,
        "integral_witness": probe.integral_witness,
        "quotient_membership": probe.quotient_membership,
        "sanity_control": probe.sanity_control,
        "nonnormal": verdict,
        "status": "pass" if verdict else "fail",
    }
    return payload, f"non-normal: {_bool(verdict)}\n", 0 if verdict else 1


def _grid_flag(x) -> str:
    return "-" if x is None else ("yes" if x else "NO")


def _cmd_verify_grid(args) -> _Result:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.file is None:
        raise UsageError("--file is required (one 'p=.. n=.. s=.. l=.. v=..' tuple per line)")
    grid = [ReesParams.parse(line) for line in _read_lines(args.file)]
    reports = run_grid(grid, _policy_from_args(args), workers=args.workers)
    timing = not args.no_timing
    lines = [
        f"{'params':34s} {'policy':10s} {'index':>5s}  {'micali':6s} {'cor42':6s} {'image':6s} {'status':7s} charts"
    ]
    for r in reports:
        charts = " ".join(f"{c.r}:{'eq' if c.equal else 'NE'}" for c in r.charts) or "-"
        row = (
            f"{r.params.flag_string():34s} {r.policy:10s} {r.index_used:>5d}  "
            f"{_grid_flag(r.micali_ok):6s} {_grid_flag(r.corollary_ok):6s} "
            f"{_grid_flag(r.image_ok):6s} {r.status:7s} {charts}"
        )
        lines.append(row + (f"  # {r.reason}" if r.reason else ""))
    payload = [r.to_dict(include_timing=timing) for r in reports]
    text = "".join(line + "\n" for line in lines)
    return payload, text, 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_verify_props(args) -> _Result:
    results = run_properties(args.seed)
    status = "pass" if properties_ok(results) else "fail"
    payload = {
        "seed": args.seed,
        "suites": [{"name": r.name, "trials": r.trials, "failures": r.failures} for r in results],
        "status": status,
    }
    lines = [f"{r.name}: trials={r.trials} failures={r.failures}\n" for r in results]
    return payload, "".join(lines) + f"status: {status}\n", 0 if status == "pass" else 1


# ---------------------------------------------------------------------------
# Parser assembly

def _opt(flag: str, **options) -> tuple[str, dict]:
    return flag, options


_RING = (
    _opt("--field", required=True, help="'p=<prime>' or 'rationals'"),
    _opt("--vars", required=True, help="comma-separated variable names"),
)
_GENS = _RING + (
    _opt("--gens", help="generators, separated by ';' or ','"),
    _opt("--input", help="file with one generator per line ('#' comments)"),
)
_RELATIONS = _RING + (_opt("--relations", default="", help="relation ideal of the algebra"),)
_PARAMS = (
    _opt("--p", type=int, required=True, help="prime characteristic"),
    _opt("--n", type=int, required=True, help="number of x variables"),
    _opt("--s", type=int, required=True, help="first generator index"),
    _opt("--l", type=int, required=True, help="last p-divisible index"),
    _opt("--v", required=True, help="comma-separated exponents v_s..v_n"),
)
_POLICY = (
    _opt("--policy", choices=("paper", "corrected"), default=POLICY_CORRECTED),
    _opt("--index", type=int, help="explicit Fitting index (overrides --policy)"),
    _opt("--no-timing", action="store_true", help="zero per-chart millisecond timings"),
)
_FORMAT = _opt("--format", choices=("text", "json"), default="text")

# (command path, help, handler, arguments); a row without a handler is a
# group whose rows follow it.  Every handler row also gets --format.
_COMMANDS = (
    (("gb",), "reduced Groebner basis", _cmd_gb,
     _GENS + (_opt("--order", choices=sorted(_ORDERS), default="grevlex"),)),
    (("member",), "ideal membership", _cmd_member, _GENS + (_opt("--poly", required=True),)),
    (("saturate",), "saturation (I : g^inf)", _cmd_saturate,
     _GENS + (_opt("--by", required=True, help="the element g"),)),
    (("intersect",), "ideal intersection", _cmd_intersect,
     _GENS + (_opt("--other", required=True, help="generators of the second ideal"),)),
    (("eliminate",), "eliminate a variable block", _cmd_eliminate,
     _GENS + (_opt("--block", required=True, help="comma-separated variables to eliminate"),)),
    (("fitting",), "Fitting ideal of a presented module", _cmd_fitting, _RELATIONS + (
        _opt("--matrix", required=True, help="rows separated by ';', entries by ','"),
        _opt("--index", type=int, required=True),
    )),
    (("kaehler",), "differentials: presentation or Fitting ideal", _cmd_kaehler, _RELATIONS + (
        _opt("--index", type=int, help="when given, print Fitt_index instead of the matrix"),
    )),
    (("rees",), "Rees ring constructions", None, ()),
    (("rees", "print"), None, _cmd_rees_print, _PARAMS),
    (("rees", "chart"), None, _cmd_rees_chart,
     _PARAMS + (_opt("--r", type=int, required=True, help="chart index"),)),
    (("rees", "micali"), None, _cmd_rees_micali, _PARAMS),
    (("verify",), "machine checks of the computational claims", None, ()),
    (("verify", "thm41"), None, _cmd_verify_thm41, _PARAMS + _POLICY),
    (("verify", "cor42"), None, _cmd_verify_cor42, _PARAMS + _POLICY),
    (("verify", "image"), None, _cmd_verify_image, _PARAMS + _POLICY),
    (("verify", "nonnormal"), None, _cmd_verify_nonnormal, (_opt("--p", type=int, required=True),)),
    (("verify", "grid"), None, _cmd_verify_grid, (
        _opt("--file", help="grid file: one parameter tuple per line"),
        _opt("--workers", type=int, default=os.cpu_count() or 1),
    ) + _POLICY),
    (("verify", "props"), None, _cmd_verify_props, (_opt("--seed", type=int, default=DEFAULT_SEED),)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitt",
        description="Exact Fitting-ideal computations on Rees rings, with a verification harness.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for path, help_text, fn, arguments in _COMMANDS:
        # a help keyword, even None, would list the verb under its group
        sp = groups[path[:-1]].add_parser(path[-1], **({} if help_text is None else {"help": help_text}))
        if fn is None:
            groups[path] = sp.add_subparsers(dest=f"{path[-1]}_command", required=True)
            continue
        for flag, options in arguments + (_FORMAT,):
            sp.add_argument(flag, **options)
        sp.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = args.fn(args)
    except (UsageError, ReesParamsError, PolyError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.format == "json" else text)
    return code


if __name__ == "__main__":
    sys.exit(main())

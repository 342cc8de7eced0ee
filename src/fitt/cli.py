"""Command-line frontend.

One verb per library operation: ideal utilities (gb, member, saturate,
intersect, eliminate), module utilities (fitting, kaehler), the Rees
constructions (rees print|chart|micali), and the verification harness
(verify thm41|cor42|image|nonnormal|grid|props).

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
from dataclasses import dataclass
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
    ChartCheck,
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


@dataclass
class RunConfig:
    """One resolved invocation: the (validated) field, the ring variables,
    the generator sources, and the output shape."""

    field: Optional[CoefficientField] = None
    variables: tuple[str, ...] = ()
    generators: tuple[str, ...] = ()
    input_path: Optional[str] = None
    order: MonomialOrder = GREVLEX
    fmt: str = "text"

    def ring(self) -> PolyRing:
        if self.field is None or not self.variables:
            raise UsageError("--field and --vars are required")
        return PolyRing(self.field, self.variables)

    def generator_texts(self) -> list[str]:
        if self.generators and self.input_path:
            raise UsageError("give either --gens or --input, not both")
        if self.input_path:
            lines = []
            for raw in Path(self.input_path).read_text(encoding="utf-8").splitlines():
                line = raw.split("#", 1)[0].strip()
                if line:
                    lines.append(line)
            return lines
        if self.generators:
            return list(self.generators)
        raise UsageError("an ideal is required: pass --gens or --input")


class UsageError(ValueError):
    pass


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


def _resolve_config(args) -> RunConfig:
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not names:
        raise UsageError("--vars needs at least one variable name")
    return RunConfig(
        field=_parse_field(args.field),
        variables=names,
        generators=tuple(_split_polys(getattr(args, "gens", None) or "")),
        input_path=getattr(args, "input", None),
        order=_ORDERS[getattr(args, "order", "grevlex")],
        fmt=args.format,
    )


def _make_ideal(ring: PolyRing, texts: Sequence[str]) -> Ideal:
    return Ideal(ring, [ring.parse(t) for t in texts])


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(payload if isinstance(payload, str) else str(payload))


def _gen_lines(gens: Sequence, order: MonomialOrder = GREVLEX) -> str:
    if not gens:
        return "0\n"
    return "".join(print_polynomial(g, order) + "\n" for g in gens)


def _params_from_args(args) -> ReesParams:
    try:
        v = tuple(int(x) for x in args.v.split(","))
    except ValueError:
        raise UsageError(f"--v: expected comma-separated integers, got {args.v!r}") from None
    return ReesParams(args.p, args.n, args.s, args.l, v)


def _policy_from_args(args) -> object:
    if getattr(args, "index", None) is not None:
        return args.index
    return args.policy


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_gb(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    basis = _make_ideal(ring, config.generator_texts()).groebner_basis(config.order)
    if config.fmt == "json":
        _emit({"order": args.order, "basis": [print_polynomial(g, config.order) for g in basis]}, "json")
    else:
        _emit(_gen_lines(basis, config.order), "text")
    return 0


def _cmd_member(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    ideal = _make_ideal(ring, config.generator_texts())
    verdict = ideal_member(ring.parse(args.poly), ideal)
    if config.fmt == "json":
        _emit({"member": verdict}, "json")
    else:
        _emit(("true" if verdict else "false") + "\n", "text")
    return 0


def _cmd_saturate(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    ideal = _make_ideal(ring, config.generator_texts())
    out = saturate(ideal, ring.parse(args.by)).groebner_basis()
    if config.fmt == "json":
        _emit({"generators": [print_polynomial(g) for g in out]}, "json")
    else:
        _emit(_gen_lines(out), "text")
    return 0


def _cmd_intersect(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    left = _make_ideal(ring, config.generator_texts())
    right = _make_ideal(ring, _split_polys(args.other))
    out = ideal_intersect(left, right).groebner_basis()
    if config.fmt == "json":
        _emit({"generators": [print_polynomial(g) for g in out]}, "json")
    else:
        _emit(_gen_lines(out), "text")
    return 0


def _cmd_eliminate(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    ideal = _make_ideal(ring, config.generator_texts())
    block = [v.strip() for v in args.block.split(",") if v.strip()]
    out = eliminate(ideal, block).generators
    if config.fmt == "json":
        _emit({"generators": [print_polynomial(g) for g in out]}, "json")
    else:
        _emit(_gen_lines(out), "text")
    return 0


def _parse_matrix(ring: PolyRing, text: str) -> tuple[tuple, ...]:
    rows = []
    for row_text in text.split(";"):
        entries = [e.strip() for e in row_text.split(",")]
        rows.append(tuple(ring.parse(e) for e in entries if e))
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise UsageError("--matrix rows have unequal lengths")
    return tuple(rows)


def _cmd_fitting(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    relations = _make_ideal(ring, _split_polys(args.relations)) if args.relations else Ideal(ring)
    matrix = _parse_matrix(ring, args.matrix)
    labels = tuple(f"g{i + 1}" for i in range(len(matrix)))
    module = PresentedModule(PresentedAlgebra(ring, relations), matrix, labels)
    out = fitting_ideal(module, args.index).generators
    if config.fmt == "json":
        _emit({"index": args.index, "generators": [print_polynomial(g) for g in out]}, "json")
    else:
        _emit(_gen_lines(out), "text")
    return 0


def _cmd_kaehler(args) -> int:
    config = _resolve_config(args)
    ring = config.ring()
    relations = _make_ideal(ring, _split_polys(args.relations)) if args.relations else Ideal(ring)
    algebra = PresentedAlgebra(ring, relations)
    if args.index is None:
        pres = kaehler_presentation(algebra)
        if config.fmt == "json":
            _emit(
                {
                    "rows": list(pres.row_labels),
                    "columns": pres.relation_count,
                    "matrix": [[print_polynomial(e) for e in row] for row in pres.matrix],
                },
                "json",
            )
        else:
            lines = [
                f"{label}: " + (", ".join(print_polynomial(e) for e in row) or "-") + "\n"
                for label, row in zip(pres.row_labels, pres.matrix)
            ]
            _emit("".join(lines), "text")
        return 0
    out = kaehler_fitting(algebra, args.index).generators
    if config.fmt == "json":
        _emit({"index": args.index, "generators": [print_polynomial(g) for g in out]}, "json")
    else:
        _emit(_gen_lines(out), "text")
    return 0


def _cmd_rees_print(args) -> int:
    algebra = rees_presentation(_params_from_args(args))
    if args.format == "json":
        _emit(
            {
                "ambient": list(algebra.ring.variables),
                "relations": [print_polynomial(g) for g in algebra.relations.generators],
            },
            "json",
        )
    else:
        text = "ambient: " + ", ".join(algebra.ring.variables) + "\nrelations:\n"
        text += _gen_lines(algebra.relations.generators)
        _emit(text, "text")
    return 0


def _cmd_rees_chart(args) -> int:
    chart = chart_presentation(_params_from_args(args), args.r)
    ring = chart.algebra.ring
    if args.format == "json":
        _emit(
            {
                "r": chart.r,
                "ambient": list(ring.variables),
                "relations": [print_polynomial(g) for g in chart.algebra.relations.generators],
            },
            "json",
        )
    else:
        text = f"chart r={chart.r}\nambient: " + ", ".join(ring.variables) + "\nrelations:\n"
        text += _gen_lines(chart.algebra.relations.generators)
        _emit(text, "text")
    return 0


def _cmd_rees_micali(args) -> int:
    params = _params_from_args(args)
    kernel = micali_kernel(params)
    algebra = rees_presentation(params)
    same = ideal_equal(kernel, algebra.relations)
    if args.format == "json":
        _emit(
            {
                "kernel": [print_polynomial(g) for g in kernel.generators],
                "equals_relations": same,
            },
            "json",
        )
    else:
        text = "kernel:\n" + _gen_lines(kernel.generators)
        text += f"equals_relations: {'true' if same else 'false'}\n"
        _emit(text, "text")
    return 0


def _chart_lines(charts: Sequence[ChartCheck], timing: bool, word=("equal", "unequal")) -> str:
    lines = []
    for c in charts:
        verdict = word[0] if c.equal else word[1]
        suffix = f" ({c.ms} ms)" if timing else ""
        lines.append(f"chart r={c.r}: {verdict}{suffix}\n")
    return "".join(lines)


def _report_header(report: VerificationReport) -> str:
    return f"{report.params.flag_string()} policy={report.policy} index={report.index_used}\n"


def _emit_report(report: VerificationReport, args, extra_text: str = "") -> int:
    timing = not args.no_timing
    if args.format == "json":
        _emit(report.to_dict(include_timing=timing), "json")
    else:
        text = _report_header(report) + _chart_lines(report.charts, timing) + extra_text
        text += f"status: {report.status}\n"
        _emit(text, "text")
    return 0 if report.status == "pass" else 1


def _cmd_verify_thm41(args) -> int:
    report = check_theorem41(_params_from_args(args), _policy_from_args(args))
    ok = "true" if report.micali_ok else "false"
    return _emit_report(report, args, extra_text=f"micali: {ok}\n")


def _cmd_verify_cor42(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    details = corollary42_details(params, policy)
    report = VerificationReport(
        params, policy_label(policy), fitting_index(params, policy),
        charts=list(details), corollary_ok=all(c.equal for c in details),
    )
    return _emit_report(report, args)


def _cmd_verify_image(args) -> int:
    params = _params_from_args(args)
    policy = _policy_from_args(args)
    ok, details = image_details(params, policy)
    report = VerificationReport(
        params, policy_label(policy), fitting_index(params, policy),
        charts=list(details), image_ok=ok,
    )
    return _emit_report(report, args, extra_text=f"image: {'true' if ok else 'false'}\n")


def _cmd_verify_nonnormal(args) -> int:
    probe = nonnormality_probe(args.p, 4, 3, 4)
    verdict = probe.nonnormal
    if args.format == "json":
        _emit(
            {
                "p": args.p,
                "integral_witness": probe.integral_witness,
                "quotient_membership": probe.quotient_membership,
                "sanity_control": probe.sanity_control,
                "nonnormal": verdict,
                "status": "pass" if verdict else "fail",
            },
            "json",
        )
    else:
        _emit(f"non-normal: {'true' if verdict else 'false'}\n", "text")
    return 0 if verdict else 1


def _load_grid(path: str) -> list[ReesParams]:
    grid = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            grid.append(ReesParams.parse(line))
    return grid


def _cmd_verify_grid(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    if args.file is None:
        raise UsageError("--file is required (one 'p=.. n=.. s=.. l=.. v=..' tuple per line)")
    grid = _load_grid(args.file)
    reports = run_grid(grid, _policy_from_args(args), workers=args.workers)
    timing = not args.no_timing
    if args.format == "json":
        _emit([r.to_dict(include_timing=timing) for r in reports], "json")
    else:
        def b(x):
            return "-" if x is None else ("yes" if x else "NO")

        lines = []
        header = f"{'params':34s} {'policy':10s} {'index':>5s}  {'micali':6s} {'cor42':6s} {'image':6s} {'status':7s} charts"
        lines.append(header + "\n")
        for r in reports:
            charts = " ".join(f"{c.r}:{'eq' if c.equal else 'NE'}" for c in r.charts) or "-"
            row = (
                f"{r.params.flag_string():34s} {r.policy:10s} {r.index_used:>5d}  "
                f"{b(r.micali_ok):6s} {b(r.corollary_ok):6s} {b(r.image_ok):6s} {r.status:7s} {charts}"
            )
            if r.reason:
                row += f"  # {r.reason}"
            lines.append(row + "\n")
        _emit("".join(lines), "text")
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_verify_props(args) -> int:
    results = run_properties(args.seed)
    ok = properties_ok(results)
    if args.format == "json":
        _emit(
            {
                "seed": args.seed,
                "suites": [
                    {"name": r.name, "trials": r.trials, "failures": r.failures}
                    for r in results
                ],
                "status": "pass" if ok else "fail",
            },
            "json",
        )
    else:
        lines = [f"{r.name}: trials={r.trials} failures={r.failures}\n" for r in results]
        lines.append(f"status: {'pass' if ok else 'fail'}\n")
        _emit("".join(lines), "text")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser assembly

def _add_ring_args(sp, gens: bool = True) -> None:
    sp.add_argument("--field", required=True, help="'p=<prime>' or 'rationals'")
    sp.add_argument("--vars", required=True, help="comma-separated variable names")
    if gens:
        sp.add_argument("--gens", help="generators, separated by ';' or ','")
        sp.add_argument("--input", help="file with one generator per line ('#' comments)")


def _add_format_arg(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text")


def _add_params_args(sp) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    sp.add_argument("--n", type=int, required=True, help="number of x variables")
    sp.add_argument("--s", type=int, required=True, help="first generator index")
    sp.add_argument("--l", type=int, required=True, help="last p-divisible index")
    sp.add_argument("--v", required=True, help="comma-separated exponents v_s..v_n")


def _add_policy_args(sp) -> None:
    sp.add_argument("--policy", choices=("paper", "corrected"), default=POLICY_CORRECTED)
    sp.add_argument("--index", type=int, help="explicit Fitting index (overrides --policy)")
    sp.add_argument("--no-timing", action="store_true", help="zero per-chart millisecond timings")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitt",
        description="Exact Fitting-ideal computations on Rees rings, with a verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gb", help="reduced Groebner basis")
    _add_ring_args(sp)
    sp.add_argument("--order", choices=sorted(_ORDERS), default="grevlex")
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_gb)

    sp = sub.add_parser("member", help="ideal membership")
    _add_ring_args(sp)
    sp.add_argument("--poly", required=True)
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_member)

    sp = sub.add_parser("saturate", help="saturation (I : g^inf)")
    _add_ring_args(sp)
    sp.add_argument("--by", required=True, help="the element g")
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_saturate)

    sp = sub.add_parser("intersect", help="ideal intersection")
    _add_ring_args(sp)
    sp.add_argument("--other", required=True, help="generators of the second ideal")
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_intersect)

    sp = sub.add_parser("eliminate", help="eliminate a variable block")
    _add_ring_args(sp)
    sp.add_argument("--block", required=True, help="comma-separated variables to eliminate")
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_eliminate)

    sp = sub.add_parser("fitting", help="Fitting ideal of a presented module")
    _add_ring_args(sp, gens=False)
    sp.add_argument("--relations", default="", help="relation ideal of the algebra")
    sp.add_argument("--matrix", required=True, help="rows separated by ';', entries by ','")
    sp.add_argument("--index", type=int, required=True)
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_fitting)

    sp = sub.add_parser("kaehler", help="differentials: presentation or Fitting ideal")
    _add_ring_args(sp, gens=False)
    sp.add_argument("--relations", default="", help="relation ideal of the algebra")
    sp.add_argument("--index", type=int, help="when given, print Fitt_index instead of the matrix")
    _add_format_arg(sp)
    sp.set_defaults(fn=_cmd_kaehler)

    sp = sub.add_parser("rees", help="Rees ring constructions")
    rees_sub = sp.add_subparsers(dest="rees_command", required=True)
    for name, fn in (("print", _cmd_rees_print), ("chart", _cmd_rees_chart), ("micali", _cmd_rees_micali)):
        rsp = rees_sub.add_parser(name)
        _add_params_args(rsp)
        if name == "chart":
            rsp.add_argument("--r", type=int, required=True, help="chart index")
        _add_format_arg(rsp)
        rsp.set_defaults(fn=fn)

    sp = sub.add_parser("verify", help="machine checks of the computational claims")
    ver_sub = sp.add_subparsers(dest="verify_command", required=True)

    for name, fn in (("thm41", _cmd_verify_thm41), ("cor42", _cmd_verify_cor42), ("image", _cmd_verify_image)):
        vsp = ver_sub.add_parser(name)
        _add_params_args(vsp)
        _add_policy_args(vsp)
        _add_format_arg(vsp)
        vsp.set_defaults(fn=fn)

    vsp = ver_sub.add_parser("nonnormal")
    vsp.add_argument("--p", type=int, required=True)
    _add_format_arg(vsp)
    vsp.set_defaults(fn=_cmd_verify_nonnormal)

    vsp = ver_sub.add_parser("grid")
    vsp.add_argument("--file", help="grid file: one parameter tuple per line")
    vsp.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    _add_policy_args(vsp)
    _add_format_arg(vsp)
    vsp.set_defaults(fn=_cmd_verify_grid)

    vsp = ver_sub.add_parser("props")
    vsp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_format_arg(vsp)
    vsp.set_defaults(fn=_cmd_verify_props)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ReesParamsError, PolyError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

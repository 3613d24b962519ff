"""Command-line surface: semigroup inspection and verification runs.

Two console scripts are installed, ``sg`` (inspect and enumerate numerical
semigroups) and ``verify`` (run the local covering checks, the global
surjectivity oracle, and the corpus suites).  Exit status is 0 when every
check passed, 1 on a check failure, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import blowup as blowup_mod
from .curves import (
    RationalCurveModel,
    max_noether_holds,
    section_valuations,
)
from .errors import MaxNoetherError
from .local import (
    LocalContext,
    build_certificates,
    epsilon_case,
    minimal_epsilon,
    q_decomposition,
    verify_local_surjectivity,
)
from .reports import jsonable, write_jsonl
from .semigroup import NumericalSemigroup, enumerate_semigroups
from .suites import SUITES, SuiteParams, run_suite
from .valueset import canonical_ideal, dualizing_values


def _parse_gens(raw: str) -> NumericalSemigroup:
    try:
        gens = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise MaxNoetherError(f"--gens expects comma-separated integers: {exc}") from exc
    return NumericalSemigroup.from_generators(gens)


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _ints(values) -> str:
    return ", ".join(str(v) for v in values) if values else "-"


def cmd_sg_info(args) -> int:
    s = _parse_gens(args.gens)
    k = canonical_ideal(s)
    ana = blowup_mod.analyze(s)
    data = {
        "semigroup": s.to_json(),
        "frobenius": s.frobenius,
        "symmetric": s.is_symmetric(),
        "almost_gorenstein": s.is_almost_gorenstein(),
        "pseudo_frobenius": list(s.pseudo_frobenius()) if s.gaps else [],
        "canonical_ideal": k.to_json(),
        "dualizing_values": dualizing_values(s).to_json(),
        "blowup": ana.to_json(),
    }
    if not s.is_symmetric():
        data["genus_drop"] = blowup_mod.genus_drop(s)
    if args.json:
        print(json.dumps(jsonable(data), sort_keys=True))
        return 0
    rows = [
        ("semigroup", str(s)),
        ("gaps", _ints(s.gaps)),
        ("conductor (alpha)", str(s.conductor)),
        ("multiplicity (beta)", str(s.multiplicity)),
        ("frobenius", str(s.frobenius)),
        ("genus", str(s.genus)),
        ("symmetric", "yes" if s.is_symmetric() else "no"),
        ("almost Gorenstein", "yes" if s.is_almost_gorenstein() else "no"),
    ]
    if s.gaps:
        pf = s.pseudo_frobenius()
        rows.append(("pseudo-Frobenius", f"{_ints(pf)}  (type {len(pf)})"))
    rows.extend(
        [
            ("canonical ideal", str(k)),
            ("dualizing values", str(dualizing_values(s))),
            ("blowup values", str(ana.blowup_values)),
            ("stabilization index", str(ana.stabilization_index)),
            ("blowup genus", str(ana.blowup_genus)),
            ("eta", str(ana.eta)),
        ]
    )
    if not s.is_symmetric():
        rows.append(("genus drop", str(blowup_mod.genus_drop(s))))
    _print_table(rows)
    return 0


def cmd_sg_enumerate(args) -> int:
    for s in enumerate_semigroups(args.max_genus, args.min_multiplicity):
        if args.json:
            print(json.dumps(jsonable(s.to_json()), sort_keys=True))
        else:
            print(f"{str(s):24} genus {s.genus:2}  gaps {_ints(s.gaps)}")
    return 0


def cmd_verify_local(args) -> int:
    s = _parse_gens(args.gens)
    if s.is_symmetric():
        print("symmetric semigroup: the point is Gorenstein, nothing to verify", file=sys.stderr)
        return 2
    ctx = LocalContext.for_semigroup(s)
    curve = RationalCurveModel.from_semigroups([s])
    attained = section_valuations(curve, curve.branches[0].center)
    case = epsilon_case(attained)
    data: dict = {
        "semigroup": s.to_json(),
        "case": case.tag,
        "attained_values": list(attained),
        "d1": ctx.d1,
        "d2": ctx.d2,
        "r": ctx.r,
        "p": ctx.p,
    }
    ok = True
    if ctx.r >= 1:
        qd = q_decomposition(ctx)
        ok &= qd.all_strict(ctx.alpha, ctx.beta)
        data["q_pairs"] = [list(p) for p in qd.pairs]
    certs = build_certificates(ctx, max(args.n, 2), case)
    defects = [d for c in certs for d in c.check(ctx.section_values)]
    ok &= not defects
    data["certificates"] = [
        {
            "name": c.name,
            "entries": [[e.label, e.value] for e in c.entries],
        }
        for c in certs
    ]
    data["certificate_defects"] = defects
    coverings = []
    for n in range(1, args.n + 1):
        res = verify_local_surjectivity(ctx, n, case.epsilon(n))
        ok &= res.ok
        coverings.append(
            {
                "n": n,
                "epsilon": res.epsilon,
                "ok": res.ok,
                "minimal_epsilon": minimal_epsilon(ctx, n),
                "uncovered": list(res.uncovered),
            }
        )
    data["coverings"] = coverings
    if args.json:
        print(json.dumps(jsonable(data), sort_keys=True))
    else:
        print(f"{s}  case ({case.tag})  d1={ctx.d1} d2={ctx.d2} r={ctx.r} p={ctx.p}")
        if "q_pairs" in data:
            print(f"q-decomposition: {data['q_pairs']}")
        for c in certs:
            table = "  ".join(f"{e.label}={e.value}" for e in c.entries) or "(empty)"
            print(f"{c.name}: {table}")
        if defects:
            print("certificate defects: " + "; ".join(defects))
        for cov in coverings:
            verdict = "ok" if cov["ok"] else f"UNCOVERED {cov['uncovered']}"
            print(
                f"covering n={cov['n']} epsilon={cov['epsilon']}: {verdict}"
                f" (minimal epsilon {cov['minimal_epsilon']})"
            )
    return 0 if ok else 1


def cmd_verify_noether(args) -> int:
    if bool(args.curve) == bool(args.gens):
        print("exactly one of --curve or --gens is required", file=sys.stderr)
        return 2
    if args.curve:
        curve = RationalCurveModel.from_file(args.curve)
    else:
        curve = RationalCurveModel.from_semigroups([_parse_gens(args.gens)])
    check = max_noether_holds(curve, args.n)
    if args.json:
        print(json.dumps(jsonable({"curve": curve.to_json(), "check": check.to_json()}), sort_keys=True))
    else:
        print(f"{curve}  n={args.n}: {check.describe()}")
    return 0 if check.holds else 1


def cmd_verify_corpus(args) -> int:
    params = SuiteParams(max_genus=args.max_genus, max_n=args.n)
    reports = run_suite(args.suite, params)
    if not reports:
        print(
            f"error: suite {args.suite} made no checks at these bounds; nothing was verified",
            file=sys.stderr,
        )
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            write_jsonl(reports, fp)
    else:
        write_jsonl(reports, sys.stdout)
    failed = [r for r in reports if not r.passed]
    total = len(reports)
    print(f"suite {args.suite}: {total - len(failed)}/{total} checks passed", file=sys.stderr)
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxnoether",
        description="Exact checks for curve singularities and Max Noether surjectivity.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    sg = top.add_parser("sg", help="inspect and enumerate numerical semigroups")
    sg_sub = sg.add_subparsers(dest="subcommand", required=True)

    info = sg_sub.add_parser("info", help="invariants, canonical ideal and blowup data")
    info.add_argument("--gens", required=True, help="comma-separated generators, e.g. 3,4,5")
    info.add_argument("--json", action="store_true")
    info.set_defaults(func=cmd_sg_info)

    enum = sg_sub.add_parser("enumerate", help="all semigroups up to a genus bound")
    enum.add_argument("--max-genus", type=int, required=True)
    enum.add_argument("--min-multiplicity", type=int, default=1)
    enum.add_argument("--json", action="store_true")
    enum.set_defaults(func=cmd_sg_enumerate)

    ver = top.add_parser("verify", help="run verification checks")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)

    local = ver_sub.add_parser("local", help="value-level covering at one singular point")
    local.add_argument("--gens", required=True)
    local.add_argument("--n", type=_at_least(1), default=2)
    local.add_argument("--json", action="store_true")
    local.set_defaults(func=cmd_verify_local)

    noether = ver_sub.add_parser("noether", help="product span versus full section space")
    noether.add_argument("--curve", help="curve spec JSON file")
    noether.add_argument("--gens", help="single singularity at the origin")
    noether.add_argument("--n", type=_at_least(1), default=2)
    noether.add_argument("--json", action="store_true")
    noether.set_defaults(func=cmd_verify_noether)

    corpus = ver_sub.add_parser("corpus", help="run a named suite, emit JSONL reports")
    corpus.add_argument("--suite", required=True, choices=sorted(SUITES))
    corpus.add_argument("--max-genus", type=_at_least(0))
    corpus.add_argument("--n", type=_at_least(1))
    corpus.add_argument("--out", help="output JSONL path (default: stdout)")
    corpus.set_defaults(func=cmd_verify_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except MaxNoetherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def sg_main() -> None:
    sys.exit(main(["sg"] + sys.argv[1:]))


def verify_main() -> None:
    sys.exit(main(["verify"] + sys.argv[1:]))

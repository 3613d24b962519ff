"""Command-line surface: semigroup inspection and verification runs.

Two console scripts are installed, ``sg`` (inspect and enumerate numerical
semigroups) and ``verify`` (run the local covering checks, the global
surjectivity oracle, and the corpus suites).  Exit status is 0 when every
check passed, 1 on a check failure, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from contextlib import contextmanager, nullcontext

from . import blowup as blowup_mod
from .curves import (
    MAX_WEIGHT,
    RationalCurveModel,
    degree_margin,
    find_pencil,
    max_noether_holds,
    pencil_weight,
    power_index,
    section_valuations,
)
from .errors import MaxNoetherError, NotApplicable, UnreadBound, WeightTooLarge
from .local import LocalContext, build_certificates, case_epsilon, verify_local_surjectivity
from .reports import json_encoder, write_jsonl
from .semigroup import NumericalSemigroup, enumerate_semigroups
from .suites import GENUS_CAPS, READS_N, SUITES, SuiteParams, check_genus_cap, iter_suite
from .valueset import ValueSet, dualizing_values


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
    ana = blowup_mod.analyze(s)
    dualizing = dualizing_values(s)
    drop = None if s.is_symmetric() else ana.genus_drop()
    data = {
        "semigroup": s.to_json(),
        "frobenius": s.frobenius,
        "symmetric": s.is_symmetric(),
        "almost_gorenstein": s.is_almost_gorenstein(),
        "pseudo_frobenius": list(s.pseudo_frobenius()) if s.gaps else [],
        "canonical_ideal": ana.canonical.to_json(),
        "dualizing_values": dualizing.to_json(),
        "blowup": ana.to_json(),
    }
    if drop is not None:
        data["genus_drop"] = drop
    if args.json:
        print(json.dumps(data, sort_keys=True))
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
            ("canonical ideal", str(ana.canonical)),
            ("dualizing values", str(dualizing)),
            ("blowup values", str(ana.blowup_values)),
            ("stabilization index", str(ana.stabilization_index)),
            ("blowup genus", str(ana.blowup_genus)),
            ("eta", str(ana.eta)),
        ]
    )
    if drop is not None:
        rows.append(("genus drop", str(drop)))
    _print_table(rows)
    return 0


def cmd_sg_enumerate(args) -> int:
    # a whole genus level is held at once, ~1.6x the last one (--max-genus 20 peaks at 58 MB
    # in 1.9-2.5 s, 22 at 135 MB in 4.8 s); no suite walks deeper than blowup
    check_genus_cap("blowup", SuiteParams(max_genus=args.max_genus))
    if args.min_multiplicity > args.max_genus + 1:
        raise MaxNoetherError(
            f"--min-multiplicity {args.min_multiplicity} admits no semigroup of genus at most "
            f"--max-genus {args.max_genus}: genus g allows multiplicity at most g + 1"
        )
    # one encoder for every line: json.dumps(..., sort_keys=True) would build one per line
    encode = json_encoder((", ", ": "))
    for s in enumerate_semigroups(args.max_genus, args.min_multiplicity):
        if args.json:
            print("".join(encode(s.to_json(), 0)))
        else:
            print(f"{str(s):24} genus {s.genus:2}  gaps {_ints(s.gaps)}")
    return 0


def cmd_verify_local(args) -> int:
    if args.n > MAX_WEIGHT:
        raise WeightTooLarge(f"weight {args.n} is above MAX_WEIGHT = {MAX_WEIGHT}")
    s = _parse_gens(args.gens)
    # refuses <1> before the symmetry test: <1> is symmetric but has no singular point
    LocalContext(s)
    if s.is_symmetric():
        raise NotApplicable("symmetric semigroup: the point is Gorenstein, nothing to verify")
    curve = RationalCurveModel.from_semigroups([s])
    attained = section_valuations(curve, curve.branches[0].center)
    # certify with the values reported: the attained ones, moved by alpha onto K
    ctx = LocalContext(s, ValueSet.finite(v + s.conductor for v in attained))
    data: dict = {
        "semigroup": s.to_json(),
        "case": ctx.case,
        "attained_values": list(attained),
        "d1": ctx.d1,
        "d2": ctx.d2,
        "r": ctx.r,
        "p": ctx.p,
    }
    ok = True
    if ctx.q_pairs is not None:
        ok &= all(v < ctx.alpha for v in ctx.q_sums)
        data["q_pairs"] = [list(p) for p in ctx.q_pairs]
    certs = build_certificates(ctx, max(args.n, 2))
    defects = [d for c in certs for d in c.check(ctx.section_values)]
    ok &= not defects
    data["certificates"] = [
        {
            "name": c.name,
            "entries": c.labelled_values(),
        }
        for c in certs
    ]
    data["certificate_defects"] = defects
    coverings = []
    for n in range(1, args.n + 1):
        res = verify_local_surjectivity(ctx, n, case_epsilon(ctx.case, n))
        ok &= res.ok
        coverings.append(res.to_json())
    data["coverings"] = coverings
    if args.json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(f"{s}  case ({ctx.case})  d1={ctx.d1} d2={ctx.d2} r={ctx.r} p={ctx.p}")
        if "q_pairs" in data:
            print(f"q-decomposition: {data['q_pairs']}")
        for c in certs:
            table = "  ".join(f"{label}={value}" for label, value in c.labelled_values()) or "(empty)"
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
    if args.curve is not None:
        curve = RationalCurveModel.from_file(args.curve)
    else:
        curve = RationalCurveModel.from_semigroups([_parse_gens(args.gens)])
    if args.all_n:
        return _verify_noether_all_n(curve, args.json)
    check = max_noether_holds(curve, args.n)
    if args.json:
        print(json.dumps({"curve": curve.to_json(), "check": check.to_json()}, sort_keys=True))
    else:
        print(f"{curve}  n={args.n}: {check.describe()}")
    return 0 if check.holds else 1


def _verify_noether_all_n(curve: RationalCurveModel, as_json: bool) -> int:
    """Noether at every weight: exact checks at n = 2..N0, then a certified pencil.

    Weight 1 holds by definition.  The pencil is searched for on any curve,
    a lone branch included, and it proves every weight past N0 (see the
    ``curves`` module docstring).  Exit 0 iff every base check holds and a
    pencil is certified.
    """
    n0 = pencil_weight(curve)
    data: dict = {
        "curve": curve.to_json(),
        "n0": n0,
        "stabilization_indices": [power_index(br.semigroup) for br in curve.branches],
        "degree_margin": None if n0 is None else degree_margin(curve, n0),
        "pencil_degrees": None,
        "failed": None,
    }
    checks = []
    if n0 is None:
        data["failed"] = "degree-bound"
    else:
        for n in range(2, n0 + 1):
            check = max_noether_holds(curve, n)
            checks.append(check)
            if not check.holds:
                data["failed"] = f"base-case-n{n}"
                break
        else:
            pencil = find_pencil(curve)
            if isinstance(pencil, str):
                data["failed"] = pencil
            else:
                data["pencil_degrees"] = [h[-1][0] for h in pencil]
    data["checks"] = [check.to_json() for check in checks]
    data["holds"] = data["failed"] is None
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        margin = data["degree_margin"]
        print(
            f"{curve}  N0={_ints([n0] if n0 else [])}  r_P={_ints(data['stabilization_indices'])}"
            f"  degree margin {'-' if margin is None else margin}"
        )
        for check in checks:
            print(f"n={check.n}: {check.describe()}")
        if data["holds"]:
            degrees = _ints(data["pencil_degrees"])
            print(f"pencil of degrees {degrees}: surjective for every n >= 1")
        else:
            print(f"not certified: {data['failed']}")
    return 0 if data["holds"] else 1


def cmd_verify_corpus(args) -> int:
    params = SuiteParams(max_genus=args.max_genus, max_n=args.n)
    # a bound the suite does not read would pass checks it never made
    for flag, value, readers in (
        ("--max-genus", args.max_genus, GENUS_CAPS),
        ("--n", args.n, READS_N),
    ):
        if value is not None and args.suite not in readers:
            raise UnreadBound(f"suite {args.suite} does not read {flag}")
    check_genus_cap(args.suite, params)  # before --out is touched, as the weight cap is
    made = [0, 0]  # failed, passed: counted as the lines are written, not kept

    def counted(reports):
        for report in reports:
            made[bool(report.passed)] += 1
            yield report

    with _output(args.out) if args.out else nullcontext(sys.stdout) as fp:
        write_jsonl(counted(iter_suite(args.suite, params)), fp)
        if not sum(made):
            raise MaxNoetherError(
                f"suite {args.suite} made no checks at these bounds; nothing was verified"
            )
    failed, total = made[0], sum(made)
    print(f"suite {args.suite}: {total - failed}/{total} checks passed", file=sys.stderr)
    return 0 if not failed else 1


@contextmanager
def _output(out: str):
    """``out`` opened for the lines of one run; a path that cannot be written fails at once.

    A new path, or a regular file of this user's that is not a symlink and
    has no other hard link, gets its lines through a temp file beside it,
    moved onto it with the file's permission bits once the block ends without
    an error: a block that raises leaves an existing file as it was, creates
    none, and leaves no temp file.  Any other ``out`` (a symlink, a device
    such as ``/dev/null``, a FIFO, a file with other links or another owner,
    or a file whose directory takes no temp file) is opened with ``"w"`` and
    written through, as a shell redirection writes it.
    """
    try:
        st = os.lstat(out)
    except OSError:
        st = None  # a missing path; any other fault is met again opening it below
    fp = None
    if st is None or (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
    ):
        tmp = f"{out}.{os.getpid()}.tmp"
        try:
            if st is not None:
                open(out, "a", encoding="utf-8").close()  # writable, as "w" would need
            fp = open(tmp, "x", encoding="utf-8")
        except OSError:
            pass  # written through below, where an unwritable out fails
    if fp is None:
        try:
            fp = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise MaxNoetherError(f"cannot write output: {exc}") from exc
        with fp:
            yield fp
        return
    try:
        with fp:
            if st is not None:
                os.fchmod(fp.fileno(), stat.S_IMODE(st.st_mode))
            yield fp
        os.replace(tmp, out)
    except BaseException:
        os.remove(tmp)
        raise


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
    enum.add_argument("--max-genus", type=_at_least(0), required=True)
    enum.add_argument("--min-multiplicity", type=_at_least(1), default=1)
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
    source = noether.add_mutually_exclusive_group(required=True)
    source.add_argument("--curve", help="curve spec JSON file")
    source.add_argument("--gens", help="single singularity at the origin")
    weights = noether.add_mutually_exclusive_group()
    weights.add_argument("--n", type=_at_least(1), default=2)
    weights.add_argument(
        "--all-n", action="store_true", help="every weight: exact up to N0, then a pencil"
    )
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
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a write stdout refuses fails here, not at exit
        return code
    except MaxNoetherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every input is read through MaxNoetherError, so an output refused a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            # stdout refuses what it still buffers: point it at the null
            # device, or the flush at exit fails again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


def sg_main() -> None:
    sys.exit(main(["sg"] + sys.argv[1:]))


def verify_main() -> None:
    sys.exit(main(["verify"] + sys.argv[1:]))

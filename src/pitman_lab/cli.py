"""Command-line entry point: machine-readable access to every verifier,
law table, scaling check and sampler.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage / out-of-regime
parameters.  Each verdict comes from the library, and each refusal of a
parameter's range but the start-law price (``_priced_start``); this module
parses arguments and prints reports.  All randomness is governed by --seed,
one Philox stream per seed; every report embeds the schema tag, package
version and the full parameter set, so runs are self-describing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

from . import __version__
from .exact import (Approx, RegimeError, UnsupportedExactModeError, left_sum, parse_rat, prob_json,
                    rat_str)
from .paths import Path, HorizonCapError
from .processes import (
    Params,
    chain_increment_law,
    parse_initial_law,
    walk_law,
)
from .representation import (
    damage_check,
    g_law_from_initial,
    rhs_law_enumeration,
    verify_thm1,
    verify_two_sided,
)
from .conditioning import verify_thm2
from .scaling import (
    LimitLevelLaw,
    MuMeasure,
    continuity_check,
    donsker_check,
    kernel_limit_ladder,
    limit_process_sample,
)
from .sampling import RngStream, check_path_levels, sample_chain, sample_walk
from .transform import preimage, verify_tropical

SCHEMA = "report-v1"
_GRID_CAP = 100_000  # points of one --grid
#: the most bits b^(k+1) - a^(k+1) may have for the top atom k of an exact
#: --initial law at q = a/b: every exact route builds that q-bracket, and
#: the gcds of values its size grow with its square (`verify thm1` at
#: rho = 2/3, sigma = 1, t = 2 took 0.8 s from a point start of 317 000 bits
#: and 2.2 s from one of 523 000, 2 shared vCPUs)
BRACKET_BUDGET_BITS = 1 << 19
_JSON_BLOCK = 1024  # items per C-encoded string of a report


def _emit(report: dict, args) -> int:
    # the command is named by the subcommands on the command line
    words = (args.cmd, getattr(args, "what", None), getattr(args, "object", None))
    report = {"schema": SCHEMA, "version": __version__,
              "command": " ".join(w for w in words if w), **report}
    status = report.get("status", "PASS")
    if getattr(args, "out", "json") == "csv" and "rows" in report:
        cols = list(report["rows"][0])
        print(",".join(cols))
        for row in report["rows"]:
            print(",".join(str(row[c]) for c in cols))
    else:
        print(_json_text(report))
    return 0 if status in ("PASS", None) else 1


def _json_text(report: dict) -> str:
    """``json.dumps(report, indent=2, default=str)``, byte for byte.  The
    stdlib encodes with its pure-Python encoder whenever an indent is set.
    Here only containers holding a container are walked in Python; the items
    of any other container (a table's entries) go through the C encoder,
    whose item separator carries the newline and the indent, in blocks of
    ``_JSON_BLOCK`` items, so no encoded block holds a whole table."""
    containers = (dict, list, tuple)
    chunks = []

    def walk(obj, level):
        if not isinstance(obj, containers):
            chunks.append(json.dumps(obj, default=str))
            return
        is_dict = isinstance(obj, dict)
        if not obj:
            chunks.append("{}" if is_dict else "[]")
            return
        pad = "\n" + "  " * (level + 1)
        items = obj.items() if is_dict else obj
        chunks.append("{" if is_dict else "[")
        if any(issubclass(kind, containers)
               for kind in set(map(type, obj.values() if is_dict else obj))):
            for i, item in enumerate(items):
                chunks.append(pad if i == 0 else "," + pad)
                if is_dict:
                    # the key as the C encoder converts it: '{"key": null}' less its ends
                    chunks.append(json.dumps({item[0]: None}, default=str)[1:-7] + ": ")
                    item = item[1]
                walk(item, level + 1)
        else:
            encode = json.JSONEncoder(separators=("," + pad, ": "), default=str).encode
            items, sep = iter(items), pad
            while block := list(itertools.islice(items, _JSON_BLOCK)):
                chunks.extend((sep, encode(dict(block) if is_dict else block)[1:-1]))
                sep = "," + pad
        chunks.append("\n" + "  " * level + ("}" if is_dict else "]"))

    walk(report, 0)
    return "".join(chunks)


def _params(args) -> Params:
    return Params(parse_rat(args.rho), parse_rat(args.sigma))


def _grid(text: str):
    """The points start, start + step, ... <= stop of ``--grid start:stop:step``."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:  # a part missing or not a number: refused as non-finite below
        start = stop = step = math.nan
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"--grid takes start:stop:step, three finite numbers, got {text!r}")
    if not step > 0:
        raise ValueError(f"--grid step must be > 0, got {step}: the grid would never end")
    last = (stop + 1e-12 - start) / step  # index of the last point
    if last >= _GRID_CAP:  # inf when stop - start overflows
        count = math.floor(last) + 1 if math.isfinite(last) else last
        raise ValueError(f"--grid {text} holds {count} points, more than the "
                         f"{_GRID_CAP} allowed")
    return [round(start + i * step, 12) for i in range(math.floor(last) + 1)]


def _ladder(text: str) -> list:
    """The N values of ``--N 100,10000``, each an integer >= 1."""
    try:
        ladder = [int(n) for n in text.split(",")]
    except ValueError:
        raise ValueError(f"--N takes a comma-separated list of integers such as "
                         f"100,10000, got {text!r}") from None
    if min(ladder) < 1:
        raise ValueError(f"--N must be >= 1 in every entry of its comma-separated list, "
                         f"got {text!r}")
    return ladder


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_preimage(args):
    x = Path.parse(args.path)
    return {**preimage(x).to_json(), "check": "preimage", "path": str(x), "status": "PASS"}


def _cmd_law(args):
    params = _params(args)
    if args.object == "walk":
        table = walk_law(args.t, params)
    elif args.object == "chain":
        _refuse_unprintable_start(args, parse_initial_law(args.initial), params)
        table = chain_increment_law(args.t, _priced_start(args), params, route=args.route)
    elif args.object == "rhs":
        glaw = (parse_initial_law(args.glaw) if args.glaw
                else g_law_from_initial(_priced_start(args), params, "G"))
        table = rhs_law_enumeration(args.t, glaw, params)
    else:  # level
        if args.nmax < 0:
            raise ValueError(f"--nmax must be >= 0, got {args.nmax}: no level would be printed")
        glaw = g_law_from_initial(_priced_start(args), params, args.which)
        # float laws carry their certified error: {"value", "err"} per level
        entries = _printable(args, lambda: {
            n: prob_json(glaw.pmf(n) if glaw.exact else Approx(glaw.pmf(n), glaw.pmf_err(n)))
            for n in range(args.nmax + 1)})
        return {"check": "law", "params": params.to_json(),
                "which": args.which, "pmf": entries, "status": "PASS"}
    printed = _printable(args, table.to_json)
    # approx: the float sum of the printed entries (class values times sizes round apart)
    mass = table.mass() if table.mode == "exact" else left_sum(printed["entries"].values())
    return {"check": "law", "params": params.to_json(),
            "table": printed, "mass": prob_json(mass), "status": "PASS"}


def _printable(args, to_json):
    """to_json(), with an exact rational too long for str() (more than
    sys.get_int_max_str_digits() digits) refused by the flag that set the law."""
    try:
        return to_json()
    except ValueError:
        if args.object == "walk":
            raise
        raise _unprintable(args) from None


def _unprintable(args) -> ValueError:
    flag = "--glaw" if getattr(args, "glaw", None) else "--initial"
    return ValueError(f"{flag} {getattr(args, flag[2:])} gives an exact law with rationals "
                      f"of more than {sys.get_int_max_str_digits()} digits, more than an "
                      "exact table prints; take a start law with smaller levels")


def _refuse_unprintable_start(args, law, params):
    """Refuse a point start k whose chain table ``_printable`` would refuse,
    before any of its brackets is built.

    The all-up path's value is (1/(rho z))^t [k+t+1]_q/[k+1]_q, and with
    M(m) = |qd^m - qn^m| (q = qn/qd in lowest terms) the bracket ratio is
    M(k+t+1)/(qd^t M(k+1)).  For coprime qn, qd, gcd(M(a), M(b)) =
    M(gcd(a, b)), and g = gcd(k+t+1, k+1) divides t, so in lowest terms the
    ratio's denominator keeps M(k+1)/M(g) > max(qn, qd)^(k-t), of which
    (1/(rho z))^t = (rd zd)^t/(rn zn)^t cancels at most (rd zd)^t.  When
    what is left is 10^limit or more, the table cannot print.  At q = 1 the
    price is 0 and nothing is refused here."""
    limit, atoms = sys.get_int_max_str_digits(), law.atoms()
    if not limit or args.t < 1 or atoms is None or len(atoms) != 1:
        return
    k, t = atoms[0][0], args.t
    qmax = max(params.q.numerator, params.q.denominator)
    cancel = (params.rho.denominator * params.z.denominator).bit_length()
    bits = (k - t) * (qmax.bit_length() - 1) - t * cancel  # log2 of the denominator, at least
    if bits * 1000 > limit * 3322:  # 2^bits > 10^limit, as log2(10) < 3.322
        raise _unprintable(args)


def _priced_start(args):
    """The --initial law of an exact command, refused before any of its
    brackets is built when its top atom k prices its q-bracket's numerator
    b^(k+1) - a^(k+1) (q = rho^2 = a/b in lowest terms, or 1/q, the same
    price) at more than BRACKET_BUDGET_BITS: about (k + 1) log2 max(a, b)
    bits, 0 at q = 1, where the bracket is k + 1."""
    law, q = parse_initial_law(args.initial), _params(args).q
    atoms = law.atoms()
    if atoms is not None:
        k = atoms[-1][0]
        bits = math.ceil((k + 1) * math.log2(max(q.numerator, q.denominator)))
        if bits > BRACKET_BUDGET_BITS:
            raise ValueError(f"--initial {args.initial} has an atom at level {k}, whose q-bracket "
                             f"at q = {rat_str(q)} takes about {bits} bits, over the budget of "
                             f"{BRACKET_BUDGET_BITS} bits of an exact start law; take a start "
                             "law with smaller levels")
    return law


def _cmd_sample(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}: "
                         "zero samples would print no path")
    if args.object != "limit-process":
        check_path_levels(args.t, args.samples)
    rng = RngStream(args.seed)
    if args.object == "walk":
        vals = sample_walk(args.t, _params(args), rng, n=args.samples)
    elif args.object == "chain":
        vals = sample_chain(args.t, parse_initial_law(args.initial), _params(args), rng,
                            n=args.samples)
    else:  # limit-process
        gamma = LimitLevelLaw(float(parse_rat(args.v)), MuMeasure.point(args.gamma_point))
        grid = _grid(args.grid)
        vals = limit_process_sample(float(parse_rat(args.v)), gamma, grid, None, rng,
                                    n=args.samples, sigma=float(parse_rat(args.sigma)))
        return {"check": "sample", "seed": args.seed, "grid": grid,
                "paths": [list(map(float, row)) for row in vals], "status": "PASS"}
    return {"check": "sample", "seed": args.seed, "params": _params(args).to_json(),
            "paths": [",".join(map(str, row)) for row in vals.tolist()], "status": "PASS"}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_params(p, rho=True):
    if rho:
        p.add_argument("--rho", required=True, help="walk asymmetry, a rational like 1/2")
    p.add_argument("--sigma", default="0", help="flat-step weight, rational (default 0)")


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pitman-lab",
        description="exact verification and simulation lab for max-transform "
                    "representations of lattice walks",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    ver = sub.add_parser("verify", help="run an exact identity check")
    vsub = ver.add_subparsers(dest="what", required=True)

    p = vsub.add_parser("thm1", help="chain law == transformed-walk law")
    _add_params(p)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--initial", required=True)
    p.add_argument("--part", choices=["I", "II"], default="I")
    p.add_argument("--candidate", help="level law to test instead of the derived one")
    p.set_defaults(fn=lambda a: verify_thm1(
        a.t, _priced_start(a), _params(a), a.part,
        candidate=parse_initial_law(a.candidate) if a.candidate else None))

    p = vsub.add_parser("thm2", help="chain law == conditioned-walk law")
    _add_params(p)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--initial", required=True)
    p.add_argument("--part", choices=["I", "II"], default="I")
    p.set_defaults(fn=lambda a: verify_thm2(a.t, _priced_start(a), _params(a), a.part))

    p = vsub.add_parser("two-sided", help="plain vs sign-flipped representations")
    _add_params(p)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--initial", required=True)
    p.set_defaults(fn=lambda a: verify_two_sided(a.t, _priced_start(a), _params(a)))

    p = vsub.add_parser("tropical", help="max-plus operator identities")
    p.add_argument("--t-exhaustive", type=int, default=6)
    p.add_argument("--t-random", type=int, default=50)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--g-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=lambda a: verify_tropical(a.t_exhaustive, a.t_random, a.samples,
                                                a.g_max, a.seed))

    p = vsub.add_parser("damage", help="independent split of a q-negative-binomial count")
    p.add_argument("--q", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--nmax", type=int, default=60)
    p.set_defaults(fn=lambda a: damage_check(parse_rat(a.q), parse_rat(a.theta), a.nmax))

    p = sub.add_parser("preimage", help="complete inverse image of a path")
    p.add_argument("--path", required=True, help="comma-separated values, e.g. 0,1,0,-1")
    p.set_defaults(fn=_cmd_preimage)

    lsub = sub.add_parser("law", help="emit an exact law table").add_subparsers(
        dest="object", required=True)
    law = {obj: lsub.add_parser(obj) for obj in ("chain", "walk", "rhs", "level")}
    for obj, p in law.items():
        p.set_defaults(fn=_cmd_law)
        _add_params(p)
        if obj != "level":
            p.add_argument("--t", type=int, default=3)
    law["chain"].add_argument("--initial", required=True, help="initial law string")
    law["chain"].add_argument("--route", choices=["formula", "product"], default="formula")
    rhs_level = law["rhs"].add_mutually_exclusive_group(required=True)
    rhs_level.add_argument("--initial", help="initial law string, whose level law G is used")
    rhs_level.add_argument("--glaw", help="explicit level law")
    law["level"].add_argument("--initial", required=True, help="initial law string")
    law["level"].add_argument("--which", choices=["G", "Gtilde"], default="G")
    law["level"].add_argument("--nmax", type=int, default=20)

    sc = sub.add_parser("scaling", help="continuum-limit checks")
    ssub = sc.add_subparsers(dest="what", required=True)

    p = ssub.add_parser("continuity", help="scaled level law vs its continuum CDF")
    p.add_argument("--N", type=int, default=10000)
    p.add_argument("--v", default="1/2")
    p.add_argument("--regime", choices=["point", "power", "corollary"], default="point")
    p.add_argument("--grid", default="0.1:3.0:0.1")
    p.add_argument("--u", help="second rate for the corollary regime")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.set_defaults(fn=lambda a: continuity_check(a.N, parse_rat(a.v), a.regime, _grid(a.grid),
                                                 u=parse_rat(a.u) if a.u else None))

    p = ssub.add_parser("kernel", help="transition-kernel limit error ladder")
    p.add_argument("--N", default="100,10000", help="comma-separated ladder")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--v", type=float, default=0.5)
    p.set_defaults(fn=lambda a: kernel_limit_ladder(_ladder(a.N),
                                                    a.t, a.x, a.y, a.v))

    p = ssub.add_parser("donsker", help="chain marginal vs Brownian functional (KS)")
    p.add_argument("--N", type=int, default=2500)
    p.add_argument("--v", default="2/5")
    p.add_argument("--sigma", default="2")
    p.add_argument("--initial", default="point:0")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=lambda a: donsker_check(a.N, parse_rat(a.v), parse_rat(a.sigma),
                                              parse_initial_law(a.initial), a.samples,
                                              a.seed))

    sa = sub.add_parser("sample", help="reproducible draws")
    sasub = sa.add_subparsers(dest="object_parser", required=True)
    for obj in ("walk", "chain", "limit-process"):
        p = sasub.add_parser(obj)
        p.set_defaults(object=obj, fn=_cmd_sample)
        _add_params(p, rho=obj != "limit-process")
        if obj != "limit-process":
            p.add_argument("--t", type=int, default=10)
        if obj == "chain":
            p.add_argument("--initial", default="point:0")
        p.add_argument("--samples", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        if obj == "limit-process":
            p.add_argument("--v", default="0")
            p.add_argument("--gamma-point", type=float, default=0.0)
            p.add_argument("--grid", default="0.0:1.0:0.125")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.fn(args)
    except (RegimeError, UnsupportedExactModeError, HorizonCapError, ValueError) as exc:
        print(json.dumps({"schema": SCHEMA, "version": __version__,
                          "error": str(exc), "status": "USAGE"}), file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())

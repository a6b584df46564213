"""Command-line interface.

Every command writes JSON (or CSV for row-oriented output) to stdout or
--out, and exits with: 0 success, 1 audit or verification failure, 2 bad
input, 3 resource cap exceeded. The FFWITNESS_CAP environment variable, when
set, overrides --cap-field.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import nt
from .charsum import weil_audit_instances
from .construct import (
    audit_bounds_rows,
    construct_pipeline,
    coulter_kosick_check,
    hm_artin_schreier_check,
    mn_conjecture_search,
    primitive_set_search,
    survey_rows,
    verify_report,
)
from .field import DEFAULT_CAP, CapExceeded

EXIT_OK = 0
EXIT_AUDIT = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def _effective_cap(args) -> int:
    env = os.environ.get("FFWITNESS_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FFWITNESS_CAP must be an integer, got {env!r}") from None
    return args.cap_field


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv_text(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _rows_out(rows: list[dict], columns: list[str], args) -> None:
    if args.format == "csv":
        _emit(_csv_text(rows, columns), args.out)
    else:
        _emit(_json_text(rows), args.out)


# -- commands ----------------------------------------------------------------


def _cmd_construct(args) -> int:
    cap = _effective_cap(args)
    rep = construct_pipeline(
        args.p, args.k, args.h, args.d, alpha_index=args.alpha, t=args.t, cap=cap
    )
    _emit(_json_text(rep.to_json()), args.out)
    return EXIT_OK if rep.verified else EXIT_AUDIT


SURVEY_COLUMNS = [
    "q", "h", "d", "r", "t", "t_strict", "set_size", "m_h",
    "cond1", "cond2", "cond3", "cond4", "guaranteed", "certified",
    "floor_log2_qm1", "sqrt_q", "log2_claim_ok", "status",
]


def _cmd_survey(args) -> int:
    cap = _effective_cap(args)
    if args.q_min > args.q_max:
        raise ValueError("--q-min must not exceed --q-max")
    rows = survey_rows(args.q_min, args.q_max, args.h, args.d, cap=cap)
    _rows_out(rows, SURVEY_COLUMNS, args)
    bad = any(r.get("status") == "ok" and not r.get("certified") for r in rows)
    return EXIT_AUDIT if bad else EXIT_OK


WEIL_COLUMNS = ["q", "m", "f", "chi", "re", "im", "abs", "bound", "applicable", "ok"]


def _cmd_audit_weil(args) -> int:
    cap = _effective_cap(args)
    qs = [int(x) for x in args.q_list.split(",") if x]
    if not qs:  # an audit of no field would pass vacuously
        raise ValueError("--q-list names no q to audit")
    rows = []
    violated = False
    for q in qs:
        for inst in weil_audit_instances(
            q, args.m, args.count, max_degree=args.max_degree, seed=args.seed, cap=cap
        ):
            res = inst.result
            ok = inst.ok
            if ok is False:
                violated = True
            rows.append(
                {
                    "q": inst.q,
                    "m": inst.m,
                    "f": ":".join(str(c) for c in inst.f.coeffs),
                    "chi": inst.chi.index,
                    "re": f"{res.value.real:.9f}",
                    "im": f"{res.value.imag:.9f}",
                    "abs": f"{abs(res.value):.9f}",
                    "bound": "" if res.bound is None else f"{res.bound:.9f}",
                    "applicable": "unknown" if res.applicable is None else res.applicable,
                    "ok": ok,
                }
            )
    _rows_out(rows, WEIL_COLUMNS, args)
    return EXIT_AUDIT if violated else EXIT_OK


BOUNDS_COLUMNS = ["q", "m_h", "floor_log2_qm1", "sqrt_ok", "log2_claim_ok"]


def _cmd_audit_bounds(args) -> int:
    rows = audit_bounds_rows(args.q_max, args.h)
    if not rows:  # an audit of no q would pass vacuously
        raise ValueError(f"no odd prime power q in 3..{args.q_max} to audit")
    _rows_out(rows, BOUNDS_COLUMNS, args)
    return EXIT_AUDIT if any(not r["sqrt_ok"] for r in rows) else EXIT_OK


def _cmd_primitive(args) -> int:
    cap = _effective_cap(args)
    rep = primitive_set_search(args.q, args.n, args.t, alpha_index=args.alpha, cap=cap)
    _emit(_json_text(rep.to_json()), args.out)
    return EXIT_OK if rep.verified else EXIT_AUDIT


def _cmd_mn_search(args) -> int:
    cap = _effective_cap(args)
    witness = mn_conjecture_search(args.q, args.kk, args.l, cap=cap)
    payload = {
        "q": args.q,
        "kk": args.kk,
        "l": args.l,
        "found": witness is not None,
        "witness": None if witness is None else witness.to_json(),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK if witness is not None else EXIT_AUDIT


def _checks_out(key: str, results: list[dict], args) -> int:
    # one {key: ..., "ok": ...} row per checked field; none makes all_ok vacuous
    if not results:
        raise ValueError(f"no {key} to check")
    all_ok = all(r["ok"] for r in results)
    if args.format == "csv":
        _emit(_csv_text(results, [key, "ok"]), args.out)
    else:
        _emit(_json_text({"results": results, "all_ok": all_ok}), args.out)
    return EXIT_OK if all_ok else EXIT_AUDIT


def _cmd_ck_check(args) -> int:
    cap = _effective_cap(args)
    lo, hi = args.q_min, args.q_max
    if lo > hi:
        raise ValueError("--q-min must not exceed --q-max")
    # every row builds GF(q**2), so the largest odd prime power of the range,
    # found scanning down from hi (from below 2**63, where the prime test
    # works), decides the cap before any row is computed. A range holding
    # q = 3 or 5 is left to its first row, which refuses it as bad input.
    scan = range(min(hi, nt.FACTOR_CAP - 1), lo - 1, -1)
    top = next((q for q in scan if q % 2 and nt.is_prime_power(q)), None)
    if top is not None and top * top > cap and not any(lo <= q <= hi for q in (3, 5)):
        p, k = nt.is_prime_power(top)
        raise CapExceeded(f"field size {p}**{2 * k} exceeds cap {cap}")
    qs = (q for q in nt.prime_powers_in(lo, hi) if q % 2 == 1)
    return _checks_out("q", [{"q": q, "ok": coulter_kosick_check(q, cap=cap)} for q in qs], args)


def _cmd_hm_check(args) -> int:
    cap = _effective_cap(args)
    ps = [int(x) for x in args.p_list.split(",") if x]
    return _checks_out("p", [{"p": p, "ok": hm_artin_schreier_check(p, cap=cap)} for p in ps], args)


def _cmd_verify(args) -> int:
    cap = _effective_cap(args)
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read report: {exc}") from None
    ok, problems = verify_report(report, cap=cap)
    _emit(_json_text({"ok": ok, "problems": problems}), args.out)
    return EXIT_OK if ok else EXIT_AUDIT


# -- parser ------------------------------------------------------------------


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads: --out everywhere,
    # --cap-field where a field is built, --format where rows are printed
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output path (default stdout)")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--cap-field",
        type=int,
        default=DEFAULT_CAP,
        help=f"largest constructible field (default {DEFAULT_CAP}); FFWITNESS_CAP overrides",
    )
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--format", choices=("json", "csv"), default="json")

    ap = argparse.ArgumentParser(
        prog="ffwitness",
        description="explicit subsets of finite fields with certified special elements",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help, *, cap=True, fmt=False):
        parents = [out] + [capped] * cap + [rows] * fmt
        cmd = sub.add_parser(name, parents=parents, help=help)
        cmd.set_defaults(fn=fn)
        return cmd

    c = command("construct", _cmd_construct, "build one set and certify a non-d-th power")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--h", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--t", type=int, default=None, help="force t instead of deriving it")
    c.add_argument("--alpha", type=int, default=None, help="alpha index (default: minimal primitive)")

    s = command("survey", _cmd_survey, "one pipeline row per prime power in a range", fmt=True)
    s.add_argument("--q-min", type=int, required=True)
    s.add_argument("--q-max", type=int, required=True)
    s.add_argument("--h", type=int, default=2)
    s.add_argument("--d", type=int, default=2)

    w = command("audit-weil", _cmd_audit_weil, "seeded random character-sum bound audit", fmt=True)
    w.add_argument("--q-list", required=True, help="comma-separated base prime powers")
    w.add_argument("--m", type=int, default=2)
    w.add_argument("--count", type=int, default=200, help="applicable instances per q")
    w.add_argument(
        "--max-degree",
        type=int,
        default=3,
        help="largest degree of the sampled f (default 3); the work grows quickly with it: "
        "--q-list 101 --m 2 --count 5 --max-degree 400 runs past 15 s",
    )
    w.add_argument("--seed", type=int, default=0, help="RNG seed for the sampled instances")

    b = command(
        "audit-bounds", _cmd_audit_bounds, "M(h) < sqrt(q) audit and log2 claim tabulation", cap=False, fmt=True
    )
    b.add_argument("--q-max", type=int, default=10000)
    b.add_argument("--h", type=int, default=2)

    pr = command("primitive", _cmd_primitive, "primitive elements in a constructed set")
    pr.add_argument("--q", type=int, required=True)
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--t", type=int, default=1)
    pr.add_argument("--alpha", type=int, default=None)

    mn = command("mn-search", _cmd_mn_search, "search a constrained irreducible witness")
    mn.add_argument("--q", type=int, required=True)
    mn.add_argument("--kk", type=int, required=True)
    mn.add_argument("--l", type=int, required=True)

    ck = command("ck-check", _cmd_ck_check, "square/non-square coset check over a range", fmt=True)
    ck.add_argument("--q-min", type=int, default=7)
    ck.add_argument("--q-max", type=int, default=49)

    hm = command("hm-check", _cmd_hm_check, "Artin-Schreier non-square coset check", fmt=True)
    hm.add_argument("--p-list", default="3,5,7", help="comma-separated odd primes")

    v = command("verify", _cmd_verify, "rerun the pipeline behind a saved report and compare")
    v.add_argument("report", help="path to a report JSON file")

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

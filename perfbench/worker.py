"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload survey --seed 0 --trace 0

The worker imports ffwitness from the checkout's ``src/``, generates the
workload's inputs from the seed, then issues every operation through the
public API or ``cli.main(argv)`` with stdout captured, and checks each output
against the committed digests in ``expected.json``. Its last stdout line is a
JSON object with the pass's timings, counts and check results.

``--setup-only`` stops once the inputs are generated, so the parent can time
set-up on its own. ``--record`` returns the digests instead of checking
them (see ``run.py --record``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SPANS_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 0

# survey: 7..400 in eight windows of 50, then the window holding both
# cap-sized fields, GF(2039**2) and GF(2**22); --d 3 because --d 2 skips
# every even q
SURVEY_WINDOWS = [(max(lo, 7), lo + 49) for lo in range(1, 400, 50)]
SURVEY_CAP_WINDOW = (2030, 2048)

# weil-audit: (q, m, count); characteristic 2 and odd p at both degrees
WEIL_CELLS = [(101, 2, 200), (103, 2, 200), (121, 2, 200), (16, 3, 100), (27, 3, 100)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts the operations of one pass and the ones that failed.

    ``table`` holds the committed exit code and header digest per call and
    the digest per operation; ``None`` means there is none for this seed, so
    only exit codes and the per-row checks apply."""

    def __init__(self, table: dict | None, record: bool):
        self.calls = None if table is None else table["calls"]
        self.ops = None if table is None else table["ops"]
        self.recorded = {"calls": {}, "ops": {}} if record else None
        self.seen: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _note(self, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(what)

    def call(self, call_id: str, code: int | None, err: str, header: str) -> str:
        """Check one command's exit code and header; return why its rows
        fail, or ''."""
        if self.recorded is not None:
            self.recorded["calls"][call_id] = {"exit": code, "header": header}
        want = {"exit": 0, "header": None} if self.calls is None else self.calls.get(call_id)
        if err:
            reason = err
        elif want is None:
            reason = "unexpected call"
        elif code != want["exit"]:
            reason = f"exit {code}, expected {want['exit']}"
        elif want["header"] is not None and header != want["header"]:
            reason = "header differs"
        else:
            return ""
        if err and self.ops is None:
            # no row came back and none is on record: one failed operation
            self.attempted += 1
            self.failed += 1
        self._note(f"{call_id}: {reason}")
        return reason

    def op(self, key: str, digest: str, why: str = "") -> None:
        self.seen.add(key)
        self.attempted += 1
        if self.recorded is not None:
            self.recorded["ops"][key] = digest
        if not why and self.ops is not None:
            if key not in self.ops:
                why = "unexpected operation"
            elif self.ops[key] != digest:
                why = "digest differs"
        if why:
            self.failed += 1
            self._note(f"{key}: {why}")

    def finish(self) -> None:
        """Every committed operation that never came back failed."""
        if self.ops is None:
            return
        for key in sorted(self.ops.keys() - self.seen):
            self.attempted += 1
            self.failed += 1
            self._note(f"{key}: missing")


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """``cli.main(argv)`` in-process, stdout captured: (exit code, output,
    error text if it raised)."""
    from ffwitness import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        return None, buf.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), ""


# -- workloads: inputs come from the seed, outputs are checked ------------------


def survey_ops(seed: int) -> list:
    # the seed orders the small windows; the cap window always comes last, so
    # peak_rss_mb is its build on top of the full cache, whatever the order
    windows = list(SURVEY_WINDOWS)
    random.Random(seed).shuffle(windows)
    windows.append(SURVEY_CAP_WINDOW)
    return [
        ["survey", "--q-min", str(lo), "--q-max", str(hi), "--h", "2", "--d", "3", "--format", "csv"]
        for lo, hi in windows
    ]


def _is_prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def coset_ops(seed: int) -> list:
    # the criterion-3 cells: q <= 31, 2 <= h <= isqrt(q), q**h <= 10**6
    cells = [
        (q, h)
        for q in range(2, 32)
        if _is_prime_power(q)
        for h in range(2, math.isqrt(q) + 1)
        if q**h <= 10**6
    ]
    # the seed orders every cell but the largest, GF(31**4), which comes last
    # so that peak_rss_mb does not depend on the order
    largest = max(cells, key=lambda c: c[0] ** c[1])
    cells.remove(largest)
    random.Random(seed).shuffle(cells)
    return cells + [largest]


def weil_ops(seed: int) -> list:
    rng = random.Random(seed)
    cli_seeds = [rng.randrange(1 << 30) for _ in WEIL_CELLS]
    order = list(range(len(WEIL_CELLS)))
    rng.shuffle(order)
    ops = []
    for i in order:
        q, m, count = WEIL_CELLS[i]
        ops.append(
            ["audit-weil", "--q-list", str(q), "--m", str(m), "--count", str(count),
             "--format", "csv", "--seed", str(cli_seeds[i])]
        )
    return ops


def check_cli_rows(chk: Checker, tracer, argv: list[str], row_key, row_check=None) -> None:
    """Run one command; each CSV row after the header is one operation."""
    code, text, err = run_cli(argv)
    if tracer is not None:
        tracer.output_bytes += len(text.encode())
    lines = text.splitlines()
    call_id = " ".join(argv)
    reason = chk.call(call_id, code, err, sha(lines[0].encode()) if lines else "")
    for i, line in enumerate(lines[1:]):
        why = reason
        if not why and row_check is not None:
            why = row_check(line)
        chk.op(row_key(i, line), sha(line.encode()), why)


def run_survey(argvs, chk, tracer):
    for op_id, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = op_id
        check_cli_rows(chk, tracer, argv, lambda i, line: "survey:q=" + line.split(",", 1)[0])


def run_coset(cells, chk, tracer):
    import numpy as np
    from ffwitness import construct

    for op_id, (q, h) in enumerate(cells):
        if tracer is not None:
            tracer.op = op_id
        key = f"coset:q={q},h={h}"
        try:
            g = construct.coset_power_gcds(q, h, 1)
            mask = construct.base_image_mask(q, h)
        except Exception as exc:  # an operation that raises counts as failed
            chk.op(key, "", f"{type(exc).__name__}: {exc}")
            continue
        data = np.ascontiguousarray(g, dtype="<i8").tobytes() + np.ascontiguousarray(mask, dtype="u1").tobytes()
        chk.op(key, sha(data))


def _weil_row_check(line: str) -> str:
    # columns: q, m, f, chi, re, im, abs, bound, applicable, ok
    cells = line.split(",")
    if len(cells) != 10:
        return "malformed row"
    if cells[8] == "true" and cells[9] != "true":
        return "applicable row violates the bound"
    return ""


def run_weil(argvs, chk, tracer):
    for op_id, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = op_id
        cell = f"weil:q={argv[2]},m={argv[4]}"
        check_cli_rows(chk, tracer, argv, lambda i, line, c=cell: f"{c},row={i}", _weil_row_check)


WORKLOADS = {
    "survey": (survey_ops, run_survey),
    "coset-scan": (coset_ops, run_coset),
    "weil-audit": (weil_ops, run_weil),
}


def expected_for(workload: str, seed: int) -> dict | None:
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    if seed == DEFAULT_SEED or workload != "weil-audit":
        # survey rows and coset cells do not depend on the seed, only their order
        return table
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import ffwitness

    if Path(ffwitness.__file__).resolve().parent != ROOT / "src" / "ffwitness":
        raise SystemExit(f"imported ffwitness from {ffwitness.__file__}, not from the checkout")
    make_ops, run_ops = WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    expected = None if args.record else expected_for(args.workload, args.seed)
    ready = time.monotonic()
    out = {"ready": ready, "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(ffwitness)
    chk = Checker(expected, args.record)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    run_ops(ops, chk, tracer)
    chk.finish()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    out.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        attempted=chk.attempted,
        failed=chk.failed,
        failures=chk.failures,
    )
    if args.record:
        out["record"] = chk.recorded
    if tracer is not None:
        out["trace"] = tracer.metrics(wall)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

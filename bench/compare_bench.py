#!/usr/bin/env python3
"""Merge and compare --json-out reports from the bench binaries.

Subcommands:

  merge   Combine several --json-out documents into one (the format used
          for the checked-in BENCH_baseline.json):
            python3 bench/compare_bench.py merge \
                --out BENCH_baseline.json --note "seed 7, scale 1.0" \
                micro.json fig13.json

  compare Diff a current report against a baseline with a relative
          tolerance band; non-zero exit on regression:
            python3 bench/compare_bench.py compare \
                --baseline BENCH_baseline.json --current now.json \
                --tolerance 0.25 --min-fusion-gain 1.2

Comparison semantics: cells are keyed by (table title, row key, column
header) and every numeric cell under the included titles is treated as
a higher-is-better rate. A cell present in both documents fails when
  current < baseline * (1 - tolerance).
Improvements never fail. A baseline cell with no counterpart in the
current report fails as MISSING (a bench row that was deleted, renamed
or never printed must not pass by absence); a cell only in the current
report is new and passes. Share/ratio/size columns (%..., "/", iters,
seconds, updates) are skipped by default, as are the instrumented-pass,
forced-overlap (contended) and native-RTM tables, whose numbers are
either not rates or too machine-dependent for a tolerance band, and the
emulated uncontended fig13 table: with 4 workers its TuFast row falls
into the L-mode upgrade collapse (ROADMAP item 6) in some runs, so it
stays report-only until that is fixed. Tables matching
--exact-titles (default: the deterministic "progress guard" counter
table from micro_ops_benchmark) are instead checked symmetrically and
exactly — they hold forced-failpoint counter values, so any drift in
either direction is a behavior change, not noise.

--min-fusion-gain additionally checks the *current* report's
"micro ops" fusion_gain_x metric (fused / per-item committed-ops/sec on
small H transactions) against an absolute floor. Unlike wall-clock
rates, the gain is a same-machine ratio, so it is the most portable
regression signal this script has: keep it enabled in CI even where the
timing tolerance has to be loose.

Stdlib only (json/argparse/re); no third-party dependencies.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

DEFAULT_INCLUDE = r"micro ops|scheduler throughput|progress guard"
# `\bcontended` matches the forced-overlap "(contended)" tables but not
# "uncontended". The emulated uncontended fig13 table is excluded on its
# own: its TuFast row collapses into L mode in some 4-worker runs
# (ROADMAP item 6); drop that alternative once the collapse is fixed.
DEFAULT_EXCLUDE = (r"instrumented pass|\bcontended|native RTM|"
                   r"emulated, uncontended")
DEFAULT_EXCLUDE_COLS = r"%|/|^iters$|^seconds$|^updates$"
# Tables whose cells are deterministic counters, not wall-clock rates:
# checked symmetrically and exactly (any drift in either direction is a
# behavior change, e.g. the breaker tripping a different number of times
# under the same forced failpoints).
EXACT_TITLES = r"progress guard"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def numeric(cell):
    """Returns float(cell) or None (tables mix rates with labels/'-').

    Non-finite values (nan/inf — a bench dividing by a zero elapsed time
    or reporting a poisoned counter) parse successfully and are returned
    as-is so the comparison layer can FAIL them explicitly. Swallowing
    them here would silently drop the cell from the shared-key set and a
    NaN current value would pass the gate by absence.
    """
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def cells(doc, include_re, exclude_re, exclude_cols_re):
    """Yields ((title, row_key, column), value) for comparable cells."""
    out = {}
    for table in doc.get("tables", []):
        title = table["title"]
        if not include_re.search(title):
            continue
        if exclude_re.search(title):
            continue
        headers = table["headers"]
        for row in table["rows"]:
            if not row:
                continue
            key = row[0]
            for col, cell in zip(headers[1:], row[1:]):
                if exclude_cols_re.search(col):
                    continue
                value = numeric(cell)
                if value is not None:
                    out[(title, key, col)] = value
    return out


def metric_value(doc, table_title, metric):
    for table in doc.get("tables", []):
        if table["title"] != table_title:
            continue
        for row in table["rows"]:
            if row and row[0] == metric:
                return numeric(row[1])
    return None


def cmd_merge(args):
    merged = {"tables": [], "telemetry": [], "meta": {"sources": []}}
    for path in args.inputs:
        doc = load(path)
        merged["tables"].extend(doc.get("tables", []))
        merged["telemetry"].extend(doc.get("telemetry", []))
        merged["meta"]["sources"].append(path)
    if args.note:
        merged["meta"]["note"] = args.note
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"merged {len(args.inputs)} report(s), "
          f"{len(merged['tables'])} table(s) -> {args.out}")
    return 0


def cmd_compare(args):
    include_re = re.compile(args.include_titles)
    exclude_re = re.compile(args.exclude_titles)
    exclude_cols_re = re.compile(args.exclude_cols)
    baseline_doc = load(args.baseline)
    baseline = cells(baseline_doc, include_re, exclude_re, exclude_cols_re)
    current_doc = load(args.current)
    current = cells(current_doc, include_re, exclude_re, exclude_cols_re)

    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: no comparable cells shared between baseline and "
              "current (wrong --include-titles, or a bench was not run?)",
              file=sys.stderr)
        return 2

    exact_re = re.compile(args.exact_titles)
    failures = []
    for key in sorted(set(baseline) - set(current)):
        title, row, col = key
        failures.append(key)
        print(f"{'MISSING':>10}  {'-':>12} vs {baseline[key]:>12.5g} "
              f"(------)  {title} | {row} | {col}")
    for key in shared:
        base, cur = baseline[key], current[key]
        title, row, col = key
        if exact_re.search(title):
            status = "ok" if cur == base else "MISMATCH"
            if cur != base:
                failures.append(key)
            print(f"{status:>10}  {cur:>12.5g} vs {base:>12.5g} "
                  f"(exact )  {title} | {row} | {col}")
            continue
        # Non-finite cells can never pass: a NaN/inf current value is a
        # broken measurement (zero elapsed time, poisoned counter), and a
        # non-finite baseline means the checked-in reference is corrupt.
        if not math.isfinite(cur) or not math.isfinite(base):
            failures.append(key)
            print(f"{'NON-FINITE':>10}  {cur:>12.5g} vs {base:>12.5g} "
                  f"(------)  {title} | {row} | {col}")
            continue
        floor = base * (1.0 - args.tolerance)
        ratio = cur / base if base else float("inf")
        status = "ok"
        if base > 0 and cur < floor:
            status = "REGRESSION"
            failures.append(key)
        elif base == 0 and cur < 0:
            # Zero-baseline cells accept any non-negative current value
            # (the metric was absent/idle at baseline time) but a
            # negative rate is still nonsense and fails.
            status = "REGRESSION"
            failures.append(key)
        print(f"{status:>10}  {cur:>12.5g} vs {base:>12.5g} "
              f"({ratio:6.2f}x)  {title} | {row} | {col}")

    if args.min_fusion_gain is not None:
        gain = metric_value(current_doc, "micro ops", "fusion_gain_x")
        if gain is None:
            print("error: current report has no 'micro ops' fusion_gain_x "
                  "metric", file=sys.stderr)
            return 2
        # A NaN/inf gain is a broken measurement (zero elapsed time in
        # one of the passes), never a pass.
        ok = math.isfinite(gain) and gain >= args.min_fusion_gain
        print(f"{'ok' if ok else 'REGRESSION':>10}  fusion_gain_x "
              f"{gain:.3f} (floor {args.min_fusion_gain:.3f})")
        if not ok:
            failures.append(("micro ops", "fusion_gain_x", "floor"))

    if args.max_reader_abort_rate is not None:
        failures.extend(
            check_reader_mix(current_doc, args.max_reader_abort_rate,
                             args.tolerance))

    if args.max_p99_regression is not None:
        failures.extend(
            check_p99_regression(baseline_doc, current_doc,
                                 args.max_p99_regression))

    print(f"\ncompared {len(shared)} cell(s), tolerance "
          f"{args.tolerance:.0%}: {len(failures)} regression(s)")
    return 1 if failures else 0


def check_reader_mix(doc, max_abort_rate, tolerance):
    """Gates the streaming_updates reader/writer-mix tables.

    For every "reader-writer mix" table in the CURRENT document:
      - the mvcc-on row's reader abort rate must be finite and
        <= max_abort_rate (CI passes 0: snapshot reads are abort-free by
        construction, any abort is a bug, not noise);
      - the mvcc-on row's writer throughput (updates/s) must stay within
        the relative tolerance band of the mvcc-off row — the version-
        installation overhead gate.
    Both rows live in one table from one process run, so this needs no
    baseline document and no cross-run merge.
    """
    failures = []
    found = False
    for table in doc.get("tables", []):
        title = table["title"]
        if not title.startswith("reader-writer mix"):
            continue
        headers = table["headers"]
        rows = {row[0]: dict(zip(headers[1:], row[1:]))
                for row in table["rows"] if row}
        if "mvcc-on" not in rows:
            print(f"error: '{title}' has no mvcc-on row", file=sys.stderr)
            failures.append((title, "mvcc-on", "missing"))
            continue
        found = True
        rate = numeric(rows["mvcc-on"].get("reader abort rate"))
        ok = (rate is not None and math.isfinite(rate)
              and rate <= max_abort_rate)
        print(f"{'ok' if ok else 'REGRESSION':>10}  reader abort rate "
              f"{rate} (max {max_abort_rate:g})  {title}")
        if not ok:
            failures.append((title, "mvcc-on", "reader abort rate"))
        if "mvcc-off" in rows:
            on = numeric(rows["mvcc-on"].get("updates/s"))
            off = numeric(rows["mvcc-off"].get("updates/s"))
            ok = (on is not None and off is not None and math.isfinite(on)
                  and math.isfinite(off)
                  and (off <= 0 or on >= off * (1.0 - tolerance)))
            ratio = on / off if (on is not None and off) else float("nan")
            print(f"{'ok' if ok else 'REGRESSION':>10}  mvcc writer "
                  f"overhead {ratio:6.2f}x of mvcc-off  {title}")
            if not ok:
                failures.append((title, "mvcc-on", "updates/s"))
    if not found:
        print("error: --max-reader-abort-rate set but the current report "
              "has no reader-writer mix table (streaming_updates not run "
              "with --mvcc?)", file=sys.stderr)
        failures.append(("reader-writer mix", "-", "missing"))
    return failures


def check_p99_regression(baseline_doc, current_doc, multiplier):
    """Lower-is-better latency gate for the serve_bench tables.

    The generic tolerance band treats every cell as a higher-is-better
    rate, which would wave tail-latency blowups straight through — so
    "serve latency" tables get their own direction-flipped check: for
    every admission-on INTERACTIVE-tier row ("on interactive...") present
    in the CURRENT document, the "p99 us" cell fails when
        current > baseline * multiplier.
    Only those rows are gated because only they are portable: the
    admission controller actively regulates the interactive tier toward
    its configured SLO, so its p99 tracks the SLO rather than the
    machine. The admission-off rows measure raw uncontrolled backlog and
    the bulk-tier rows are deferral/drain-dominated — both vary with
    machine speed by orders of magnitude, so a band on them would only
    produce noise.
    A NaN/inf current p99 is a broken measurement and always fails. A
    row or table absent from the baseline, or with a zero baseline p99
    (idle cell at baseline time), accepts any finite current value — new
    rows must not brick the gate — but a present-and-non-finite baseline
    is a corrupt reference and fails. A current report with no serve
    latency table at all fails: the gate was requested, so serve_bench
    must have run.
    """
    failures = []

    def p99_cells(doc):
        out = {}
        for table in doc.get("tables", []):
            title = table["title"]
            if not title.startswith("serve latency"):
                continue
            headers = table["headers"]
            for row in table["rows"]:
                if not row or not str(row[0]).startswith("on interactive"):
                    continue
                value = numeric(dict(zip(headers[1:], row[1:])).get("p99 us"))
                if value is not None:
                    out[(title, row[0])] = value
        return out

    base = p99_cells(baseline_doc)
    cur = p99_cells(current_doc)
    if not cur:
        print("error: --max-p99-regression set but the current report has "
              "no serve latency table (serve_bench not run?)",
              file=sys.stderr)
        return [("serve latency", "-", "missing")]
    for key in sorted(cur):
        c = cur[key]
        b = base.get(key)
        title, row = key
        if not math.isfinite(c):
            status = "NON-FINITE"
            failures.append((title, row, "p99 us"))
        elif b is not None and not math.isfinite(b):
            status = "NON-FINITE"
            failures.append((title, row, "p99 us"))
        elif b is None or b <= 0:
            status = "ok"  # new or idle-at-baseline row
        elif c > b * multiplier:
            status = "REGRESSION"
            failures.append((title, row, "p99 us"))
        else:
            status = "ok"
        base_str = f"{b:.5g}" if b is not None else "absent"
        print(f"{status:>10}  p99 {c:.5g} us vs {base_str} "
              f"(max {multiplier:g}x)  {title} | {row}")
    return failures


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    merge = sub.add_parser("merge", help="merge --json-out documents")
    merge.add_argument("--out", required=True)
    merge.add_argument("--note", default="",
                       help="provenance note (commands, seed, machine)")
    merge.add_argument("inputs", nargs="+")
    merge.set_defaults(func=cmd_merge)

    compare = sub.add_parser("compare", help="diff current vs baseline")
    compare.add_argument("--baseline", required=True)
    compare.add_argument("--current", required=True)
    compare.add_argument("--tolerance", type=float, default=0.25,
                         help="relative regression band (default 0.25)")
    compare.add_argument("--min-fusion-gain", type=float, default=None,
                         help="absolute floor for micro ops fusion_gain_x")
    compare.add_argument("--include-titles", default=DEFAULT_INCLUDE)
    compare.add_argument("--exclude-titles", default=DEFAULT_EXCLUDE)
    compare.add_argument("--exclude-cols", default=DEFAULT_EXCLUDE_COLS)
    compare.add_argument("--exact-titles", default=EXACT_TITLES,
                         help="titles checked symmetrically and exactly")
    compare.add_argument("--max-reader-abort-rate", type=float, default=None,
                         help="ceiling for the reader-writer mix mvcc-on "
                              "reader abort rate (CI: 0); also gates the "
                              "mvcc-on writer throughput against mvcc-off "
                              "within --tolerance")
    compare.add_argument("--max-p99-regression", type=float, default=None,
                         help="lower-is-better gate for the serve latency "
                              "tables: fail when a row's current 'p99 us' "
                              "exceeds baseline * this multiplier (CI: 3.0; "
                              "absent/zero baseline rows accept any finite "
                              "current, NaN always fails)")
    compare.set_defaults(func=cmd_compare)

    selftest = sub.add_parser(
        "selftest", help="verify the gate logic itself (run from ctest)")
    selftest.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


def _table(title, headers, rows):
    return {"title": title, "headers": headers, "rows": rows}


def _run_compare(baseline_doc, current_doc, extra_args):
    """Runs the compare subcommand on in-memory documents; returns rc."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cur_path = os.path.join(tmp, "cur.json")
        for path, doc in ((base_path, baseline_doc), (cur_path, current_doc)):
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["compare", "--baseline", base_path,
                         "--current", cur_path] + extra_args)


def cmd_selftest(args):
    """Self-checks for the gate logic: every way a broken measurement
    could slip through the tolerance band must fail, and the happy paths
    must pass. Invoked from ctest (compare_bench_selftest)."""
    del args
    # Column name must dodge DEFAULT_EXCLUDE_COLS ('/' would drop it).
    mk = lambda cell: {"tables": [_table(
        "scheduler throughput", ["mode", "rate"], [["tufast", cell]])]}
    rw = lambda rate, on, off: {"tables": [_table(
        "reader-writer mix — rmat",
        ["mode", "updates/s", "reader abort rate"],
        [["mvcc-off", off, "0.01"], ["mvcc-on", on, rate]])]}
    checks = [
        ("equal cells pass", _run_compare(mk("100"), mk("100"), []), 0),
        ("improvement passes", _run_compare(mk("100"), mk("200"), []), 0),
        ("regression fails",
         _run_compare(mk("100"), mk("10"), ["--tolerance", "0.25"]), 1),
        ("nan current fails", _run_compare(mk("100"), mk("nan"), []), 1),
        ("inf current fails", _run_compare(mk("100"), mk("inf"), []), 1),
        ("-inf current fails", _run_compare(mk("100"), mk("-inf"), []), 1),
        ("nan baseline fails", _run_compare(mk("nan"), mk("100"), []), 1),
        ("zero baseline accepts any non-negative",
         _run_compare(mk("0"), mk("50"), []), 0),
        ("zero baseline rejects negative",
         _run_compare(mk("0"), mk("-1"), []), 1),
        ("zero reader aborts pass",
         _run_compare(mk("100"), {"tables": mk("100")["tables"] +
                                  rw("0", "90", "100")["tables"]},
                      ["--max-reader-abort-rate", "0"]), 0),
        ("nonzero reader aborts fail",
         _run_compare(mk("100"), {"tables": mk("100")["tables"] +
                                  rw("0.001", "90", "100")["tables"]},
                      ["--max-reader-abort-rate", "0"]), 1),
        ("nan reader abort rate fails",
         _run_compare(mk("100"), {"tables": mk("100")["tables"] +
                                  rw("nan", "90", "100")["tables"]},
                      ["--max-reader-abort-rate", "0"]), 1),
        ("mvcc writer overhead beyond tolerance fails",
         _run_compare(mk("100"), {"tables": mk("100")["tables"] +
                                  rw("0", "10", "100")["tables"]},
                      ["--max-reader-abort-rate", "0",
                       "--tolerance", "0.25"]), 1),
        ("missing reader mix table fails",
         _run_compare(mk("100"), mk("100"),
                      ["--max-reader-abort-rate", "0"]), 1),
    ]
    # Baseline cells the current report lacks fail as MISSING; cells
    # only the current report has are new rows and pass.
    mo = lambda *rows: {"tables": mk("100")["tables"] + [_table(
        "micro ops", ["metric", "per_sec"], [list(r) for r in rows])]}
    checks += [
        ("dropped micro row fails",
         _run_compare(mo(("a_ops", "10"), ("b_ops", "10")),
                      mo(("a_ops", "10")), []), 1),
        ("row only in current passes",
         _run_compare(mo(("a_ops", "10")),
                      mo(("a_ops", "10"), ("b_ops", "10")), []), 0),
        ("dropped row under an excluded title passes",
         _run_compare({"tables": mk("100")["tables"] + [_table(
             "scheduler throughput [native RTM]", ["mode", "rate"],
             [["tufast", "5"]])]}, mk("100"), []), 0),
    ]
    # Title exclusion: `\bcontended` drops the forced-overlap table but
    # not an "uncontended" one; the emulated uncontended table is
    # excluded by name (ROADMAP item 6).
    th = lambda title, cell: {"tables": mk("100")["tables"] + [_table(
        title, ["mode", "rate"], [["tufast", cell]])]}
    forced = "scheduler throughput [emulated, forced overlap (contended)]"
    uncontended = "scheduler throughput [uncontended]"
    emulated = "scheduler throughput [emulated, uncontended]"
    checks += [
        ("forced-overlap (contended) table is excluded",
         _run_compare(th(forced, "100"), th(forced, "1"), []), 0),
        ("uncontended table is compared",
         _run_compare(th(uncontended, "100"), th(uncontended, "1"), []), 1),
        ("emulated uncontended table is excluded",
         _run_compare(th(emulated, "100"), th(emulated, "1"), []), 0),
    ]
    # Serve-latency gate: lower-is-better, NaN/zero-baseline hardened.
    sv = lambda p99, row="on interactive/all": {"tables": mk("100")["tables"] + [
        _table("serve latency rmat-11",
               ["tenant/op", "completed", "p99 us"], [[row, "500", p99]])]}
    p99_gate = ["--max-p99-regression", "3.0"]
    checks += [
        ("serve p99 equal passes",
         _run_compare(sv("100"), sv("100"), p99_gate), 0),
        ("serve p99 improvement passes",
         _run_compare(sv("100"), sv("10"), p99_gate), 0),
        ("serve p99 within multiplier passes",
         _run_compare(sv("100"), sv("250"), p99_gate), 0),
        ("serve p99 beyond multiplier fails",
         _run_compare(sv("100"), sv("400"), p99_gate), 1),
        ("serve p99 nan current fails",
         _run_compare(sv("100"), sv("nan"), p99_gate), 1),
        ("serve p99 inf current fails",
         _run_compare(sv("100"), sv("inf"), p99_gate), 1),
        ("serve p99 nan baseline fails",
         _run_compare(sv("nan"), sv("100"), p99_gate), 1),
        ("serve p99 zero baseline accepts finite",
         _run_compare(sv("0"), sv("9999"), p99_gate), 0),
        ("serve p99 new row accepts finite",
         _run_compare(sv("100"), sv("9999", row="on interactive/k_hop"),
                      p99_gate), 0),
        ("bulk-tier and admission-off rows are not gated",
         _run_compare(sv("100"),
                      {"tables": mk("100")["tables"] + [_table(
                          "serve latency rmat-11",
                          ["tenant/op", "completed", "p99 us"],
                          [["on interactive/all", "500", "100"],
                           ["on bulk/scan", "500", "99999"],
                           ["off interactive/all", "500", "99999"]])]},
                      p99_gate), 0),
        ("serve table missing from current fails",
         _run_compare(sv("100"), mk("100"), p99_gate), 1),
        ("serve gate off ignores latency blowup",
         _run_compare(sv("100"), sv("99999"), []), 0),
        ("admission-off rows are not gated",
         _run_compare(
             {"tables": sv("100")["tables"] + [_table(
                 "serve latency rmat-12", ["tenant/op", "p99 us"],
                 [["off interactive/all", "100"]])]},
             {"tables": sv("100")["tables"] + [_table(
                 "serve latency rmat-12", ["tenant/op", "p99 us"],
                 [["off interactive/all", "99999"]])]},
             p99_gate), 0),
    ]
    failed = 0
    for name, got, want in checks:
        ok = got == want
        failed += not ok
        print(f"{'ok' if ok else 'FAIL':>6}  {name} (rc {got}, want {want})")
    print(f"\nselftest: {len(checks) - failed}/{len(checks)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

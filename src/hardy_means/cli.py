"""Command-line workbench.

Subcommands
-----------
mean               evaluate M_{k,s,q} on an inline or file vector
hardy-sum          partial-sum ratio experiment for a mean over a family
estimate-constant  sharpness sweep: empirical Hardy constant estimate
classify           verdict for a parameter point or grid
verify             run the property suite (exit 1 on any failure)
bench              timing ladder for naive / fast / Monte Carlo paths

Exit codes: 0 success, 1 property failure, 2 domain error, 3 capacity
error.  With identical flags (and seed) the CSV/JSON output of the
deterministic commands is byte-identical between runs; bench emits wall
times and is exempt.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import sys
import time

from .classify import classification_table, classify
from .errors import CapacityError, DomainError
from .params import (
    MeanParams, format_exponent, format_mean, parse_exponent, parse_mean, parse_params, read_vector_file, require_int,
)

__all__ = ["main", "run_bench", "machine_repr", "canonical_json", "rows_to_csv"]


def _load_kernels(*names: str) -> None:
    """Bind the named exports of the package here, each imported from its
    module by the package's lazy-export table.  A name that is already
    bound (say, a wrapper set with ``setattr``) is kept.  Each command
    names the kernels it calls, so ``classify`` and ``--help`` never import
    numpy, and each command loads only the modules it runs."""
    # The package calls no BLAS routine, but OpenBLAS starts a worker pool
    # when numpy loads, and on a 2-CPU machine its worker burnt up to 0.15 s
    # of CPU per command (hardy-sum over 1000 terms: 0.34 s of CPU pooled,
    # 0.24 s pinned).  Only the first import of numpy reads this variable,
    # so it is set before any kernel module can import numpy, and a value
    # the caller set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    package, namespace = sys.modules[__package__], globals()
    for name in names:
        namespace.setdefault(name, getattr(package, name))


def __getattr__(name):
    # Only the package's exports: its submodules and dunder probes are not kernels.
    if name in sys.modules[__package__].__all__:
        _load_kernels(name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Input parsing helpers


def _vector_from_args(args) -> list[float]:
    if (args.data is None) == (args.file is None):
        raise DomainError("provide the vector with exactly one of --data or --file")
    if args.data is not None:
        try:
            return [float(part) for part in args.data.split(",") if part.strip()]
        except ValueError:
            raise DomainError(f"--data must be comma-separated decimals, got {args.data!r}")
    return read_vector_file(args.file)


def _parse_int_grid(text: str, name: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise DomainError(f"{name} range must look like 2..4, got {text!r}")
        if lo > hi:
            raise DomainError(f"{name} range is empty: {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise DomainError(f"{name} must be integers, got {text!r}")


def _parse_exponent_grid(text: str, name: str) -> list[float]:
    values = [parse_exponent(part, name) for part in text.split(",") if part.strip()]
    if not values:
        raise DomainError(f"{name} grid is empty")
    return values


# ---------------------------------------------------------------------------
# Output plumbing
#
# CSV and JSON render floats with 17 significant digits ('%.17g'), which is
# enough to round-trip a double exactly, and the JSON encoder writes keys in
# sorted order with fixed separators.  Parsing emitted JSON and re-encoding
# it therefore reproduces the original bytes.  Infinities become the strings
# "inf"/"-inf" (JSON has no literal for them; the CLI exponent grammar reads
# the same tokens back).  ``json`` and ``csv`` are imported by the encoder
# that needs them, so plain output loads neither.


def machine_repr(value):
    """Value as it should appear in a CSV cell or JSON document."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return value


def _encode(obj, out: list, quote) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("canonical JSON cannot carry NaN")
        if math.isinf(obj):
            out.append('"inf"' if obj > 0 else '"-inf"')
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            out.append(quote(key))
            out.append(":")
            _encode(obj[key], out, quote)
            first = False
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out, quote)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    # what json.dumps(text, ensure_ascii=True) returns for a string
    from json.encoder import encode_basestring_ascii

    out: list = []
    _encode(obj, out, encode_basestring_ascii)
    return "".join(out)


def rows_to_csv(header: list[str], rows: list[tuple]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([machine_repr(cell) for cell in row])
    return buffer.getvalue()


def _emit(args, *, meta: dict, header: list[str], rows: list[tuple], plain: list[str]) -> None:
    if args.format == "plain":
        text = "\n".join(plain) + "\n"
    elif args.format == "csv":
        text = rows_to_csv(header, rows)
    else:
        payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
        text = canonical_json(payload) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {args.output}: {exc}")
    else:
        try:
            sys.stdout.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write stdout: {exc}")


def _check_output(path: str) -> None:
    """Raise, before the command's work, the DomainError that opening
    ``path`` for writing at its end would raise when the path cannot name
    a file: its directory is missing (ENOENT) or not a directory (ENOTDIR),
    or the path is a directory or ends in a separator (EISDIR).  Creates
    nothing; permission and read-only failures are left to that open."""
    named = path.rstrip(os.sep) or path  # open("x/", "w") fails with EISDIR once "x"'s directory resolves
    try:
        code = 0 if stat.S_ISDIR(os.stat(os.path.dirname(named) or ".").st_mode) else errno.ENOTDIR
    except OSError as exc:
        code = exc.errno
    if not code and (named != path or os.path.isdir(path)):
        code = errno.EISDIR
    if code in (errno.ENOENT, errno.ENOTDIR, errno.EISDIR):
        raise DomainError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_mean(args) -> int:
    _load_kernels("EvalMethod", "cmn_mean_fast")
    params = MeanParams(args.k, parse_exponent(args.s, "s"), parse_exponent(args.q, "q"))
    vector = _vector_from_args(args)
    if args.samples is not None:
        _load_kernels("cmn_mean_sampled")
        report = cmn_mean_sampled(params, vector, args.samples, args.seed)
    else:
        report = cmn_mean_fast(params, vector)
    if report.method is EvalMethod.MONTE_CARLO:
        plain = [
            f"{report.value!r} +/- {report.stderr_estimate!r} "
            f"(MonteCarlo, samples={report.samples}, seed={args.seed})"
        ]
    else:
        plain = [f"{report.value!r} ({report.method.value})"]
    if report.note:
        plain.append(f"note: {report.note}")
    header = ["k", "s", "q", "n", "value", "method", "samples", "stderr"]
    rows = [
        (
            params.k,
            params.s,
            params.q,
            len(vector),
            report.value,
            report.method.value,
            report.samples,
            report.stderr_estimate,
        )
    ]
    meta = {"command": "mean", "mean": format_mean(params), "seed": args.seed}
    _emit(args, meta=meta, header=header, rows=rows, plain=plain)
    return 0


def _cmd_hardy_sum(args) -> int:
    mean = parse_mean(args.mean)
    _load_kernels("iter_checkpoints", "parse_family")
    family = parse_family(args.family)
    if not (family.summable or args.allow_nonsummable):
        raise DomainError(
            f"family {family.label()} is not summable (hint: --allow-nonsummable runs it anyway, "
            "for limit experiments only)"
        )
    rows = list(iter_checkpoints(mean, family, args.N, allow_nonsummable=args.allow_nonsummable))
    header = ["n", "partial_sum", "partial_norm", "ratio"]
    plain = [f"{'n':>10}  {'partial_sum':>24}  {'partial_norm':>24}  ratio"]
    for n, mean_sum, term_sum, ratio in rows:
        plain.append(f"{n:>10}  {mean_sum!r:>24}  {term_sum!r:>24}  {ratio!r}")
    plain.append(f"final ratio at N={rows[-1][0]}: {rows[-1][3]!r}")
    meta = {
        "command": "hardy-sum",
        "mean": format_mean(mean),
        "family": family.label(),
        "N": args.N,
    }
    _emit(args, meta=meta, header=header, rows=rows, plain=plain)
    return 0


def _cmd_estimate_constant(args) -> int:
    mean = parse_mean(args.mean)
    _load_kernels("sharpness_constant_sweep")
    estimates = sharpness_constant_sweep(mean, args.N)
    best = max(estimates, key=lambda est: est.ratio)
    header = ["n0", "n", "partial_sum", "partial_norm", "ratio"]
    rows = [
        (est.family.crossover, est.n, est.mean_sum, est.term_sum, est.ratio)
        for est in estimates
    ]
    plain = [f"{'n0':>10}  ratio"]
    plain.extend(f"{est.family.crossover:>10}  {est.ratio!r}" for est in estimates)
    plain.append(
        f"max ratio {best.ratio!r} at n0={best.family.crossover}, N={best.n}"
    )
    meta = {
        "command": "estimate-constant",
        "mean": format_mean(mean),
        "N": args.N,
        "max_ratio": best.ratio,
        "best_n0": best.family.crossover,
    }
    _emit(args, meta=meta, header=header, rows=rows, plain=plain)
    return 0


def _cmd_classify(args) -> int:
    if args.point is not None:
        params = parse_params(args.point, "--point needs k,s,q")
        table = [(params, classify(params))]
    else:
        if args.grid_k is None or args.grid_s is None or args.grid_q is None:
            raise DomainError("provide either --point k,s,q or all of --grid-k/--grid-s/--grid-q")
        table = classification_table(
            _parse_int_grid(args.grid_k, "--grid-k"),
            _parse_exponent_grid(args.grid_s, "--grid-s"),
            _parse_exponent_grid(args.grid_q, "--grid-q"),
        )
    header = ["k", "s", "q", "verdict", "reason", "citation"]
    rows = [
        (p.k, p.s, p.q, c.verdict.value, c.reason.value, c.citation)
        for p, c in table
    ]
    plain = []
    for p, c in table:
        label = f"k={p.k}, s={format_exponent(p.s)}, q={format_exponent(p.q)}"
        plain.append(f"{label}: {c.verdict.value} ({c.reason.value}): {c.citation}")
    meta = {"command": "classify", "rows": len(rows)}
    _emit(args, meta=meta, header=header, rows=rows, plain=plain)
    return 0


def _cmd_verify(args) -> int:
    _load_kernels("run_verification")
    results = run_verification(
        quick=args.quick, n_limit=args.N, vectors=args.vectors, seed=args.seed
    )
    header = ["property", "passed", "worst", "detail"]
    rows = [(r.name, r.passed, r.worst, r.detail) for r in results]
    plain = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        plain.append(f"[{status}] {r.name}: worst={r.worst!r} ({r.detail})")
    all_passed = all(r.passed for r in results)
    plain.append("all properties passed" if all_passed else "PROPERTY FAILURE")
    meta = {"command": "verify", "passed": all_passed, "seed": args.seed}
    _emit(args, meta=meta, header=header, rows=rows, plain=plain)
    return 0 if all_passed else 1


_BENCH_SIZES = (10, 15, 20, 10**3, 10**5)
_BENCH_SUBSETS = (2, 3, 5)


def _time_call(fn, repetitions: int) -> tuple[float, object]:
    best = math.inf
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_bench(samples: int = 10**4, seed: int = 0) -> tuple[list[tuple], float]:
    """Timing rows (method, n, k, time, value, rel_error_vs_best, status)
    over the size ladder, plus the fast-vs-naive speedup at n=20, k=5.

    Each cell times naive, fast and Monte Carlo in turn; a method over the
    enumeration budget gives a ``refused`` row.  The errors are relative to
    naive's value where naive ran, and to fast's elsewhere."""
    seed = require_int(seed, "seed", 0)
    _load_kernels("cmn_mean_naive", "cmn_mean_fast", "cmn_mean_sampled")
    import random

    rows: list[tuple] = []
    times: dict[tuple, float] = {}
    rng = random.Random(seed)
    for n in _BENCH_SIZES:
        vector = [math.exp(rng.uniform(-1.0, 1.0)) for _ in range(n)]
        for k in _BENCH_SUBSETS:
            params = MeanParams(k, 1.0, 0.0)
            repetitions = 5 if n <= 20 else 1
            best = None
            for method, call, count in (
                ("naive", lambda: cmn_mean_naive(params, vector), repetitions),
                ("fast", lambda: cmn_mean_fast(params, vector).value, repetitions),
                ("monte-carlo", lambda: cmn_mean_sampled(params, vector, samples, seed).value, 1),
            ):
                try:
                    elapsed, value = _time_call(call, count)
                except CapacityError:
                    rows.append((method, n, k, None, None, None, "refused"))
                    continue
                if best is None:
                    best = value
                times[method, n, k] = elapsed
                rows.append((method, n, k, elapsed, value, abs(value - best) / best, "ok"))
    return rows, times.get(("naive", 20, 5), math.nan) / times.get(("fast", 20, 5), math.nan)


def _cmd_bench(args) -> int:
    rows, speedup = run_bench(samples=args.samples, seed=args.seed)
    header = ["method", "n", "k", "time", "value", "rel_error_vs_best", "status"]
    plain = [f"{'method':>12} {'n':>7} {'k':>2} {'time':>12}  value"]
    for method, n, k, t, value, rel, status in rows:
        t_text = "-" if t is None else f"{t:.6f}"
        v_text = "-" if value is None else repr(value)
        plain.append(f"{method:>12} {n:>7} {k:>2} {t_text:>12}  {v_text} [{status}]")
    plain.append(f"fast-vs-naive speedup at n=20, k=5: {speedup:.1f}x")
    meta = {
        "command": "bench",
        "samples": args.samples,
        "seed": args.seed,
        "speedup_n20_k5": speedup,
        "note": "wall times are machine-dependent; this command is exempt "
        "from byte-identical output",
    }
    _emit(args, meta=meta, header=header, rows=rows, plain=plain)
    if not speedup >= 10.0:
        print(f"bench: expected >=10x speedup at n=20, k=5, measured {speedup:.1f}x", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain", help="output format"
    )
    parser.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, save that ``--help`` reports a failed write to
    stdout as the commands do, with one error line and exit 2; argparse
    ignores the error, so an unbuffered stdout lost the text and exited 0."""

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        try:
            sys.stdout.write(self.format_help())
        except OSError as exc:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            sys.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardy-means",
        description="Subset-composed power means and empirical Hardy-constant experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mean = commands.add_parser("mean", help="evaluate M_{k,s,q} on a vector")
    mean.add_argument("-k", type=int, required=True, help="subset size")
    mean.add_argument("-s", required=True, help="outer exponent (decimal, inf or -inf)")
    mean.add_argument("-q", required=True, help="inner exponent (decimal, inf or -inf)")
    mean.add_argument("--data", help="comma-separated positive entries")
    mean.add_argument("--file", help="file with one positive decimal per line")
    mean.add_argument("--samples", type=int, help="use the Monte Carlo estimator with this many draws")
    mean.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    _add_output_flags(mean)
    mean.set_defaults(func=_cmd_mean)

    hardy_sum = commands.add_parser("hardy-sum", help="partial-sum ratio experiment")
    hardy_sum.add_argument("--mean", required=True, help="power:<p> or cmn:<k>,<s>,<q>")
    hardy_sum.add_argument(
        "--family",
        required=True,
        help="harmonic | harmonic-truncated:<N0> | powertail:<alpha> | geometric:<r> | custom:<file>",
    )
    hardy_sum.add_argument("-N", type=int, required=True, help="truncation length")
    hardy_sum.add_argument(
        "--allow-nonsummable",
        action="store_true",
        help="opt in to the harmonic family (ratios against a divergent norm)",
    )
    _add_output_flags(hardy_sum)
    hardy_sum.set_defaults(func=_cmd_hardy_sum)

    estimate = commands.add_parser(
        "estimate-constant", help="sharpness sweep over harmonic-truncated crossovers"
    )
    estimate.add_argument("--mean", required=True, help="power:<p> or cmn:<k>,<s>,<q>")
    estimate.add_argument("-N", type=int, required=True, help="truncation length")
    _add_output_flags(estimate)
    estimate.set_defaults(func=_cmd_estimate_constant)

    cls = commands.add_parser("classify", help="Hardy / NotHardy / Open verdicts")
    cls.add_argument("--point", help="single parameter point k,s,q")
    cls.add_argument("--grid-k", help="subset sizes: 2..4 or 2,3,4")
    cls.add_argument("--grid-s", help="comma-separated outer exponents")
    cls.add_argument("--grid-q", help="comma-separated inner exponents")
    _add_output_flags(cls)
    cls.set_defaults(func=_cmd_classify)

    verify = commands.add_parser("verify", help="run the property suite")
    verify.add_argument("--quick", action="store_true", help="small sizes, finishes in seconds")
    verify.add_argument("-N", type=int, default=None, help="limit-experiment truncation")
    verify.add_argument("--vectors", type=int, default=None, help="random vectors per property")
    verify.add_argument("--seed", type=int, default=0)
    _add_output_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    bench = commands.add_parser("bench", help="timing ladder naive/fast/Monte Carlo")
    bench.add_argument("--samples", type=int, default=10**4, help="Monte Carlo draws per cell")
    bench.add_argument("--seed", type=int, default=0)
    _add_output_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    return parser


# Flags whose values may legitimately start with '-' (negative exponents,
# -inf tokens, a --data list whose first entry is refused as negative).
# argparse would read such values as option strings, so they are glued to
# their flag before parsing: short options by concatenation, long options
# with '='.
_DASH_VALUE_SHORT = ("-s", "-q")
_DASH_VALUE_LONG = ("--data", "--grid-s", "--grid-q", "--grid-k")


def _preprocess_argv(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        needs_glue = nxt is not None and len(nxt) > 1 and nxt[0] == "-" and nxt[1] in "0123456789.i"
        if needs_glue and token in _DASH_VALUE_SHORT:
            out.append(token + nxt)
            i += 2
        elif needs_glue and token in _DASH_VALUE_LONG:
            out.append(f"{token}={nxt}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


# What the user can change when a command hits the enumeration budget,
# named by the flags that command has.
_PREFIX_HINT = "lower -N: this mean has no incremental form, so every prefix is enumerated"
_CAPACITY_HINTS = {
    "mean": "--samples switches the mean command to the Monte Carlo estimator",
    "hardy-sum": _PREFIX_HINT,
    "estimate-constant": _PREFIX_HINT,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_preprocess_argv(list(argv)))
    try:
        if args.output:
            _check_output(args.output)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        from .routes import MAX_ENUMERATION_SUBSETS  # loaded by whatever raised

        hint = _CAPACITY_HINTS.get(args.command)
        advice = f"hint: {hint}; " if hint else ""
        print(
            f"capacity: {exc} ({advice}the enumeration budget is {MAX_ENUMERATION_SUBSETS} subsets)",
            file=sys.stderr,
        )
        return 3

#!/usr/bin/env python3
"""Compare the command-line output of two source trees, byte for byte.

Run from anywhere:

    python tools/compare_outputs.py PARENT CHANGE [--seeds 1,2,3]

PARENT and CHANGE are checkouts of this repository.  The invocations are
every op that ``perfbench/workloads.build`` makes for each workload and
seed (from the ``perfbench/`` next to this script, imported read-only),
then the fixed list of :func:`extra_invocations`; an argv that repeats is
run once.  Each one runs as ``python -m hardy_means <argv>`` in a fresh
interpreter, from each tree's ``src/`` in turn, with
``PYTHONDONTWRITEBYTECODE=1`` and a scratch working directory.  Exit
status, stdout and stderr must match.  The script prints each argv that
differs and then "N invocations, M differ", and exits 1 if M > 0.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402


def _data(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def extra_invocations(workdir: Path) -> list[tuple[str, ...]]:
    """Invocations the workloads leave out: ``verify``, Monte Carlo at
    s = +-inf, over several sample blocks, with a last block of one draw
    and at the sampler's edge shapes, enumeration, ``hardy-sum`` over every
    prefix evaluator, past the double range and at each way a prefix
    experiment fails, ``estimate-constant`` over several blocks, every ``pow`` call site at extreme exponents,
    negative seeds, the e_k root of entries at the largest double, each
    side of the routes of ``mean`` and ``hardy-sum`` that need no numpy, a
    short ``hardy-sum`` over each family kind, the subset engine at
    size and near the enumeration budget, the Exact route's outer mean over
    several groups and near a group boundary, the subset means of k >= 8
    entries in Exact chunks and sample blocks at each kind of inner
    exponent, results that left the hull of their entries before the clamp,
    powers that underflow on the e_k route, the jackknife with a
    near-dominant draw, usage-error, parse-error, file-error and
    output-error paths and every integer range error the command line can
    reach."""
    sixty = _data(1.0 + (i * 7919 % 97) / 10 for i in range(60))
    # no ties among subset means, so the sampled extremum depends on the draws
    spread = _data(math.exp(math.sin(3.7 * i)) for i in range(60))
    terms = workdir / "terms.txt"
    terms.write_text("".join(f"{1.0 / i**2!r}\n" for i in range(1, 41)), encoding="utf-8")
    huge = workdir / "huge.txt"
    huge.write_text("1.0\n2.0\n1e200\n", encoding="utf-8")
    custom, overflow = f"custom:{terms}", f"custom:{huge}"
    # a refused term between accepted ones
    refused = workdir / "refused.txt"
    refused.write_text("1.0\n2.0\n1e200\n3.0\n", encoding="utf-8")
    # four equal entries near the square root of the largest double
    moment = workdir / "moment.txt"
    moment.write_text("1e154\n" * 4, encoding="utf-8")
    # one term dominates the pair mean's prefix
    dominant = workdir / "dominant.txt"
    dominant.write_text("1e300\n1e-300\n1e-300\n", encoding="utf-8")
    # 400 entries from 1e-300 to 1e300: the e_k route's powers leave the double range
    wide = workdir / "wide.txt"
    wide.write_text("".join(f"{10.0 ** (-300 + 1.5 * i)!r}\n" for i in range(400)), encoding="utf-8")
    # the partial sums pass the largest double at n = 2
    edge = workdir / "edge.txt"
    edge.write_text("1.797e308\n" * 4, encoding="utf-8")
    # the e_k route rounds the mean of entries at the largest double past it
    largest = repr(sys.float_info.max)
    top = workdir / "top.txt"
    top.write_text(f"{largest}\n" * 5, encoding="utf-8")
    # 257 and 258 entries at k = 3 (n - k + 1 = 255 and 256 terms per
    # level), 300 at k = 2 and 600 at k = 150: all inside the range bound of
    # the e_k route's scalar recurrence
    esp = []
    for n in (257, 258, 300, 600):
        path = workdir / f"esp-{n}.txt"
        path.write_text("".join(f"{math.exp(math.sin(0.7 * i))!r}\n" for i in range(n)), encoding="utf-8")
        esp.append(str(path))
    # powers in [0.5, 1], so L = 1.  At k = 2, s = 2, 2*k*L + n = 4 + 896 met
    # the range bound that the range test and the work cap replaced, and
    # 4 + 897 did not.  At k = s = 75 the range test 2*k*L + min(n, k*ceil(log2 n))
    # reads 150 + 750 at 1024 entries and 150 + 825 at 1025.  At k = 2, s = 1,
    # 65537 entries take (n - k + 1) * k = 2**17 steps, the work cap, and
    # 65538 one step past it.
    bound = []
    for n in (896, 897, 1024, 1025, 65537, 65538):
        path = workdir / f"bound-{n}.txt"
        path.write_text("".join(f"{0.75 + 0.25 * math.sin(0.7 * i)!r}\n" for i in range(n)), encoding="utf-8")
        bound.append(str(path))
    # 2000 entries over three decades at k = 50 and 1000 at k = 5, past the
    # 900 entries the range bound once allowed and within the range test
    wide_e_k = []
    for n in (2000, 1000):
        path = workdir / f"e_k-{n}.txt"
        path.write_text("".join(f"{10.0 ** (1.5 * math.sin(2.3 * i))!r}\n" for i in range(n)), encoding="utf-8")
        wide_e_k.append(str(path))
    # a file that is not UTF-8, and an output path in a directory that is not there
    utf16 = workdir / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe1\x00\n\x00")
    unwritable = str(workdir / "missing-dir" / "out.txt")
    # at k = 4, s = 4 the powers are normal doubles, yet 2*k*L + n = 8*133 + 5
    # passes the scalar route's range bound; at s = -2 (8*67 + 5) it does not
    wide_powers = "1e-40,1e40,3,7,11"
    wide26 = _data(math.exp(4.0 * math.sin(1.9 * i)) for i in range(26))
    five = workdir / "five.txt"
    five.write_text("3.5\n0.25\n12\n7\n1e-3\n", encoding="utf-8")
    # a line that is not a decimal, and a file that is not there
    malformed = workdir / "malformed.txt"
    malformed.write_text("1.0\n0.5\nabc\n", encoding="utf-8")
    missing = workdir / "missing.txt"
    # one entry x, drawn once in 100 at seed 0, holds more than half the
    # jackknife's rounded total of weights at s = -1, but not all of it
    near_dominant = [
        ("mean", "-k", "1", "-s", "-1", "-q", "1", "--data", _data([*(1.0 + i / 1000 for i in range(199)), x]),
         "--samples", "100", "--seed", "0")
        for x in (5e-18, 1e-16)
    ]
    # 20000 draws: three sample blocks (8192, 8192, 3616)
    sampled = ("--data", sixty, "--samples", "20000", "--seed", "2026")
    extremum = ("--data", spread, "--samples", "20000", "--seed", "2026")
    # sampler shapes: bounds 1021..1030 straddle 2**10; k = 1000 of 2000,
    # where most draws collide; k = n - 1, where the bounds 2..200 have seven
    # bit lengths
    shapes = []
    for n, k, samples in ((1030, 10, 20000), (2000, 1000, 300), (200, 199, 2000)):
        path = workdir / f"sampler-{n}.txt"
        path.write_text("".join(f"{math.exp(math.sin(1.3 * i))!r}\n" for i in range(n)), encoding="utf-8")
        shapes.append((str(k), str(path), str(samples)))
    invocations = [
        ("verify", "--quick"),
        ("verify", "--quick", "--format", "json"),
        ("verify", "--vectors", "25", "-N", "1000", "--seed", "3"),
        ("verify", "--seed", "11", "--vectors", "40", "-N", "2000", "--format", "csv"),
        ("verify", "-N", "50", "--vectors", "3"),
        ("verify", "--vectors", "0"),
        ("verify", "-N", "1"),
        ("verify", "--seed", "-1", "--vectors", "1", "-N", "100"),
        ("mean", "-k", "4", "-s", "inf", "-q", "1", *extremum),
        ("mean", "-k", "4", "-s", "-inf", "-q", "1", *extremum, "--format", "json"),
        ("mean", "-k", "4", "-s", "1.5", "-q", "-0.5", *sampled, "--format", "json"),
        ("mean", "-k", "4", "-s", "0", "-q", "2", *sampled),
        ("mean", "-k", "3", "-s", "0.5", "-q", "-1", "--data", "1,2,3,4,5,6,7,8",
         "--samples", "5000", "--seed", "42", "--format", "csv"),
        ("mean", "-k", "3", "-s", "2", "-q", "1", "--data", "4.2,4.2,4.2,4.2", "--samples", "500"),
        ("mean", "-k", "7", "-s", "2", "-q", "-1", "--data", _data(range(1, 25)), "--format", "json"),
        ("mean", "-k", "3", "-s", "-inf", "-q", "0.5", "--data", _data(range(1, 26))),
        ("mean", "-k", "2", "-s", "0.5", "-q", "inf", "--data", "1,4,9,16"),
        ("mean", "-k", "3", "-s", "0", "-q", "-2", "--data", "1e-300,1e300,3,7,11"),
        ("mean", "-k", "14", "-s", "1", "-q", "1", "--data", _data(range(1, 29))),
        ("mean", "-k", "5", "-s", "2", "-q", "0", "--data", _data(range(1, 26))),
        ("mean", "-k", "2", "-s", "3", "-q", "0", "--data", "1e-300,1e300,2,5"),
        ("mean", "-k", "1", "-s", "2", "-q", "1", "--data", _data(range(1, 31))),
        ("mean", "-k", "40", "-s", "-3", "-q", "0", "--file", str(wide)),
        # a negative seed is refused (exit 2)
        ("mean", "-k", "2", "-s", "1", "-q", "1", "--data", _data(range(1, 11)),
         "--samples", "1000", "--seed", "-1"),
        ("bench", "--seed", "-1"),
        ("mean", "-k", "2", "-s", "-1", "-q", "0", "--data", ",".join([largest] * 3)),
        # each side of the numpy-free routes of mean
        ("mean", "-k", "3", "-s", "1.5", "-q", "0", "--file", esp[0]),
        ("mean", "-k", "3", "-s", "1.5", "-q", "0", "--file", esp[1], "--format", "json"),
        ("mean", "-k", "2", "-s", "1.5", "-q", "0", "--file", esp[2]),
        ("mean", "-k", "150", "-s", "1.5", "-q", "0", "--file", esp[3], "--format", "json"),
        ("mean", "-k", "2", "-s", "2", "-q", "0", "--file", bound[0]),
        ("mean", "-k", "2", "-s", "2", "-q", "0", "--file", bound[1], "--format", "csv"),
        ("mean", "-k", "75", "-s", "75", "-q", "0", "--file", bound[2]),
        ("mean", "-k", "75", "-s", "75", "-q", "0", "--file", bound[3], "--format", "json"),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--file", bound[4], "--format", "csv"),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--file", bound[5]),
        ("mean", "-k", "50", "-s", "1", "-q", "0", "--file", wide_e_k[0], "--format", "json"),
        ("mean", "-k", "50", "-s", "-2", "-q", "0", "--file", wide_e_k[0]),
        ("mean", "-k", "5", "-s", "1", "-q", "0", "--file", wide_e_k[1], "--format", "csv"),
        ("mean", "-k", "4", "-s", "4", "-q", "0", "--data", wide_powers, "--format", "csv"),
        ("mean", "-k", "4", "-s", "-2", "-q", "0", "--data", wide_powers),
        ("mean", "-k", "5", "-s", "2", "-q", "-1", "--file", str(five)),
        ("mean", "-k", "9", "-s", "inf", "-q", "0.5", "--file", str(five), "--format", "json"),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--file", str(missing)),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--file", str(malformed)),
        ("mean", "-k", "1", "-s", "1", "-q", "1", "--file", str(utf16)),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "1,4,9", "--output", unwritable),
        ("verify", "--quick", "--output", unwritable),
        ("hardy-sum", "--mean", "cmn:2,1,0", "--family", "powertail:2", "-N", "1000", "--output", unwritable),
        ("estimate-constant", "--mean", "cmn:2,1,0", "-N", "1000", "--output", unwritable),
        *near_dominant,
        # the in-place subset engine at size: C(26,9) = 3124550 subsets,
        # C(26,7) = 657800 in 81 chunks at each infinite exponent, and 10**6
        # draws through each branch of the jackknife
        ("mean", "-k", "9", "-s", "2", "-q", "1", "--data", wide26),
        ("mean", "-k", "7", "-s", "-2", "-q", "inf", "--data", wide26),
        ("mean", "-k", "7", "-s", "inf", "-q", "0", "--data", wide26, "--format", "json"),
        *(
            ("mean", "-k", "4", "-s", s, "-q", "1", "--data", sixty, "--samples", "1000000", "--seed", "7")
            for s in ("2", "0", "-1")
        ),
    ]
    for k, path, samples in shapes:
        for seed in ("0", "2147483647"):
            invocations.append(
                ("mean", "-k", k, "-s", "2", "-q", "1", "--file", path, "--samples", samples, "--seed", seed)
            )
    # 8193 draws of 5 of the 2000 entries: the last sample block holds one draw
    for seed in ("0", "2147483647"):
        invocations.append(
            ("mean", "-k", "5", "-s", "2", "-q", "1", "--file", shapes[1][1], "--samples", "8193", "--seed", seed)
        )
    # near the enumeration budget: C(24,12) = 2704156 subsets of 24
    # log-uniform entries, the outer mean at each kind of exponent
    exact24 = workdir / "exact24.txt"
    draw = random.Random(24)
    exact24.write_text("".join(f"{10.0 ** draw.uniform(-3.0, 3.0)!r}\n" for _ in range(24)), encoding="utf-8")
    for s in ("2", "-2", "0", "inf"):
        invocations.append(("mean", "-k", "12", "-s", s, "-q", "1", "--file", str(exact24)))
    # the Exact route's outer mean over several groups of 4096 subset means:
    # C(20,7) = 77520 (19 groups) at each kind of outer exponent, and the
    # counts nearest a group boundary within the budget, C(28,4) = 20475
    # (5 short of the fifth) and C(20,9) = 167960 (24 past the 41st); no
    # C(n,k) with n <= 30 is a multiple of 4096 or one past one
    draw = random.Random(20)
    exact20 = _data(10.0 ** draw.uniform(-3.0, 3.0) for _ in range(20))
    for s in ("2", "0", "-1", "inf", "-inf"):
        invocations.append(("mean", "-k", "7", "-s", s, "-q", "1", "--data", exact20))
    invocations.append(("mean", "-k", "7", "-s", "2", "-q", "-1", "--data", exact20, "--format", "json"))
    invocations.append(("mean", "-k", "9", "-s", "-1", "-q", "0.5", "--data", exact20))
    invocations.append(("mean", "-k", "4", "-s", "2", "-q", "-2", "--data", _data(range(1, 29))))
    # subset means of at least 8 entries, where a sum in order and numpy's
    # pairwise sum part: Exact under 1024 subsets (C(12,8) = 495, C(14,11)
    # = 364, C(30,29) = 30) and over it (C(16,8) = 12870, C(16,11) = 4368),
    # and 3000 draws of 40 entries, at q = 0, a finite q and q = +-inf.
    # Exact takes q = 0 only at an infinite s, which outside it has the e_k
    # closed form.
    forty = [math.exp(3.0 * math.sin(2.9 * i)) for i in range(40)]
    inner = (("0", "-inf"), ("1.5", "2"), ("inf", "-1"), ("-inf", "0.5"))
    for k, n in ((8, 12), (8, 16), (11, 14), (11, 16), (29, 30)):
        for q, s in inner:
            invocations.append(("mean", "-k", str(k), "-s", s, "-q", q, "--data", _data(forty[:n])))
    for k in (8, 11, 29):
        for q, s in inner:
            invocations.append(("mean", "-k", str(k), "-s", s, "-q", q, "--data", _data(forty),
                                "--samples", "3000", "--seed", "5", "--format", "json"))
    # 1e-300**2 underflows: the scalar e_k route leaves it to the vector engine
    invocations.append(("mean", "-k", "2", "-s", "4", "-q", "0", "--data", "1e-300,1e-300,1"))
    # results that left the hull [min v, max v] before the clamp
    invocations.append(("mean", "-k", "2", "-s", "-1", "-q", "0", "--data", ",".join(["0.9999999999999999"] * 3)))
    invocations.append(("mean", "-k", "2", "-s", "2", "-q", "1", "--data", ",".join([largest] * 3)))
    prefix = [
        ("power:0.5", "powertail:2", "500"),
        ("power:inf", "geometric:0.5", "200"),
        ("power:-inf", "geometric:0.5", "200"),
        ("power:0", "geometric:0.5", "200"),
        ("cmn:1,2,1", "powertail:2", "300"),
        ("cmn:3,-1,-1", "powertail:1.5", "300"),
        ("cmn:2,1,0", "powertail:2", "1000"),
        ("cmn:3,2,0", "harmonic-truncated:10", "500"),
        ("cmn:4,-2,0", custom, "40"),
        ("cmn:2,2,1", "powertail:2", "1000"),
        ("cmn:5,1,0.5", custom, "40"),
        ("cmn:4,-2,-1", custom, "3"),
        ("cmn:2,2,1", overflow, "3"),
        ("power:0.5", f"custom:{edge}", "4"),
        ("cmn:2,-1,0", f"custom:{top}", "5"),
        ("cmn:2,1,1", "powertail:2", "30"),
        ("cmn:2,1,1", "powertail:2", "31"),
        # no closed form: the buffered evaluator up to its cap of 30 terms,
        # and past it
        ("cmn:2,3,1", "powertail:2", "30"),
        ("cmn:2,3,1", "powertail:2", "31"),
        ("power:0.5", "harmonic", "100"),
        # each pow call site at exponents the workloads skip
        ("power:1000", "powertail:2", "100"),
        ("power:-1000", "powertail:1.5", "100"),
        ("cmn:3,-2,0", "geometric:0.75", "2000"),
        ("cmn:3,-2,-1", "powertail:1.7", "100000"),
        ("power:-3", "harmonic-truncated:50", "20000"),
        # each way a prefix experiment fails: a term the evaluator refuses,
        # at a power mean or in the second moment's P_q head, a non-positive
        # term, the enumeration budget; the second moment over entries near
        # the square root of the largest double; and a pair-mean prefix led
        # by one dominant term
        ("power:2", f"custom:{refused}", "4"),
        ("cmn:3,6,3", f"custom:{refused}", "4"),
        ("cmn:2,2,1", f"custom:{moment}", "4"),
        ("power:0.5", "powertail:400", "10"),
        ("cmn:12,2,-1", "powertail:2", "100"),
        ("cmn:2,1,0", f"custom:{dominant}", "3"),
    ]
    # each side of the work cap of the scalar prefix engine, 2**15 steps:
    # 2 steps a term for a power mean and the pair recurrence, k + 6 for
    # the e_k form and 9 for the second moment
    for mean, at_cap in (("power:0.5", 16384), ("cmn:2,1,0", 16384), ("cmn:2,2,0", 4096), ("cmn:4,2,0", 3276),
                         ("cmn:2,2,1", 3640)):
        for n in (at_cap, at_cap + 1):
            prefix.append((mean, "powertail:1.5", str(n)))
    # one short experiment on each family kind
    prefix += [
        ("cmn:3,2,0", "harmonic-truncated:7", "60"),
        ("cmn:2,1,0", "powertail:2.5", "60"),
        ("cmn:2,2,1", "geometric:0.8", "60"),
        ("power:-1", custom, "40"),
    ]
    for mean, family, n in prefix:
        invocations.append(("hardy-sum", "--mean", mean, "--family", family, "-N", n, "--format", "json"))
    invocations.append(("hardy-sum", "--mean", "cmn:2,1,0", "--family", "harmonic", "-N", "60", "--allow-nonsummable"))
    invocations += [
        ("estimate-constant", "--mean", "cmn:2,1,0", "-N", "1000"),
        ("estimate-constant", "--mean", "power:0.5", "-N", "1000", "--format", "csv"),
        ("estimate-constant", "--mean", "cmn:3,2,0", "-N", "1"),
        ("estimate-constant", "--mean", "cmn:3,2,0", "-N", "10"),
        ("estimate-constant", "--mean", "cmn:3,2,0", "-N", "11"),
        ("estimate-constant", "--mean", "power:200", "-N", "100"),
        ("estimate-constant", "--mean", "cmn:2,3,1", "-N", "31"),
        # past the first 8192-term block, with each kind of evaluator the
        # sweep builds: power means (the log route at p = 0), the pair
        # recurrence, the symmetric-function and the second-moment forms
        *(("estimate-constant", "--mean", mean, "-N", "20000")
          for mean in ("power:-1", "power:0", "cmn:2,1,0", "cmn:3,2,0", "cmn:2,2,1")),
        # usage errors and help (argparse's exits), parse-error paths, and
        # tokens that must parse
        (),
        ("--help",),
        ("mean", "-k", "2"),
        ("bogus",),
        ("classify", "--point", "2,1"),
        ("classify", "--point", "x,1,0"),
        ("classify", "--point", "2,nan,0"),
        ("classify", "--point", "2,1,zz"),
        ("classify", "--point", "2, +inf ,-INF"),
        ("classify", "--point", "3,Infinity,-1"),
        ("classify", "--grid-k", "2..3", "--grid-s", "inf,,-inf", "--grid-q", "x"),
        ("hardy-sum", "--mean", "cmn:2,1", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "cmn:x,1,0", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "bogus:1", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "power:nan", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "power:abc", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "cmn:2,INF,-inf", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "power:0.5", "--family", "foo", "-N", "10"),
        ("hardy-sum", "--mean", "power:0.5", "--family", f"CUSTOM:{terms}", "-N", "10"),
        ("hardy-sum", "--mean", "power:0.5", "--family", f"custom:{missing}", "-N", "10"),
        ("hardy-sum", "--mean", "power:0.5", "--family", f"custom:{malformed}", "-N", "10"),
        ("hardy-sum", "--mean", "power:0.5", "--family", f"custom:{utf16}", "-N", "1"),
        ("mean", "-k", "2", "-s", "nan", "-q", "0", "--data", "1,2,3"),
        ("mean", "-k", "2", "-s", "+inf", "-q", "1e400", "--data", "1,2,3"),
        ("mean", "-k", "2", "-s", "1", "-q", "0", "--data", "-1,2"),
        # integer range errors
        ("mean", "-k", "0", "-s", "1", "-q", "0", "--data", "1,2,3"),
        ("mean", "-k", "2", "-s", "1", "-q", "1", "--data", _data(range(1, 11)), "--samples", "99"),
        ("classify", "--point", "0,1,0"),
        ("hardy-sum", "--mean", "cmn:0,1,0", "--family", "powertail:2", "-N", "10"),
        ("hardy-sum", "--mean", "power:0.5", "--family", "powertail:2", "-N", "0"),
        ("hardy-sum", "--mean", "power:0.5", "--family", "harmonic-truncated:0", "-N", "10"),
        ("estimate-constant", "--mean", "cmn:2,1,0", "-N", "0"),
    ]
    return invocations


def run(tree: Path, argv: tuple[str, ...], cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-m", "hardy_means", *argv],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    args = parser.parse_args()
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "hardy_means").is_dir():
            parser.error(f"{tree} has no src/hardy_means")
    seeds = [int(seed) for seed in args.seeds.split(",")]

    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        invocations: dict[tuple[str, ...], None] = {}
        for seed in seeds:
            workdir = scratch / f"seed-{seed}"
            workdir.mkdir()
            for workload in WORKLOADS:
                invocations.update((op.argv, None) for op in build(workload, seed, workdir))
        invocations.update((argv, None) for argv in extra_invocations(scratch))

        differ = 0
        for argv in invocations:
            procs = [run(tree, argv, scratch) for tree in trees]  # both trees at once
            outputs = [proc.communicate() for proc in procs]
            codes = [proc.returncode for proc in procs]
            if codes[0] != codes[1] or outputs[0] != outputs[1]:
                differ += 1
                print(f"differs (exit {codes[0]} vs {codes[1]}): {' '.join(argv)[:300]}", flush=True)
    print(f"{len(invocations)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

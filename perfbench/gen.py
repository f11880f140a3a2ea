"""Seeded input generators for the perfbench workloads.

Every function here is a pure function of the random.Random it is given,
so one seed always yields the same command lines, request frames and
arrival schedules. The program under test only ever sees these generated
inputs.

Batch rounds keep a fixed cost profile: every explore-cold round runs the
same stratified design of axes shapes and every yield-mc round the same
die counts. The seed decides the order, the pairings and the free floats,
so figures from different seeds stay comparable.
"""

import json
import random

TABLE1 = [
    "RCA", "RCA parallel", "RCA parallel 4", "RCA hor.pipe2",
    "RCA hor.pipe4", "RCA diagpipe2", "RCA diagpipe4", "Wallace",
    "Wallace parallel", "Wallace par4", "Sequential", "Seq4_16",
    "Seq parallel",
]
TECHS = ["ULL", "LL", "HS"]

# explore-cold: one round is sixteen one-shot `optpower explore` processes.
# The shapes of their axes (everything but the frequency values and the
# single flavor) come from one fixed stratified design, built once from a
# constant seed, so every run explores the same mix of shapes; the run's
# seed orders the processes and draws the floats. Wallace is in every
# family set, so every shape has a valid substrate.
EXPLORE_BITS = [6, 8] * 4
EXPLORE_FAMILIES = [
    ["wallace"], ["booth", "wallace"], ["dadda", "wallace"],
    ["booth", "dadda", "wallace"],
] * 2
EXPLORE_RADICES = [[2], [4], [8], [2, 4], [4, 8], [2, 8], [2, 4, 8], [4]]
EXPLORE_STAGES = [[1], [2], [3], [1, 2], [2, 3], [1, 3], [1, 2, 3], [1, 2]]
EXPLORE_COPIES = [[1], [2], [4], [1, 2], [2, 4], [1, 4], [1, 2, 4], [1, 2]]
EXPLORE_FMULT_COUNTS = [2, 3, 4, 5, 6, 2, 4, 6]
EXPLORE_SIGNED = [False, True] * 4
EXPLORE_ALL_FLAVORS = [True, False] * 4
EXPLORE_DESIGN_SEED = 2006


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _fmults(rng, count):
    """Distinct frequency multiples in [0.25, 4], as exact CLI strings."""
    out = []
    while len(out) < count:
        s = "%.3f" % rng.uniform(0.25, 4.0)
        if s not in out:
            out.append(s)
    return out


def explore_design():
    """The sixteen axes shapes of an explore-cold round: each per-axis
    value multiset used twice, shuffled independently per axis."""
    rng = random.Random(EXPLORE_DESIGN_SEED)
    keys = ["bits", "families", "radices", "stages", "copies", "n_fmults",
            "signed", "all_flavors"]
    cols = [
        _shuffled(rng, c * 2)
        for c in (EXPLORE_BITS, EXPLORE_FAMILIES, EXPLORE_RADICES,
                  EXPLORE_STAGES, EXPLORE_COPIES, EXPLORE_FMULT_COUNTS,
                  EXPLORE_SIGNED, EXPLORE_ALL_FLAVORS)
    ]
    return [dict(zip(keys, vals)) for vals in zip(*cols)]


def explore_round(rng):
    """Sixteen explore axes points (dicts in the oracle's input format)."""
    out = []
    for shape in _shuffled(rng, explore_design()):
        out.append({
            "bits": shape["bits"],
            "families": shape["families"],
            "radices": shape["radices"],
            "stages": shape["stages"],
            "copies": shape["copies"],
            "signed": shape["signed"],
            "fmults": _fmults(rng, shape["n_fmults"]),
            "tech": "all" if shape["all_flavors"] else rng.choice(TECHS),
        })
    return out


def explore_args(axes):
    """The `optpower explore` arguments for one axes point."""
    args = [
        "--bits", str(axes["bits"]),
        "--family", ",".join(axes["families"]),
        "--radix", ",".join(map(str, axes["radices"])),
        "--stages", ",".join(map(str, axes["stages"])),
        "--copies", ",".join(map(str, axes["copies"])),
        "--fmult", ",".join(axes["fmults"]),
    ]
    if axes["signed"]:
        args.append("--signed")
    if axes["tech"] != "all":
        args += ["--tech", axes["tech"]]
    return args


# yield-mc: one round is six `optpower yield` processes, 0.6 M dies in all,
# half of them on each sampler. The die counts are a fixed multiset so the
# round's cost does not depend on the seed; the seed pairs them with
# samplers and draws the architectures (whose per-die costs are within
# about 10 % of each other).
YIELD_DIES = [50_000, 75_000, 100_000, 100_000, 125_000, 150_000]
YIELD_SAMPLERS = ["pseudo", "sobol"] * 3


def yield_round(rng):
    """Six {arch, dies, sampler} points, 0.6 M dies in all."""
    return [
        {"arch": rng.choice(TABLE1), "dies": d, "sampler": s}
        for d, s in zip(_shuffled(rng, YIELD_DIES),
                        _shuffled(rng, YIELD_SAMPLERS))
    ]


def yield_args(point):
    return ["--arch", point["arch"], "--dies", str(point["dies"]),
            "--sampler", point["sampler"]]


# serve-mix: the explore axes stored during set-up, and the request mix.
SERVE_EXPLORE_POOL = 6
SERVE_MIX = [("optimum", 45), ("sweep", 25), ("rank", 15), ("explore", 12),
             ("certify", 3)]


def serve_explore_pool(rng):
    """Small explore axes points the serve workload stores during set-up."""
    pool = []
    for i in range(SERVE_EXPLORE_POOL):
        fams = rng.choice(EXPLORE_FAMILIES)
        pool.append({
            "bits": 6 if i % 2 == 0 else 8,
            "families": fams,
            "radices": rng.choice(EXPLORE_RADICES),
            "stages": rng.choice(EXPLORE_STAGES),
            "copies": rng.choice(EXPLORE_COPIES),
            "signed": rng.random() < 0.5,
            "fmults": _fmults(rng, rng.choice([2, 3])),
            "tech": "all" if rng.random() < 0.5 else rng.choice(TECHS),
        })
    return pool


def explore_params(axes):
    """The serve `explore` params naming the same axes as explore_args."""
    return {
        "bits": axes["bits"],
        "families": axes["families"],
        "radices": axes["radices"],
        "stages": axes["stages"],
        "copies": axes["copies"],
        "signed": axes["signed"],
        "fmults": [float(x) for x in axes["fmults"]],
        "tech": axes["tech"],
    }


def serve_call(rng, explore_pool):
    """One (method, params) drawn from SERVE_MIX."""
    total = sum(w for _, w in SERVE_MIX)
    pick = rng.uniform(0, total)
    for method, weight in SERVE_MIX:
        pick -= weight
        if pick <= 0:
            break
    if method == "optimum":
        return method, {"arch": rng.choice(TABLE1), "tech": rng.choice(TECHS)}
    if method == "sweep":
        # Fresh floats: never a cache hit, always a solve and a big reply.
        return method, {
            "arch": rng.choice(TABLE1),
            "tech": rng.choice(TECHS),
            "samples": rng.randint(50, 150),
            "vdd_lo": rng.uniform(0.25, 0.4),
            "vdd_hi": rng.uniform(0.9, 1.2),
        }
    if method == "rank":
        k = rng.randint(3, len(TABLE1))
        return method, {"tech": rng.choice(TECHS),
                        "archs": rng.sample(TABLE1, k)}
    if method == "explore":
        return method, explore_params(rng.choice(explore_pool))
    return method, {"tech": rng.choice(TECHS + ["all"])}


def frame(rid, method, params):
    return json.dumps({"id": rid, "method": method, "params": params},
                      separators=(",", ":"))


def arrivals(rng, n, rate):
    """Poisson arrival offsets (seconds) of n requests at `rate` per second."""
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out

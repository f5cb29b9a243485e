"""The four benchmark workloads: inputs, the timed op and its known-answer check.

Each workload yields its ops in fixed rounds.  A round's structure (sizes,
kinds and their order) never depends on the seed; the seed only draws the
random unitaries, weights, states and sampling seeds.  Runs therefore stop
at round boundaries, so every run sees the same mix of op sizes and the
latency percentiles fall inside a block of like-sized ops rather than on the
edge between two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hardywitness import cli, hardy, lhv, multipartite, sampling
from hardywitness.states import Bipartition, ghz_state, make_state

import reference as ref

SPLIT = Bipartition((0,), (1,))
GOLDENS_PATH = Path(__file__).with_name("cli_goldens.json")


@dataclass
class Case:
    op_id: str
    kind: str
    payload: dict = field(default_factory=dict)


@dataclass
class Verdict:
    problems: list[str]
    known_defect: str | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng((seed, *stream))


def _haar(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_state(rng, dims):
    n = math.prod(dims)
    return make_state(dims, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def tripartite_example():
    """q1^2 = 1/2 over sqrt(.8)|00> + sqrt(.2)|11>, orthogonal branch |221>: 2/45."""
    amps = np.zeros(18, dtype=complex)
    amps[0] = 0.4**0.5
    amps[8] = 0.1**0.5
    amps[17] = 0.5**0.5
    return make_state([3, 3, 2], amps)


def state_08_02():
    return make_state([2, 2], [0.8**0.5, 0, 0, 0.2**0.5])


class Bipartite:
    """Two-party d x d states U diag(w) V^T with prescribed Schmidt weights.

    Per 24-op round: d = 2, 4, 8, 16, 32, 64 appear 4, 4, 2, 6, 4, 4 times,
    so the median op is a d = 16 op and p90 a d = 64 op at the seed commit.
    Two ops per round (1 in 12) have their smallest weight drawn
    log-uniformly from [1e-9, 1e-6]; one is all-equal weights and one rank 1.
    """

    name = "bipartite"
    ROUND = (
        (2, "generic"), (4, "generic"), (8, "generic"), (16, "generic"),
        (32, "generic"), (64, "generic"), (2, "near_floor"), (4, "equal"),
        (16, "generic"), (32, "generic"), (64, "generic"), (16, "generic"),
        (2, "generic"), (4, "generic"), (8, "generic"), (16, "generic"),
        (32, "generic"), (64, "near_floor"), (2, "rank1"), (4, "generic"),
        (16, "generic"), (32, "generic"), (64, "generic"), (16, "generic"),
    )

    def __init__(self, seed, workdir):
        self.seed = seed

    @staticmethod
    def _weights(rng, d, kind):
        if kind == "rank1":
            return np.array([1.0])
        if kind == "equal":
            return np.full(d, d**-0.5)
        while True:
            w = np.sort(rng.uniform(0.05, 1.0, d))[::-1]
            if np.min(-np.diff(w)) > 1e-6:
                break
        if kind == "near_floor":
            w[-1] = 10.0 ** rng.uniform(-9.0, -6.0)
        return w / np.linalg.norm(w)

    def round(self, r):
        rng = _rng(self.seed, 1, r)
        cases = []
        for i, (d, kind) in enumerate(self.ROUND):
            w = self._weights(rng, d, kind)
            full = np.zeros(d)
            full[: len(w)] = w
            m = _haar(rng, d) @ np.diag(full) @ _haar(rng, d).T
            v = make_state([d, d], m.reshape(-1))
            cases.append(Case(f"b{r}.{i}", f"d{d}-{kind}", {"state": v, "weights": w}))
        return cases

    def run(self, case):
        report = hardy.make_witness_report(case.payload["state"], SPLIT)
        cert = lhv.certify(report.table) if report.applicable else None
        return report, cert

    def check(self, case, out):
        report, cert = out
        expected = list(case.payload["weights"])
        got = list(report.weights)
        note = None
        if (
            case.kind.endswith("near_floor")
            and len(got) == len(expected) - 1
            and np.allclose(got, expected[:-1], rtol=0, atol=ref.WEIGHT_TOL)
        ):
            note = (
                f"smallest prescribed weight {expected[-1]:.3e} dropped "
                f"(rank {len(got)} of {len(expected)}; ROADMAP open item 2)"
            )
            expected = expected[:-1]
        problems = []
        if len(got) != len(expected):
            problems.append(f"rank {len(got)}, expected {len(expected)}")
        elif not np.allclose(got, expected, rtol=0, atol=ref.WEIGHT_TOL):
            err = np.max(np.abs(np.subtract(got, expected)))
            problems.append(f"weights off by {err:.3e}")
        best = ref.best_pair_probability(expected)
        if report.applicable != (best is not None):
            problems.append(
                f"verdict {'applicable' if report.applicable else report.reason!r}, "
                f"expected {'applicable' if best is not None else 'not applicable'}"
            )
        elif best is None:
            reason = (
                "rank 1 (product across this split)"
                if len(expected) == 1
                else "all Schmidt weights equal within eps_deg"
            )
            if report.reason != reason:
                problems.append(f"reason {report.reason!r}, expected {reason!r}")
        else:
            if abs(report.hardy_closed_form - best) > ref.CLOSED_FORM_TOL:
                problems.append(
                    f"closed form {report.hardy_closed_form!r}, best prescribed pair {best!r}"
                )
            if not report.all_conditions_hold:
                problems.append("a zero condition exceeds zero_tol")
            problems += ref.certificate_problems(report.table, cert, best)
        if note and not problems:
            return Verdict([], known_defect=note)
        if note:
            problems.append(note)
        return Verdict(problems)


class Multipartite:
    """n-part states through peel, table and certify.

    Ops alternate default and exhaustive peel orders.  Per 24-op round the
    mix is fixed (six n=4 default ops hold the median, two n=5 default ops
    hold p90); random qubit states for n = 3, 4, 5, a random [3,3,2] state,
    the 2/45 tripartite example and GHZ states (not applicable) all appear.
    """

    name = "multipartite"
    DEFAULT = ("q3", "q4", "tri", "q4", "q5", "q4", "ghz3", "q4", "r332", "q4", "q5", "q4")
    EXHAUSTIVE = ("q4", "ghz4", "q4", "q3", "q5", "q4", "tri", "q4", "ghz5", "r332", "q5", "q4")

    def __init__(self, seed, workdir):
        self.seed = seed

    @staticmethod
    def _state(rng, label):
        if label == "tri":
            return tripartite_example()
        if label.startswith("ghz"):
            return ghz_state(int(label[3:]))
        if label == "r332":
            return _random_state(rng, [3, 3, 2])
        return _random_state(rng, [2] * int(label[1:]))

    def round(self, r):
        rng = _rng(self.seed, 2, r)
        cases = []
        for i, (d_label, e_label) in enumerate(zip(self.DEFAULT, self.EXHAUSTIVE)):
            for k, (label, exhaustive) in enumerate(((d_label, False), (e_label, True))):
                state = self._state(rng, label)
                cases.append(
                    Case(
                        f"m{r}.{2 * i + k}",
                        f"{label}-{'exhaustive' if exhaustive else 'default'}",
                        {"state": state, "exhaustive": exhaustive, "label": label},
                    )
                )
        return cases

    def run(self, case):
        v = case.payload["state"]
        w = multipartite.multipartite_witness(v, exhaustive=case.payload["exhaustive"])
        if not w.applicable:
            return w, None, None
        table = multipartite.multipartite_table(v, w)
        return w, table, lhv.certify(table)

    def check(self, case, out):
        w, table, cert = out
        label = case.payload["label"]
        if label.startswith("ghz"):
            return Verdict([] if not w.applicable else ["GHZ state reported applicable"])
        if not w.applicable:
            return Verdict([f"not applicable: {w.reason}"])
        problems = []
        settings = ("Y1", "Y2") + tuple(s.observable.label for s in w.steps)
        outcomes = (1, 1) + tuple(s.marked_eigenvalue for s in w.steps)
        flagged = table.entries[(settings, outcomes)]
        if abs(flagged - w.combined_probability) > ref.CLOSED_FORM_TOL:
            problems.append(
                f"combined {w.combined_probability!r} != flagged table entry {flagged!r}"
            )
        q_sq = math.prod(s.weights[s.marked] ** 2 for s in w.steps)
        final = w.final_report
        predicted = q_sq * ref.hardy_probability(final.p1, final.p2)
        if abs(predicted - w.combined_probability) > ref.CLOSED_FORM_TOL:
            problems.append(f"combined {w.combined_probability!r} != q^2 product x closed form")
        if label == "tri" and abs(w.combined_probability - 2 / 45) > 1e-12:
            problems.append(f"tripartite example gives {w.combined_probability!r}, not 2/45")
        if case.payload["exhaustive"]:
            default = multipartite.multipartite_witness(case.payload["state"])
            if default.applicable and w.combined_probability < default.combined_probability - 1e-12:
                problems.append(
                    f"exhaustive {w.combined_probability!r} < default {default.combined_probability!r}"
                )
        problems += ref.certificate_problems(table, cert, w.combined_probability)
        return Verdict(problems)


class Simulate:
    """sample_from_table -> analyze -> records_to_csv on two precomputed tables.

    Per 25-op round, 24 ops draw 1e4 shots and one draws 1e6; tables
    alternate between the 0.8/0.2 two-qubit state and a random 3x3 state, and
    every op gets a fresh sampling seed.
    """

    name = "simulate"
    SMALL, LARGE, ROUND_LEN = 10**4, 10**6, 25

    def __init__(self, seed, workdir):
        self.seed = seed
        random_3x3 = _random_state(_rng(seed, 3), [3, 3])
        self.tables = [
            hardy.make_witness_report(v, SPLIT).table for v in (state_08_02(), random_3x3)
        ]

    def round(self, r):
        rng = _rng(self.seed, 4, r)
        cases = []
        for i in range(self.ROUND_LEN):
            shots = self.LARGE if i == self.ROUND_LEN - 1 else self.SMALL
            cases.append(
                Case(
                    f"s{r}.{i}",
                    f"shots{shots}",
                    {
                        "table": self.tables[(i + r) % 2],
                        "shots": shots,
                        "seed": int(rng.integers(0, 2**63)),
                    },
                )
            )
        return cases

    def run(self, case):
        p = case.payload
        records = sampling.sample_from_table(p["table"], p["shots"], p["seed"])
        report = sampling.analyze(records, p["table"])
        return report, sampling.records_to_csv(records)

    def check(self, case, out):
        report, csv = out
        p = case.payload
        counts, digest = ref.reference_sample(p["table"], p["shots"], p["seed"])
        problems = []
        if report.shots != p["shots"]:
            problems.append(f"analyze saw {report.shots} shots of {p['shots']}")
        if hashlib.sha256(csv.encode()).hexdigest() != digest:
            problems.append("CSV sha256 differs from the reference sampler")
        wrong = [
            c for c in report.cells
            if counts[(c.settings, c.outcomes)] != c.count
        ]
        if wrong:
            problems.append(f"{len(wrong)} analyze cell counts differ from the reference")
        return Verdict(problems)


# Input files of the cli workload.  They are fixed (not drawn from the run
# seed) so that the goldens recorded for them stay valid; the run seed picks
# which file and which sampling seed each round uses.
def cli_state_files():
    def rnd(seed, dims):
        return _random_state(np.random.default_rng(seed), dims)

    return {
        "p0.json": state_08_02(),
        "p1.json": rnd(101, [3, 3]),
        "p2.json": rnd(102, [2, 4]),
        "p3.json": rnd(103, [4, 4]),
        "t0.json": tripartite_example(),
        "t1.json": rnd(104, [2, 2, 2]),
    }


PAIR_FILES = ("p0.json", "p1.json", "p2.json", "p3.json")
TRI_FILES = ("t0.json", "t1.json")
SIM_SEEDS = tuple(range(8))


def cli_round_commands(pair_file, tri_file, sim_seeds):
    base = ["--state", pair_file, "--split", "1|2"]
    machine = ["--format", "machine"]
    return [
        ["schmidt", *base, *machine],
        ["witness", *base, *machine],
        ["witness", "--state", tri_file, "--mode", "multipartite", *machine],
        ["certify", *base, *machine],
        ["certify", *base, "--idealized", *machine],
        ["scan", "--grid", "10000", *machine],
        *(["simulate", *base, "--shots", "10000", "--seed", str(k), *machine] for k in sim_seeds),
    ]


def all_cli_commands():
    seen = {}
    for p in PAIR_FILES:
        for t in TRI_FILES:
            for argv in cli_round_commands(p, t, SIM_SEEDS):
                seen[" ".join(argv)] = argv
    return list(seen.values())


def write_cli_state_files(directory):
    for name, v in cli_state_files().items():
        doc = {"dims": list(v.dims), "amps": [[z.real, z.imag] for z in v.amps.tolist()]}
        Path(directory, name).write_text(json.dumps(doc) + "\n")


def cli_subprocess(argv, cwd, src):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hardywitness.cli", *argv],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class Cli:
    """One ``python -m hardywitness.cli`` process at a time, machine format.

    Per 8-op round: schmidt, witness, multipartite witness, certify, certify
    --idealized, scan --grid 10000 and two simulate --shots 10000 calls.
    """

    name = "cli"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.src = Path(cli.__file__).resolve().parents[1]
        write_cli_state_files(self.workdir)
        self.goldens = json.loads(GOLDENS_PATH.read_text())

    def round(self, r):
        pair_file = PAIR_FILES[(self.seed + r) % len(PAIR_FILES)]
        tri_file = TRI_FILES[(self.seed + r) % len(TRI_FILES)]
        k = (self.seed + 2 * r) % len(SIM_SEEDS)
        sims = (SIM_SEEDS[k], SIM_SEEDS[(k + 1) % len(SIM_SEEDS)])
        return [
            Case(f"c{r}.{i}", argv[0] + ("-idealized" if "--idealized" in argv else ""), {"argv": argv})
            for i, argv in enumerate(cli_round_commands(pair_file, tri_file, sims))
        ]

    def run(self, case):
        return cli_subprocess(case.payload["argv"], self.workdir, self.src)

    def inprocess(self, case):
        """The same call through ``cli.main``; the caller must chdir to workdir."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case.payload["argv"])
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, case, out):
        code, stdout, stderr = out
        golden = self.goldens.get(" ".join(case.payload["argv"]))
        if golden is None:
            return Verdict(["no golden recorded for this command"])
        problems = []
        if code != golden["exit"]:
            problems.append(f"exit code {code}, golden {golden['exit']}")
        if hashlib.sha256(stdout).hexdigest() != golden["sha256"]:
            problems.append("stdout sha256 differs from the golden")
        if stderr:
            problems.append(f"unexpected stderr: {stderr[:200]!r}")
        return Verdict(problems)


WORKLOADS = {w.name: w for w in (Bipartite, Multipartite, Simulate, Cli)}

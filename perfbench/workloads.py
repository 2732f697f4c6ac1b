"""The four workloads: what each sets up, runs and checks.

A workload object is built once per set-up. ``setup`` receives the
freshly imported package and writes the scenarios the timed part reads.
``operations(r)`` lists round r's operations, each a label and a
callable; the harness times whole rounds and runs nothing else in them.
``check(records)`` runs after the timed part on one round's results, in
which an operation that raised is None, and returns per operation the
problems found (an empty list when correct or not run).

Every check compares the program's output with a computation made apart
from it (``reference``) or with a property the method must have; none
compares with stored output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import reference

Operation = Tuple[str, Callable[[], object]]

# Family-wise error allowed per run for the statistical checks, and the
# most comparisons one run is assumed to make; each comparison gets the
# quotient (Bonferroni).
FAMILY_ALPHA = 1e-4
MAX_COMPARISONS = 10**5
DELTA = FAMILY_ALPHA / MAX_COMPARISONS
Z = statistics.NormalDist().inv_cdf(1.0 - DELTA / 2.0)

# Sample size for the benchmark's own draws of the per-realization optimum.
OPT_DRAWS = 2000


class CommandFailed(RuntimeError):
    """A CLI command exited with a nonzero status."""


def _seed(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _rel_close(a: float, b: float, rel: float, floor: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def attach(self, dm, cli) -> None:
        self.dm, self.cli = dm, cli

    def round_seed(self, r: int) -> int:
        """The --seed of round r's commands: distinct per round, fixed by the workload seed."""
        return self.seed * 1000 + r

    def command(self, label: str, argv: Sequence[str]) -> Operation:
        def op():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(list(argv))
            if rc != 0:
                raise CommandFailed(f"exit status {rc}: {err.getvalue().strip()[-400:]}")
            return list(argv)

        return label, op

    def generate(self, city: str) -> str:
        out = os.path.join(self.workdir, city)
        self.command("generate", ["generate", city, "--out-dir", out])[1]()
        return os.path.join(out, "scenario.json")

    def normalized(self, path: str, mode: str) -> str:
        """Attach Rand-baseline scores to a generated scenario, as ``run`` would."""
        dm = self.dm
        s = dm.load_scenario(path)
        m = dm.estimate_normalization(
            s, trials=100, rng=_seed(self.seed, 0), protocol="expectation", mode=mode
        )
        out = path.replace(".json", "_normalized.json")
        dm.save_scenario(dm.with_normalization(s, m), out)
        return out

    def out_dir(self, r: int, label: str) -> str:
        return os.path.join(self.workdir, f"round{r}", label.replace(":", "_"))


# ---------------------------------------------------------------------------
# shared checks of the ``run`` command's tables


def check_run_tables(
    out_dir: str, trials: int, norm: np.ndarray, mode: str
) -> Tuple[List[str], np.ndarray]:
    """trials.csv totals against their columns, aggregate.csv against trials.csv."""
    problems = []
    rows = _read_csv(os.path.join(out_dir, "trials.csv"))
    agg = _read_csv(os.path.join(out_dir, "aggregate.csv"))
    if len(rows) != trials:
        problems.append(f"trials.csv has {len(rows)} rows, want {trials}")
    if not rows or len(agg) != 1:
        return problems + ["missing rows in trials.csv or aggregate.csv"], np.zeros(0)
    fixed = ("trial", "policy", "gamma", "total_weight")
    recipients = [k for k in rows[0] if k not in fixed]
    totals = np.array([float(r["total_weight"]) for r in rows])
    cols = np.array([[float(r[k]) for k in recipients] for r in rows])
    bad = ~np.isclose(totals, cols.sum(axis=1), rtol=1e-8, atol=1e-7)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        problems.append(
            f"trial {rows[i]['trial']}: total_weight {totals[i]:.9g} != "
            f"sum of recipient columns {cols[i].sum():.9g}"
        )
    a = agg[0]
    n = len(rows)
    se = totals.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    y = cols.mean(axis=0) / norm
    gamma = 1.0 if y.max() <= 0 else (0.0 if y.min() <= 0 else min(1.0, y.min() / y.max()))
    expect = {
        "trial_count": float(n),
        "mean_total_weight": totals.mean(),
        "std_err_total": se,
        "gamma_empirical": gamma,
    }
    for key, want in expect.items():
        if not _rel_close(float(a[key]), want, 1e-6, 1e-8):
            problems.append(f"aggregate.csv {key} {a[key]} disagrees with trials.csv ({want:.9g})")
    if a["mode"] != mode:
        problems.append(f"aggregate.csv mode {a['mode']!r}, want {mode!r}")
    return problems, totals


def _se(totals: np.ndarray) -> float:
    return float(totals.std(ddof=1) / math.sqrt(totals.size)) if totals.size > 1 else 0.0


class _FixedTimeBounds:
    """The gamma = 0 references of one fixed-time scenario, computed once."""

    def __init__(self, s, seed: int):
        self.bound0 = reference.fixedtime_bound_gamma0(s)
        opt = reference.optimum_per_realization(s, OPT_DRAWS, _seed(seed, 7))
        self.opt_mean = float(opt.mean())
        self.opt_sd = float(opt.std(ddof=1))

    def above_bound(self, mean: float, trials: int) -> str:
        """Every policy's per-trial total is at most the realization's optimum,
        whose mean is at most bound0; allow the optimum's Monte Carlo error."""
        slack = Z * self.opt_sd / math.sqrt(trials)
        if mean > self.bound0 + slack:
            return (
                f"mean total weight {mean:.6g} exceeds the gamma = 0 relaxation "
                f"bound {self.bound0:.6g} by more than {slack:.3g}"
            )
        return ""

    def max_off_optimum(self, mean: float, trials: int) -> str:
        """Max attains the per-realization optimum, so its mean estimates E[OPT]."""
        slack = Z * self.opt_sd * math.sqrt(1.0 / trials + 1.0 / OPT_DRAWS)
        if abs(mean - self.opt_mean) > slack:
            return (
                f"Max mean {mean:.6g} differs from the sampled per-realization "
                f"optimum {self.opt_mean:.6g} by more than {slack:.3g}"
            )
        return ""


# ---------------------------------------------------------------------------
# sweep_fixed


class SweepFixed(Workload):
    """``sweep`` on riverton over gamma {0, 1}; the sweep estimates the scores."""

    name = "sweep_fixed"
    GAMMAS = "0,1"
    TRIALS = 20

    def setup(self) -> None:
        self.scenario = self.generate("riverton")

    def operations(self, r: int) -> List[Operation]:
        argv = [
            "sweep", self.scenario,
            "--gammas", self.GAMMAS,
            "--trials", str(self.TRIALS),
            "--seed", str(self.round_seed(r)),
            "--out-dir", self.out_dir(r, "sweep"),
        ]
        return [self.command("sweep", argv)]

    def check(self, records) -> List[List[str]]:
        dm, cli = self.dm, self.cli
        (argv,) = records
        if argv is None:
            return [[]]
        seed = int(argv[argv.index("--seed") + 1])
        out = argv[argv.index("--out-dir") + 1]
        s = dm.load_scenario(self.scenario)
        if not hasattr(self, "_bounds"):
            self._bounds = _FixedTimeBounds(s, self.seed)
        fb = self._bounds
        # The scores the sweep estimated for itself, by the same function.
        with contextlib.redirect_stderr(io.StringIO()):
            s_norm = cli._ensure_normalization(s, seed, dm.MODE_FIXED)

        problems = []
        highs = {0.0: reference.highs_lp(s, reference.FIXEDTIME, 0.0)}
        if not _rel_close(highs[0.0], fb.bound0, 1e-7):
            problems.append(
                f"references disagree at gamma 0: HiGHS {highs[0.0]:.9g}, "
                f"closed form {fb.bound0:.9g}"
            )
        rows = _read_csv(os.path.join(out, "sweep.csv"))
        want_rows = 2 + len(self.GAMMAS.split(","))
        if len(rows) != want_rows:
            problems.append(f"sweep.csv has {len(rows)} rows, want {want_rows}")
        adapt = []
        for row in rows:
            gamma = float(row["gamma_param"]) if row["policy"] == "adaptmatch" else 0.0
            if gamma not in highs:
                highs[gamma] = reference.highs_lp(s_norm, reference.FIXEDTIME, gamma)
            lp = float(row["lp_bound"])
            if not _rel_close(lp, highs[gamma], 1e-6):
                problems.append(
                    f"{row['policy']} gamma {gamma:g}: lp_bound {lp:.9g}, "
                    f"HiGHS {highs[gamma]:.9g}"
                )
            total = float(row["total_weight"])
            problems.append(fb.above_bound(total, self.TRIALS))
            if row["policy"] == "max":
                problems.append(fb.max_off_optimum(total, self.TRIALS))
            if row["policy"] == "adaptmatch":
                adapt.append((gamma, lp))
        adapt.sort()
        for (g0, b0), (g1, b1) in zip(adapt, adapt[1:]):
            if b1 > b0 * (1 + 1e-9):
                problems.append(f"lp_bound rises from {b0:.9g} at {g0:g} to {b1:.9g} at {g1:g}")
        return [[p for p in problems if p]]


# ---------------------------------------------------------------------------
# mc_fixed


class McFixed(Workload):
    """``run`` of four policies on hillmont, normalized at set-up."""

    name = "mc_fixed"
    POLICIES = ("max", "rand", "randmax:0.5", "adaptmatch:0.5")
    TRIALS = 300

    def setup(self) -> None:
        self.scenario = self.normalized(self.generate("hillmont"), self.dm.MODE_FIXED)

    def operations(self, r: int) -> List[Operation]:
        return [
            self.command(
                p,
                [
                    "run", self.scenario, p,
                    "--trials", str(self.TRIALS),
                    "--seed", str(self.round_seed(r)),
                    "--out-dir", self.out_dir(r, p),
                ],
            )
            for p in self.POLICIES
        ]

    def check(self, records) -> List[List[str]]:
        s = self.dm.load_scenario(self.scenario)
        if not hasattr(self, "_bounds"):
            self._bounds = _FixedTimeBounds(s, self.seed)
        fb = self._bounds
        problems, totals = [], []
        for argv in records:
            found, t = [], np.zeros(0)
            if argv is not None:
                out = argv[argv.index("--out-dir") + 1]
                found, t = check_run_tables(out, self.TRIALS, s.normalization, "fixed")
            if t.size:
                found.append(fb.above_bound(float(t.mean()), t.size))
            problems.append(found)
            totals.append(t)
        i_max = self.POLICIES.index("max")
        t_max = totals[i_max]
        if t_max.size:
            problems[i_max].append(fb.max_off_optimum(float(t_max.mean()), t_max.size))
        for i, (p, t) in enumerate(zip(self.POLICIES, totals)):
            if i == i_max or not t.size or not t_max.size:
                continue
            slack = Z * math.hypot(_se(t_max), _se(t))
            if t.mean() > t_max.mean() + slack:
                problems[i].append(
                    f"{p} mean {t.mean():.6g} beats Max {t_max.mean():.6g} "
                    f"by more than {slack:.3g}"
                )
        return [[p for p in ps if p] for ps in problems]


# ---------------------------------------------------------------------------
# rate


class Rate(Workload):
    """``run --mode rate`` on lakeport (myopic kinds) and city_small (nadaplp_rate)."""

    name = "rate"
    MYOPIC = ("rand", "max", "randmax:0.5")
    PLANNED = ("nadaplp_rate:0", "nadaplp_rate:0.5", "nadaplp_rate:1")
    TRIALS_MYOPIC = 150
    TRIALS_PLANNED = 100
    # validate_outcome runs on a sample: three trials of each of these
    VALIDATED = ("rand", "max", "randmax:0.5", "nadaplp_rate:0.5")
    VALIDATED_TRIALS = 3

    def setup(self) -> None:
        mode = self.dm.MODE_RATE
        self.big = self.normalized(self.generate("lakeport"), mode)
        self.small = self.normalized(self.generate("city_small"), mode)

    def _plan(self):
        for p in self.MYOPIC:
            yield p, self.big, self.TRIALS_MYOPIC
        for p in self.PLANNED:
            yield p, self.small, self.TRIALS_PLANNED

    def operations(self, r: int) -> List[Operation]:
        return [
            self.command(
                p,
                [
                    "run", path, p, "--mode", "rate",
                    "--trials", str(trials),
                    "--seed", str(self.round_seed(r)),
                    "--out-dir", self.out_dir(r, p),
                ],
            )
            for p, path, trials in self._plan()
        ]

    def _references(self):
        """HiGHS rate relaxation at gamma 0 per scenario, and validate_outcome results."""
        if hasattr(self, "_refs"):
            return self._refs
        dm = self.dm
        scen = {path: dm.load_scenario(path) for path in (self.big, self.small)}
        bound = {path: reference.highs_lp(s, reference.RATELIMIT, 0.0) for path, s in scen.items()}
        invalid = {}
        rng = _seed(self.seed, 11)
        for p, path, _ in self._plan():
            if p in self.VALIDATED:
                invalid[p] = self._validate_sample(scen[path], p, rng)
        self._refs = scen, bound, invalid
        return self._refs

    def _validate_sample(self, s, text: str, rng) -> List[str]:
        """Re-run a few trials through run_policy on realizations drawn here."""
        dm = self.dm
        policy = dm.parse_policy(text, mode=dm.MODE_RATE)
        plan_args = None
        if policy.needs_plan:
            lp = dm.solve_ratelimit_lp(s, policy.gamma)
            alpha = dm.default_alpha(s, dm.MODE_RATE)
            beta = dm.estimate_beta(s, policy.gamma, alpha, 200, rng, lp=lp)
            plan_args = (policy.gamma, alpha, beta, lp)
        out = []
        for _ in range(self.VALIDATED_TRIALS):
            hit = rng.random((s.n_recipients, s.horizon)) < s.availability
            r = dm.DemandRealization(hit.astype(np.int8))
            plan = None
            if plan_args is not None:
                g, alpha, beta, lp = plan_args
                plan = dm.nadaplp_rate_plan(s, g, alpha, beta, rng, lp=lp)
            tr = dm.run_policy(s, policy, r, rng, plan=plan)
            out += dm.validate_outcome(s, tr.outcome, r, dm.MODE_RATE)
        return out

    def check(self, records) -> List[List[str]]:
        scen, bound, invalid = self._references()
        problems = []
        for (p, path, trials), argv in zip(self._plan(), records):
            if argv is None:
                problems.append([])
                continue
            out = argv[argv.index("--out-dir") + 1]
            s = scen[path]
            found, t = check_run_tables(out, trials, s.normalization, "rate")
            if t.size:
                slack = Z * _se(t)
                if t.mean() > bound[path] + slack:
                    found.append(
                        f"{p} mean {t.mean():.6g} exceeds the rate relaxation's "
                        f"gamma = 0 objective {bound[path]:.6g} by more than {slack:.3g}"
                    )
            found += [f"{p}: validate_outcome: {msg}" for msg in invalid.get(p, [])]
            problems.append(found)
        return problems


# ---------------------------------------------------------------------------
# exact_small


class ExactSmall(Workload):
    """Tiny random instances checked against enumeration and HiGHS."""

    name = "exact_small"
    # (donors, steps, recipients, K, edges per donor): at most 8 donor-step
    # slots each. The shapes are fixed so that a round's work does not hinge
    # on the draw; weights, availability, scores, edge endpoints and
    # realizations are random. No shape has as many edges as recipients
    # (see the FOUND line on solver._cells in CHANGES.md).
    SHAPES = (
        (1, 8, 3, 3, 2),
        (2, 4, 3, 2, 2),
        (4, 2, 3, 1, 1),
        (2, 3, 4, 3, 3),
        (1, 6, 4, 2, 3),
        (2, 4, 2, 2, 2),
    )
    # One instance per shape: a round of about 1.7 s, so a 15 s run times
    # eight or more rounds and their median rides out a few slow seconds of
    # the host.
    INSTANCES = len(SHAPES)
    GAMMAS = (0.0, 0.5, 1.0)
    MC_TRIALS = 150
    MC_GAMMA = 0.5

    def setup(self) -> None:
        dm = self.dm
        rng = _seed(self.seed, 21)
        self.instances = []
        for i in range(self.INSTANCES):
            shape = self.SHAPES[i % len(self.SHAPES)]
            s, avail = _tiny_instance(dm, rng, f"x{i}", *shape)
            path = os.path.join(self.workdir, f"instance{i}.json")
            dm.save_scenario(s, path)
            self.instances.append((path, avail))

    def operations(self, r: int) -> List[Operation]:
        return [
            (f"instance{i}", self._solve(path, avail, r * self.INSTANCES + i))
            for i, (path, avail) in enumerate(self.instances)
        ]

    def _policies(self):
        dm, g = self.dm, self.MC_GAMMA
        fixed = [
            "rand", "max", f"randmax:{g}", f"nadaplp:{g}", f"nadapopt:{g}", f"adaptmatch:{g}"
        ]
        rate = ["rand", "max", f"randmax:{g}", f"nadaplp_rate:{g}"]
        return [dm.parse_policy(p, dm.MODE_FIXED) for p in fixed] + [
            dm.parse_policy(p, dm.MODE_RATE) for p in rate
        ]

    def _solve(self, path: str, avail: np.ndarray, stream: int):
        def op():
            dm = self.dm
            s = dm.load_scenario(path)
            r = dm.DemandRealization(avail)
            rec = {"path": path, "milp": [], "lp": [], "mc": []}
            for mode, solve in (
                (dm.MODE_FIXED, dm.solve_offline_opt),
                (dm.MODE_RATE, dm.solve_ratelimit_opt),
            ):
                for g in self.GAMMAS:
                    found = solve(s, r, g).objective
                    enum, _ = dm.brute_force_opt(s, r, g, mode=mode)
                    rec["milp"].append((mode, g, found, enum))
            for kind, solve in (
                (reference.FIXEDTIME, dm.solve_fixedtime_lp),
                (reference.NADAPOPT, dm.solve_nadapopt_lp),
                (reference.RATELIMIT, dm.solve_ratelimit_lp),
            ):
                for g in self.GAMMAS:
                    rec["lp"].append((kind, g, solve(s, g).objective))
            rng = _seed(self.seed, 31, stream)
            for policy in self._policies():
                beta = None
                if policy.kind == "nadaplp_rate":
                    alpha = dm.default_alpha(s, dm.MODE_RATE)
                    beta = dm.estimate_beta(s, policy.gamma, alpha, 200, rng)
                agg = dm.monte_carlo_evaluate(
                    s, policy, self.MC_TRIALS, realization_mode="fixed",
                    rng=rng, realization=r, beta=beta,
                )
                exact = dm.brute_force_policy_expectation(s, policy, r, beta=beta)
                rec["mc"].append((policy.mode, policy.label(), agg.mean_recipient_weight, exact))
            return rec

        return op

    def check(self, records) -> List[List[str]]:
        out = []
        for rec in records:
            problems = []
            out.append(problems)
            if rec is None:
                continue
            s = self.dm.load_scenario(rec["path"])
            for mode, g, found, enum in rec["milp"]:
                if abs(found - enum) > 1e-6:
                    problems.append(
                        f"{mode} MILP at gamma {g:g}: {found:.9g}, enumeration {enum:.9g}"
                    )
            for kind, g, found in rec["lp"]:
                want = reference.highs_lp(s, kind, g)
                if not _rel_close(found, want, 1e-6):
                    problems.append(f"{kind} at gamma {g:g}: {found:.9g}, HiGHS {want:.9g}")
            avail = dict(self.instances)[rec["path"]]
            for mode, label, means, exact in rec["mc"]:
                upper = _largest_recipient_weight(s, avail, mode == self.dm.MODE_RATE)
                for j, v in enumerate(s.recipients):
                    mean, want = means[v.id], exact[v.id]
                    slack = reference.bernstein_halfwidth(want, upper[j], self.MC_TRIALS, DELTA)
                    if abs(mean - want) > slack + 1e-12:
                        problems.append(
                            f"{mode} {label} recipient {v.id}: Monte Carlo mean {mean:.6g}, "
                            f"exact {want:.6g}, allowed {slack:.3g}"
                        )
        return out


def _largest_recipient_weight(s, avail: np.ndarray, every_step: bool) -> np.ndarray:
    """Most weight each recipient can gain in one trial: one edge per donor-step slot."""
    upper = np.zeros(s.n_recipients)
    for ui, edges in enumerate(s.donor_edges):
        for tau in range(s.horizon):
            if not every_step and not s.donor_schedule[ui, tau]:
                continue
            best: Dict[int, float] = {}
            for e in edges:
                v = int(s.edge_recipient[e])
                if avail[v, tau]:
                    best[v] = max(best.get(v, 0.0), float(s.weights[e, tau]))
            for v, w in best.items():
                upper[v] += w
    return upper


def _tiny_instance(
    dm, rng: np.random.Generator, tag: str, U: int, T: int, V: int, K: int, degree: int
):
    """A random scenario of the given shape and one realization of it."""
    donors = [
        dm.Donor(f"{tag}d{u}", 0.0, 0.0, first_notify=u % K + 1)
        for u in range(U)
    ]
    static = rng.random(V) < 0.4
    recipients = [
        dm.Recipient(f"{tag}r{v}", 0.0, 0.0, kind="static" if static[v] else "dynamic")
        for v in range(V)
    ]
    edges = [
        (d.id, recipients[int(v)].id)
        for d in donors
        for v in np.sort(rng.choice(V, size=degree, replace=False))
    ]
    weights = rng.uniform(0.01, 0.1, size=(len(edges), T)).round(4)
    availability = np.ones((V, T))
    for v in np.flatnonzero(~static):
        row = rng.uniform(0.2, 0.9, size=T).round(3)
        row[rng.random(T) < 0.15] = 0.0
        availability[v] = row
    normalization = rng.uniform(0.02, 0.2, size=V).round(4)
    s = dm.build_scenario(
        donors, recipients, edges, weights, availability, T, K, normalization
    )
    avail = (rng.random((V, T)) < availability).astype(np.int8)
    return s, avail


WORKLOADS = {w.name: w for w in (SweepFixed, McFixed, Rate, ExactSmall)}

"""Command line front end.

Four subcommands cover the experiment pipeline: ``generate`` samples a
synthetic city from a config, ``run`` evaluates one policy on a scenario,
``sweep`` traces the fairness/efficiency frontier over a gamma grid, and
``oracle`` cross-checks the optimizer against exhaustive enumeration on
small instances.

All tables go to files under ``--out-dir`` as UTF-8 comma CSV with %.9g
numbers; diagnostics go to stderr. Exit status 0 means success, 2 a
malformed config or input, 1 any other failure. Runs are deterministic
under ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from .graph import (
    MODE_FIXED,
    MODE_RATE,
    Scenario,
    load_scenario,
    save_scenario,
    scored_mask,
    validate_scenario,
    with_normalization,
)
from .metrics import fairness_report, gamma_of
from .oracle import EnumerationError, brute_force_opt
from .policies import PolicySpec, parse_policy
from .simulate import draw_realization, estimate_normalization, monte_carlo_evaluate
from .solver import solve_fixedtime_lp, solve_offline_opt, solve_ratelimit_opt
from . import synthgen

SWEEP_GAMMAS = tuple(round(0.1 * i, 1) for i in range(11))
ORACLE_TOL = 1e-6

_MODES = {"fixed": MODE_FIXED, "rate": MODE_RATE}


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _fmt(value) -> str:
    return "%.9g" % float(value)


def _write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else _fmt(x) for x in row])


def _norm_dict(s: Scenario) -> Dict[str, float]:
    return {v.id: float(s.normalization[i]) for i, v in enumerate(s.recipients)}


def _name_unscored(s: Scenario) -> None:
    ids = [v.id for v in s.recipients]
    off = sorted(ids[i] for i in np.flatnonzero(~scored_mask(s.normalization, ids)))
    if off:
        _info(
            "recipients left out of Gamma for lack of a positive normalization "
            "score: " + ", ".join(off)
        )


def _ensure_normalization(s: Scenario, seed: int, mode: str) -> Scenario:
    """Attach Rand-baseline scores m_v unless the scenario already has them."""
    # seed is unused, as the scores are exact, but stays: perfbench passes it.
    if s.normalization is not None:
        return s
    m = estimate_normalization(s, protocol="expectation", mode=mode)
    _info("computed exact normalization scores (Rand's expected weight per recipient)")
    return with_normalization(s, m)


def _load_valid_scenario(path) -> Scenario:
    s = load_scenario(path)
    problems = validate_scenario(s)
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return s


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    # A name is a file by its form alone, so no file or directory in the
    # working directory can take over a bundled city's name.
    try:
        if os.sep in args.config or args.config.endswith(".json"):
            cfg = synthgen.load_config(args.config)
        else:
            cfg = synthgen.load_bundled_config(args.config)
        s = synthgen.generate_city(cfg)
    except (OSError, ValueError, KeyError, TypeError) as err:
        _info(f"config error: {err}")
        return 2
    problems = validate_scenario(s)
    if problems:
        for p in problems:
            _info(f"invalid scenario: {p}")
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "scenario.json")
    save_scenario(s, path)
    _info(
        f"wrote {path}: {s.n_donors} donors, {s.n_recipients} recipients, "
        f"{s.n_edges} edges, horizon {s.horizon}, rate limit {s.rate_limit}"
    )
    return 0


def cmd_run(args) -> int:
    mode = _MODES[args.mode]
    try:
        s = _load_valid_scenario(args.scenario)
        policy = parse_policy(args.policy, mode=mode)
    except (OSError, ValueError, KeyError, TypeError) as err:
        _info(f"input error: {err}")
        return 2
    s = _ensure_normalization(s, args.seed, mode)
    try:
        agg = monte_carlo_evaluate(
            s,
            policy,
            trials=args.trials,
            realization_mode="resampled",
            rng=np.random.default_rng([args.seed, 1]),
        )
    except (ValueError, RuntimeError) as err:
        _info(f"run failed: {err}")
        return 1

    os.makedirs(args.out_dir, exist_ok=True)
    header = ["trial", "policy", "gamma", "total_weight"] + [v.id for v in s.recipients]
    trials_path = os.path.join(args.out_dir, "trials.csv")
    # One %-format per row: only the header's recipient ids can need quoting.
    row = f"%d,{policy.kind},{_fmt(policy.gamma)}" + ",%.9g" * len(header[3:]) + "\n"
    table = np.column_stack([agg.totals, agg.recipient_totals]).tolist()
    with open(trials_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(row % (i, *r) for i, r in enumerate(table, 1))

    _name_unscored(s)
    gamma_emp = gamma_of(agg.mean_recipient_weight, _norm_dict(s))
    agg_path = os.path.join(args.out_dir, "aggregate.csv")
    _write_csv(
        agg_path,
        [
            "policy",
            "gamma_param",
            "mode",
            "trial_count",
            "mean_total_weight",
            "std_err_total",
            "gamma_empirical",
        ],
        [
            [
                policy.kind,
                _fmt(policy.gamma),
                args.mode,
                str(agg.trial_count),
                agg.mean_total_weight,
                agg.std_err_total,
                gamma_emp,
            ]
        ],
    )
    _info(
        f"{policy.label()}: mean total weight {agg.mean_total_weight:.6g} "
        f"(se {agg.std_err_total:.3g}) over {agg.trial_count} trials, "
        f"Gamma {gamma_emp:.4f}; wrote {trials_path} and {agg_path}"
    )
    return 0


def sweep_rows(
    s: Scenario, gammas: Sequence[float], trials: int, seed: int
) -> List[Dict[str, float]]:
    """Evaluate the two baselines plus AdaptMatch at each gamma on one scenario.

    The scenario must carry normalization scores. Returns one report dict
    per policy point in output order (the Max and Rand baselines first,
    then AdaptMatch by ascending gamma), each with the sweep table's
    column values. The
    lp_bound column is the fixed-time LP relaxation objective at the
    row's gamma: an upper bound on the expected total weight of policies
    that meet that proportionality target (AdaptMatch itself only aims
    at it, so its rows may land above the constrained bound).
    """
    m = _norm_dict(s)
    bound0 = solve_fixedtime_lp(s, 0.0).objective

    def evaluate(policy, stream):
        return monte_carlo_evaluate(
            s,
            policy,
            trials=trials,
            realization_mode="resampled",
            rng=np.random.default_rng([seed, stream]),
        )

    max_agg = evaluate(PolicySpec("max"), 1)
    rand_agg = evaluate(PolicySpec("rand"), 2)
    reference = max_agg.mean_total_weight

    def report(agg, bound):
        return fairness_report(agg, m, max_weight=reference, lp_bound=bound)

    rows = []
    for label, agg in (("max", max_agg), ("rand", rand_agg)):
        rows.append(_sweep_row(label, 0.0, report(agg, bound0)))
    for j, gamma in enumerate(gammas):
        bound = bound0 if gamma == 0.0 else solve_fixedtime_lp(s, gamma).objective
        agg = evaluate(PolicySpec("adaptmatch", gamma=gamma), 3 + j)
        rows.append(_sweep_row("adaptmatch", gamma, report(agg, bound)))
    return rows


def _sweep_row(policy: str, gamma: float, report) -> Dict[str, float]:
    values = list(report.normalized.values())
    return {
        "policy": policy,
        "gamma_param": gamma,
        "total_weight": report.total_weight,
        "weight_fraction_of_max": report.weight_fraction_of_max,
        "gamma_empirical": report.gamma_empirical,
        "min_normalized": min(values) if values else 1.0,
        "max_normalized": max(values) if values else 1.0,
        "lp_bound": report.lp_bound,
    }


SWEEP_COLUMNS = (
    "policy",
    "gamma_param",
    "total_weight",
    "weight_fraction_of_max",
    "gamma_empirical",
    "min_normalized",
    "max_normalized",
    "lp_bound",
)


def cmd_sweep(args) -> int:
    if args.mode == "rate":
        _info(
            "sweep runs the fixed-time protocol only: the swept policy set "
            "(AdaptMatch over its pre-match plan) is defined for scheduled "
            "notification days"
        )
        return 2
    try:
        s = _load_valid_scenario(args.scenario)
    except (OSError, ValueError, KeyError, TypeError) as err:
        _info(f"input error: {err}")
        return 2
    s = _ensure_normalization(s, args.seed, MODE_FIXED)
    _name_unscored(s)
    try:
        rows = sweep_rows(s, args.gammas, args.trials, args.seed)
    except (ValueError, RuntimeError) as err:
        _info(f"sweep failed: {err}")
        return 1

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "sweep.csv")
    _write_csv(csv_path, SWEEP_COLUMNS, [[r["policy"]] + [r[c] for c in SWEEP_COLUMNS[1:]] for r in rows])
    svg_path = os.path.join(args.out_dir, "sweep.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(sweep_svg(rows))
    _info(f"swept {len(args.gammas)} gamma values; wrote {csv_path} and {svg_path}")
    return 0


def cmd_oracle(args) -> int:
    mode = _MODES[args.mode]
    try:
        s = _load_valid_scenario(args.scenario)
    except (OSError, ValueError, KeyError, TypeError) as err:
        _info(f"input error: {err}")
        return 2
    if args.gamma > 0.0:
        s = _ensure_normalization(s, args.seed, mode)
    r = draw_realization(s, np.random.default_rng([args.seed, 9]))
    solve = solve_offline_opt if mode == MODE_FIXED else solve_ratelimit_opt
    try:
        enum_obj, _ = brute_force_opt(s, r, args.gamma, mode=mode)
        milp = solve(s, r, args.gamma)
    except EnumerationError as err:
        _info(f"instance too large for the enumeration oracle: {err}")
        return 2
    except ValueError as err:
        _info(f"input error: {err}")
        return 2
    except RuntimeError as err:
        _info(f"oracle failed: {err}")
        return 1
    gap = abs(enum_obj - milp.objective)
    verdict = "agree" if gap <= ORACLE_TOL else "DISAGREE"
    _info(
        f"oracle {enum_obj:.9g} vs optimizer {milp.objective:.9g} "
        f"(gap {gap:.3g}): {verdict}"
    )
    return 0 if gap <= ORACLE_TOL else 1


# ---------------------------------------------------------------------------
# plot rendering


def sweep_svg(rows: Sequence[Dict[str, float]]) -> str:
    """Self-contained SVG scatter of weight fraction against Gamma.

    One marker per policy point: square for Max, triangle for Rand,
    circles for the AdaptMatch grid (darker with higher gamma). No
    external resources, so the file renders anywhere.
    """
    width, height = 640, 460
    left, right, top, bottom = 70, 22, 26, 54
    plot_w, plot_h = width - left - right, height - top - bottom
    x_max = max([1.0] + [r["weight_fraction_of_max"] for r in rows]) * 1.06

    def sx(x):
        return left + plot_w * x / x_max

    def sy(y):
        return top + plot_h * (1.0 - min(max(y, 0.0), 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    ticks = [i / 5 for i in range(6)]
    for frac in ticks:
        x, y = sx(frac * x_max), sy(frac)
        parts.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{top + plot_h}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 18}" text-anchor="middle">'
            f"{frac * x_max:.2f}</text>"
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end">{frac:.1f}</text>'
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 14}" text-anchor="middle">'
        "weight fraction of Max</text>"
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.0f})">empirical proportionality'
        "</text>"
    )

    for r in rows:
        x, y = sx(r["weight_fraction_of_max"]), sy(r["gamma_empirical"])
        title = (
            f'<title>{r["policy"]} gamma={r["gamma_param"]:g} '
            f'fraction={r["weight_fraction_of_max"]:.3f} '
            f'Gamma={r["gamma_empirical"]:.3f}</title>'
        )
        if r["policy"] == "max":
            parts.append(
                f'<rect x="{x - 5:.1f}" y="{y - 5:.1f}" width="10" height="10" '
                f'fill="#c23b22">{title}</rect>'
            )
        elif r["policy"] == "rand":
            pts = f"{x:.1f},{y - 6:.1f} {x - 6:.1f},{y + 5:.1f} {x + 6:.1f},{y + 5:.1f}"
            parts.append(f'<polygon points="{pts}" fill="#2b6cb0">{title}</polygon>')
        else:
            shade = 0.25 + 0.75 * min(max(r["gamma_param"], 0.0), 1.0)
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" fill="#2f7d4f" '
                f'fill-opacity="{shade:.3f}" stroke="#2f7d4f">{title}</circle>'
            )

    lx, ly = left + plot_w - 150, top + 12
    parts.append(
        f'<rect x="{lx - 10}" y="{ly - 12}" width="158" height="62" fill="white" '
        f'stroke="#999999"/>'
    )
    parts.append(f'<rect x="{lx}" y="{ly - 5}" width="10" height="10" fill="#c23b22"/>')
    parts.append(f'<text x="{lx + 16}" y="{ly + 4}">Max</text>')
    parts.append(
        f'<polygon points="{lx + 5},{ly + 10} {lx - 1},{ly + 21} {lx + 11},{ly + 21}" '
        f'fill="#2b6cb0"/>'
    )
    parts.append(f'<text x="{lx + 16}" y="{ly + 20}">Rand</text>')
    parts.append(
        f'<circle cx="{lx + 5}" cy="{ly + 32}" r="5" fill="#2f7d4f" fill-opacity="0.7"/>'
    )
    parts.append(f'<text x="{lx + 16}" y="{ly + 36}">AdaptMatch(gamma)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_gammas(text: str) -> List[float]:
    try:
        out = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        out = []
    if not out or not all(0.0 <= g <= 1.0 for g in out):
        raise argparse.ArgumentTypeError(f"expected comma-separated gammas in [0, 1], got {text!r}")
    return out


def _trial_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return n


def _parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=".", help="directory for output files")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="master random seed")
    seeded.add_argument(
        "--mode",
        choices=("fixed", "rate"),
        default="fixed",
        help="notification protocol: fixed-time schedule or rate limit",
    )
    sampled = argparse.ArgumentParser(add_help=False, parents=[seeded, out])
    sampled.add_argument("--trials", type=_trial_count, default=50, help="Monte Carlo trials")

    parser = argparse.ArgumentParser(
        prog="donormatch",
        description="Donor matching experiments: generate city scenarios, then run policies on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate",
        parents=[out],
        help="sample a synthetic city scenario from a config file or bundled name",
    )
    p.add_argument("config", help="config file (path with a / or .json) or bundled city name")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", parents=[sampled], help="evaluate one policy on a scenario")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument(
        "policy",
        help="policy spec, e.g. max, rand, randmax:0.3, adaptmatch:0.5, "
        "nadaplp:alpha=0.1,gamma=0.5, nadaplp_rate:gamma=0.2",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "sweep", parents=[sampled], help="trace the fairness/efficiency frontier"
    )
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument(
        "--gammas",
        type=_parse_gammas,
        default=",".join(str(g) for g in SWEEP_GAMMAS),
        help="comma-separated gamma grid (default 0.0,0.1,...,1.0)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "oracle",
        parents=[seeded],
        help="cross-check the optimizer against enumeration on a small scenario",
    )
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--gamma", type=float, default=0.5, help="proportionality target")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on malformed arguments
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

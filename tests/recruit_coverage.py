"""Coverage of what ``tolpred recruit`` prints, measured by a seeded loop.

    PYTHONPATH=src python tests/recruit_coverage.py --runs 2000 --seed 1

Each run draws a recruitment series from a known trend in the fitted family,
fits and predicts as ``cmd_recruit`` does with the CLI's own defaults
(``--transform``, ``--level`` and ``--horizon``), then draws one future:

* ``--mode trend`` is covered when the realised count over the next
  ``--horizon`` periods lies in [lower, upper];
* ``--mode window`` is covered when the first future period whose realised
  cumulative count reaches the target lies in [h_lo, h_hi].

The cells cross both links, no extra dispersion against gamma-Poisson extra
dispersion of shape 4 (each period's mean times a Gamma(4, 1/4) draw), and
12 against 24 observed periods.  A period spans 30 exposure days; the mean
count per period is 4 sqrt(l) on the log link and 4 + 5 log(l) on the
identity link, and the window's target is the expected count over the 12
periods after the last observed one, rounded.  Run r of cell c draws only
from ``SeedSequence((seed, c, r))``.  A run whose fit or prediction raises
what the CLI turns into an error line counts as a failure of its exception
type, and coverage is over the runs that returned.
"""

from __future__ import annotations

import argparse
import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from tolpred import applications, cli
from tolpred.dist import ParameterDomainError
from tolpred.fit import FitError

# the exceptions ``cli.main`` turns into an error line (exit 2 or 3)
ERRORS = (FitError, ArithmeticError, np.linalg.LinAlgError, ParameterDomainError, ValueError)
DAYS = 30.0
WINDOW_PERIODS = 12
DISPERSION_SHAPE = 4.0
TRUE_MEAN = {"log": lambda l: 4.0 * np.sqrt(l),
             "identity": lambda l: 4.0 + 5.0 * np.log(l)}


@dataclass(frozen=True)
class Cell:
    link: str
    dispersed: bool
    n_periods: int

    def label(self) -> str:
        return (f"{self.link:8} {'shape 4' if self.dispersed else 'none':7} "
                f"{self.n_periods:3}")

    def target(self) -> float:
        l = np.arange(self.n_periods + 1.0, self.n_periods + WINDOW_PERIODS + 1.0)
        return float(round(np.sum(TRUE_MEAN[self.link](l))))


CELLS = [Cell(link, dispersed, n) for link in ("log", "identity")
         for dispersed in (False, True) for n in (12, 24)]


@dataclass
class Tally:
    """Outcomes of one mode over a cell's runs: covered, missed below the
    interval, missed above it, and failures by exception type."""

    covered: int = 0
    below: int = 0
    above: int = 0
    failures: Counter = field(default_factory=Counter)

    def add(self, value, lo, hi) -> None:
        if value < lo:
            self.below += 1
        elif value > hi:
            self.above += 1
        else:
            self.covered += 1

    def row(self) -> str:
        n = self.covered + self.below + self.above
        p = self.covered / n if n else math.nan
        se = math.sqrt(p * (1 - p) / n) if n else math.nan
        fails = ", ".join(f"{k} {v}" for k, v in sorted(self.failures.items())) or "0"
        return f"{p:.4f} {se:.4f} {self.below:5} {self.above:5}  {fails}"


def cli_defaults(link: str, target: float) -> argparse.Namespace:
    """The options ``tolpred recruit --link LINK --target T`` runs with."""
    return cli._parse(["recruit", "--input", "series.csv", "--link", link,
                       "--target", repr(target)])


def counts(gen, cell: Cell, periods) -> np.ndarray:
    mean = TRUE_MEAN[cell.link](np.asarray(periods, dtype=float))
    if cell.dispersed:
        mean = mean * gen.gamma(DISPERSION_SHAPE, 1.0 / DISPERSION_SHAPE, mean.size)
    return gen.poisson(mean).astype(float)


def first_reaching(gen, cell: Cell, future: np.ndarray, target: float) -> int:
    """The first future period whose cumulative count reaches ``target``,
    drawing further periods past ``future`` while it is not reached."""
    total, start = 0.0, 1
    while True:
        cum = total + np.cumsum(future)
        hit = np.flatnonzero(cum >= target)
        if hit.size:
            return start + int(hit[0])
        total, start = float(cum[-1]), start + future.size
        l0 = cell.n_periods + start
        future = counts(gen, cell, np.arange(l0, l0 + 64))


def run_cell(cell: Cell, runs: int, seed: int, index: int) -> tuple[Tally, Tally]:
    """Trend and window tallies of ``runs`` runs of ``cell``."""
    target = cell.target()
    opts = cli_defaults(cell.link, target)
    trend_tally, window_tally = Tally(), Tally()
    n = cell.n_periods
    for r in range(runs):
        gen = np.random.default_rng(np.random.SeedSequence((seed, index, r)))
        months = np.arange(1, n + 1)
        series = applications.RecruitmentSeries(
            months, counts(gen, cell, months), np.full(n, DAYS), np.full(n, 10.0))
        future = counts(gen, cell, np.arange(n + 1, n + opts.horizon + 1))
        with np.errstate(all="ignore"):   # as ``cli.main`` runs every subcommand
            try:
                trend = applications.fit_trend(series, transform=opts.transform,
                                               link=opts.link)
            except ERRORS as exc:
                for tally in (trend_tally, window_tally):
                    tally.failures[type(exc).__name__] += 1
                continue
            d = trend.fit_window[1]
            try:
                iv = applications.predict_sum_rate(trend, range(d + 1, d + opts.horizon + 1),
                                                   opts.level)
                trend_tally.add(float(np.sum(future)), iv.lower, iv.upper)
            except ERRORS as exc:
                trend_tally.failures[type(exc).__name__] += 1
            try:
                _, (h_lo, h_hi) = applications.solve_target_window(trend, opts.target,
                                                                   opts.level)
                window_tally.add(first_reaching(gen, cell, future, opts.target), h_lo, h_hi)
            except ERRORS as exc:
                window_tally.failures[type(exc).__name__] += 1
    return trend_tally, window_tally


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    opts = cli_defaults("log", 1.0)
    print(f"# {args.runs} runs a cell, seed {args.seed}, transform {opts.transform}, "
          f"level {opts.level}, horizon {opts.horizon}")
    print("# link    extra   n  target | mode   coverage mc_se below above  failures")
    start = time.perf_counter()
    for index, cell in enumerate(CELLS):
        trend_tally, window_tally = run_cell(cell, args.runs, args.seed, index)
        print(f"{cell.label()} {cell.target():7g} | trend  {trend_tally.row()}")
        print(f"{cell.label()} {cell.target():7g} | window {window_tally.row()}")
    print(f"# {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()

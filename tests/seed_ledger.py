"""The seed ledger: named seed ranges per namespace, each with what it was used for.

A seed that a test, a review or a benchmark has looked at no longer gives
an independent check of a claim.  New tests and studies take their seeds
from an entry whose use is "held-out" and add their name to that entry's
uses, or add an entry of their own; ``tests/test_seed_ledger.py`` checks
that no two entries of one namespace overlap, so a range used twice is one
entry with two uses.

The entries made before the ledger are transcribed from ROADMAP item 13's
list, which names the review or item that used each range.
"""

from dataclasses import dataclass

# the kinds of use an entry can list
KINDS = ("criteria", "reviewed", "calibration", "held-out", "benchmark")

# namespace -> the seeds it names; a seed in one namespace draws other
# numbers than the same seed in another
NAMESPACES = {
    "SimConfig.seed": "the seed of a SimConfig, so of simulate_dataset and of the CLI's "
                      "sim.seed (a sweep's repetition r uses sim.seed + r)",
    "bench/run.py --seed": "the benchmark's seed; its operation i simulates SimConfig seed "
                           "10000 * seed + i",
    "generators": "the seed argument of make_locations and gen_replicates, called directly",
    "default_rng": "numpy.random.default_rng seeds of draws made outside the package",
}


@dataclass(frozen=True)
class Seeds:
    """The seeds first..last of a namespace, and their uses as (kind, what) pairs."""

    namespace: str
    first: int
    last: int
    uses: tuple


LEDGER = (
    Seeds("SimConfig.seed", 0, 19, (
        ("criteria", "tests/test_acceptance.py, the acceptance criteria"),
        ("reviewed", "seed 5, in the 6e005cb review (items 1, 2, 15 and 16)"),
        ("reviewed", "seed 3, CHANGES.md's table of the wrong answers a fixed sigma2 box "
                     "gave, and tests/test_estimate.py::TestFitSymmetries::"
                     "test_a_replicate_of_zeros_has_no_maximum_below_q_one"),
        ("reviewed", "seeds 1-3, item 3's restart census at tol 1e-6 to 1e-10"),
        ("reviewed", "seeds 1-3, item 3's census again, parent against the change that "
                     "deleted the restart loop, and as tests/test_estimate.py::"
                     "test_census_confirms_every_fit_by_newton; seed 2 in "
                     "tests/test_estimate.py::TestTieRule"))),
    Seeds("SimConfig.seed", 50, 69, (("reviewed", "items 9 and 10"),)),
    Seeds("SimConfig.seed", 100, 199, (("calibration", "proposed for item 4"),)),
    Seeds("SimConfig.seed", 300, 339, (
        ("reviewed", "the 686d2af review, item 12's table on 300-339"),
        ("reviewed", "the 686d2af review, seeds 300-305"),
        ("reviewed", "the 9327969 review on the n = 100 grid: item 28's site-mean tables "
                     "(seed 300's constant offsets, seeds 300-339 contaminated, seeds "
                     "300-319 the test statistic T) and item 29's coverage table"),
        ("reviewed", "the 9327969 review, seeds 300-309 on n = 400 uniform sites: item "
                     "30's table of the default and the tau grids"))),
    Seeds("SimConfig.seed", 700, 729, (
        ("reviewed", "the 6e005cb review (items 1, 2, 15 and 16)"),)),
    Seeds("SimConfig.seed", 740, 769, (
        ("reviewed", "the 8067a57 review, rough and smooth theta0 (items 22, 23, 24)"),)),
    Seeds("SimConfig.seed", 3301, 3306, (("benchmark", "tests/bit_record.py, base 3301"),)),
    Seeds("SimConfig.seed", 7700, 7705, (("benchmark", "tests/bit_record.py, base 7700"),)),
    Seeds("SimConfig.seed", 10001, 10040, (
        ("reviewed", "scans for a Newton step in logs past exp's range (n = 9 to 36 "
                     "grids, m = 5 to 30, default and scanned starts): seed 10001 was "
                     "tests/test_estimate.py::TestNewtonFirst::"
                     "test_step_in_logs_past_exps_range_is_refused_quietly's case until "
                     "the step held nu on its face, and seed 10003 is its case now"),)),
    Seeds("SimConfig.seed", 54001, 54002, (
        ("held-out", "tests/test_cli_io.py::TestMain::test_sweep_reruns_from_its_record"),)),
    Seeds("SimConfig.seed", 70001, 70001, (
        ("benchmark", "the n = 100 grid dataset (m = 100, rough theta0, contaminated) on "
                      "which the calls and the time of one Newton round are counted"),)),
    Seeds("SimConfig.seed", 110000, 130015, (
        ("benchmark", "the identity set (bench/run.py seeds 11-13)"),)),
    Seeds("SimConfig.seed", 1000000, 1999999, (
        ("reviewed", "item 20's data seeds, drawn from default_rng(1) and default_rng(2), "
                     "among them 1140464, 1382793 and 1573821"),)),
    Seeds("SimConfig.seed", 9010000, 9010031, (
        ("benchmark", "benchmark designs, route counts and A/B pairs"),)),
    Seeds("SimConfig.seed", 9110000, 9110031, (
        ("benchmark", "benchmark designs, route counts and A/B pairs"),
        ("benchmark", "tests/bit_record.py, base 9110000"))),
    Seeds("SimConfig.seed", 9120000, 9120005, (
        ("benchmark", "benchmark designs, route counts and A/B pairs"),)),
    Seeds("SimConfig.seed", 9120100, 9120147, (("reviewed", "the 6e005cb review"),)),
    Seeds("SimConfig.seed", 9120200, 9120215, (("reviewed", "the 6e005cb review"),)),
    Seeds("SimConfig.seed", 9130000, 9130007, (("reviewed", "the 2d536fd review, item 21"),)),
    Seeds("SimConfig.seed", 9140000, 9140099, (
        ("held-out", "tests/test_estimate.py::TestFitSymmetries::"
                     "test_default_fit_at_any_data_scale"),
        ("held-out", "tests/test_asymptotics.py::TestPopulationClosedForms::"
                     "test_ess_within_its_spread_of_the_closed_form"),
        ("held-out", "tests/test_asymptotics.py::TestPopulationClosedForms::"
                     "test_default_fit_recovers_theta_q_at_population_scale"),
        ("reviewed", "seeds 9140001-9140002, looked at while planning the population-scale "
                     "fit of theta_q"),
        ("reviewed", "seed 9140050, the c7be3e7 review's check of ustar_all at n = 400 "
                     "uniform, m = 50, q = 0.5, data times 1e3 and 1e-3, which a "
                     "TestUstar test repeats on a lattice"),
        ("held-out", "tests/test_asymptotics.py::TestUstar::"
                     "test_u_and_its_scale_are_finite_past_the_float_range"),
        ("reviewed", "seed 9140060, n = 400 uniform, m = 100: sizing the cost of the "
                     "removed se subcommand, and the check that fit's se.txt is "
                     "byte-identical to fit then se at q in {1, 0.95}"))),
    Seeds("SimConfig.seed", 9140100, 9140119, (
        ("calibration", "the band of tests/test_asymptotics.py::TestPopulationClosedForms::"
                        "test_ess_within_its_spread_of_the_closed_form"),)),
    Seeds("bench/run.py --seed", 1, 30, (("benchmark", "benchmark pairs"),)),
    Seeds("bench/run.py --seed", 101, 110, (("benchmark", "benchmark pairs"),)),
    Seeds("bench/run.py --seed", 201, 210, (("benchmark", "benchmark pairs"),)),
    Seeds("bench/run.py --seed", 401, 430, (("benchmark", "benchmark pairs"),)),
    Seeds("bench/run.py --seed", 2201, 2510, (("benchmark", "benchmark pairs"),)),
    Seeds("bench/run.py --seed", 2711, 2715, (("benchmark", "benchmark pairs"),)),
    Seeds("bench/run.py --seed", 2801, 2810, (
        ("benchmark", "benchmark pairs of the change that solves sigma2 on (0, inf)"),)),
    Seeds("bench/run.py --seed", 2811, 2830, (
        ("benchmark", "benchmark pairs of the change where a short Newton step confirms "
                      "its start unscored"),)),
    Seeds("bench/run.py --seed", 2901, 2910, (
        ("benchmark", "benchmark pairs of the change where FitChain.profile returns its "
                      "fits"),)),
    Seeds("bench/run.py --seed", 3001, 3010, (
        ("benchmark", "benchmark pairs of the change that moved the derivative pass into "
                      "R's whitened frame"),)),
    Seeds("bench/run.py --seed", 3101, 3110, (
        ("benchmark", "benchmark pairs of the change that evaluates the Matern kernel "
                      "from kve alone"),)),
    Seeds("bench/run.py --seed", 3201, 3206, (
        ("benchmark", "benchmark pairs of the change where fit writes se.txt"),)),
    Seeds("bench/run.py --seed", 3301, 3310, (
        ("benchmark", "benchmark pairs of the change where SandwichParts carries U"),)),
    Seeds("bench/run.py --seed", 3401, 3410, (
        ("benchmark", "benchmark pairs of the change that binds the workspace to one "
                      "(data, sites, q)"),)),
    Seeds("bench/run.py --seed", 3501, 3520, (
        ("benchmark", "benchmark pairs of the change whose sweep rows hold the fit chain's "
                      "own FitResults (3501-3510 both workloads before the rows dropped "
                      "the fits' passes, 3511-3520 the sweep after)"),)),
    Seeds("bench/run.py --seed", 5101, 5106, (
        ("benchmark", "sizing pairs of a scratch prototype of the Newton round without its "
                      "NumPy glue (sweep-grid-n100)"),)),
    Seeds("bench/run.py --seed", 5201, 5208, (
        ("benchmark", "sizing pairs of the same prototype with the pass's C_k Y in one "
                      "array (sweep-grid-n100)"),)),
    Seeds("bench/run.py --seed", 5301, 5310, (
        ("benchmark", "benchmark pairs of the change with one 3 x 3 Cholesky for the "
                      "Newton step and one product for the order derivatives, both "
                      "workloads"),)),
    Seeds("bench/run.py --seed", 5401, 5420, (
        ("benchmark", "benchmark pairs of the change with one table row per CLI config key "
                      "(5401-5410 both workloads; 5411-5420 sweep-grid-n100 against the "
                      "parent and a second copy of the parent)"),)),
    Seeds("bench/run.py --seed", 5501, 5501, (
        ("benchmark", "one 15 s run per side per workload of a scratch prototype of the "
                      "fit without its restart loop"),)),
    Seeds("bench/run.py --seed", 5511, 5520, (
        ("benchmark", "benchmark pairs of the change that deleted the restart loop, both "
                      "workloads"),)),
    Seeds("bench/run.py --seed", 9001, 9004, (
        ("benchmark", "trial pairs while writing the change with one 3 x 3 Cholesky for "
                      "the Newton step (9001-9002 sweep-grid-n100, 9003-9004 "
                      "analysis-uniform-n400)"),)),
    Seeds("bench/run.py --seed", 2999, 2999, (
        ("benchmark", "traced runs of the change where FitChain.profile returns its "
                      "fits"),)),
    Seeds("generators", 5, 6, (
        ("reviewed", "the 2d536fd review, item 19: sites seed 5, replicate seed 6"),)),
    Seeds("generators", 11, 12, (
        ("reviewed", "the 2d536fd review, item 19: replicate seeds 11 and 12"),)),
    Seeds("generators", 23, 24, (("reviewed", "the 2d536fd review, item 19"),)),
    Seeds("default_rng", 0, 15, (
        ("reviewed", "tests/test_gauss_lik.py::TestProfileSigma2Newton::"
                     "test_safeguard_step_keeps_the_solve_monotone: heavy-tailed forms "
                     "from each seed 0-15"),
        ("reviewed", "seed 0, a scan of profile_sigma2 over chi-square forms times "
                     "e^N(0, s^2), n <= 50, m <= 30, s <= 4, q in 0.3-0.9, 6,000 draws: "
                     "draws 4275, 4979 and 5251 warned where a Newton point underflowed to "
                     "a subnormal sigma2; tests/test_gauss_lik.py::TestProfileSigma2Newton::"
                     "test_newton_point_below_the_normal_floats_is_refused_quietly "
                     "replays them"),
        ("reviewed", "seeds 1-2, item 20's draws of data seeds"))),
    Seeds("default_rng", 52000, 52002, (
        ("reviewed", "tests/test_specfun.py::TestNuDerivatives::"
                     "test_block_step_matches_the_per_point_step (52000) and "
                     "tests/test_gauss_lik.py::TestSolveSPD3 (52001, 52002), the tests of "
                     "the order derivatives' block step and the Newton step's 3 x 3 "
                     "Cholesky solve"),)),
    Seeds("default_rng", 54003, 54005, (
        ("held-out", "tests/test_variogram.py::TestReplicateOffsets::"
                     "test_a_replicate_constant_cancels"),
        ("reviewed", "seeds 54003-54005, the offsets' rounding measured while writing "
                     "that test (up to 8.1e-15 relative)"))),
    Seeds("default_rng", 300, 339, (
        ("reviewed", "the 9327969 review, item 29: each SimConfig seed s's bootstrap "
                     "draws of the replicates from default_rng(s)"),)),
    Seeds("default_rng", 526, 526, (
        ("reviewed", "tests/test_gauss_lik.py::TestProfileSigma2Newton::"
                     "test_fixed_point_step_that_ends_the_solve: the first seed whose "
                     "chisquare(10, 5) forms at q = 0.9 end the sigma2 solve on the "
                     "fixed-point step without the tie rule (seeds 0-1979 scanned, 6 found)"),)),
    Seeds("default_rng", 10740, 10769, (
        ("reviewed", "the 8067a57 review: t scales, default_rng(10000 + seed) for "
                     "seeds 740-769 (item 22)"),)),
)


def held_out(namespace, what):
    """range of the held-out seeds of ``namespace`` whose entry lists the use ``what``."""
    for s in LEDGER:
        if s.namespace == namespace and ("held-out", what) in s.uses:
            return range(s.first, s.last + 1)
    raise KeyError("no held-out %s entry lists %r" % (namespace, what))

"""Unit tests of the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import stats


class TailPercentile(unittest.TestCase):
    def test_high_tail_keeps_ten_samples_above(self):
        values = list(range(100))  # 0..99
        value, pct, n = stats.tail_percentile(values)
        self.assertEqual(value, 89)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 89 / 99)

    def test_low_tail_keeps_ten_samples_below(self):
        values = [5.0 * i for i in range(30)]
        value, pct, n = stats.tail_percentile(values, side="low")
        self.assertEqual(value, 50.0)
        self.assertEqual(sum(1 for v in values if v < value), 10)
        self.assertEqual(n, 30)

    def test_order_of_input_does_not_matter(self):
        values = [3, 1, 2] * 10
        self.assertEqual(stats.tail_percentile(values),
                         stats.tail_percentile(sorted(values)))

    def test_too_few_samples_has_no_tail(self):
        value, pct, n = stats.tail_percentile(list(range(10)))
        self.assertTrue(math.isnan(value) and math.isnan(pct))
        self.assertEqual(n, 10)
        value, _, n = stats.tail_percentile(list(range(11)))
        self.assertEqual((value, n), (0, 11))

    def test_summary_reports_count(self):
        s = stats.summarize([1.0] * 5 + [2.0] * 20)
        self.assertEqual(s["n"], 25)
        self.assertEqual(s["median"], 2.0)
        self.assertEqual(s["fast"], 2.0)
        self.assertEqual(s["tail"], 2.0)


class GatedStatistic(unittest.TestCase):
    def test_gated_picks_named_statistic(self):
        s = stats.summarize(list(range(1, 42)))
        self.assertEqual(stats.gated(s, "median"), 21)
        self.assertEqual(stats.gated(s, "tail"), 31)
        self.assertEqual(stats.gated(s, "fast"), 11)
        with self.assertRaises(ValueError):
            stats.gated(s, "mean")

    def test_best_statistic_prefers_the_one_that_repeats(self):
        runs = [{"median": m, "tail": t, "fast": f}
                for m, t, f in [(1.0, 2.0, 0.5), (1.3, 2.0, 0.7),
                                (0.8, 2.01, 0.5), (1.2, 1.99, 0.5)]]
        best, spread = stats.best_statistic(runs)
        self.assertEqual(best, "tail")
        self.assertLess(spread, stats.TOLERANCE)

    def test_best_statistic_skips_a_missing_tail(self):
        nan = float("nan")
        runs = [{"median": m, "tail": nan, "fast": nan}
                for m in (1.0, 1.01, 0.99, 1.0)]
        self.assertEqual(stats.best_statistic(runs)[0], "median")

    def test_best_statistic_reports_a_spread_beyond_tolerance(self):
        runs = [{"median": m, "tail": 2.0 * m, "fast": m * m}
                for m in (1.0, 2.0, 3.0, 4.0)]
        best, spread = stats.best_statistic(runs)
        self.assertEqual(best, "median")
        self.assertAlmostEqual(spread, stats.relative_spread([1.0, 2.0, 3.0, 4.0]))
        self.assertGreater(spread, stats.TOLERANCE)

    def test_relative_spread_is_iqr_over_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, _, q3 = 2.75, 5.5, 8.25
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / 5.5)


class TrainingPhases(unittest.TestCase):
    def test_boundary_intervals_are_split_off(self):
        durations = [1.0, 1.0, 8.0, 1.0]  # intervals ending at steps 1..4
        e = [0, 0, 0, 1, 1]
        regular, boundary = stats.step_intervals(durations, e)
        self.assertEqual(regular, [(0, 1.0), (0, 1.0), (1, 1.0)])
        self.assertEqual(boundary, [8.0])

    def test_shrink_epochs_need_fewer_channels(self):
        epochs = [
            {"epoch": 0, "reconfigured": False, "channels": 100},
            {"epoch": 1, "reconfigured": True, "channels": 100},  # no-op surgery
            {"epoch": 2, "reconfigured": True, "channels": 90},
            {"epoch": 3, "reconfigured": False, "channels": 90},
            {"epoch": 4, "reconfigured": True, "channels": 80},
            {"epoch": 5, "reconfigured": False, "channels": 80},
        ]
        self.assertEqual(stats.shrink_epochs(epochs, 100), [2, 4])

    def test_dense_and_pruned_phases(self):
        regular = [(e, float(e)) for e in range(6) for _ in range(2)]
        dense, pruned = stats.phase_steps(regular, [2, 4], last_epoch=5)
        self.assertEqual(dense, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        self.assertEqual(pruned, [5.0, 5.0])

    def test_shrink_in_last_epoch_has_no_pruned_steps_after_it(self):
        regular = [(e, float(e)) for e in range(4)]
        dense, pruned = stats.phase_steps(regular, [1, 3], last_epoch=3)
        self.assertEqual(dense, [0.0, 1.0])
        self.assertEqual(pruned, [2.0, 3.0])

    def test_never_pruned_is_all_dense(self):
        regular = [(0, 1.0), (1, 1.0)]
        self.assertEqual(stats.phase_steps(regular, [], 1), ([1.0, 1.0], []))


class ServeWindows(unittest.TestCase):
    def test_requests_attributed_by_formation_tick(self):
        ticks = [1, 11, 21, 31, 41]
        wall = [0.0, 1.0, 3.0, 6.0, 10.0]
        formed = [1, 5, 10, 12, 25, 27, 35]
        gen = [0, 0, 0, 0, 1, 1, 1]
        seconds = [b - a for a, b in zip(wall, wall[1:])]
        dense, pruned = stats.serve_windows(ticks, seconds, formed, gen, swap_ticks=[])
        # window [11, 21) holds only the dense request formed at 12.
        self.assertEqual(dense, [(3, 1.0), (1, 2.0)])
        self.assertEqual(pruned, [(2, 3.0), (1, 4.0)])

    def test_mixed_and_swap_windows_are_excluded(self):
        ticks = [1, 11, 21, 31]
        formed = [2, 12, 15, 22]
        gen = [0, 0, 1, 1]
        dense, pruned = stats.serve_windows(ticks, [1.0, 1.0, 1.0], formed, gen,
                                            swap_ticks=[24])
        self.assertEqual(dense, [(1, 1.0)])
        self.assertEqual(pruned, [])  # [11, 21) mixed, [21, 31) holds the swap

    def test_requests_outside_windows_and_empty_windows_are_ignored(self):
        ticks = [1, 11, 21]
        formed = [0, 50]
        dense, pruned = stats.serve_windows(ticks, [1.0, 1.0], formed,
                                            [0, 1], swap_ticks=[])
        self.assertEqual((dense, pruned), ([], []))


def _train_record():
    # 3 epochs of 3 steps; a shrinking reconfiguration ends epoch 0.
    ends = [0.5, 1.5, 2.5, 4.5, 5.0, 5.5, 7.5, 8.0, 8.5]
    return {
        "step_t": ends,
        "step_epoch": [0, 0, 0, 1, 1, 1, 2, 2, 2],
        "epochs": [{"epoch": 0, "reconfigured": True, "channels": 8},
                   {"epoch": 1, "reconfigured": False, "channels": 8},
                   {"epoch": 2, "reconfigured": False, "channels": 8}],
        "initial_channels": 10,
        "batch": 2,
        "end_t": 9.0,
    }


class TrainRecord(unittest.TestCase):
    def test_dense_and_pruned_steps_of_a_run(self):
        r = stats.train_rep(_train_record())
        self.assertEqual(r["dense_ms"], [500.0, 500.0])       # epoch 0
        self.assertEqual(r["pruned_ms"], [250.0] * 4)         # epochs 1-2
        self.assertEqual(r["boundary_ms"], [2000.0, 2000.0])
        self.assertEqual(r["setup_s"], 0.5)
        self.assertEqual((r["items"], r["seconds"]), (16, 8.5))

    def test_probe_steps_are_per_item_ms(self):
        self.assertEqual(stats.per_item_ms([0.128, 0.064], 64), [2.0, 1.0])


class ServeRecord(unittest.TestCase):
    def test_windows_before_and_after_the_swap(self):
        rec = {
            "window_ticks": [1, 11, 21, 31, 41],
            "window_t": [0.5, 1.5, 2.5, 3.5, 4.5],
            "formed": [3, 5, 12, 25, 33, 34],
            "generation": [0, 0, 0, 1, 1, 1],
            "swaps": [{"tick": 0}, {"tick": 21}],
            "completed": 6,
            "end_t": 5.0,
        }
        r = stats.serve_rep(rec)
        self.assertEqual(r["dense_ms"], [500.0, 1000.0])
        self.assertEqual(r["pruned_ms"], [500.0])  # [21, 31) held the swap
        self.assertEqual((r["items"], r["setup_s"], r["seconds"]), (6, 0.5, 4.5))


class Intervals(unittest.TestCase):
    def test_unit_k_lasts_to_the_next_stamp(self):
        self.assertEqual(stats.intervals([1.0, 1.5, 3.5]), [0.5, 2.0])
        self.assertEqual(stats.intervals([2.0]), [])


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failure_share(200, 0), 0.0)
        self.assertAlmostEqual(stats.failure_share(200, 5), 0.025)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failure_share(0, 0)


if __name__ == "__main__":
    unittest.main()

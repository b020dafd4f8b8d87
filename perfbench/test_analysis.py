"""Self-tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import analysis


def span(id_, parent, start, end, name, event=0, thread=0):
    return (id_, parent, start, end, event, name, thread)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [10, 20, 30, 40]
        self.assertEqual(analysis.percentile(values, 0), 10)
        self.assertEqual(analysis.percentile(values, 100), 40)
        self.assertAlmostEqual(analysis.percentile(values, 50), 25)
        self.assertAlmostEqual(analysis.percentile(values, 99), 39.7)

    def test_order_does_not_matter(self):
        self.assertEqual(analysis.percentile([3, 1, 2], 50), 2)

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_disjoint_children(self):
        self.assertEqual(analysis.self_time((0, 100), [(10, 20), (50, 70)]), 70)

    def test_overlapping_children_count_once(self):
        self.assertEqual(analysis.self_time((0, 100), [(10, 40), (30, 60)]), 50)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(analysis.self_time((0, 100), [(-10, 10), (90, 120), (200, 300)]), 80)

    def test_no_children(self):
        self.assertEqual(analysis.self_time((5, 9), []), 4)

    def test_union_of_nested_intervals(self):
        self.assertEqual(analysis.union_length([(0, 10), (2, 3), (10, 12)]), 12)


class LossRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertAlmostEqual(analysis.loss_ratio(3, 100), 0.03)

    def test_nothing_attempted_is_no_loss(self):
        self.assertEqual(analysis.loss_ratio(0, 0), 0.0)

    def test_delivered_pct_per_workload(self):
        npb = [{"books": {"samples_stored": 97, "samples_attempted": 100}}]
        fleet = [{"books": {"read": 50, "produced": 50}}]
        self.assertAlmostEqual(analysis.delivered_pct("sp_mz", npb), 97.0)
        self.assertAlmostEqual(analysis.delivered_pct("epcc_fleet", fleet), 100.0)


class SpanTest(unittest.TestCase):
    def test_decode_round_trip(self):
        data = analysis.SPAN_FORMAT.pack(7, 3, 100, 250, 2, analysis.SPAN_CALLBACK, 5)
        (decoded,) = analysis.decode_spans(data)
        self.assertEqual(decoded, span(7, 3, 100, 250, analysis.SPAN_CALLBACK, event=2, thread=5))

    def test_region_split(self):
        fork, join = analysis.EVENT_FORK, analysis.EVENT_JOIN
        begin, end = analysis.EVENT_BEGIN_IBAR, analysis.EVENT_END_IBAR
        spans = [
            span(1, 0, 0, 10_000, analysis.SPAN_NPB_KERNEL),
            # Region 2: 1000 ns, master callbacks cover 100 + 50 + 50 + 200.
            span(2, 1, 1000, 2000, analysis.SPAN_REGION),
            span(3, 2, 1000, 1100, analysis.SPAN_CALLBACK, event=fork),
            span(4, 2, 1300, 1350, analysis.SPAN_CALLBACK, event=begin),
            span(5, 2, 1550, 1600, analysis.SPAN_CALLBACK, event=end),
            span(6, 2, 1800, 2000, analysis.SPAN_CALLBACK, event=join),
            # A worker's callback: counted in the callback total, not the split.
            span(7, 1, 1300, 1400, analysis.SPAN_CALLBACK, event=begin, thread=1),
            # Outside every kernel span: ignored.
            span(8, 1, 20_000, 21_000, analysis.SPAN_REGION),
        ]
        split = analysis.region_analysis(spans)
        self.assertEqual(split["regions"], 1)
        self.assertAlmostEqual(split["region_self_us"], 0.6)
        self.assertAlmostEqual(split["ibar_wait_us"], 0.2)
        self.assertAlmostEqual(split["events_per_region"], 5)
        self.assertAlmostEqual(split["callback_us_per_region"], 0.5)
        self.assertEqual(split["join_callback_ns"], 200)

    def test_no_regions(self):
        self.assertIsNone(analysis.region_analysis([span(1, 0, 0, 5, analysis.SPAN_PASS)]))


class PassProblemsTest(unittest.TestCase):
    def npb_pass(self, **books):
        base = {"samples_stored": 90, "samples_dropped": 10, "samples_attempted": 100}
        base.update(books)
        return {
            "arm": "profiled", "round": 0, "regions": 4366, "total_regions": 8732, "target": 4366,
            "checksum": 1.5, "epcc_regions": 1028, "epcc_expected": 1028, "books": base,
        }

    def test_balanced_pass_is_clean(self):
        self.assertEqual(analysis.pass_problems("sp_mz", self.npb_pass(), 1.5), [])

    def test_unbalanced_sample_books(self):
        problems = analysis.pass_problems("sp_mz", self.npb_pass(samples_dropped=9), 1.5)
        self.assertEqual(len(problems), 1)

    def test_checksum_and_region_mismatch(self):
        p = self.npb_pass()
        p["total_regions"] = 4366
        self.assertEqual(len(analysis.pass_problems("sp_mz", p, 2.5)), 2)

    def test_fleet_books(self):
        p = {
            "arm": "profiled", "round": 0, "epcc_regions": 1, "epcc_expected": 1,
            "books": {"produced": 10, "read": 8, "lost": 1, "events_seen": 8, "producers": 1, "quarantined": 0},
        }
        self.assertEqual(len(analysis.pass_problems("epcc_fleet", p, 0.0)), 1)


if __name__ == "__main__":
    unittest.main()

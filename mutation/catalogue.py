"""Mutants of pmpsim that the test suite must kill.

Each entry breaks one mechanism on purpose: `text` must occur exactly once
in `file`, `replacement` takes its place, and at least one of `tests` (pytest
node ids) must then fail. `python mutation/run.py` applies each in a copy of
the checkout. A change to the code a mutant targets restates the mutant in
the same change. Equivalent mutants, which no test can tell from the
original, are left out: reversing the station loop of `_ul_start`, for one,
passes every golden digest.
"""

MUTANTS = (
    {
        "id": "relay-cap-off-by-one",
        "file": "src/pmpsim/stations.py",
        "text": '        if len(queue.packets) >= cap:\n'
                '            self.metrics.record_drop(sdu, "relay")',
        "replacement": '        if len(queue.packets) > cap:\n'
                       '            self.metrics.record_drop(sdu, "relay")',
        "tests": ["tests/test_engine.py::test_relay_queue_overflow_drops_counted"],
    },
    {
        "id": "source-cap-off-by-one",
        "file": "src/pmpsim/engine.py",
        "text": '        if len(queue.packets) >= cap:\n'
                '            self.metrics.record_drop(sdu, "src")',
        "replacement": '        if len(queue.packets) > cap:\n'
                       '            self.metrics.record_drop(sdu, "src")',
        "tests": ["tests/test_golden.py::test_csv_digest_unchanged[paper-pmp-wfq-wfq-seed2]"],
    },
    {
        "id": "dl-map-rounded-down",
        "file": "src/pmpsim/phy.py",
        "text": "        return -(-self.subframe_capacity_bytes(Direction.DOWNLINK)"
                " * fraction.numerator\n                 // fraction.denominator)",
        "replacement": "        return (self.subframe_capacity_bytes(Direction.DOWNLINK)"
                       " * fraction.numerator\n                // fraction.denominator)",
        "tests": ["tests/test_golden.py::test_every_key_cell_csv_digest_unchanged"],
    },
    {
        "id": "bs-ingress-unrecorded",
        "file": "src/pmpsim/stations.py",
        "text": "        self.metrics.record_bs_ingress(sdu, t)\n",
        "replacement": "",
        "tests": ["tests/test_engine.py::test_single_flow_delivered_end_to_end"],
    },
    {
        "id": "contention-dumped-from-scenario",
        "file": "src/pmpsim/scenario.py",
        "text": '{"frame": self.frame, "contention": self.contention}.get(section, self)',
        "replacement": '{"frame": self.frame}.get(section, self)',
        "tests": ["tests/test_scenario.py::test_yaml_roundtrip_preserves_scenario",
                  "tests/test_golden.py::test_print_scenario_digest_unchanged[paper-pmp]"],
    },
    {
        "id": "trim-tail-keeps-deficit",
        "file": "src/pmpsim/sched.py",
        "text": "        if not q.packets:\n"
                "            q.deficit = 0\n"
                "            q.visit_open = False",
        "replacement": "        if not q.packets:\n"
                       "            q.visit_open = False",
        "tests": ["tests/test_sched.py::test_multi_frame_sequences_match_reference"],
    },
    {
        "id": "min-tag-serves-stale-head",
        "file": "src/pmpsim/sched.py",
        "text": "            if not q.packets or q.packets[0] is not pkt:",
        "replacement": "            if not q.packets:",
        "tests": ["tests/test_sched.py::test_trimmed_empty_head_is_never_served",
                  "tests/test_sched.py::test_multi_frame_sequences_match_reference"],
    },
)

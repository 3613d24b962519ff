"""Report streams of the suites at their default bounds, pinned byte for byte."""

import hashlib
import io
import time

import pytest

from maxnoether.reports import write_jsonl
from maxnoether.suites import SuiteParams, run_suite

# sha256 of the canonical JSONL (UTF-8) and the report count of each suite.
# noether-single (~30 s) is not run here; the benchmark gate compares its
# stream at these bounds with perfbench/expected/single-branch-full.json.
PINNED = {
    "blowup": (1644, "a3acc77ac5aa4085764d1bf4a8c61a7df04b585c226b1e59773b3e9362db9b0f"),
    "dims": (105, "d8865d61cfd5f8ec189fa2438134c0567f496ce5b82328cded0f86b0ca2159f7"),
    "eq4-oracle": (157, "2f703c13e5b04642dd774f165b9594f18f6643e4dc819845858ea96ad24cefec"),
    "hyperelliptic-negative": (
        3,
        "c681f737fe29f08e4ec79583ae4b790b2273728c6a2865e8a3bcb31901abd68b",
    ),
    "local-lemma": (2735, "dbbf525711ffcdaaa8a5cdf84f193be5690e4cabb5d801ced525b6d2fccaa15a"),
    "noether-multi": (24, "3a64a3216746f8c29541c1f0e98b7e149aa5994932d01725556a2337417f87b0"),
    "resolution": (12, "f0425b94fcb5e85cbecbc5e619cbafaf22e9b578056f53294aaa2b97d57146de"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_report_bytes_are_pinned(name):
    reports = run_suite(name)
    buf = io.StringIO()
    write_jsonl(reports, buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert (len(reports), digest) == PINNED[name]


def test_elapsed_times_add_up_to_the_run():
    # each report is timed from the previous one, the first from the run start,
    # so the times cover the whole run, including work done between checks
    # (here the per-semigroup set-up of local-lemma)
    t0 = time.perf_counter()
    reports = run_suite("local-lemma", SuiteParams(max_genus=8))
    wall = time.perf_counter() - t0
    total = sum(r.elapsed for r in reports)
    assert all(r.elapsed > 0 for r in reports)
    assert 0.95 * wall < total <= wall

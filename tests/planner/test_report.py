"""The canonical ``repro defrag`` reports, pinned by digest.

The planner-less defragmenter and both planners follow one compaction
schedule; any change to visit order, target choice, execution, layout
or pricing moves these digests.
"""

import hashlib

import pytest

from repro.planner import defrag_report, report_json, scenario_names

PINNED_SHA256 = {
    "legacy": "32eb4e772c15a82ebeae71c842a4ef22e96f23d62be3fc796fcc633e2ec75318",
    "minimal": "8743e38bffff9c2d9ffd1b5ec3b3cfdddfc181e7618a45cfb89f8ed69cf64e11",
}


@pytest.mark.parametrize("plan", sorted(PINNED_SHA256))
def test_report_digest_is_pinned(plan):
    text = report_json(defrag_report(scenario_names(), plan=plan))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINNED_SHA256[plan]

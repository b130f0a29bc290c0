"""Replay the seeded-output corpus: every recorded argv, in every output
format, must give the recorded exit code and the recorded sha256 of
stdout and of stderr.  See `make_seeded_corpus.py` for what the corpus
holds and how to regenerate it."""

import json
from collections import defaultdict

import pytest

from make_seeded_corpus import CORPUS, run_formats

with open(CORPUS) as fh:
    ENTRIES = json.load(fh)

GROUPS = defaultdict(list)
for entry in ENTRIES:
    GROUPS[entry["group"]].append(entry)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_corpus_group_replays(group):
    changed = []
    for entry in GROUPS[group]:
        for fmt, result in run_formats(entry["argv"]).items():
            if result != entry[fmt]:
                changed.append(f"{fmt}: {' '.join(entry['argv'])[:120]}")
    assert not changed, f"{len(changed)} outputs changed:\n" + "\n".join(changed)

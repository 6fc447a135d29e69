"""Deterministic corpus engineering for bi-centric multilingual MT.

The package covers the data side of training a many-to-many translation
model around two center languages: registry and direction arithmetic,
multi-way corpus expansion, hash-based reverse downsampling, prompt
rendering with byte-precise loss spans, SFT mixture construction, quality
filtering, pseudo-parallel synthesis, repetition diagnostics, and tier
aggregation of evaluation scores. Every sampling decision is a pure
function of (seed, id), so any stage can be rerun without changing its
output. expand and downsample can also be sharded at record boundaries:
their shard outputs, concatenated in shard order, are the whole run's
bytes. filter (exact dedup), mix (per-direction caps and id order) and
diagnose (repetition counts) judge records against each other, so their
shards do not concatenate to a whole run.
"""

__version__ = "0.1.0"

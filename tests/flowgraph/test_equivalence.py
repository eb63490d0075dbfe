"""Pin the artifact-key formulas of the mapping stages.

The warm-store contract (every on-disk and served campaign store)
depends on the stage executor producing *exactly* the keys the legacy
staged pipeline produced.  These tests spell the formulas out by hand —
hashing helpers only — so an accidental change to key derivation fails
loudly instead of silently cold-missing every existing store.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch import base_architecture, rsp_architecture
from repro.flowgraph.core import Flow
from repro.kernels import get_kernel
from repro.mapping.fingerprints import (
    architecture_fingerprint,
    dfg_fingerprint,
    stage_key,
)
from repro.mapping.pipeline import MappingPipeline
from repro.utils.serialization import content_hash


@pytest.fixture(scope="module")
def pipeline():
    return MappingPipeline(generate_contexts=True)


@pytest.fixture(scope="module")
def kernel():
    return get_kernel("MVM")


def test_dfg_key_is_the_content_fingerprint(pipeline, kernel):
    artifact = pipeline.dfg_artifact(kernel)
    assert artifact.key == dfg_fingerprint(artifact.value)
    assert artifact.key == content_hash(artifact.value.to_dict())


def test_upper_half_keys_match_the_legacy_formulas(pipeline, kernel):
    dfg_key = pipeline.dfg_artifact(kernel).key
    base_fp = architecture_fingerprint(pipeline.base)

    schedule = pipeline.base_schedule_artifact(kernel)
    assert schedule.key == stage_key("base_schedule", dfg=dfg_key, architecture=base_fp)

    profile = pipeline.profile_artifact(kernel)
    assert profile.key == stage_key("extract_profile", schedule=schedule.key, dfg=dfg_key)


def test_lower_half_keys_match_on_a_shared_target(pipeline, kernel):
    target = rsp_architecture(2)
    dfg_key = pipeline.dfg_artifact(kernel).key
    schedule_key = pipeline.base_schedule_artifact(kernel).key
    target_fp = architecture_fingerprint(target)

    rearranged = pipeline.rearrange_artifact(kernel, target)
    assert rearranged.key == stage_key(
        "rearrange", schedule=schedule_key, dfg=dfg_key, architecture=target_fp
    )

    context = pipeline.context_artifact(kernel, target)
    assert context.key == stage_key("generate_context", schedule=rearranged.key, dfg=dfg_key)


def test_base_target_passthrough_reuses_the_schedule_key(pipeline, kernel):
    """For the pipeline's own base, 'rearranged' is the base schedule under
    the base-schedule key, so downstream keys (and stores written before
    the executor existed) are unchanged."""
    schedule_key = pipeline.base_schedule_artifact(kernel).key
    result = pipeline.run(kernel, pipeline.base)
    assert result.schedule is result.base_schedule

    flow = Flow(pipeline, kernel, pipeline.base)
    assert flow.key("rearranged") == schedule_key
    context_key = stage_key(
        "generate_context",
        schedule=schedule_key,
        dfg=pipeline.dfg_artifact(kernel).key,
    )
    assert flow.key("context") == context_key
    assert pipeline.context_artifact(kernel).key == context_key


def test_architecture_fingerprint_ignores_the_name():
    alias = replace(rsp_architecture(2), name="some-other-name")
    assert architecture_fingerprint(alias) == architecture_fingerprint(rsp_architecture(2))


def test_base_and_rsp_fingerprints_differ():
    assert architecture_fingerprint(base_architecture()) != architecture_fingerprint(
        rsp_architecture(2)
    )

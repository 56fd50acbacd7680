"""Unit tests for the staged rekey pipeline and its shared helpers."""

import pytest

from repro.core.messages import (Destination, KeyRecord, MSG_REKEY,
                                 STRATEGY_NONE)
from repro.core.pipeline import (KeyMaterialSource, PipelineError,
                                 RekeyPipeline, Sequencer, STAGES,
                                 STAGE_DISPATCH, STAGE_ENCRYPT, STAGE_PLAN,
                                 STAGE_SIGN, make_signer, validate_signing)
from repro.core.signing import MerkleSigner, NullSigner, PerMessageSigner
from repro.core.strategies.base import (PendingItem, PlannedMessage,
                                        RekeyContext, resolve_item)
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG
from repro.observability import Instrumentation


def make_material(seed=b"pipeline-test"):
    return KeyMaterialSource(PAPER_SUITE, seed, b"unit")


def simple_planner(material):
    """A planner scheduling one single-record subgroup encryption."""
    key = material.new_key()

    def planner(ctx):
        record = KeyRecord(7, 2, material.new_key())
        item = ctx.encrypt(key, [record], 7, 1)
        return [PlannedMessage(Destination.to_subgroup(7), [item],
                               lambda: ("u0", "u1"))]
    return planner


class TestValidateSigning:
    def test_accepts_known_modes(self):
        for mode in ("none", "per-message", "merkle"):
            validate_signing(mode, PAPER_SUITE)

    def test_rejects_unknown_mode(self):
        with pytest.raises(PipelineError):
            validate_signing("carrier-pigeon", PAPER_SUITE)

    def test_rejects_signing_without_signature_suite(self):
        with pytest.raises(PipelineError):
            validate_signing("merkle", PAPER_SUITE_NO_SIG)
        validate_signing("none", PAPER_SUITE_NO_SIG)  # fine

    def test_custom_error_type(self):
        class Boom(ValueError):
            pass
        with pytest.raises(Boom):
            validate_signing("nope", PAPER_SUITE, error=Boom)


class TestKeyMaterialSource:
    def test_seeded_streams_are_deterministic(self):
        one, two = make_material(), make_material()
        assert [one.new_key() for _ in range(4)] == \
               [two.new_key() for _ in range(4)]
        assert one.new_iv() == two.new_iv()

    def test_personalization_separates_domains(self):
        one = KeyMaterialSource(PAPER_SUITE, b"seed", b"alpha")
        two = KeyMaterialSource(PAPER_SUITE, b"seed", b"beta")
        assert one.new_key() != two.new_key()

    def test_sizes(self):
        material = make_material()
        assert len(material.new_key()) == PAPER_SUITE.key_size
        assert len(material.new_iv()) == PAPER_SUITE.block_size
        assert len(material.new_individual_key()) == PAPER_SUITE.key_size


class TestMakeSigner:
    def test_modes(self):
        signer, keypair = make_signer(PAPER_SUITE, "none", b"s")
        assert isinstance(signer, NullSigner) and keypair is None
        signer, keypair = make_signer(PAPER_SUITE, "per-message", b"s")
        assert isinstance(signer, PerMessageSigner) and keypair is not None
        signer, keypair = make_signer(PAPER_SUITE, "merkle", b"s")
        assert isinstance(signer, MerkleSigner) and keypair is not None

    def test_seeded_keypair_is_deterministic(self):
        _, one = make_signer(PAPER_SUITE, "merkle", b"seed")
        _, two = make_signer(PAPER_SUITE, "merkle", b"seed")
        assert one.public_key == two.public_key

    def test_invalid_mode_raises_given_error(self):
        with pytest.raises(PipelineError):
            make_signer(PAPER_SUITE, "smoke-signals")


class TestSequencer:
    def test_monotonic_from_start(self):
        seq = Sequencer()
        assert [seq.next() for _ in range(3)] == [1, 2, 3]
        assert seq.value == 3

    def test_restores_from_value(self):
        seq = Sequencer(start=41)
        assert seq.next() == 42


class TestPendingItem:
    def test_deferred_context_matches_immediate_bytes(self):
        material = make_material()
        key = material.new_key()
        records = [KeyRecord(3, 1, material.new_key())]

        immediate = RekeyContext(PAPER_SUITE)
        direct = immediate.encrypt(key, records, 3, 0)

        deferred = RekeyContext(PAPER_SUITE, defer=True)
        pending = deferred.encrypt(key, records, 3, 0)
        assert isinstance(pending, PendingItem)
        assert immediate.encryptions == deferred.encryptions == 1
        deferred.materialize()
        assert resolve_item(pending) == direct

    def test_resolve_requires_materialization(self):
        material = make_material()
        ctx = RekeyContext(PAPER_SUITE, defer=True)
        pending = ctx.encrypt(material.new_key(),
                              [KeyRecord(1, 1, material.new_key())], 1, 0)
        with pytest.raises(ValueError):
            resolve_item(pending)


class TestRekeyPipeline:
    def test_run_produces_wire_messages(self):
        material = make_material()
        pipeline = RekeyPipeline(PAPER_SUITE, group_id=9)
        run = pipeline.run("join", simple_planner(material),
                           root_ref=lambda: (5, 3), user_id="u9")
        assert run.op == "join" and run.user_id == "u9"
        assert len(run.messages) == 1
        message = run.messages[0].message
        assert message.msg_type == MSG_REKEY and message.group_id == 9
        assert message.seq == 1
        assert (message.root_node_id, message.root_version) == (5, 3)
        assert run.messages[0].receivers == ("u0", "u1")
        assert run.encryptions == 1
        assert set(run.stage_seconds) == set(STAGES)
        assert run.seconds >= sum(run.stage_seconds.values()) * 0.0  # present

    def test_empty_plan_skips_root_ref_and_seq(self):
        material = make_material()
        pipeline = RekeyPipeline(PAPER_SUITE)

        def exploding_root_ref():
            raise AssertionError("root_ref must not be called")

        run = pipeline.run("leave", lambda ctx: [],
                           root_ref=exploding_root_ref)
        assert run.messages == [] and run.signatures == 0
        assert pipeline.sequencer.value == 0

    def test_hooks_fire_in_stage_order(self):
        material = make_material()
        pipeline = RekeyPipeline(PAPER_SUITE)
        fired = []
        for stage in STAGES:
            pipeline.add_hook(stage, lambda run, s=stage: fired.append(s))
        pipeline.run("join", simple_planner(material),
                     root_ref=lambda: (1, 1))
        assert fired == [STAGE_PLAN, STAGE_ENCRYPT, STAGE_SIGN,
                         STAGE_DISPATCH]

    def test_hook_sees_stage_results(self):
        material = make_material()
        pipeline = RekeyPipeline(PAPER_SUITE)
        seen = {}
        pipeline.add_hook(STAGE_PLAN,
                          lambda run: seen.setdefault("plans", len(run.plans)))
        pipeline.add_hook(STAGE_DISPATCH,
                          lambda run: seen.setdefault("messages",
                                                      len(run.messages)))
        pipeline.run("join", simple_planner(material),
                     root_ref=lambda: (1, 1))
        assert seen == {"plans": 1, "messages": 1}

    def test_unknown_hook_stage_rejected(self):
        pipeline = RekeyPipeline(PAPER_SUITE)
        with pytest.raises(PipelineError):
            pipeline.add_hook("teleport", lambda run: None)

    def test_shared_sequencer_spans_runs(self):
        material = make_material()
        sequencer = Sequencer()
        pipeline = RekeyPipeline(PAPER_SUITE, sequencer=sequencer)
        pipeline.run("join", simple_planner(material),
                     root_ref=lambda: (1, 1))
        run = pipeline.run("join", simple_planner(material),
                           root_ref=lambda: (1, 1))
        assert run.messages[0].message.seq == 2

    def test_seal_whole_batch(self):
        material = make_material()
        inner = simple_planner(material)
        signer, _ = make_signer(PAPER_SUITE, "merkle", b"seed")
        pipeline = RekeyPipeline(PAPER_SUITE, signer=signer)
        run = pipeline.run("leave", lambda ctx: inner(ctx) + inner(ctx),
                           root_ref=lambda: (1, 1))
        # One Merkle signature covers both messages (paper §4).
        assert len(run.messages) == 2
        assert run.signatures == 1

    def test_no_signer_means_no_auth_blocks(self):
        material = make_material()
        pipeline = RekeyPipeline(PAPER_SUITE, signer=None)
        run = pipeline.run("join", simple_planner(material),
                           root_ref=lambda: (1, 1))
        assert run.signatures == 0
        assert run.messages[0].message.auth is None

    def test_instrumentation_receives_runs(self):
        material = make_material()
        inst = Instrumentation("pipeline-test")
        pipeline = RekeyPipeline(PAPER_SUITE, instrumentation=inst)
        pipeline.run("join", simple_planner(material),
                     root_ref=lambda: (1, 1))
        registry = inst.registry
        assert registry.get("rekey_seconds").labels(
            op="join", status="ok").count == 1
        assert registry.get("rekey_stage_seconds").labels(
            op="join", stage="plan").count == 1

    def test_strategy_code_lands_on_wire(self):
        material = make_material()
        pipeline = RekeyPipeline(PAPER_SUITE)
        run = pipeline.run("join", simple_planner(material),
                           strategy_code=STRATEGY_NONE,
                           root_ref=lambda: (1, 1))
        assert run.messages[0].message.strategy == STRATEGY_NONE

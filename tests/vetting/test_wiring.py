"""Vetting wired into the MIDAS pipeline: publish gate, install gate."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import DependencyError, VerificationError, VettingError
from repro.midas.envelope import ExtensionEnvelope
from repro.telemetry import Timeline
from repro.vetting import report as R
from repro.vetting import requires_cycle
from tests.vetting import fixtures as fx


def _events(registry, name):
    return Timeline.from_hub(registry.flight).events(name).all()


class TestPublishGate:
    def test_clean_extension_publishes_and_stores_report(self, world, registry):
        report = world.catalog.publish("clean", fx.CleanAspect)
        assert report.clean
        assert world.catalog.vet_report_of("clean") is report
        assert "clean" in world.catalog

    def test_under_declared_capability_blocks_publish(self, world, registry):
        with pytest.raises(VettingError) as excinfo:
            world.catalog.publish("grabby", fx.UnderDeclaredAspect)
        assert "network" in str(excinfo.value)
        rules = {f.rule for f in excinfo.value.report.errors()}
        assert R.RULE_UNDER_DECLARED in rules
        assert "grabby" not in world.catalog
        (event,) = _events(registry, "midas.vet_rejected")
        assert event.fields["stage"] == "publish"
        assert R.RULE_UNDER_DECLARED in event.fields["rules"]
        assert registry.counter_total("midas.vet_rejections") == 1

    def test_gateway_bypass_blocks_publish(self, world, registry):
        with pytest.raises(VettingError) as excinfo:
            world.catalog.publish("sniffer", fx.BypassAspect)
        rules = {f.rule for f in excinfo.value.report.errors()}
        assert R.RULE_GATEWAY_BYPASS in rules

    def test_crosscut_overlap_against_cataloged_set_blocks_publish(
        self, world, registry
    ):
        world.catalog.publish("wrap-a", fx.OverlapAspectA)
        with pytest.raises(VettingError) as excinfo:
            world.catalog.publish("wrap-b", fx.OverlapAspectB)
        rules = {f.rule for f in excinfo.value.report.errors()}
        assert R.RULE_AROUND_CONFLICT in rules

    def test_allowlisted_overlap_publishes(self, world, registry):
        world.catalog.publish("wrap-a", fx.OverlapAspectA)
        report = world.catalog.publish(
            "wrap-b",
            fx.OverlapAspectB,
            allowlist=[frozenset({"wrap-a", "wrap-b"})],
        )
        assert report.clean

    def test_disjoint_extensions_coexist(self, world, registry):
        world.catalog.publish("wrap-a", fx.OverlapAspectA)
        assert world.catalog.publish("disjoint", fx.DisjointAspect).clean

    def test_republish_does_not_interfere_with_itself(self, world, registry):
        world.catalog.publish("wrap-a", fx.OverlapAspectA)
        report = world.catalog.publish("wrap-a", fx.OverlapAspectA)
        assert report.clean
        assert world.catalog.version_of("wrap-a") == 2

    def test_legacy_add_stays_unvetted(self, world, registry):
        world.catalog.add("grabby", fx.UnderDeclaredAspect)
        assert world.catalog.vet_report_of("grabby") is None


class TestEnvelopeTransport:
    def test_sealed_envelope_carries_signed_report(self, world, registry):
        world.catalog.publish("clean", fx.CleanAspect)
        envelope = world.catalog.seal("clean")
        assert envelope.vet_report is not None
        assert envelope.vet_signature is not None
        assert envelope.verify_vet_report(world.trust)

    def test_unvetted_envelope_has_no_report(self, world, registry):
        world.catalog.add("legacy", fx.CleanAspect)
        envelope = world.catalog.seal("legacy")
        assert envelope.vet_report is None
        assert not envelope.verify_vet_report(world.trust)


class TestInstallGate:
    def test_vetted_envelope_installs_in_verify_mode(self, world, registry):
        world.catalog.publish("clean", fx.CleanAspect)
        world.receiver.install_envelope(world.catalog.seal("clean"))
        assert world.receiver.is_installed("clean")

    def test_legacy_unvetted_envelope_installs_but_is_counted(
        self, world, registry
    ):
        world.catalog.add("legacy", fx.CleanAspect)
        world.receiver.install_envelope(world.catalog.seal("legacy"))
        assert world.receiver.is_installed("legacy")
        assert registry.counter_total("midas.unvetted") == 1

    def test_tampered_report_fails_verification(self, world, registry):
        world.catalog.publish("clean", fx.CleanAspect)
        envelope = world.catalog.seal("clean")
        doctored = dict(envelope.vet_report)
        doctored["aspect_class"] = "something.else.Entirely"
        forged = dataclasses.replace(envelope, vet_report=doctored)
        with pytest.raises(VerificationError):
            world.receiver.install_envelope(forged)
        assert not world.receiver.is_installed("clean")

    def test_report_without_signature_is_refused(self, world, registry):
        world.catalog.publish("clean", fx.CleanAspect)
        envelope = world.catalog.seal("clean")
        stripped = dataclasses.replace(envelope, vet_signature=None)
        with pytest.raises(VerificationError):
            world.receiver.install_envelope(stripped)

    def test_error_report_refuses_install_with_telemetry(self, world, registry):
        # A base that signs a failing report anyway (catalog bypassed):
        # the receiver must still refuse on the verdict itself.
        from repro.vetting.vetter import Vetter

        aspect = fx.UnderDeclaredAspect()
        report = Vetter().vet_instance(aspect, extension="grabby")
        assert report.has_errors
        envelope = ExtensionEnvelope.seal(
            "grabby",
            aspect,
            world.signer,
            vet_report=report.as_dict(),
            vet_signature=world.signer.sign(report.digest()),
        )
        with pytest.raises(VettingError):
            world.receiver.install_envelope(envelope)
        (event,) = _events(registry, "midas.vet_rejected")
        assert event.fields["stage"] == "install"
        assert registry.counter_total("midas.vet_rejections") == 1

    def test_revet_mode_reanalyzes_unvetted_envelopes(self, world, registry):
        world.receiver.vetting = "revet"
        bad = ExtensionEnvelope.seal("spin", fx.SpinAspect(), world.signer)
        with pytest.raises(VettingError) as excinfo:
            world.receiver.install_envelope(bad)
        rules = {f.rule for f in excinfo.value.report.errors()}
        assert R.RULE_UNBOUNDED_LOOP in rules
        (event,) = _events(registry, "midas.vet_rejected")
        assert event.fields["stage"] == "install"

    def test_revet_mode_accepts_clean_extensions(self, world, registry):
        world.receiver.vetting = "revet"
        good = ExtensionEnvelope.seal("clean", fx.CleanAspect(), world.signer)
        world.receiver.install_envelope(good)
        assert world.receiver.is_installed("clean")

    def test_trust_mode_skips_the_gate(self, world, registry):
        world.receiver.vetting = "trust"
        world.catalog.add("legacy", fx.CleanAspect)
        world.receiver.install_envelope(world.catalog.seal("legacy"))
        assert registry.counter_total("midas.unvetted") == 0

    def test_unknown_vetting_mode_is_rejected_at_construction(self, world):
        import repro.midas.receiver as receiver_module

        with pytest.raises(ValueError, match="unknown vetting mode"):
            receiver_module.AdaptationService(
                world.vm,
                world.device_transport,
                world.sim,
                world.trust,
                vetting="paranoid",
            )


class TestRequiresCycles:
    def test_install_time_error_names_the_full_cycle(self, world, registry):
        envelope = ExtensionEnvelope.seal("cyclic", fx.CycleA(), world.signer)
        world.receiver.vetting = "trust"  # reach the dependency resolver
        with pytest.raises(
            DependencyError, match="CycleA -> CycleB -> CycleA"
        ):
            world.receiver.install_envelope(envelope)

    def test_static_vetter_reports_the_same_cycle(self):
        assert requires_cycle(fx.CycleA) == ["CycleA", "CycleB", "CycleA"]
        assert requires_cycle(fx.CleanAspect) is None

    def test_vet_report_carries_the_cycle_as_an_error(self):
        from repro.vetting import vet_class

        report = vet_class(fx.CycleA)
        (finding,) = [
            f for f in report.findings if f.rule == R.RULE_REQUIRES_CYCLE
        ]
        assert finding.severity == R.ERROR
        assert "CycleA -> CycleB -> CycleA" in finding.message

    def test_acyclic_chain_vets_dependencies_against_their_declarations(self):
        from repro.vetting import vet_class

        report = vet_class(fx.NeedsClean)
        assert report.clean


class TestReportRoundTrip:
    def test_report_survives_dict_round_trip_with_same_digest(self):
        from repro.vetting import VetReport, vet_class

        report = vet_class(fx.UnderDeclaredAspect)
        clone = VetReport.from_dict(report.as_dict())
        assert clone.digest() == report.digest()
        assert clone.has_errors

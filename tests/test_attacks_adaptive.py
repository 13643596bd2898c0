"""Tests for the detection-aware (adaptive) attack family.

Covers the evasion mechanics (entropy shaping, partial encryption,
computed dilution, trim interleaving), the regression pinning the
entropy-jump detector fix (mimicry evades the pre-fix rule, is
caught post-fix at default thresholds), the forensic naming of the
evasive families, and their registration in the campaign registry.
"""

import pytest

from repro.api import provision_environment
from repro.attacks.adaptive import (
    EntropyMimicryAttack,
    EvasionPolicy,
    IntermittentEncryptionAttack,
    RateThrottledAttack,
    TrimInterleavedWipeAttack,
    shape_entropy,
)
from repro.campaign import registries
from repro.campaign.engine import run_cell
from repro.campaign.grid import CampaignGrid
from repro.crypto.entropy import DEFAULT_ENCRYPTED_THRESHOLD, DEFAULT_JUMP_THRESHOLD
from repro.ssd.device import SSD
from repro.ssd.flash import shannon_entropy
from repro.ssd.geometry import SSDGeometry


def flags_write(entropy, previous_entropy):
    """The entropy detectors' verdict on a write over known data.

    A write whose entropy dropped never flags; otherwise it flags at the
    absolute threshold (7.2 bits/byte) or at a jump-threshold rise (2.0)
    over the data it replaces -- the thresholds the live ``entropy`` and
    ``jump`` detectors run at.
    """
    delta = entropy - previous_entropy
    if delta < 0.0:
        return False
    return entropy >= DEFAULT_ENCRYPTED_THRESHOLD or delta >= DEFAULT_JUMP_THRESHOLD


def fresh_environment(victim_files=8):
    device = SSD(geometry=SSDGeometry.tiny())
    return provision_environment(device, victim_files=victim_files, file_size_bytes=8192)


def page_chunks(data, page_size=4096):
    return [data[i : i + page_size] for i in range(0, len(data), page_size)]


class TestEvasionPolicy:
    def test_defaults_are_light(self):
        policy = EvasionPolicy.light()
        assert policy.bits_per_symbol == 7
        assert policy.encrypt_stride == 2

    def test_strong_is_stronger_everywhere(self):
        light, strong = EvasionPolicy.light(), EvasionPolicy.strong()
        assert strong.bits_per_symbol < light.bits_per_symbol
        assert strong.encrypt_stride > light.encrypt_stride
        assert strong.max_high_entropy_fraction < light.max_high_entropy_fraction
        assert strong.op_gap_us > light.op_gap_us

    def test_decoy_count_enforces_fraction(self):
        policy = EvasionPolicy(max_high_entropy_fraction=0.4)
        pages = 4
        decoys = policy.decoys_for(pages)
        assert pages / (pages + decoys) <= 0.4
        assert policy.decoys_for(0) == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EvasionPolicy(bits_per_symbol=0)
        with pytest.raises(ValueError):
            EvasionPolicy(bits_per_symbol=9)
        with pytest.raises(ValueError):
            EvasionPolicy(encrypt_stride=0)
        with pytest.raises(ValueError):
            EvasionPolicy(max_high_entropy_fraction=0.0)
        with pytest.raises(ValueError):
            EvasionPolicy(op_gap_us=-1)


class TestEntropyShaping:
    def test_shaped_entropy_tracks_alphabet_width(self):
        random_ish = bytes((i * 193 + 71) % 256 for i in range(8192))
        for bits in (5, 6, 7):
            shaped = shape_entropy(random_ish, bits)
            assert abs(shannon_entropy(shaped) - bits) < 0.1
            assert max(shaped) < 2**bits

    def test_eight_bits_is_identity(self):
        data = b"identity payload"
        assert shape_entropy(data, 8) == data

    def test_expansion_factor(self):
        data = bytes(range(256)) * 4
        shaped = shape_entropy(data, 6)
        assert len(shaped) == pytest.approx(len(data) * 8 / 6, abs=1)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            shape_entropy(b"x", 0)


class TestEntropyMimicry:
    def test_destroys_every_file_below_the_entropy_line(self):
        env = fresh_environment()
        originals = {name: env.fs.read_file(name) for name in env.fs.list_files()}
        outcome = EntropyMimicryAttack(seed=5).execute(env)
        assert outcome.pages_encrypted > 0
        for name in outcome.victim_files:
            mimic = env.fs.read_file(name)
            assert mimic != originals[name]
            for page in page_chunks(mimic):
                assert shannon_entropy(page) < 7.2

    def test_regression_pre_fix_classifier_is_evaded_post_fix_catches(self):
        """The acceptance regression: compress-then-encrypt mimicry beats
        the pre-fix entropy rule (absolute threshold only, the
        ``delta >= 0`` bug) but the post-fix entropy-jump trigger catches
        it at default thresholds."""
        env = fresh_environment()
        originals = {name: env.fs.read_file(name) for name in env.fs.list_files()}
        outcome = EntropyMimicryAttack(seed=5).execute(env)
        caught_post_fix = 0
        pages_checked = 0
        for name in outcome.victim_files:
            mimic_pages = page_chunks(env.fs.read_file(name))
            original_pages = page_chunks(originals[name])
            for mimic, original in zip(mimic_pages, original_pages):
                entropy = shannon_entropy(mimic)
                previous_entropy = shannon_entropy(original)
                # Pre-fix semantics: absolute threshold AND delta >= 0.
                delta = entropy - previous_entropy
                pre_fix = entropy >= DEFAULT_ENCRYPTED_THRESHOLD and delta >= 0
                assert not pre_fix, "mimicry must evade the pre-fix rule"
                pages_checked += 1
                if flags_write(entropy, previous_entropy):
                    caught_post_fix += 1
        assert pages_checked > 0
        assert caught_post_fix == pages_checked, (
            "post-fix jump trigger must catch every mimicry page at defaults"
        )

    def test_strong_shaping_ducks_even_the_jump_detector(self):
        env = fresh_environment()
        originals = {name: env.fs.read_file(name) for name in env.fs.list_files()}
        attack = EntropyMimicryAttack(policy=EvasionPolicy.strong(), seed=5)
        outcome = attack.execute(env)
        name = outcome.victim_files[0]
        for mimic, original in zip(
            page_chunks(env.fs.read_file(name)), page_chunks(originals[name])
        ):
            assert not flags_write(shannon_entropy(mimic), shannon_entropy(original))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EntropyMimicryAttack(inter_file_delay_us=-1)


class TestIntermittentEncryption:
    def test_encrypts_every_kth_page(self):
        env = fresh_environment()
        originals = {name: env.fs.read_file(name) for name in env.fs.list_files()}
        outcome = IntermittentEncryptionAttack(seed=5).execute(env)
        stride = EvasionPolicy.light().encrypt_stride
        name = outcome.victim_files[0]
        pages = page_chunks(env.fs.read_file(name))
        original_pages = page_chunks(originals[name])
        for index, (page, original) in enumerate(zip(pages, original_pages)):
            if index % stride == 0:
                assert page != original
                assert shannon_entropy(page) > 7.2
            else:
                assert page == original

    def test_partial_encryption_counts_only_encrypted_pages(self):
        env = fresh_environment()
        outcome = IntermittentEncryptionAttack(seed=5).execute(env)
        total_pages = sum(
            len(page_chunks(data))
            for data in outcome.original_contents.values()
        )
        assert 0 < outcome.pages_encrypted < total_pages


class TestRateThrottled:
    def test_dilutes_high_entropy_fraction(self):
        env = fresh_environment()
        observed = []
        class Recorder:
            def on_host_op(self, op):
                if op.content is not None and op.stream_id != env.user_stream:
                    observed.append(op.content.entropy)
        env.device.add_observer(Recorder())
        RateThrottledAttack(seed=5).execute(env)
        high = sum(1 for entropy in observed if entropy >= 7.2)
        assert observed, "attack issued no writes"
        policy = EvasionPolicy.light()
        assert high / len(observed) <= policy.max_high_entropy_fraction + 0.05

    def test_paces_between_files(self):
        env = fresh_environment()
        start = env.clock.now_us
        outcome = RateThrottledAttack(seed=5).execute(env)
        policy = EvasionPolicy.light()
        assert outcome.end_us - start >= len(outcome.victim_files) * policy.op_gap_us


class TestTrimInterleavedWipe:
    def test_trims_originals_with_shaped_copies(self):
        env = fresh_environment()
        outcome = TrimInterleavedWipeAttack(seed=5).execute(env)
        assert outcome.pages_trimmed > 0
        for name in outcome.victim_files:
            assert not env.fs.exists(name)
            locked = env.fs.read_file(name + ".locked")
            for page in page_chunks(locked):
                assert shannon_entropy(page) < 7.2

    def test_plaintext_unrecoverable_from_plain_device(self):
        env = fresh_environment()
        outcome = TrimInterleavedWipeAttack(seed=5).execute(env)
        survivors = 0
        for lba, fingerprint in outcome.original_fingerprints.items():
            live = env.device.read_content(lba)
            if live is not None and live.fingerprint == fingerprint:
                survivors += 1
        assert survivors == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TrimInterleavedWipeAttack(decoys_per_file=-1)


class TestRegistryAndForensics:
    def test_every_evasive_attack_is_registered(self):
        for name in registries.EVASIVE_ATTACKS:
            assert name in registries.ATTACKS
        for name in registries.EVASIVE_ATTACKS_FULL:
            attack = registries.ATTACKS[name](seed=3)
            assert attack.name in name

    def test_strength_variants_carry_strong_policy(self):
        strong = registries.ATTACKS["entropy-mimicry-strong"](3)
        assert strong.policy == EvasionPolicy.strong()
        light = registries.ATTACKS["entropy-mimicry"](3)
        assert light.policy == EvasionPolicy.light()

    @pytest.mark.parametrize(
        "attack,pattern",
        [
            ("entropy-mimicry", "entropy-mimicry"),
            ("intermittent-encrypt", "intermittent-encrypt"),
            ("low-slow-v2", "low-and-slow"),
            ("trim-interleave", "trim-interleaved-wipe"),
        ],
    )
    def test_forensics_names_the_evasive_families(self, attack, pattern):
        grid = CampaignGrid.evasion_tiny()
        key = f"RSSD/{attack}/office-edit/tiny"
        spec = [s for s in grid.cells() if s.cell_key == key][0]
        result = run_cell(spec)
        assert result.forensic_pattern == pattern

    def test_evasive_attacks_beat_window_detectors_but_not_rssd(self):
        """The motivating measurement: on the tiny evasion grid no
        host/firmware *window* detector fires, while RSSD's offloaded
        full-history detector (jump-aware post-fix) catches every
        family -- and RSSD still recovers everything."""
        grid = CampaignGrid.evasion_tiny()
        for spec in grid.cells():
            result = run_cell(spec)
            if spec.defense == "RSSD":
                assert result.detected, f"{spec.cell_key} should be detected"
                assert result.recovery_fraction == 1.0
            else:
                assert not result.detected, (
                    f"{spec.cell_key} unexpectedly detected"
                )

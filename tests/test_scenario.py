"""Scenario taxonomy: acronyms, draws, determinism, range and fraction checks."""

import hashlib
import json
import math

import pytest

from curtail import (
    FormatError,
    Instance,
    LoadType,
    PowerKind,
    ScenarioSpec,
    ValueCorrelation,
    dump_instance,
    generate,
    instance_to_dict,
    load_instance,
    max_phase_spread,
    parse_acronym,
    restrict_to_capacity,
    spec_from_acronym,
)
from curtail.cli import dispatch
from curtail.scenario import _INDUSTRIAL_RANGE, _RESIDENTIAL_RANGE
from conftest import customer_rows


class TestAcronyms:
    def test_rendering_is_deterministic(self):
        spec = ScenarioSpec(
            power=PowerKind.ACTIVE_ONLY,
            correlation=ValueCorrelation.UNCORRELATED,
            load=LoadType.MIXED,
            n=5,
            capacity=1e6,
            seed=1,
        )
        assert spec.acronym == "AUM"

    def test_parse_round_trip(self):
        for acronym in ("FCR", "AUM", "FLM", "ACR", "FUI", "ALI"):
            power, corr, load = parse_acronym(acronym)
            assert power.value + corr.value + load.value == acronym

    def test_unknown_acronyms_rejected(self):
        for bad in ("XYZ", "FC", "FCRX", "QCR", "FZR", "FCQ"):
            with pytest.raises(FormatError):
                parse_acronym(bad)

    def test_lowercase_accepted(self):
        assert parse_acronym("fcr") == (
            PowerKind.FULL,
            ValueCorrelation.CORRELATED,
            LoadType.RESIDENTIAL,
        )


class TestSpecValidation:
    def test_phase_band_must_stay_in_first_quadrant(self):
        with pytest.raises(ValueError):
            spec_from_acronym("FCR", 5, 1e5, 1, phase_anchor=1.2, max_theta=0.8)

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            spec_from_acronym("FCR", 5, 1e5, 1, max_theta=2.0)

    def test_industrial_fraction_bounds(self):
        with pytest.raises(ValueError):
            spec_from_acronym("FCM", 5, 1e6, 1, industrial_fraction=0.0)


class TestGenerate:
    def test_deterministic_bit_for_bit(self):
        spec = spec_from_acronym("FUM", 200, 2e6, seed=42)
        a = json.dumps(instance_to_dict(generate(spec)), sort_keys=True)
        b = json.dumps(instance_to_dict(generate(spec)), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(spec_from_acronym("FCR", 50, 1e5, seed=1))
        b = generate(spec_from_acronym("FCR", 50, 1e5, seed=2))
        assert instance_to_dict(a) != instance_to_dict(b)

    def test_active_only_has_zero_phase_spread(self):
        inst = generate(spec_from_acronym("ACR", 50, 1e5, seed=3))
        assert all(c.q == 0.0 for c in customer_rows(inst))
        assert max_phase_spread(inst) == 0.0

    def test_full_power_respects_theta_and_power_factor(self):
        spec = spec_from_acronym("FCR", 400, 1e5, seed=4)
        inst = generate(spec)
        assert max_phase_spread(inst) <= math.radians(36) + 1e-9
        for c in customer_rows(inst):
            pf = c.p / c.magnitude
            assert pf >= 0.8

    def test_residential_magnitudes_in_range(self):
        inst = generate(spec_from_acronym("FCR", 300, 1e5, seed=5))
        lo, hi = _RESIDENTIAL_RANGE
        for c in customer_rows(inst):
            assert lo <= c.magnitude <= hi * (1 + 1e-12)

    def test_industrial_magnitudes_in_range(self):
        inst = generate(spec_from_acronym("FCI", 300, 2e6, seed=6))
        lo, hi = _INDUSTRIAL_RANGE
        for c in customer_rows(inst):
            assert lo <= c.magnitude <= hi * (1 + 1e-12)

    def test_mixed_fraction_within_binomial_bounds(self):
        n, frac = 4000, 0.2
        inst = generate(spec_from_acronym("FCM", n, 2e6, seed=8, industrial_fraction=frac))
        lo_i, _ = _INDUSTRIAL_RANGE
        industrial = sum(1 for c in customer_rows(inst) if c.magnitude >= lo_i)
        sigma = math.sqrt(n * frac * (1 - frac))
        assert abs(industrial - n * frac) <= 3 * sigma

    def test_correlated_values_recompute_exactly(self):
        inst = generate(spec_from_acronym("FCR", 200, 1e5, seed=9))
        for c in customer_rows(inst):
            mag = c.magnitude
            assert c.valuation == c.compensation == mag * mag

    def test_linear_values_recompute_exactly(self):
        inst = generate(spec_from_acronym("FLM", 300, 5e6, seed=11))
        lo_i = _INDUSTRIAL_RANGE[0]
        for c in customer_rows(inst):
            mag = c.magnitude
            value = 1.5 * mag + 10.0 if mag >= lo_i else mag + 1.0
            assert c.valuation == c.compensation == value

    def test_linear_values_positive_and_equal(self):
        inst = generate(spec_from_acronym("ALR", 100, 1e5, seed=10))
        for c in customer_rows(inst):
            assert c.valuation == c.compensation > 0

    def test_uncorrelated_values_in_open_intervals(self):
        inst = generate(spec_from_acronym("FUR", 500, 1e5, seed=11))
        _, hi = _RESIDENTIAL_RANGE
        for c in customer_rows(inst):
            assert 0.0 < c.valuation <= hi
            assert 0.0 < c.compensation < hi

    def test_capacity_too_small_for_industrial_rejects(self):
        from curtail import DemandExceedsCapacityError

        with pytest.raises(DemandExceedsCapacityError):
            generate(spec_from_acronym("FCI", 50, 400_000.0, seed=12))


# SHA-256 of ``json.dumps(instance_to_dict(generate(spec)), sort_keys=True)``
# for every acronym at n = 200, capacity 5e6 and seed 7, recorded while the
# C and L valuations still came from configurable coefficient objects; bytes
# that move mean some draw or valuation formula changed a float.
GENERATED_SHA256 = {
    "FCR": "7ba7632b8aee849e3aa6ce6c147449f2c9fb967e5b8e1a238befffff278efbb3",
    "FCI": "36153204c6410134f1a39697fc02dd267f795fae10d1c37d56da25ca22a6d983",
    "FCM": "185ec9163d73576862bdd96b47631fc848d5d401369dadbd209c0d8e97f4caac",
    "FUR": "86bd33ea788fb2e34835e9861f6e5acbf6c45d448b4ef205ee146a822c067f54",
    "FUI": "b32d520973f4b4fa7fc371e728991710ad94433db6bf0b20ec2e62cd97565bbe",
    "FUM": "0b71cfe1ff37da9bb9acfc98c1246226e774ce124b1f2aadbe2e109dc4e3afbe",
    "FLR": "c82811823fa26d92d16db06ba4dd3ab6be672de82f2a586050e885b5b6212d8c",
    "FLI": "952e72d6d5bc0ed158d98f2ff1795f120e60ab2f3ff71014d8941be659b5a144",
    "FLM": "af212f22307ea162b776afe4102585fbdef2787872ae41cfd237d9e77f69eb82",
    "ACR": "10d73248b1bf66b55ab34f257317e6c6b4520747e28d30d566e4b37b0140c88c",
    "ACI": "7b08d465be69e73837c4d8ddc9e2379c7a2c45218b806800b1a5823b74d9549d",
    "ACM": "9764c989231d6cc310db25b659783c3cb493d4db3b16b0edced300feeaac929a",
    "AUR": "8d418d00bf258d6eb778e24db25b06423cc3fb7d0de6bc80ee749f8ab5c2beaf",
    "AUI": "29d10905cf6a535db4f221d11b3162cb158526f6750b76a6395c98f18515a43e",
    "AUM": "1b8a35e731f2360a7de4e5ec349c7c3eef47ac67a1035fdd7e0bf08482a15707",
    "ALR": "e45ada2862188fba7c900e61640daf432800d8462e2ae36c7f9f42afdd6bd436",
    "ALI": "571787eb3afa15d4b4a1ea35fd46e64d0f96c065e1dfda00542be1255282fb14",
    "ALM": "64c6a5ed623509ce37582e6f2b077a68022a501a8aa7bbdfef63732be31c51d7",
}


class TestGeneratedBytes:
    @pytest.mark.parametrize("acronym", GENERATED_SHA256)
    def test_generated_bytes_are_pinned(self, acronym):
        doc = instance_to_dict(generate(spec_from_acronym(acronym, 200, 5e6, seed=7)))
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == GENERATED_SHA256[acronym]


# SHA-256 of the file that ``curtail generate --scenario <acronym> --n 200
# --capacity 5e6 --seed 7 -o <file>`` writes, recorded while ``dump_instance``
# still went through ``json.dump(..., indent=2, sort_keys=True)``.  Unlike
# GENERATED_SHA256 these cover the file layout: indent, key order, newlines.
GENERATED_FILE_SHA256 = {
    "FCR": "bead154988d82992ab7aae79fce7aa82ec49d86087633bce8511eac2b725b948",
    "FCI": "3b7466fc6aaa0f2cc3c683edb3321781a12680d2ef7a88b0e1f3fdce1931c3a4",
    "FCM": "efea27dd945feff1a69753ec42e9ee93694eb9f3b14e43eba82d6e65d2501b8b",
    "FUR": "739a95c5ba426687ae10cf0e279c6ad9034d55fc9bed905f9aee75dbfe71d3e2",
    "FUI": "556163b134d542f10ea33c9d8bed76697c74289d1ec67d3652d3f1a88eeb4cbb",
    "FUM": "44ef8994ae3804163d170d87b74820c51341c346fe246eb07cdd2717322b95f8",
    "FLR": "1abfcfdb52e319a88f05050c0506b878448068fefa64db4a887db7542bdde7d3",
    "FLI": "fe3fb4476e712d5634b3c37866ae724eb35fb283d742609f5f21e67239384c49",
    "FLM": "756526789642c3545c8173645129b188c4546f921199ef04d49e218e42a46f9e",
    "ACR": "c75c7fde4daa5317757fbd6338022cbd844cb4641c5953ffdf2b2dfd91dd20b0",
    "ACI": "99a5b2f04f1be138c592121d1d62577d8759128844bc0f9f1f1585d3900f6b12",
    "ACM": "13b2465b10777462f302827bdafd389b166acd026b8f487db2841e4369bd33ee",
    "AUR": "da84dbd4f74fa4339bb0706387b2d5974ef61498de34cec154cb44eeaa627aaa",
    "AUI": "b3374c209c8b994d0b90eb577c9c31e1fcb5c0969e3d884f78ca90b6a7407571",
    "AUM": "c660ce3ebb686476f7b99fb2d1aaa46e40fbbed5cda63240d2298f941d874420",
    "ALR": "281169010e1c99e27d69a4f1c695870ca89eacfb45c6c7b37da3ac899955199b",
    "ALI": "00dbe15307c3ffe332d1d48a6d32015bce299e6c47e927c46b18bb5b097e3b4c",
    "ALM": "825375b2e311f77354a989a09ec4b8ef5bed422e4c90462de9362db245ef6688",
}

_GENERATE_ARGV = ["generate", "--n", "200", "--capacity", "5e6", "--seed", "7"]


class TestGeneratedFiles:
    @pytest.mark.parametrize("acronym", GENERATED_FILE_SHA256)
    def test_file_bytes_are_pinned_and_printed_alike(self, acronym, tmp_path, capsys):
        path = tmp_path / "instance.json"
        assert dispatch(_GENERATE_ARGV + ["--scenario", acronym, "-o", str(path)]) == 0
        written = path.read_bytes()
        assert hashlib.sha256(written).hexdigest() == GENERATED_FILE_SHA256[acronym]
        capsys.readouterr()
        assert dispatch(_GENERATE_ARGV + ["--scenario", acronym]) == 0
        assert capsys.readouterr().out.encode() == written

    def test_no_customers_are_an_empty_list(self, tmp_path):
        path = tmp_path / "empty.json"
        argv = ["generate", "--scenario", "FCR", "--n", "0", "--capacity", "5e6", "-o", str(path)]
        assert dispatch(argv) == 0
        assert path.read_text() == '{\n  "capacity": 5000000.0,\n  "customers": []\n}\n'

    @pytest.mark.parametrize("acronym", ["FCR", "FUM", "ALI"])
    def test_dumped_file_loads_back(self, acronym, tmp_path):
        inst = generate(spec_from_acronym(acronym, 200, 5e6, seed=7))
        path = str(tmp_path / "instance.json")
        dump_instance(inst, path)
        assert load_instance(path) == inst


class TestRebinding:
    def test_with_capacity_keeps_customers(self):
        inst = generate(spec_from_acronym("FCR", 20, 1e5, seed=13))
        rebound = Instance(inst.columns, 5e4)
        assert rebound.capacity == 5e4
        assert customer_rows(rebound) == customer_rows(inst)

    def test_restrict_drops_only_oversized(self):
        inst = generate(spec_from_acronym("FCM", 50, 2e6, seed=14))
        cut = 400_000.0
        reduced = restrict_to_capacity(inst, cut)
        kept = {c.id for c in customer_rows(reduced)}
        for c in customer_rows(inst):
            assert (c.id in kept) == (c.magnitude <= cut)

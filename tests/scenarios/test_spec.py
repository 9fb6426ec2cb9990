"""ScenarioSpec serialization, hashing and variant parsing."""

import os
import subprocess
import sys

import pytest

import repro
from repro.engine.errors import ConfigError
from repro.memory.variants import VariantSpec
from repro.scenarios import (
    ScenarioSpec,
    parse_variant,
    shape_from_config,
    variant_string,
)
from repro.arch.config import SystemConfig


def sample_spec() -> ScenarioSpec:
    return ScenarioSpec(
        workload="histogram",
        num_cores=16,
        variant="lrscwait:half",
        params={"bins": 4, "updates_per_core": 3, "label": None},
        seed=7,
        metrics=("sc_failures", "messages"))


# -- round trips ---------------------------------------------------------------


def test_to_dict_from_dict_identity():
    spec = sample_spec()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_round_trip_preserves_hash():
    spec = sample_spec()
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt.stable_hash() == spec.stable_hash()


def test_round_trip_with_shape_and_latency():
    spec = ScenarioSpec(workload="pipeline", num_cores=6,
                        cores_per_tile=2, banks_per_tile=8,
                        latency={"remote_group": 9},
                        mode="horizon", horizon=500)
    rebuilt = ScenarioSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.system_config() == spec.system_config()


def test_params_freeze_makes_spec_hashable():
    spec = sample_spec()
    assert hash(spec) == hash(ScenarioSpec.from_dict(spec.to_dict()))
    assert spec.params_dict()["bins"] == 4


def test_list_params_become_tuples_and_round_trip():
    spec = ScenarioSpec(workload="histogram",
                        params={"bins": 4, "label": None,
                                "updates_per_core": 2})
    again = ScenarioSpec.from_dict(spec.to_dict())
    assert again.params == spec.params


# -- stable hash ---------------------------------------------------------------


def test_stable_hash_is_param_order_independent():
    a = ScenarioSpec(workload="histogram", params={"bins": 4, "method": "amo"})
    b = ScenarioSpec(workload="histogram", params={"method": "amo", "bins": 4})
    assert a.stable_hash() == b.stable_hash()


def test_stable_hash_changes_with_content():
    base = sample_spec()
    assert base.stable_hash() == sample_spec().stable_hash()
    assert base.stable_hash() != base.with_params(bins=5).stable_hash()
    assert base.stable_hash() != base.override(seed=8).stable_hash()
    assert base.stable_hash() != base.override(variant="lrsc").stable_hash()
    assert base.stable_hash() != \
        base.with_params(method="amo", label="Atomic Add").stable_hash()


def test_stable_hash_is_stable_across_processes():
    """The cache key must not depend on per-process hash randomization."""
    spec = sample_spec()
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "12345"  # force a different hash seed
    code = (
        "from repro.scenarios import ScenarioSpec;"
        f"print(ScenarioSpec.from_dict({spec.to_dict()!r}).stable_hash())"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == spec.stable_hash()


# -- structural validation -----------------------------------------------------


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown spec fields"):
        ScenarioSpec.from_dict({"workload": "histogram", "bogus": 1})


def test_from_dict_requires_workload():
    with pytest.raises(ConfigError, match="workload"):
        ScenarioSpec.from_dict({"num_cores": 8})


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="mode"):
        ScenarioSpec(workload="histogram", mode="forever")


def test_horizon_mode_needs_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        ScenarioSpec(workload="histogram", mode="horizon")


def test_non_serializable_param_rejected():
    with pytest.raises(ConfigError, match="JSON-able"):
        ScenarioSpec(workload="histogram", params={"bins": object()})


def test_validate_rejects_unknown_metric():
    spec = ScenarioSpec(workload="histogram", metrics=("warp_drive",))
    with pytest.raises(ConfigError, match="warp_drive"):
        spec.validate()


# -- variant grammar -----------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("amo", VariantSpec.amo()),
    ("lrsc", VariantSpec.lrsc()),
    ("lrsc-table", VariantSpec.lrsc_table()),
    ("lrsc_bank", VariantSpec.lrsc_bank()),
    ("colibri", VariantSpec.colibri()),
    ("colibri:8", VariantSpec.colibri(num_addresses=8)),
    ("lrscwait:1", VariantSpec.lrscwait(1)),
    ("lrscwait:ideal", VariantSpec.lrscwait_ideal()),
    ("ideal", VariantSpec.lrscwait_ideal()),
])
def test_parse_variant(text, expected):
    assert parse_variant(text, num_cores=16) == expected


def test_parse_variant_half_depends_on_cores():
    assert parse_variant("lrscwait:half", 16) == VariantSpec.lrscwait(8)
    assert parse_variant("lrscwait:half", 2) == VariantSpec.lrscwait(1)


@pytest.mark.parametrize("text", ["", "warp", "amo:4", "lrscwait",
                                  "lrscwait:x", "colibri:x"])
def test_parse_variant_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_variant(text, 16)


@pytest.mark.parametrize("variant", [
    VariantSpec.amo(), VariantSpec.lrsc(), VariantSpec.lrsc_table(),
    VariantSpec.colibri(), VariantSpec.colibri(num_addresses=2),
    VariantSpec.lrscwait(3), VariantSpec.lrscwait_ideal(),
])
def test_variant_string_round_trips(variant):
    assert parse_variant(variant_string(variant), 16) == variant


# -- shape helpers -------------------------------------------------------------


def test_shape_from_config_reproduces_config():
    config = SystemConfig.scaled(16).with_latency(remote_group=7)
    spec = ScenarioSpec(workload="histogram",
                        **shape_from_config(config))
    assert spec.system_config() == config


def test_system_config_matches_scaled_default():
    spec = ScenarioSpec(workload="histogram", num_cores=32)
    assert spec.system_config() == SystemConfig.scaled(32)


def test_describe_mentions_workload_and_params():
    text = sample_spec().describe()
    assert "histogram" in text and "bins=4" in text

"""Parameter validation, derived couplings, and config round-trips."""

import json
import math
from dataclasses import fields

import pytest

from chiralight import errors
from chiralight.params import (MediumParams, SystemParams, derived_couplings,
                               from_dict, load_config, to_dict, validate,
                               with_overrides)
from chiralight.presets import Scenario


def test_defaults_validate():
    cfg = validate(SystemParams(), MediumParams())
    assert cfg.system.omega_2 == 1.0
    assert cfg.medium.dipole_ratio == pytest.approx(5.3e-5)


def test_check_returns_every_violation_at_once():
    bad_sys = SystemParams(gamma_1=0.0, gamma_2=-1.0, alpha_1=0.5,
                           omega_1=-0.2, phi=float("nan"))
    bad_med = MediumParams(v_doppler=-0.5, length_L=0.0)
    with pytest.raises(errors.ConfigurationError) as exc:
        validate(bad_sys, bad_med)
    errs = exc.value.violations
    kinds = {type(e) for e in errs}
    assert errors.NonPositiveDecay in kinds
    assert errors.BadPropagationSign in kinds
    assert errors.NonPositiveCoupling in kinds
    assert errors.NegativeDopplerWidth in kinds
    # gamma_1, gamma_2, alpha_1, omega_1, phi, v_doppler, length_L
    assert len(errs) == 7


def _rule_of(name):
    if name.startswith("gamma_") and name != "gamma_unit":
        return errors.NonPositiveDecay
    if name.startswith("alpha_"):
        return errors.BadPropagationSign
    if name == "v_doppler":
        return errors.NegativeDopplerWidth
    return errors.NonPositiveCoupling


@pytest.mark.parametrize("section, name", [
    *(("system", f.name) for f in fields(SystemParams)),
    *(("medium", f.name) for f in fields(MediumParams)),
])
def test_every_field_has_a_rule(section, name):
    """A NaN in any one field is exactly one violation of validate,
    naming the field under its rule's class; a field added without a
    rule fails here."""
    with pytest.raises(errors.ConfigurationError) as exc:
        from_dict({section: {name: float("nan")}})
    (violation,) = exc.value.violations
    assert type(violation) is _rule_of(name)
    assert str(violation).startswith(f"{name} must ")


def test_validate_raises_aggregate_with_violations():
    with pytest.raises(errors.ConfigurationError) as exc:
        validate(SystemParams(gamma_3=-1.0, alpha_2=0.0), MediumParams())
    assert len(exc.value.violations) == 2
    assert "gamma_3" in str(exc.value)
    assert "alpha_2" in str(exc.value)


def test_zero_couplings_are_legal():
    # omega_i = 0 switches a field off; that is a physical configuration
    validate(SystemParams(omega_1=0.0, omega_3=0.0), MediumParams())


def test_derived_couplings_scaling():
    med = MediumParams(density_coupling=0.8, dipole_ratio=5.3e-5)
    k = derived_couplings(med)
    assert k["kappa_e"] == pytest.approx(0.8)
    assert k["kappa_x"] == pytest.approx(0.8 * 5.3e-5)
    assert k["kappa_m"] == pytest.approx(0.8 * 5.3e-5 ** 2)


def test_dict_round_trip():
    cfg = validate(SystemParams(omega_3=1.5, phi=1.1),
                   MediumParams(v_doppler=0.3))
    doc = to_dict(cfg)
    again = from_dict(doc)
    assert again == cfg
    assert set(doc) == {"system", "medium"}


def test_unknown_keys_are_hard_errors():
    doc = to_dict(validate(SystemParams(), MediumParams()))
    doc["system"]["omega_4"] = 1.0
    with pytest.raises(errors.ConfigurationError, match="omega_4"):
        from_dict(doc)
    with pytest.raises(errors.ConfigurationError, match="extra"):
        from_dict({"system": {}, "medium": {}, "extra": {}})


def test_loads_parses_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": {"omega_2": 4.0}, "medium": {}}))
    cfg = load_config(path)
    assert cfg.system.omega_2 == 4.0
    assert cfg.system.omega_1 == 0.1  # untouched default


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"system": {"delta_p": 0.25}, "medium": {"v_doppler": 1.5}}))
    cfg = load_config(path)
    assert cfg.system.delta_p == 0.25
    assert cfg.medium.v_doppler == 1.5


def test_with_overrides_revalidates():
    cfg = validate(SystemParams(), MediumParams())
    c2 = with_overrides(cfg, system={"omega_3": 5.0},
                        medium={"density_coupling": 2.0})
    assert c2.system.omega_3 == 5.0
    assert c2.medium.density_coupling == 2.0
    assert cfg.system.omega_3 == 0.7  # original untouched
    with pytest.raises(errors.ConfigurationError):
        with_overrides(cfg, system={"gamma_1": -1.0})


@pytest.mark.parametrize("merge", [
    lambda cfg: with_overrides(cfg, system={"bogus": 1}),
    lambda cfg: with_overrides(cfg, medium={"bogus": 1}),
    lambda cfg: Scenario("x", "", system={"bogus": 1}).config(),
], ids=["with_overrides-system", "with_overrides-medium", "Scenario.config"])
def test_unknown_key_is_named_on_every_merge_path(merge):
    with pytest.raises(errors.ConfigurationError, match="unknown config keys: \\['bogus'\\]"):
        merge(validate(SystemParams(), MediumParams()))


def test_phi_default_is_quarter_turn():
    assert SystemParams().phi == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("doc", [
    {"system": None}, {"medium": None}, {"system": [1.0]}, {"medium": "x"},
])
def test_non_mapping_section_is_configuration_error(doc):
    with pytest.raises(errors.ConfigurationError, match="must be a mapping"):
        from_dict(doc)


def test_document_overrides_base_field_by_field(tmp_path):
    base = validate(SystemParams(omega_3=1.5), MediumParams(v_doppler=0.3))
    cfg = from_dict({"system": {"omega_1": 0.2}}, base=base)
    assert cfg.system.omega_1 == 0.2
    assert cfg.system.omega_3 == 1.5
    assert cfg.medium.v_doppler == 0.3
    path = tmp_path / "bad.json"
    path.write_text('{"system": {')
    with pytest.raises(errors.ConfigurationError, match="not valid JSON"):
        load_config(path, base=base)

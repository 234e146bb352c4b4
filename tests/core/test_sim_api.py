"""The typed simulation API: Arch and SimConfig."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Arch, SimConfig
from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.errors import ConfigurationError
from repro.exec.spec import DriverSpec, RunSpec


def _driver() -> DriverSpec:
    return DriverSpec.of(
        "repro.exec.builders:burst_animation",
        name="api-test",
        target_fdps=3.0,
        refresh_hz=60,
        duration_ms=100,
    )


# --------------------------------------------------------------------- Arch
def test_arch_is_wire_compatible():
    assert Arch.DVSYNC == "dvsync"
    assert Arch.VSYNC == "vsync"
    assert str(Arch.DVSYNC) == "dvsync"
    assert f"{Arch.VSYNC}" == "vsync"
    assert hash(Arch.DVSYNC) == hash("dvsync")


def test_arch_coerce():
    assert Arch.coerce("vsync") is Arch.VSYNC
    assert Arch.coerce(Arch.DVSYNC) is Arch.DVSYNC
    with pytest.raises(ConfigurationError, match="unknown architecture"):
        Arch.coerce("tripple-buffer")


# ---------------------------------------------------------------- SimConfig
def test_simconfig_neutral_default_normalizes_to_nothing():
    assert SimConfig().normalize(Arch.VSYNC) == (None, None)
    assert SimConfig().normalize(Arch.DVSYNC) == (None, None)


def test_simconfig_shorthands_become_a_dvsync_config():
    buffers, config = SimConfig(buffer_count=5, prerender_limit=2).normalize(
        Arch.DVSYNC
    )
    assert buffers is None
    assert config == DVSyncConfig(buffer_count=5, prerender_limit=2)
    buffers, config = SimConfig(buffer_count=3).normalize("vsync")
    assert (buffers, config) == (3, None)


def test_simconfig_rejects_dvsync_knobs_under_vsync():
    with pytest.raises(ConfigurationError, match="never pre-renders"):
        SimConfig(prerender_limit=2).normalize(Arch.VSYNC)
    with pytest.raises(ConfigurationError, match="only applies to Arch.DVSYNC"):
        SimConfig(dvsync=DVSyncConfig(buffer_count=4)).normalize(Arch.VSYNC)


def test_simconfig_rejects_conflicting_spellings():
    with pytest.raises(ConfigurationError, match="not both"):
        SimConfig(buffer_count=4, dvsync=DVSyncConfig(buffer_count=4))
    with pytest.raises(ConfigurationError, match="unknown engine"):
        SimConfig(engine="warp")
    with pytest.raises(ConfigurationError, match="buffer_count"):
        SimConfig(buffer_count="four")


# ------------------------------------------------------ content-hash parity
def test_old_and_new_spellings_hash_identically():
    """Typed spellings are pure surface: the content address cannot move.

    A spec spelled with wire strings (``architecture="dvsync"`` and a raw
    buffer count or ``DVSyncConfig``) must share its cache entry with the
    one ``Arch.DVSYNC`` + ``SimConfig(buffer_count=4)`` describes.
    """
    driver = _driver()
    typed_cfg = SimConfig(buffer_count=4)
    wire_knobs = {
        "vsync": {"buffer_count": 4},
        "dvsync": {"dvsync": DVSyncConfig(buffer_count=4)},
    }

    for arch_old, arch_new in (("vsync", Arch.VSYNC), ("dvsync", Arch.DVSYNC)):
        new_buffers, new_dvsync = typed_cfg.normalize(arch_new)
        old_spec = RunSpec(
            driver=driver,
            device=PIXEL_5,
            architecture=arch_old,
            **wire_knobs[arch_old],
        )
        new_spec = RunSpec(
            driver=driver,
            device=PIXEL_5,
            architecture=arch_new,
            buffer_count=new_buffers,
            dvsync=new_dvsync,
        )
        assert old_spec == new_spec
        assert old_spec.content_hash() == new_spec.content_hash()


def test_arch_member_lands_as_wire_string_on_the_spec():
    spec = RunSpec(driver=_driver(), device=PIXEL_5, architecture=Arch.DVSYNC)
    assert type(spec.architecture) is str or spec.architecture == "dvsync"
    assert spec.content_hash() == dataclasses.replace(
        spec, architecture="dvsync"
    ).content_hash()


# ----------------------------------------------------------------- exports
def test_public_api_exports_the_typed_surface():
    import repro

    for name in ("Arch", "SimConfig", "Study", "StudyResult", "execute_studies"):
        assert hasattr(repro, name), name
        assert name in repro.__all__

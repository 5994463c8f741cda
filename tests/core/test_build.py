"""The consolidated construction entry point: one recipe, any mode."""

import pytest

from repro.core.build import (
    SystemConfig,
    build_pair,
    build_system,
    config_from_scenario,
)
from repro.core.system import SystemMode
from repro.scenarios.generator import generate_scenario


class TestSystemConfig:
    def test_defaults_build_the_stock_machine(self):
        linux, protego = build_pair()
        assert linux.mode is SystemMode.LINUX
        assert protego.mode is SystemMode.PROTEGO
        # The canonical accounts exist on both.
        for system in (linux, protego):
            assert system.password_of("alice") == "alice-password"

    def test_scenario_spec_coerces_to_config(self):
        spec = generate_scenario(0, 0)
        config = config_from_scenario(spec)
        assert isinstance(config, SystemConfig)
        assert config.sudoers == spec.sudoers
        assert config.fstab == spec.fstab
        system = build_system(spec, SystemMode.PROTEGO)
        assert system.password_of(spec.users[0].name) == \
            spec.users[0].password

    def test_mode_prefixed_hostname(self):
        spec = generate_scenario(0, 1)
        system = build_system(spec, SystemMode.LINUX)
        assert system.kernel.hostname.startswith("linux-")

    def test_unbuildable_input_raises(self):
        with pytest.raises(TypeError):
            build_system(object())

    def test_profiles_with_and_without_capabilities(self):
        config = SystemConfig(profiles=(
            ("/bin/true", (("/tmp/**", "rw"),)),
        ))
        system = build_system(config, SystemMode.PROTEGO)
        assert "/bin/true" in system.apparmor._profiles

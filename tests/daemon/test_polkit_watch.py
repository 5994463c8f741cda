"""The daemon's polkit watch path, on machines built from a recipe.

A recipe's config files are part of the boot image, so the daemon's
start-up sync reads the final configuration and commits it once. The
watch → explicate → rebuild → commit path (``_on_polkit``) then runs
only when a watched polkit or dbus file changes after boot, which is
what these tests do.
"""

import pytest

from repro.core.build import build_system
from repro.core.system import SystemMode
from repro.daemon.monitor import (
    DBUS_DROPIN,
    DBUS_SERVICES_PATH,
    POLKIT_DROPIN,
    POLKIT_RULES_PATH,
)
from repro.scenarios.generator import generate_scenario
from tests.core.test_boot_image import CONFIGS


def _recipe_machine():
    return build_system(generate_scenario(0, 0), SystemMode.PROTEGO)


def _read(system, path):
    return system.kernel.read_file(system.root_session(), path).decode()


def _sudoers_section(system):
    commit = _read(system, "/proc/protego/commit")
    return commit.split("%%sudoers\n", 1)[1].split("%%binds\n", 1)[0]


def _edit_and_poll(system, path, line, rule):
    """Append *line* to the watched *path*; the kernel policy must not
    hold *rule* until the daemon's next poll, and must hold it after."""
    before = list(system.daemon.sync_log)
    assert rule not in _sudoers_section(system).splitlines()
    system.kernel.write_file(system.kernel.init, path,
                             (_read(system, path) + line).encode())
    assert rule not in _sudoers_section(system).splitlines()
    system.sync()
    assert rule in _sudoers_section(system).splitlines()
    return system.daemon.sync_log[len(before):]


def test_polkit_rules_edit_reaches_the_committed_delegation_policy():
    system = _recipe_machine()
    added = _edit_and_poll(system, POLKIT_RULES_PATH,
                           "action org.example.spool yes /usr/bin/lpr\n",
                           "ALL 0 nopasswd /usr/bin/lpr")
    assert "ALL ALL=(root) NOPASSWD: /usr/bin/lpr" in \
        _read(system, POLKIT_DROPIN).splitlines()
    assert added[:2] == [f"polkit: explicated {POLKIT_RULES_PATH}",
                         f"polkit: explicated {DBUS_SERVICES_PATH}"]
    assert added[2].startswith("sudoers: ")
    assert system.daemon.error_log == []


def test_dbus_services_edit_reaches_the_committed_delegation_policy():
    system = _recipe_machine()
    added = _edit_and_poll(system, DBUS_SERVICES_PATH,
                           "service org.example.Spooler root /usr/bin/lpr\n",
                           "ALL 0 nopasswd /usr/bin/lpr")
    assert "ALL ALL=(root) NOPASSWD: /usr/bin/lpr" in \
        _read(system, DBUS_DROPIN).splitlines()
    assert [line for line in added if line.startswith("sudoers: ")]
    assert system.daemon.error_log == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_recipe_machine_syncs_once_at_boot(name):
    seed_id = CONFIGS[name]
    config = None if seed_id is None else generate_scenario(*seed_id)
    system = build_system(config, SystemMode.PROTEGO)
    log = system.daemon.sync_log
    assert log.count(f"polkit: explicated {POLKIT_RULES_PATH}") == 1
    assert log.count(f"polkit: explicated {DBUS_SERVICES_PATH}") == 1
    assert sum(line.startswith("sudoers: ") for line in log) == 1
    assert system.daemon.error_log == []
    # Nothing the recipe laid or ran after boot is left for a poll.
    assert system.daemon.watcher.poll() == []

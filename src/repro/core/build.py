"""One entry point for constructing legacy/Protego systems.

Construction recipes used to be scattered: ``scenarios/build.py``
built from a ScenarioSpec, the workload harness hand-assembled
``System(mode)`` pairs, and tests re-did both. This module is the
consolidation: a :class:`SystemConfig` recipe, one
:func:`build_system` that accepts a recipe, a ScenarioSpec, or
nothing (the canonical defaults), and :func:`build_pair` for the
differential "same config, both modes" shape every study uses.

The builder is the equivalence anchor: both modes are constructed
from the *same* recipe, byte-identical configuration files, the same
profiles and netfilter rules — so any behavioural difference an
observer sees is a mode difference, never a provisioning one.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple

from repro.apparmor.profiles import make_profile
from repro.core.system import System, SystemMode, UserSpec
from repro.kernel.namespaces import KernelVersion
from repro.kernel.net.netfilter import Chain, Rule, Verdict
from repro.kernel.net.packets import Protocol

#: The single tenant namespace scenario/fleet sessions share.
TENANT = "t00"

#: The Protego convention for password-protected groups (paper
#: section 4.3): membership of *vault* is joinable by anyone who can
#: authenticate with the group password. Written in both modes so the
#: file state stays byte-identical; legacy newgrp ignores it.
GROUPJOIN_DROPIN = "ALL ALL=(ALL) GROUPJOIN: vault\n"


@dataclasses.dataclass
class SystemConfig:
    """A mode-independent construction recipe.

    Field defaults of ``None`` mean "the System constructor's
    canonical default" — a config built with no arguments describes
    the stock paper machine.
    """

    users: Optional[Tuple[UserSpec, ...]] = None
    hostname: str = ""
    fstab: Optional[str] = None
    sudoers: Optional[str] = None
    bind_conf: Optional[str] = None
    ppp_options: Optional[str] = None
    group_passwords: Dict[str, str] = dataclasses.field(default_factory=dict)
    kernel_version: Optional[Tuple[int, int]] = None
    #: (binary, ((pattern, mode), ...), capabilities) AppArmor
    #: profiles, loaded identically in both modes.
    profiles: Tuple[Tuple, ...] = ()
    #: UDP ports netfilter drops on OUTPUT.
    drop_ports: Tuple[int, ...] = ()
    #: (name, payload) files laid under /etc/sudoers.d in both modes
    #: (Protego explications; legacy sudo reads the dir too).
    sudoers_dropins: Tuple[Tuple[str, str], ...] = ()
    #: Blank the polkit/dbus configs (scenario hygiene: those gaps
    #: have their own differential studies).
    blank_polkit_dbus: bool = False
    #: Tenants to provision under /tmp/fleet.
    fleet_tenants: Tuple[str, ...] = ()

    def system_kwargs(self) -> Dict:
        """The :class:`System` arguments: everything the boot image
        lays, so the daemon's start-up sync reads the final config."""
        kwargs: Dict = {"sudoers_dropins": self.sudoers_dropins}
        if self.users is not None:
            kwargs["users"] = self.users
        for field in ("fstab", "sudoers", "bind_conf", "ppp_options"):
            value = getattr(self, field)
            if value is not None:
                kwargs[field] = value
        if self.group_passwords:
            kwargs["group_passwords"] = dict(self.group_passwords)
        if self.blank_polkit_dbus:
            kwargs["polkit_rules"] = kwargs["dbus_services"] = ""
        return kwargs


def config_from_scenario(spec) -> SystemConfig:
    """Lower a :class:`~repro.scenarios.generator.ScenarioSpec` into a
    construction recipe (duck-typed, so the core layer never imports
    the scenarios package)."""
    dropins = []
    if spec.vault:
        dropins.append(("protego-newgrp", GROUPJOIN_DROPIN))
    return SystemConfig(
        users=tuple(UserSpec(u.name, u.uid, u.uid, u.password,
                             groups=u.groups) for u in spec.users),
        hostname=f"s{spec.seed}-{spec.scenario_id}",
        fstab=spec.fstab,
        sudoers=spec.sudoers,
        bind_conf=spec.bind_conf,
        group_passwords=dict(spec.group_passwords),
        kernel_version=tuple(spec.kernel_version),
        profiles=tuple((binary, tuple(rules)) for binary, rules in spec.profiles),
        drop_ports=tuple(spec.drop_ports),
        sudoers_dropins=tuple(dropins),
        blank_polkit_dbus=True,
        fleet_tenants=(TENANT,),
    )


def _coerce(config) -> SystemConfig:
    if config is None:
        return SystemConfig()
    if isinstance(config, SystemConfig):
        return config
    if hasattr(config, "scenario_id") and hasattr(config, "plans"):
        return config_from_scenario(config)
    raise TypeError(f"cannot build a System from {type(config).__name__}")


def build_system(config=None, mode: SystemMode = SystemMode.PROTEGO,
                 hostname: str = "") -> System:
    """Build one fully provisioned machine from *config* in *mode*.

    *config* may be a :class:`SystemConfig`, a ScenarioSpec, or
    ``None`` for the canonical defaults. *hostname* overrides the
    recipe's when given (per-mode hostnames keep twin builds
    tellable-apart in audit output).

    The recipe's config files (polkit/dbus configs, sudoers drop-ins)
    are in the boot image, so on Protego the daemon's start-up sync
    has already committed the final policies; what follows is runtime
    policy (profiles, netfilter rules) and the tenant directories,
    none of which the daemon watches.
    """
    config = _coerce(config)
    host = hostname or (f"{mode.value}-{config.hostname}"
                        if config.hostname else "")
    system = System(mode, hostname=host, **config.system_kwargs())
    if config.kernel_version is not None:
        system.kernel.version = KernelVersion(*config.kernel_version)

    for profile_spec in config.profiles:
        binary, path_rules = profile_spec[0], profile_spec[1]
        capabilities = profile_spec[2] if len(profile_spec) > 2 else ()
        system.apparmor.load_profile(
            make_profile(binary, path_rules, capabilities=capabilities))

    for port in config.drop_ports:
        system.kernel.net.netfilter.append(Rule(
            Verdict.DROP, chain=Chain.OUTPUT, protocol=Protocol.UDP,
            dst_port=port, comment=f"scenario drop {port}/udp"))

    if config.fleet_tenants:
        make_tenant_dirs(system, config.fleet_tenants)
    return system


def make_tenant_dirs(system: System, tenants: Iterable[str]) -> None:
    """Create ``/tmp/fleet`` and one sticky, world-writable directory
    per tenant under it as a root shell, skipping any that exist."""
    root = system.root_session()
    for path in ["/tmp/fleet"] + [f"/tmp/fleet/{t}" for t in tenants]:
        if not system.kernel.vfs.exists(path):
            system.kernel.sys_mkdir(root, path, 0o1777)


def build_pair(config=None) -> Tuple[System, System]:
    """The differential shape: (legacy, protego) twins of one recipe."""
    return (build_system(config, SystemMode.LINUX),
            build_system(config, SystemMode.PROTEGO))


__all__ = ["SystemConfig", "build_system", "build_pair",
           "config_from_scenario", "make_tenant_dirs", "TENANT",
           "GROUPJOIN_DROPIN"]

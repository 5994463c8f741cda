"""The /proc configuration interface of the Protego LSM.

Paper, Figure 1 and section 2: the kernel policy is configured through
files in /proc — a mount whitelist, a privileged-port map, and an
/etc/sudoers-like delegation grammar. The trusted monitoring daemon
(or the administrator directly) writes these files; reads return the
current policy in the same grammar.

Writes are whole-policy replacements, which makes a daemon sync an
atomic swap and keeps the kernel free of partial-update states.

The kernel reports through the same surface: the audit ring, the
compiled AppArmor profiles and, from one registry, every counter
(``/proc/protego/{audit,policy,metrics}``).
"""

from __future__ import annotations

from repro.core.bind_policy import BindPolicy
from repro.core.delegation import DelegationPolicy
from repro.core.mount_policy import MountPolicy
from repro.core.protego import ProtegoLSM
from repro.kernel.errno import Errno, SyscallError
from repro.kernel.fault import CATALOG
from repro.kernel.kernel import Kernel

MOUNTS_PROC_PATH = "/proc/protego/mounts"
BINDS_PROC_PATH = "/proc/protego/binds"
SUDOERS_PROC_PATH = "/proc/protego/sudoers"
AUDIT_PROC_PATH = "/proc/protego/audit"
POLICY_PROC_PATH = "/proc/protego/policy"
METRICS_PROC_PATH = "/proc/protego/metrics"
COMMIT_PROC_PATH = "/proc/protego/commit"
STATUS_PROC_PATH = "/proc/protego/status"
FAULT_PROC_DIR = "/proc/protego/fault"

#: Section markers in the transactional commit grammar, in the order
#: the daemon serializes them. Every section is optional.
COMMIT_SECTIONS = ("mounts", "sudoers", "binds")


def register_protego_proc_files(kernel: Kernel, lsm: ProtegoLSM) -> None:
    """Create /proc/protego/{mounts,binds,sudoers,audit,commit}.

    The files are root-owned mode 0600: only root (in practice the
    monitoring daemon) may reconfigure or inspect kernel policy.
    Every policy write is a whole-policy replacement and flushes the
    reference monitor's decision cache — answers computed under the
    old policy are worthless.
    """

    def write_mounts(payload: bytes) -> None:
        try:
            rules = MountPolicy.parse(payload.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise SyscallError(Errno.EINVAL, f"mounts policy: {exc}") from exc
        lsm.mount_policy.replace_rules(rules)
        lsm.flush_decisions()

    def write_binds(payload: bytes) -> None:
        try:
            grants = BindPolicy.parse(payload.decode())
            lsm.bind_policy.replace_grants(grants)
        except (ValueError, UnicodeDecodeError) as exc:
            raise SyscallError(Errno.EINVAL, f"binds policy: {exc}") from exc
        lsm.flush_decisions()

    def write_sudoers(payload: bytes) -> None:
        try:
            policy = DelegationPolicy.parse(payload.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise SyscallError(Errno.EINVAL, f"sudoers policy: {exc}") from exc
        lsm.delegation.replace_rules(policy.rules(), policy.auth_window_minutes)
        lsm.flush_decisions()

    kernel.procfs.register(
        "protego/mounts",
        read_fn=lambda: lsm.mount_policy.serialize().encode(),
        write_fn=write_mounts,
        mode=0o600,
    )
    kernel.procfs.register(
        "protego/binds",
        read_fn=lambda: lsm.bind_policy.serialize().encode(),
        write_fn=write_binds,
        mode=0o600,
    )
    kernel.procfs.register(
        "protego/sudoers",
        read_fn=lambda: lsm.delegation.serialize().encode(),
        write_fn=write_sudoers,
        mode=0o600,
    )
    kernel.procfs.register(
        "protego/audit",
        read_fn=lambda: kernel.security_server.render_audit().encode(),
        mode=0o600,
    )

    # -- the transactional commit file ---------------------------------
    # One write carries any subset of the three policies; *all*
    # sections are validated before *any* is applied, so a malformed
    # or fault-aborted sync can never leave the kernel holding half a
    # policy push (the daemon's two-phase commit, phase 2).
    def write_commit(payload: bytes) -> None:
        try:
            sections = _split_commit_sections(payload.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise SyscallError(Errno.EINVAL, f"commit: {exc}") from exc
        staged = {}
        try:
            if "mounts" in sections:
                staged["mounts"] = MountPolicy.parse(sections["mounts"])
            if "sudoers" in sections:
                staged["sudoers"] = DelegationPolicy.parse(sections["sudoers"])
            if "binds" in sections:
                staged["binds"] = BindPolicy.parse(sections["binds"])
        except ValueError as exc:
            raise SyscallError(Errno.EINVAL, f"commit: {exc}") from exc
        # Everything parsed: swap. List replacement cannot fail, so
        # from here the commit is atomic as observed by any check.
        if "mounts" in staged:
            lsm.mount_policy.replace_rules(staged["mounts"])
        if "sudoers" in staged:
            policy = staged["sudoers"]
            lsm.delegation.replace_rules(policy.rules(),
                                         policy.auth_window_minutes)
        if "binds" in staged:
            lsm.bind_policy.replace_grants(staged["binds"])
        if staged:
            lsm.flush_decisions()

    def read_commit() -> bytes:
        return (
            f"%%mounts\n{lsm.mount_policy.serialize()}"
            f"%%sudoers\n{lsm.delegation.serialize()}"
            f"%%binds\n{lsm.bind_policy.serialize()}"
        ).encode()

    kernel.procfs.register(
        "protego/commit",
        read_fn=read_commit,
        write_fn=write_commit,
        mode=0o600,
    )


def _split_commit_sections(text: str) -> dict:
    """Split the commit grammar: ``%%<name>`` markers delimit policy
    sections in their native grammars."""
    sections: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("%%"):
            name = line[2:].strip()
            if name not in COMMIT_SECTIONS:
                raise ValueError(f"unknown section {name!r}")
            current = name
            sections[current] = []
        elif current is None:
            if line.strip():
                raise ValueError(f"content before first section: {line!r}")
        else:
            sections[current].append(line)
    return {name: "\n".join(lines) + "\n" for name, lines in sections.items()}


def register_policy_proc_files(kernel: Kernel) -> None:
    """Create ``/proc/protego/policy`` (the compiled AppArmor profile
    DFAs: states, table size, compile time, query counts) and
    ``/proc/protego/metrics`` (the kernel's counters registry), in both
    system modes and root-only 0600 like every protego control file."""

    def read_policy() -> bytes:
        apparmor = kernel.lsm.find("apparmor")
        stats = ("no apparmor module\n" if apparmor is None
                 else apparmor.render_policy_stats())
        return f"== apparmor profile DFAs ==\n{stats}".encode()

    kernel.procfs.register("protego/policy", read_fn=read_policy, mode=0o600)
    kernel.procfs.register(
        "protego/metrics",
        read_fn=lambda: kernel.metrics.render().encode(),
        mode=0o600,
    )


def register_fault_proc_files(kernel: Kernel) -> None:
    """Create ``/proc/protego/fault/<site>`` (one control file per
    catalog site) and ``/proc/protego/fault/control`` (the summary,
    plus whole-registry writes). Root-only 0600, like every other
    protego control surface — fault injection reconfigures kernel
    behaviour."""

    def site_writer(name: str):
        def write_site(payload: bytes) -> None:
            try:
                kernel.faults.control_write(name, payload.decode())
            except (ValueError, UnicodeDecodeError) as exc:
                raise SyscallError(Errno.EINVAL, str(exc)) from exc
        return write_site

    for site_name in CATALOG:
        site = kernel.faults.site(site_name)
        kernel.procfs.register(
            f"protego/fault/{site_name}",
            read_fn=lambda s=site: s.render().encode(),
            write_fn=site_writer(site_name),
            mode=0o600,
        )

    def write_control(payload: bytes) -> None:
        text = payload.strip().decode() if isinstance(payload, bytes) else payload
        tokens = text.split()
        if tokens == ["disarm"]:
            kernel.faults.disarm_all()
            return
        if tokens and tokens[0] == "reset":
            seed = None
            if len(tokens) == 2 and tokens[1].startswith("seed="):
                seed = int(tokens[1].partition("=")[2])
            elif len(tokens) != 1:
                raise SyscallError(Errno.EINVAL, f"fault control: {text!r}")
            kernel.faults.reset(seed)
            return
        raise SyscallError(Errno.EINVAL, f"fault control: {text!r}")

    kernel.procfs.register(
        "protego/fault/control",
        read_fn=lambda: kernel.faults.render_summary().encode(),
        write_fn=write_control,
        mode=0o600,
    )


def register_dmcrypt_sys_files(kernel: Kernel) -> None:
    """Expose each dm-crypt device's *public* metadata under
    /sys/block/<name>/dm/devices (Table 4: the /sys replacement for
    the key-disclosing ioctl). World-readable: the device set is not
    secret, the key never leaves the kernel."""
    from repro.kernel.devices import DmCryptDevice

    for device in kernel.devices.all():
        if not isinstance(device, DmCryptDevice):
            continue
        path = f"block/{device.name}/dm/devices"

        def read_devices(dev=device) -> bytes:
            return ("\n".join(dev.public_device_set()) + "\n").encode()

        kernel.sysfs.register(path, read_fn=read_devices, mode=0o444)

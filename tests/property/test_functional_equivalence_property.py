"""Property-based functional equivalence (section 5.3, generalized).

The paper validates that utilities have the same output and effects on
both systems with exhaustive scripts; here hypothesis generates the
inputs: for ANY mount/umount/eject/delegation request drawn from the
simulated machine's vocabulary, the exit-status class and the
system-state effect must be identical on legacy Linux and Protego.
"""

from hypothesis import given, settings, strategies as st

from repro.core import System, SystemMode

DEVICES = ("/dev/cdrom", "/dev/usb0", "/dev/sda1", "tmpfs",
           "fileserver:/export")
MOUNTPOINTS = ("/cdrom", "/media/usb", "/mnt", "/etc", "/mnt/nfs")
OPTIONS = ("", "ro", "rw", "suid", "ro,noexec")
USERS = ("alice", "bob", "charlie")


def fresh_pair():
    """Both systems with sudoers-only delegation policy.

    The PolicyKit rules and D-Bus services boot blank for the sudo
    equivalence sweep: they authorize transitions in the kernel that
    legacy *sudo* (which reads only sudoers) never consults — legacy
    pkexec is their equivalent consumer, tested elsewhere.
    """
    return (System(SystemMode.LINUX, polkit_rules="", dbus_services=""),
            System(SystemMode.PROTEGO, polkit_rules="", dbus_services=""))


@given(user=st.sampled_from(USERS),
       device=st.sampled_from(DEVICES),
       mountpoint=st.sampled_from(MOUNTPOINTS),
       options=st.sampled_from(OPTIONS))
@settings(max_examples=40, deadline=None)
def test_mount_requests_agree(user, device, mountpoint, options):
    statuses = []
    mounted = []
    for system in fresh_pair():
        task = system.session_for(user)
        argv = ["mount", device, mountpoint]
        if options:
            argv += ["-o", options]
        status, _out = system.run(task, "/bin/mount", argv)
        statuses.append(status == 0)
        mounted.append(system.kernel.vfs.mount_at(mountpoint) is not None)
    assert statuses[0] == statuses[1], (user, device, mountpoint, options)
    assert mounted[0] == mounted[1]


@given(mounter=st.sampled_from(USERS),
       unmounter=st.sampled_from(USERS),
       entry=st.sampled_from([("/dev/cdrom", "/cdrom"),
                              ("/dev/usb0", "/media/usb")]))
@settings(max_examples=30, deadline=None)
def test_umount_requests_agree(mounter, unmounter, entry):
    device, mountpoint = entry
    outcomes = []
    for system in fresh_pair():
        mount_task = system.session_for(mounter)
        status, _ = system.run(mount_task, "/bin/mount",
                               ["mount", device, mountpoint])
        assert status == 0
        umount_task = system.session_for(unmounter)
        status, _ = system.run(umount_task, "/bin/umount",
                               ["umount", mountpoint])
        outcomes.append(status == 0)
    assert outcomes[0] == outcomes[1], (mounter, unmounter, entry)


@given(invoker=st.sampled_from(USERS),
       target=st.sampled_from(USERS + ("root",)),
       command=st.sampled_from(["/usr/bin/lpr", "/bin/true", "/bin/sh"]))
@settings(max_examples=30, deadline=None)
def test_sudo_requests_agree(invoker, target, command):
    if invoker == target:
        # Documented divergence (see test below): legacy sudo refuses
        # even the no-op self-transition without a sudoers rule;
        # Protego's kernel rightly permits setuid-to-self. No
        # privilege differs either way.
        return
    outcomes = []
    for system in fresh_pair():
        task = system.session_for(invoker)
        status, _ = system.run(
            task, "/usr/bin/sudo",
            ["sudo", "-u", target, command, "arg"],
            feed=[system.password_of(invoker)])
        outcomes.append(status == 0)
    assert outcomes[0] == outcomes[1], (invoker, target, command)


def test_sudo_self_transition_divergence_is_benign():
    """The one behavioural difference the sweep above excludes: running
    a command 'as yourself' through sudo. The paper accepts changed
    error behaviour where enforcement moved (section 4.3); here the
    Protego outcome grants nothing the invoker lacked."""
    linux, protego = fresh_pair()
    argv = ["sudo", "-u", "charlie", "/usr/bin/lpr", "doc"]
    charlie_linux = linux.session_for("charlie")
    status_linux, _ = linux.run(charlie_linux, "/usr/bin/sudo", argv,
                                feed=["charlie-password"])
    charlie_protego = protego.session_for("charlie")
    status_protego, _ = protego.run(charlie_protego, "/usr/bin/sudo", argv,
                                    feed=["charlie-password"])
    assert status_linux != 0      # no sudoers rule -> legacy refuses
    assert status_protego == 0    # kernel: setuid to self is a no-op
    assert charlie_protego.cred.euid == 1002  # ...and grants nothing


@given(user=st.sampled_from(USERS),
       device=st.sampled_from(["cdrom", "usb0", "sda1"]))
@settings(max_examples=20, deadline=None)
def test_eject_requests_agree(user, device):
    outcomes = []
    for system in fresh_pair():
        task = system.session_for(user)
        status, _ = system.run(task, "/usr/bin/eject", ["eject", device])
        outcomes.append(status == 0)
    assert outcomes[0] == outcomes[1], (user, device)

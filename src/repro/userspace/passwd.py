"""passwd and gpasswd (paper section 4.4).

Legacy passwd: setuid root — the kernel only enforces access at whole-
file granularity, so updating one record of /etc/shadow requires the
privilege to rewrite all of it, and the binary itself must validate
that the update does not corrupt other accounts.

Protego passwd: unprivileged — the credential database is fragmented
into per-account files; the user rewrites *their own* shadow fragment
(plain DAC), after the kernel-enforced reauthentication on opening
/etc/shadows/<name>. The monitoring daemon syncs the legacy files.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.auth.passwords import hash_password, verify_password
from repro.config.passwd_db import format_shadow, parse_shadow
from repro.core.authdb import SHADOW_FRAGMENT_DIR, UserDatabase
from repro.kernel.errno import SyscallError
from repro.kernel.kernel import Kernel
from repro.kernel.task import Task
from repro.userspace.program import EXIT_FAILURE, EXIT_OK, EXIT_PERM, EXIT_USAGE, Program


class PasswdProgram(Program):
    default_path = "/usr/bin/passwd"
    legacy_setuid_root = True

    def main(self, kernel: Kernel, task: Task, argv: List[str]) -> int:
        userdb = UserDatabase(kernel)
        invoker = userdb.lookup_uid(task.cred.ruid)
        if invoker is None:
            self.error(task, "passwd: unknown user")
            return EXIT_FAILURE
        target_name = argv[1] if len(argv) > 1 else invoker.name
        if target_name != invoker.name and task.cred.ruid != 0:
            self.error(task, "passwd: You may not view or modify password "
                             f"information for {target_name}.")
            return EXIT_PERM
        if task.tty is None:
            self.error(task, "passwd: no terminal")
            return EXIT_FAILURE
        # Prompt handling: where CVE-2006-3378 class bugs lived.
        self.vulnerable_point(kernel, task)

        if self.protego_mode:
            return self._protego_flow(kernel, task, userdb, target_name)
        return self._legacy_flow(kernel, task, userdb, invoker.name, target_name)

    # ------------------------------------------------------------------
    def _read_new_password(self, task: Task) -> str:
        task.tty.write_line("New password:")
        return task.tty.read_line()

    def _legacy_flow(self, kernel: Kernel, task: Task, userdb: UserDatabase,
                     invoker_name: str, target_name: str) -> int:
        shadow_entries = userdb.shadow_entries()
        target_entry = next((e for e in shadow_entries if e.name == target_name), None)
        if target_entry is None:
            self.error(task, f"passwd: user {target_name} not found")
            return EXIT_FAILURE
        if task.cred.ruid != 0:
            task.tty.write_line("Current password:")
            try:
                current = task.tty.read_line()
            except SyscallError:
                return EXIT_PERM
            if not verify_password(current, target_entry.password_hash):
                self.error(task, "passwd: Authentication token manipulation error")
                return EXIT_PERM
        try:
            new_password = self._read_new_password(task)
        except SyscallError:
            return EXIT_FAILURE
        # The legacy binary's own whole-database validation: every
        # *other* record must be written back byte-identical.
        updated = [
            dataclasses.replace(e, password_hash=hash_password(new_password))
            if e.name == target_name else e
            for e in shadow_entries
        ]
        userdb.write_shadow(updated, task)
        self.drop_privileges(kernel, task)
        self.out(task, "passwd: password updated successfully")
        return EXIT_OK

    def _protego_flow(self, kernel: Kernel, task: Task, userdb: UserDatabase,
                      target_name: str) -> int:
        fragment_path = f"{SHADOW_FRAGMENT_DIR}/{target_name}"
        try:
            # Opening the shadow fragment triggers the kernel's
            # reauthentication policy; DAC confines us to our own file.
            current = kernel.read_file(task, fragment_path).decode()
        except SyscallError as err:
            self.error(task, f"passwd: {err.errno_value.name}")
            return EXIT_PERM
        entries = parse_shadow(current)
        if not entries:
            # An empty fragment (say, an earlier write interrupted
            # after its truncating open): fail closed rather than
            # invent an entry.
            self.error(task, f"passwd: {fragment_path}: no shadow entry")
            return EXIT_FAILURE
        entry = entries[0]
        try:
            new_password = self._read_new_password(task)
        except SyscallError:
            return EXIT_FAILURE
        entry = dataclasses.replace(entry, password_hash=hash_password(new_password))
        try:
            kernel.write_file(task, fragment_path, format_shadow([entry]).encode(),
                              create=False)
        except SyscallError as err:
            self.error(task, f"passwd: {err.errno_value.name}")
            return EXIT_PERM
        self.out(task, "passwd: password updated successfully")
        return EXIT_OK


class GpasswdProgram(Program):
    """Group administration: set/remove a group password, add/remove
    members. Legacy: root rewrites /etc/group. Protego: the group's
    administrator edits the group fragment their DAC permits."""

    default_path = "/usr/bin/gpasswd"
    legacy_setuid_root = True

    def main(self, kernel: Kernel, task: Task, argv: List[str]) -> int:
        if len(argv) < 3:
            self.error(task, "usage: gpasswd [-a user|-d user|-p password] <group>")
            return EXIT_USAGE
        action, group_name = argv[1], argv[-1]
        operand = argv[2] if len(argv) > 3 else ""
        self.vulnerable_point(kernel, task)
        userdb = UserDatabase(kernel)
        group = userdb.lookup_group(group_name)
        if group is None:
            self.error(task, f"gpasswd: group {group_name} does not exist")
            return EXIT_FAILURE

        if action == "-a":
            group.members = group.members + [operand]
        elif action == "-d":
            group.members = [m for m in group.members if m != operand]
        elif action == "-p":
            group.password_hash = hash_password(operand)
        else:
            self.error(task, f"gpasswd: unknown action {action}")
            return EXIT_USAGE

        if self.protego_mode:
            from repro.config.passwd_db import format_group
            from repro.core.authdb import GROUP_FRAGMENT_DIR
            try:
                kernel.write_file(task, f"{GROUP_FRAGMENT_DIR}/{group_name}",
                                  format_group([group]).encode(), create=False)
            except SyscallError as err:
                self.error(task, f"gpasswd: {err.errno_value.name}")
                return EXIT_PERM
            return EXIT_OK

        # Legacy: whole-file rewrite as root, with the userspace
        # group-administrator check.
        admin = group.members[0] if group.members else "root"
        invoker = userdb.lookup_uid(task.cred.ruid)
        if task.cred.ruid != 0 and (invoker is None or invoker.name != admin):
            self.error(task, f"gpasswd: {group_name}: permission denied")
            return EXIT_PERM
        entries = [group if e.name == group_name else e
                   for e in userdb.group_entries()]
        userdb.write_group(entries, task)
        self.drop_privileges(kernel, task)
        return EXIT_OK

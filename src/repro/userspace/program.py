"""Program model: how simulated binaries execute.

A :class:`Program` is the body of one binary. It is installed at a
path in the kernel's VFS (optionally with the setuid bit) and runs
when a task execs that path. The program performs its work through
kernel syscalls on the calling task, so every privilege mechanism —
the setuid bit, capability checks, LSM hooks — applies faithfully.

Exploit modelling: each program calls :meth:`vulnerable_point` where
its real-world counterpart parses untrusted input (the place the
historical CVEs of Table 6 lived). The CVE study injects a payload
there; the payload then executes with exactly the credentials the
program holds at that moment — root inside a legacy setuid binary,
the invoking user on Protego.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.kernel.errno import SyscallError
from repro.kernel.kernel import Kernel
from repro.kernel.task import Task

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PERM = 77


class Program:
    """Base class for simulated binaries."""

    #: canonical install path, e.g. "/bin/mount"
    default_path = "/bin/program"
    #: does the stock distribution ship this binary setuid root?
    legacy_setuid_root = False

    def __init__(self, protego_mode: bool = False):
        # protego_mode=True removes the hard-coded euid==0 checks (the
        # paper's Table 2: "Disable hard-coded root uid checks") and
        # relies on the kernel policy instead.
        self.protego_mode = protego_mode
        self.path = self.default_path
        # Injected by the CVE study: attacker code run at the
        # program's input-parsing stage.
        self.exploit: Optional[Callable[[Kernel, Task], None]] = None

    # ------------------------------------------------------------------
    def run(self, kernel: Kernel, task: Task, argv: List[str]) -> int:
        # Note: stdout is NOT reset — exec keeps the same output
        # stream, so a program exec'ing another accumulates both.
        try:
            return self.main(kernel, task, argv)
        except SyscallError as err:
            self.error(task, f"{self.name()}: {err.errno_value.name}: {err.context}")
            return EXIT_FAILURE

    def main(self, kernel: Kernel, task: Task, argv: List[str]) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def name(self) -> str:
        return self.path.rsplit("/", 1)[-1]

    def out(self, task: Task, message: str) -> None:
        task.stdout.append(message)

    def error(self, task: Task, message: str) -> None:
        task.stdout.append(message)

    def vulnerable_point(self, kernel: Kernel, task: Task) -> None:
        """The input-parsing stage where historical CVEs lived."""
        if self.exploit is not None:
            self.exploit(kernel, task)

    def drop_privileges(self, kernel: Kernel, task: Task) -> None:
        """The classic post-privileged-work setuid(ruid) dance."""
        if task.cred.euid != task.cred.ruid:
            kernel.sys_setuid(task, task.cred.ruid)


def install_program(kernel: Kernel, program: Program, path: Optional[str] = None,
                    setuid: Optional[bool] = None, owner_uid: int = 0,
                    mode: int = 0o755) -> Program:
    """Install *program* into *kernel* at *path*.

    ``setuid=None`` applies the program's distribution default in
    legacy mode and never sets the bit in Protego mode — the whole
    point of the paper.
    """
    path = path or program.default_path
    if setuid is None:
        setuid = program.legacy_setuid_root and not program.protego_mode
    root = kernel.init
    # mkdir -p the parent directories.
    parts = path.strip("/").split("/")[:-1]
    walked = ""
    for part in parts:
        walked += "/" + part
        if not kernel.vfs.exists(walked):
            kernel.sys_mkdir(root, walked, 0o755)
    kernel.write_file(root, path, b"\x7fELF simulated\n")
    final_mode = mode | (0o4000 if setuid else 0)
    kernel.sys_chown(root, path, owner_uid, 0)
    kernel.sys_chmod(root, path, final_mode)
    program.path = path
    kernel.binaries[path] = program
    return program

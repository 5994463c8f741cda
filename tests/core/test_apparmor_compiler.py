"""Unit tests for the compiled profile matcher (NFA -> DFA pipeline)."""

import pytest

from repro.apparmor import AppArmorLSM
from repro.apparmor.compiler import compile_rules
from repro.apparmor.profiles import (
    AccessMode,
    Profile,
    ProfileRule,
    _glob_to_regex,
    make_profile,
)
from repro.kernel import Kernel
from repro.kernel.errno import SyscallError


def masks(profile, path):
    return profile.automaton.match(path)


class TestGlobSemantics:
    """Every glob construct, checked against both engines at once."""

    CASES = [
        # (pattern, path, matches?)
        ("/etc/fstab", "/etc/fstab", True),
        ("/etc/fstab", "/etc/fstab2", False),
        ("/etc/fstab", "/etc/fsta", False),
        ("/var/log/*", "/var/log/syslog", True),
        ("/var/log/*", "/var/log/", True),          # * matches zero chars
        ("/var/log/*", "/var/log", False),
        ("/var/log/*", "/var/log/apt/history", False),  # * stops at /
        ("/media/**", "/media/usb", True),
        ("/media/**", "/media/usb/deep/file", True),
        ("/media/**", "/media", False),              # AppArmor semantics
        ("/media/**", "/mediaX", False),
        ("/h/?", "/h/a", True),
        ("/h/?", "/h/", False),                      # ? needs one char
        ("/h/?", "/h/ab", False),
        ("/h/?", "/h//", False),                     # ? never matches /
        ("/a/**/z", "/a/z", False),                  # the inner / is literal
        ("/a/**/z", "/a/b/z", True),
        ("/a/**/z", "/a/b/c/z", True),
        ("**", "", True),
        ("**", "/anything/at/all", True),
        ("*", "abc", True),
        ("*", "a/b", False),
        # regex metacharacters are literal characters in the glob
        ("/opt/app+cfg/x.(1)", "/opt/app+cfg/x.(1)", True),
        ("/opt/app+cfg/x.(1)", "/opt/appUcfg/xZ(1)", False),
    ]

    @pytest.mark.parametrize("pattern,path,expected", CASES)
    def test_dfa_matches_oracle(self, pattern, path, expected):
        rule = ProfileRule(pattern, AccessMode.READ)
        assert rule.matches(path) is expected
        automaton = compile_rules((rule,))
        got = automaton.match(path) == AccessMode.READ
        assert got is expected


class TestPermissionUnion:
    def test_overlapping_rules_union_on_accept(self):
        profile = make_profile("/bin/p", [
            ("/srv/**", "r"),
            ("/srv/writable/*", "w"),
            ("/srv/writable/app.sock", "x"),
        ])
        assert masks(profile, "/srv/readonly") == AccessMode.READ
        assert masks(profile, "/srv/writable/f") == (
            AccessMode.READ | AccessMode.WRITE)
        assert masks(profile, "/srv/writable/app.sock") == (
            AccessMode.READ | AccessMode.WRITE | AccessMode.EXEC)

    def test_duplicate_pattern_accumulates(self):
        profile = make_profile("/bin/p", [("/a", "r"), ("/a", "w")])
        assert masks(profile, "/a") == AccessMode.READ | AccessMode.WRITE

    def test_no_match_is_none(self):
        profile = make_profile("/bin/p", [("/a", "r")])
        assert masks(profile, "/b") is AccessMode.NONE

    def test_empty_rule_set_rejects_everything(self):
        profile = make_profile("/bin/p", [])
        assert masks(profile, "/anything") is AccessMode.NONE
        assert masks(profile, "") is AccessMode.NONE


class TestPipeline:
    def test_minimization_shrinks_subset_dfa(self):
        rules = tuple(
            ProfileRule(f"/opt/app{i}/**", AccessMode.READ) for i in range(20))
        automaton = compile_rules(rules)
        s = automaton.stats
        assert s.rules == 20
        assert 0 < s.states <= s.dfa_states <= s.nfa_states
        assert s.table_cells == s.states * s.classes
        assert s.compile_us > 0

    def test_equivalent_rule_orders_compile_to_same_size(self):
        rules = [("/etc/*", "r"), ("/var/**", "rw"), ("/usr/lib/??.so", "r")]
        forward = compile_rules(make_profile("/b", rules).rules)
        backward = compile_rules(make_profile("/b", rules[::-1]).rules)
        assert forward.stats.states == backward.stats.states

    def test_lazy_compile_and_recompile_on_rule_swap(self):
        profile = make_profile("/bin/p", [("/a/*", "r")])
        assert profile.compiled is None
        assert profile.allows_path("/a/x", AccessMode.READ)
        first = profile.compiled
        assert first is not None
        assert profile.allows_path("/a/y", AccessMode.READ)
        assert profile.compiled is first  # cached across queries
        profile.rules = (ProfileRule("/b/*", AccessMode.WRITE),)
        assert not profile.allows_path("/a/x", AccessMode.READ)
        assert profile.allows_path("/b/x", AccessMode.WRITE)
        assert profile.compiled is not first

    def test_query_counter(self):
        profile = make_profile("/bin/p", [("/a", "r")])
        profile.allows_path("/a", AccessMode.READ)
        profile.allows_path("/b", AccessMode.READ)
        assert profile.compiled.queries == 2

    def test_glob_regex_memoized(self):
        assert _glob_to_regex("/memo/test/*") is _glob_to_regex("/memo/test/*")


class TestLSMIntegration:
    @pytest.fixture
    def kernel(self):
        k = Kernel()
        k.register_module(AppArmorLSM())
        return k

    @pytest.fixture
    def apparmor(self, kernel):
        return kernel.lsm.find("apparmor")

    def _task(self, kernel, exe="/bin/confined"):
        task = kernel.user_task(1000, 1000)
        task.exe_path = exe
        return task

    def test_profile_reload_drops_stale_verdicts(self, kernel, apparmor):
        """A tightened profile must bite immediately: the decision
        cache is flushed on load_profile, so the verdict computed
        under the old (permissive) automaton is never served again."""
        kernel.write_file(kernel.init, "/etc/hosts", b"h")
        kernel.sys_chmod(kernel.init, "/etc/hosts", 0o644)
        apparmor.load_profile(make_profile("/bin/confined", [("/etc/*", "r")]))
        task = self._task(kernel)
        assert kernel.read_file(task, "/etc/hosts") == b"h"
        apparmor.load_profile(make_profile("/bin/confined", [("/tmp/*", "r")]))
        with pytest.raises(SyscallError):
            kernel.read_file(task, "/etc/hosts")

    def test_unload_drops_stale_denials(self, kernel, apparmor):
        kernel.write_file(kernel.init, "/etc/hosts", b"h")
        kernel.sys_chmod(kernel.init, "/etc/hosts", 0o644)
        apparmor.load_profile(make_profile("/bin/confined", [("/tmp/*", "r")]))
        task = self._task(kernel)
        with pytest.raises(SyscallError):
            kernel.read_file(task, "/etc/hosts")
        apparmor.unload_profile("/bin/confined")
        assert kernel.read_file(task, "/etc/hosts") == b"h"

    def test_render_policy_stats(self, apparmor):
        apparmor.load_profile(make_profile("/bin/a", [("/etc/*", "r")]))
        apparmor.load_profile(make_profile("/bin/b", [("/var/**", "rw")]))
        text = apparmor.render_policy_stats()
        assert "profiles=2 compiled=0" in text
        assert "uncompiled" in text
        # Force one compile; the render must pick up its stats.
        apparmor._profiles["/bin/a"].allows_path("/etc/x", AccessMode.READ)
        text = apparmor.render_policy_stats()
        assert "profiles=2 compiled=1" in text
        assert "profile /bin/a: rules=1 states=" in text


class TestProcPolicyFile:
    def test_policy_proc_file_renders_both_engines(self):
        from repro.core import System, SystemMode
        system = System(SystemMode.PROTEGO, start_daemon=False)
        root = system.root_session()
        system.apparmor.load_profile(
            make_profile("/bin/ping", [("/etc/hosts", "r")]))
        payload = system.kernel.read_file(root, "/proc/protego/policy").decode()
        assert "== apparmor profile DFAs ==" in payload
        assert "profile /bin/ping:" in payload
        # The flow cache reports through /proc/protego/metrics.
        assert "netfilter" not in payload
        metrics = system.kernel.read_file(root, "/proc/protego/metrics")
        assert b"kernel.netfilter.flow_hits " in metrics

    def test_policy_proc_file_exists_on_stock_linux_too(self):
        from repro.core import System, SystemMode
        system = System(SystemMode.LINUX)
        root = system.root_session()
        payload = system.kernel.read_file(root, "/proc/protego/policy").decode()
        assert "== apparmor profile DFAs ==" in payload
        metrics = system.kernel.read_file(root, "/proc/protego/metrics")
        assert b"kernel.netfilter.flow_hits " in metrics

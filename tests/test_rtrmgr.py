"""Tests for the Router Manager: templates, config tree, commit, CLI."""

import pytest

from repro.net import IPNet, IPv4
from repro.rtrmgr import (
    Cli,
    ConfigError,
    ConfigTree,
    RouterManager,
    TemplateError,
    parse_template,
)
from repro.rtrmgr.rtrmgr import CommitError
from repro.rtrmgr.template import DEFAULT_TEMPLATE
from repro.simnet import SimNetwork

SMALL_TEMPLATE = """
protocols {
    bgp {
        local-as: u32;
        peer @ : ipv4 {
            as: u32;
            holdtime: u32 = 90;
        }
    }
}
"""


class TestTemplateParsing:
    def test_parses_default_template(self):
        root = parse_template(DEFAULT_TEMPLATE)
        bgp = root.child("protocols").child("bgp")
        assert bgp.child("local-as").value_type.value == "u32"
        assert bgp.child("peer").is_tag

    def test_defaults(self):
        root = parse_template(SMALL_TEMPLATE)
        holdtime = (root.child("protocols").child("bgp")
                    .child("peer").child("holdtime"))
        assert holdtime.default == "90"

    def test_unknown_type_rejected(self):
        with pytest.raises(TemplateError):
            parse_template("a { b: float32; }")

    def test_unbalanced_rejected(self):
        with pytest.raises(TemplateError):
            parse_template("a { b: u32;")

    def test_empty_rejected(self):
        with pytest.raises(TemplateError):
            parse_template("   ")

    def test_value_validation(self):
        root = parse_template(SMALL_TEMPLATE)
        node = root.child("protocols").child("bgp").child("local-as")
        assert node.validate_value("65001") == 65001
        with pytest.raises(TemplateError):
            node.validate_value("not-a-number")


class TestConfigTree:
    def setup_method(self):
        self.tree = ConfigTree(parse_template(SMALL_TEMPLATE))

    def test_set_leaf(self):
        self.tree.set(["protocols", "bgp", "local-as"], "65001")
        assert self.tree.get_value(["protocols", "bgp", "local-as"]) == 65001

    def test_tag_instances(self):
        self.tree.set(["protocols", "bgp", "peer", "10.0.0.2", "as"], 65002)
        self.tree.set(["protocols", "bgp", "peer", "10.0.0.3", "as"], 65003)
        peers = self.tree.tag_instances(["protocols", "bgp", "peer"])
        assert [str(p.tag_value) for p in peers] == ["10.0.0.2", "10.0.0.3"]

    def test_template_default_via_get_value(self):
        self.tree.set(["protocols", "bgp", "peer", "10.0.0.2", "as"], 65002)
        assert self.tree.get_value(
            ["protocols", "bgp", "peer", "10.0.0.2", "holdtime"]) == 90

    def test_invalid_node_rejected(self):
        with pytest.raises((ConfigError, TemplateError)):
            self.tree.set(["protocols", "ospf"], None)

    def test_invalid_value_rejected(self):
        with pytest.raises((ConfigError, TemplateError)):
            self.tree.set(["protocols", "bgp", "local-as"], "abc")

    def test_delete(self):
        self.tree.set(["protocols", "bgp", "peer", "10.0.0.2", "as"], 65002)
        self.tree.delete(["protocols", "bgp", "peer", "10.0.0.2"])
        assert not self.tree.exists(["protocols", "bgp", "peer", "10.0.0.2"])

    def test_delete_missing_raises(self):
        with pytest.raises(ConfigError):
            self.tree.delete(["protocols", "bgp", "peer", "10.0.0.2"])

    def test_render_load_round_trip(self):
        self.tree.set(["protocols", "bgp", "local-as"], "65001")
        self.tree.set(["protocols", "bgp", "peer", "10.0.0.2", "as"], 65002)
        rendered = self.tree.render()
        fresh = ConfigTree(parse_template(SMALL_TEMPLATE))
        fresh.load(rendered)
        assert fresh.render() == rendered

    def test_load_braces_text(self):
        self.tree.load("""
            protocols {
                bgp {
                    local-as: 65001
                    peer 10.0.0.2 {
                        as: 65002
                    }
                }
            }
        """)
        assert self.tree.get_value(["protocols", "bgp", "local-as"]) == 65001
        assert self.tree.exists(["protocols", "bgp", "peer", "10.0.0.2"])


@pytest.fixture
def managed_router():
    network = SimNetwork()
    router = network.add_router("r1")
    peer_router = network.add_router("r2")
    network.link(router, "10.0.0.1", peer_router, "10.0.0.2")
    rtrmgr = RouterManager(router.host)
    network.run(duration=1)
    return network, router, peer_router, rtrmgr


class TestCommit:
    def test_commit_starts_modules(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols bgp local-as", 65001)
        rtrmgr.set("protocols bgp bgp-id", "1.1.1.1")
        rtrmgr.commit()
        assert "bgp" in rtrmgr.modules
        assert rtrmgr.modules["bgp"].local_as == 65001

    def test_commit_configures_bgp_peer(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols bgp local-as", 65001)
        rtrmgr.set("protocols bgp peer 10.0.0.2 as", 65002)
        rtrmgr.set("protocols bgp peer 10.0.0.2 local-ip", "10.0.0.1")
        rtrmgr.commit()
        bgp = rtrmgr.modules["bgp"]
        assert "10.0.0.2" in bgp.peers
        assert bgp.peers["10.0.0.2"].config.peer_as == 65002

    def test_commit_static_routes(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols static route 99.0.0.0/8 next-hop", "10.0.0.2")
        rtrmgr.commit()
        assert network.run_until(
            lambda: router.fea.fib4.lookup(IPv4("99.1.1.1")) is not None,
            timeout=10)
        # Delete the route, commit again: it must disappear.
        rtrmgr.delete("protocols static route 99.0.0.0/8")
        rtrmgr.set("protocols static", None)  # keep the subtree
        rtrmgr.commit()
        assert network.run_until(
            lambda: router.fea.fib4.lookup(IPv4("99.1.1.1")) is None,
            timeout=10)

    def test_commit_rip(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols rip interface eth0 cost", 2)
        rtrmgr.commit()
        rip = rtrmgr.modules["rip"]
        assert "eth0" in rip.ports
        assert rip.ports["eth0"].cost == 2

    def test_commit_missing_mandatory_rolls_back(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols bgp local-as", 65001)
        rtrmgr.set("protocols bgp peer 10.0.0.2 as", 65002)
        # local-ip missing: the commit must fail and roll back.
        with pytest.raises(CommitError):
            rtrmgr.commit()
        assert not rtrmgr.config.exists(["protocols", "bgp"])

    def test_commit_without_local_as_fails(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols bgp bgp-id", "1.1.1.1")
        with pytest.raises(CommitError):
            rtrmgr.commit()

    def test_acls_installed_for_modules(self, managed_router):
        """Paper §7: the rtrmgr restricts what each process may resolve."""
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols bgp local-as", 65001)
        rtrmgr.commit()
        bgp = rtrmgr.modules["bgp"]
        finder = router.host.finder
        acl = finder._acls.get(bgp.xrl.instance_name)
        assert acl is not None
        assert "rib" in acl.allowed_targets
        assert "fea" not in acl.allowed_targets

    def test_third_party_module_factory(self, managed_router):
        """Extensibility: a custom protocol plugs into the rtrmgr."""
        network, router, peer_router, rtrmgr = managed_router
        created = []

        class ToyProtocol:
            def __init__(self):
                self.routers = []
                created.append(self)

        rtrmgr.register_module_factory("toy", lambda: ToyProtocol(),
                                       allowed_targets={"rib"})
        rtrmgr.start_module("toy")
        assert created and "toy" in rtrmgr.modules


class TestCli:
    def test_set_show_commit(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        assert cli.execute("set protocols bgp local-as 65001") == "OK"
        assert cli.execute("set protocols bgp bgp-id 1.1.1.1") == "OK"
        assert "local-as: 65001" in cli.execute("show candidate")
        assert cli.execute("commit") == "Commit OK"
        assert "local-as: 65001" in cli.execute("show configuration")
        assert "bgp" in cli.execute("show modules")

    def test_show_bgp(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        cli.execute("set protocols bgp local-as 65001")
        cli.execute("commit")
        out = cli.execute("show bgp")
        assert "local AS: 65001" in out

    def test_show_route(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        out = cli.execute("show route")
        assert "10.0.0.0/24" in out

    def test_bad_command(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        assert cli.execute("frobnicate").startswith("error")
        assert cli.execute("set onlyonearg").startswith("error")
        assert cli.execute("show nonsense").startswith("error")

    def test_error_on_bad_config(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        assert cli.execute("set protocols ospf area 0").startswith("error")

    def test_call_xrl_scripting(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        out = cli.execute(
            'call "finder://fea/common/0.1/get_status"')
        assert "running" in out

    def test_help(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        assert "commit" in Cli(rtrmgr).execute("help")


class TestOspfCommit:
    def test_commit_ospf(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        assert cli.execute("set protocols ospf router-id 1.1.1.1") == "OK"
        assert cli.execute("set protocols ospf interface eth0 cost 2") == "OK"
        assert cli.execute("commit") == "Commit OK"
        ospf = rtrmgr.modules["ospf"]
        assert "eth0" in ospf.interfaces
        assert ospf.interfaces["eth0"].cost == 2
        out = cli.execute("show ospf")
        assert "router id: 1.1.1.1" in out

    def test_ospf_without_router_id_fails(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols ospf interface eth0 cost", 1)
        with pytest.raises(CommitError):
            rtrmgr.commit()

    def test_ospf_between_managed_routers(self, managed_router):
        """Two rtrmgr-managed routers form an OSPF adjacency."""
        network, router, peer_router, rtrmgr = managed_router
        rtrmgr.set("protocols ospf router-id", "1.1.1.1")
        rtrmgr.set("protocols ospf interface eth0 cost", 1)
        rtrmgr.commit()
        rtrmgr2 = RouterManager(peer_router.host)
        rtrmgr2.set("protocols ospf router-id", "2.2.2.2")
        rtrmgr2.set("protocols ospf interface eth0 cost", 1)
        rtrmgr2.commit()
        ospf = rtrmgr.modules["ospf"]
        assert network.run_until(
            lambda: "Full" in ospf.xrl_get_neighbors()["neighbors"],
            timeout=120)


class TestCliExtras:
    def test_show_bgp_routes(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        cli.execute("set protocols bgp local-as 65001")
        cli.execute("commit")
        bgp = rtrmgr.modules["bgp"]
        bgp.xrl_originate_route4(IPNet.parse("99.0.0.0/8"),
                                 IPv4("10.0.0.1"), True)
        network.run(duration=2)
        out = cli.execute("show bgp routes")
        assert "99.0.0.0/8" in out and "as-path" in out

    def test_interactive_shell(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)
        script = iter(["show modules", "bogus-command", "exit"])
        outputs = []
        cli.run_interactive(input_fn=lambda prompt: next(script),
                            output_fn=outputs.append)
        assert any("error" in out for out in outputs)

    def test_interactive_eof_exits(self, managed_router):
        network, router, peer_router, rtrmgr = managed_router
        cli = Cli(rtrmgr)

        def raise_eof(prompt):
            raise EOFError

        cli.run_interactive(input_fn=raise_eof)  # must return, not loop

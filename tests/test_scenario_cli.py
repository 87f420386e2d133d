import random

import pytest

from conftest import flip_disk_entry, pack_records
import xcache.cli as cli
from xcache.addressing import XidType
from xcache.chunking import PublisherKey, compute_ncid, fingerprint
from xcache.scenario import ScenarioError, run_scenario

LINE3 = """
seed 42
node client cache=8
node router cache=8
node pub cache=8
link client router delay=5 loss=0.0
link router pub delay=5 loss=0.0
route client AD-pub router
route router AD-pub pub
route client AD-router router
route pub AD-router router
route pub AD-client router
route router AD-client client
"""

OPPORTUNISTIC = """
topology line3.topo
policy client never
publish pub hello-world ttl=60000 as=c1
fetch client $c1
fetch client $c1
assert provider 0 == pub
assert provider 1 == router
assert hops 0 == 2
assert hops 1 == 1
assert sessions pub == 1
"""

POISON_TOPO = """
seed 7
node clientA cache=8
node clientB cache=8
node evil cache=8
node pub cache=8
link clientA pub delay=5 loss=0.0
link clientB evil delay=5 loss=0.0
link evil pub delay=5 loss=0.0
route clientA AD-pub pub
route pub AD-clientA clientA
route clientB AD-pub evil
route evil AD-pub pub
route pub AD-clientB evil
route evil AD-clientB clientB
route clientB AD-evil evil
"""

POISON = """
topology poison.topo
genkey fb
genkey mal
publish_key pub fb as=fbcert
publish_key evil mal as=malcert
publish_named pub name=fb.com/cmu key=fb cert=$fbcert payload=realdata ttl=600000 as=honest
fetch clientA $honest
assert verify 0 == accept
assert provider 0 == pub
forge evil mode=reuse-key name=fb.com/cmu victim=fb attacker=mal victimcert=$fbcert payload=spoof1 ttl=600000
routefor clientB $honest evil key=fb
fetch clientB $honest
assert verify 1 == reject:signature-invalid
forge evil mode=own-key name=fb.com/cmu victim=fb attacker=mal victimcert=$fbcert attackercert=$malcert payload=spoof2 ttl=600000
fetch clientB $honest
assert verify 2 == reject:ncid-mismatch
"""


def write_scenario(tmp_path, topo_name, topo_text, script_name, script_text):
    (tmp_path / topo_name).write_text(topo_text)
    path = tmp_path / script_name
    path.write_text(script_text)
    return path


class TestScenarioRunner:
    def test_opportunistic_script(self, tmp_path):
        write_scenario(tmp_path, "line3.topo", LINE3, "s.xsim", OPPORTUNISTIC)
        result = run_scenario(OPPORTUNISTIC, base_dir=tmp_path)
        assert result.failures == []
        assert [f.provider for f in result.fetches] == ["pub", "router"]
        assert [f.hops for f in result.fetches] == [2, 1]

    def test_poisoning_script(self, tmp_path):
        (tmp_path / "poison.topo").write_text(POISON_TOPO)
        result = run_scenario(POISON, base_dir=tmp_path)
        assert result.failures == []
        assert [f.verify for f in result.fetches] == [
            "accept",
            "reject:signature-invalid",
            "reject:ncid-mismatch",
        ]

    def test_failed_assert_collected_not_raised(self, tmp_path):
        (tmp_path / "line3.topo").write_text(LINE3)
        script = OPPORTUNISTIC + "assert provider 1 == pub\n"
        result = run_scenario(script, base_dir=tmp_path)
        assert len(result.failures) == 1
        assert "provider" in result.failures[0]

    def test_empty_script_is_an_empty_report(self):
        result = run_scenario("# nothing but comments\n\n")
        assert result.report == ""
        assert result.failures == []

    def test_commands_without_topology_rejected(self):
        with pytest.raises(ScenarioError, match="topology"):
            run_scenario("publish pub data ttl=1000\n")

    def test_unknown_command(self, tmp_path):
        (tmp_path / "line3.topo").write_text(LINE3)
        with pytest.raises(ScenarioError, match="unknown command"):
            run_scenario("topology line3.topo\nwarp client\n", base_dir=tmp_path)

    def test_route_is_an_unknown_command(self, tmp_path):
        # routefor installs a route toward a bare XID given as an address
        (tmp_path / "line3.topo").write_text(LINE3)
        head = "topology line3.topo\n"
        run_scenario(head + "routefor client ad://0/AD-pub router\n", base_dir=tmp_path)
        with pytest.raises(ScenarioError, match="unknown command 'route'"):
            run_scenario(head + "route client AD-pub router\n", base_dir=tmp_path)

    def test_undefined_variable(self, tmp_path):
        (tmp_path / "line3.topo").write_text(LINE3)
        with pytest.raises(ScenarioError, match="undefined variable"):
            run_scenario("topology line3.topo\nfetch client $nope\n", base_dir=tmp_path)

    def test_advance_and_ttl(self, tmp_path):
        (tmp_path / "line3.topo").write_text(LINE3)
        script = """
        topology line3.topo
        publish pub transient ttl=100 as=c1
        advance 200
        assert cached pub $c1 == no
        fetch client $c1
        # fallback still routes to pub, which no longer delivers
        assert verify 0 == error:timeout
        """
        result = run_scenario(script, base_dir=tmp_path)
        assert result.failures == []

    def test_size_payload_and_file_payload(self, tmp_path):
        (tmp_path / "line3.topo").write_text(LINE3)
        (tmp_path / "blob.bin").write_bytes(b"file contents here")
        script = """
        topology line3.topo
        publish pub size:4096 ttl=60000 as=big
        publish pub @blob.bin ttl=60000 as=blob
        fetch client $big
        fetch client $blob
        assert bytes 0 == 4096
        assert bytes 1 == 18
        """
        result = run_scenario(script, base_dir=tmp_path)
        assert result.failures == []

    def test_report_is_byte_stable(self, tmp_path):
        (tmp_path / "line3.topo").write_text(LINE3)
        first = run_scenario(OPPORTUNISTIC, base_dir=tmp_path).report
        second = run_scenario(OPPORTUNISTIC, base_dir=tmp_path).report
        assert first == second
        assert "provider=pub" in first and "provider=router" in first


class TestShippedScenarios:
    @pytest.mark.parametrize(
        "name", ["opportunistic", "nevercache", "poison", "multiform"]
    )
    def test_scenario_files_pass(self, name):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "scenarios"
        script = (root / f"{name}.xsim").read_text()
        result = run_scenario(script, base_dir=root)
        assert result.failures == []


class TestCliSim:
    def test_cli_matches_api_report(self, tmp_path, capsys, monkeypatch):
        script = write_scenario(tmp_path, "line3.topo", LINE3, "s.xsim", OPPORTUNISTIC)
        code = cli.main(["sim", str(script)])
        out = capsys.readouterr().out
        assert code == 0
        api_report = run_scenario(OPPORTUNISTIC, base_dir=tmp_path).report
        assert out == api_report

    def test_cli_sim_runs_are_identical(self, tmp_path, capsys):
        script = write_scenario(tmp_path, "line3.topo", LINE3, "s.xsim", OPPORTUNISTIC)
        assert cli.main(["sim", str(script)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["sim", str(script)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_assert_failure_exits_6(self, tmp_path, capsys):
        script = write_scenario(
            tmp_path,
            "line3.topo",
            LINE3,
            "bad.xsim",
            OPPORTUNISTIC + "assert sessions pub == 99\n",
        )
        assert cli.main(["sim", str(script)]) == cli.EX_ASSERT

    def test_bad_script_exits_2(self, tmp_path):
        script = tmp_path / "nonsense.xsim"
        script.write_text("topology missing.topo\n")
        assert cli.main(["sim", str(script)]) == cli.EX_USAGE

    BAD_LINES = {
        "config cache_policy sometimes": "config line 1:",
        "config workers abc": "config line 1:",
        "config segment_size 0": "config line 1: segment_size must be at least 1",
        "assert": "line 1: assert needs a metric",
        "assert sessions nosuch == 0": "line 1: unknown node 'nosuch'",
        "unroutefor nosuch cid://0/CID-abc": "line 1: unknown node 'nosuch'",
        "genkey k\npublish_named pub name=a payload=x": "line 2: publish_named needs key=<value>",
        "genkey k\npublish_named pub key=k name=a payload=x": "line 2: publish_named needs cert=<value>",
        "genkey k\nforge router victim=k attacker=k name=a payload=x": "line 2: forge needs mode=<value>",
        "genkey k\nforge router victim=k name=a payload=x mode=own-key": "line 2: forge needs attacker=<value>",
        "genkey k\nforge router victim=k attacker=k name=a payload=x mode=own-key": (
            "line 2: forge needs attackercert=<value>"
        ),
    }

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_bad_config_line_exits_2(self, tmp_path, capsys, line):
        script = write_scenario(
            tmp_path, "line3.topo", LINE3, "bad.xsim", line + "\n" + OPPORTUNISTIC
        )
        assert cli.main(["sim", str(script)]) == cli.EX_USAGE
        assert capsys.readouterr().err.startswith("sim: " + self.BAD_LINES[line])

    def test_empty_script_exits_0_with_empty_report(self, tmp_path, capsys):
        script = tmp_path / "empty.xsim"
        script.write_text("# just a comment\n")
        assert cli.main(["sim", str(script)]) == 0
        assert capsys.readouterr().out == ""


class TestCliPublishFetch:
    def test_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = tmp_path / "object.bin"
        payload.write_bytes(b"over the counter bytes")
        assert cli.main(["publish", str(payload)]) == 0
        url = capsys.readouterr().out.strip()
        assert url.startswith("cid://")
        out_file = tmp_path / "fetched.bin"
        assert cli.main(["fetch", url, "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == b"over the counter bytes"

    def test_fetch_stats_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o.bin").write_bytes(b"x" * 10)
        cli.main(["publish", "o.bin"])
        url = capsys.readouterr().out.strip()
        assert cli.main(["fetch", url, "--stats", "--out", "f.bin"]) == 0
        err = capsys.readouterr().err
        assert "provider=local" in err and "hops=0" in err

    def test_fetch_unknown_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ghost = "cid://0/CID-" + "ab" * 20
        assert cli.main(["fetch", ghost]) == cli.EX_UNROUTABLE

    def test_tampered_store_exits_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "o.bin").write_bytes(b"genuine content")
        cli.main(["publish", "o.bin"])
        url = capsys.readouterr().out.strip()
        (record,) = pack_records(".xcache-store")
        flip_disk_entry(".xcache-store", record.xid, -3)  # corrupt a payload byte in place
        assert cli.main(["fetch", url, "--out", "f.bin"]) == cli.EX_VERIFY

    def test_tampered_named_store_exits_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        key = PublisherKey.generate(rng=random.Random(74))
        cli.save_key_files(key, "pub.key", "priv.key")
        (tmp_path / "o.bin").write_bytes(b"genuine named content")
        cli.main(["publish", "o.bin", "--name", "docs/tamper", "--key", "pub.key,priv.key"])
        url = capsys.readouterr().out.strip()
        (named,) = [r for r in pack_records(".xcache-store") if r.xid.xtype is XidType.NCID]
        flip_disk_entry(".xcache-store", named.xid, -3)  # corrupt a payload byte in place
        assert cli.main(["fetch", url, "--out", "f.bin"]) == cli.EX_VERIFY
        assert "signature-invalid" in capsys.readouterr().err
        assert not (tmp_path / "f.bin").exists()

    def test_publish_with_key_files_of_two_keys_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        one = PublisherKey.generate(rng=random.Random(75))
        two = PublisherKey.generate(rng=random.Random(76))
        cli.save_key_files(one, "one.pub", "one.priv")
        cli.save_key_files(two, "two.pub", "two.priv")
        (tmp_path / "page.bin").write_bytes(b"page")
        code = cli.main(["publish", "page.bin", "--name", "a/page", "--key", "one.pub,two.priv"])
        assert code == cli.EX_USAGE
        assert "does not match" in capsys.readouterr().err
        assert pack_records(tmp_path / ".xcache-store") == []

    def test_publish_oversize_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "xc.conf"
        cfg.write_text("max_payload = 64\ndisk_dir = .xcache-store\ndisk_capacity_chunks = 16\n")
        big = tmp_path / "big.bin"
        big.write_bytes(b"z" * 100)
        assert cli.main(["--config", str(cfg), "publish", str(big)]) == cli.EX_PUBLISH

    def test_named_publish_and_fetch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        key = PublisherKey.generate(rng=random.Random(70))
        cli.save_key_files(key, "pub.key", "priv.key")
        (tmp_path / "page.bin").write_bytes(b"rendered page")
        code = cli.main(
            [
                "publish",
                "page.bin",
                "--name",
                "content.facebook.com",
                "--locator",
                "UserAgent=Android",
                "--key",
                "pub.key,priv.key",
            ]
        )
        assert code == 0
        url = capsys.readouterr().out.strip()
        assert url.startswith("ncid://")
        assert cli.main(["fetch", url, "--out", "page.out"]) == 0
        assert (tmp_path / "page.out").read_bytes() == b"rendered page"

    def test_fetch_with_explicit_cert_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        key = PublisherKey.generate(rng=random.Random(73))
        cli.save_key_files(key, "pub.key", "priv.key")
        (tmp_path / "doc.bin").write_bytes(b"certified doc")
        cli.main(["publish", "doc.bin", "--name", "docs/one", "--key", "pub.key,priv.key"])
        url = capsys.readouterr().out.strip()
        # strip the embedded certificate locator; pass it explicitly
        from xcache.urls import NcidUrl, parse_ncid_url, serialize_ncid_url

        parsed = parse_ncid_url(url)
        cert = parsed.locator("PubCert")
        bare = serialize_ncid_url(
            NcidUrl(parsed.address, tuple(p for p in parsed.locators if p[0] != "PubCert"))
        )
        assert cli.main(["fetch", bare, "--cert", cert, "--out", "doc.out"]) == 0
        assert (tmp_path / "doc.out").read_bytes() == b"certified doc"
        # and with no certificate source at all: usage error
        assert cli.main(["fetch", bare, "--out", "doc2.out"]) == cli.EX_USAGE

    def test_fetch_with_a_non_content_certificate_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fetch", "ncid://doc/", "--cert", "sid://0/SID-abc"]) == cli.EX_USAGE
        assert "fetch: certificate address must point at" in capsys.readouterr().err

    def test_fetch_of_a_non_content_url_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["fetch", "sid://1,0/AD-a,1/SID-x"]) == cli.EX_USAGE
        assert capsys.readouterr().err == "fetch: cannot fetch a SID intent\n"

    def test_key_file_round_trip(self, tmp_path):
        key = PublisherKey.generate(rng=random.Random(71))
        cli.save_key_files(key, tmp_path / "k.pub", tmp_path / "k.priv")
        loaded = cli.load_publisher_key(tmp_path / "k.pub", tmp_path / "k.priv")
        assert loaded == key
        with pytest.raises(ValueError):
            cli.load_public_key(tmp_path / "k.priv")


FIG_DESCRIPTION = """
source -> CID-C, AD-B
AD-B -> HID-P
HID-P -> CID-C
"""


class TestCliUrl:
    def test_encode_description(self, tmp_path, capsys):
        desc = tmp_path / "dag.txt"
        desc.write_text(FIG_DESCRIPTION)
        assert cli.main(["url", "encode", str(desc)]) == 0
        assert capsys.readouterr().out.strip() == "cid://2,0/AD-B,1/HID-P,2/CID-C"

    def test_decode_then_encode_is_identity(self, tmp_path, capsys):
        url = "cid://2,0/AD-B,1/HID-P,2/CID-C"
        assert cli.main(["url", "decode", url]) == 0
        description = capsys.readouterr().out
        desc = tmp_path / "roundtrip.txt"
        desc.write_text(description)
        assert cli.main(["url", "encode", str(desc)]) == 0
        assert capsys.readouterr().out.strip() == url

    def test_ncid_digest_matches_library(self, tmp_path, capsys):
        key = PublisherKey.generate(rng=random.Random(72))
        cli.save_key_files(key, tmp_path / "k.pub", tmp_path / "k.priv")
        assert cli.main(["url", "ncid", "fb.com/cmu", str(tmp_path / "k.pub")]) == 0
        digest = capsys.readouterr().out.strip()
        expected = compute_ncid("fb.com/cmu", fingerprint(key.public)).value.hex()
        assert digest == expected

    def test_parse_error_exits_2_with_position(self, capsys):
        assert cli.main(["url", "decode", "cid://9/CID-C"]) == cli.EX_USAGE
        err = capsys.readouterr().err
        assert "offset" in err

    def test_bad_description_exits_2(self, tmp_path, capsys):
        desc = tmp_path / "bad.txt"
        desc.write_text("this is not an edge list\n")
        assert cli.main(["url", "encode", str(desc)]) == cli.EX_USAGE

package config

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"sdx/internal/core"
	"sdx/internal/routeserver"
)

const sample = `{
  "localAS": 65000,
  "routerID": "10.0.0.100",
  "vnhPool": "172.16.0.0/12",
  "participants": [
    {
      "id": "A", "as": 65001,
      "ports": [{"number": 1, "mac": "02:0a:00:00:00:01", "routerIP": "172.31.0.1"}],
      "outbound": [
        {"match": {"dstport": 80}, "fwdTo": "B"},
        {"match": {"dstport": 443}, "fwdTo": "C"}
      ]
    },
    {
      "id": "B", "as": 65002,
      "ports": [
        {"number": 2, "mac": "02:0b:00:00:00:01", "routerIP": "172.31.0.2"},
        {"number": 3, "mac": "02:0b:00:00:00:02", "routerIP": "172.31.0.3"}
      ],
      "inbound": [
        {"match": {"srcip": "0.0.0.0/1"}, "deliver": 2},
        {"match": {"srcip": "128.0.0.0/1"}, "deliver": 3}
      ]
    },
    {
      "id": "C", "as": 65003,
      "ports": [{"number": 4, "mac": "02:0c:00:00:00:01", "routerIP": "172.31.0.4"}]
    },
    {
      "id": "D", "as": 65004,
      "owns": ["74.125.1.0/24"],
      "inbound": [
        {"match": {"dstip": "74.125.1.1/32"},
         "mod": {"dstip": "74.125.224.161"}, "deliverVia": "B"}
      ]
    }
  ]
}`

func TestParseAndApply(t *testing.T) {
	f, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.LocalAS != 65000 || len(f.Participants) != 4 {
		t.Fatalf("parsed %+v", f)
	}
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := f.Apply(ctrl); err != nil {
		t.Fatal(err)
	}
	if got := len(ctrl.Participants()); got != 4 {
		t.Errorf("registered %d participants", got)
	}
	a, _ := ctrl.Participant("A")
	if a.Outbound == nil || a.Inbound != nil {
		t.Error("A should have an outbound policy only")
	}
	b, _ := ctrl.Participant("B")
	if b.Inbound == nil || len(b.Ports) != 2 {
		t.Errorf("B = %+v", b)
	}
	d, _ := ctrl.Participant("D")
	if d.Inbound == nil || len(d.Ports) != 0 {
		t.Error("D should be a remote participant with an inbound policy")
	}

	owns := f.Ownership()
	if len(owns["D"]) != 1 || owns["D"][0] != netip.MustParsePrefix("74.125.1.0/24") {
		t.Errorf("ownership = %v", owns)
	}

	// The applied config must compile.
	if _, err := ctrl.Compile(); err != nil {
		t.Fatal(err)
	}
}

// Branch references core would panic on at Apply; Parse must reject them.
// A branch may still name a participant declared after it.
const (
	fwdToUndeclared = `{"participants": [{"id": "A", "as": 1,
	  "ports": [{"number": 1, "mac": "02:00:00:00:00:01", "routerIP": "10.0.0.1"}],
	  "outbound": [{"match": {"dstport": 80}, "fwdTo": "NOPE"}]}]}`
	deliverUndeclaredPort = `{"participants": [{"id": "A", "as": 1,
	  "ports": [{"number": 1, "mac": "02:00:00:00:00:01", "routerIP": "10.0.0.1"}],
	  "inbound": [{"match": {}, "deliver": 9}]}]}`
	deliverViaUndeclared = `{"participants": [{"id": "A", "as": 1,
	  "inbound": [{"match": {}, "deliverVia": "NOPE"}]}]}`
	deliverViaPortless = `{"participants": [
	  {"id": "A", "as": 1, "inbound": [{"match": {}, "deliverVia": "B"}]},
	  {"id": "B", "as": 2}]}`
)

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad json", `{`},
		{"no participants", `{"participants": []}`},
		{"empty id", `{"participants": [{"id": "", "as": 1}]}`},
		{"duplicate id", `{"participants": [{"id": "A", "as": 1}, {"id": "A", "as": 2}]}`},
		{"bad mac", `{"participants": [{"id": "A", "as": 1,
			"ports": [{"number": 1, "mac": "zz", "routerIP": "10.0.0.1"}]}]}`},
		{"bad router ip", `{"participants": [{"id": "A", "as": 1,
			"ports": [{"number": 1, "mac": "02:00:00:00:00:01", "routerIP": "nope"}]}]}`},
		{"no action", `{"participants": [{"id": "A", "as": 1,
			"outbound": [{"match": {"dstport": 80}}]}]}`},
		{"two actions", `{"participants": [{"id": "A", "as": 1,
			"outbound": [{"match": {}, "fwdTo": "B", "deliver": 2}]}]}`},
		{"bad match prefix", `{"participants": [{"id": "A", "as": 1,
			"outbound": [{"match": {"dstip": "10.0.0.0"}, "fwdTo": "B"}]}]}`},
		{"bad mod ip", `{"participants": [{"id": "A", "as": 1,
			"inbound": [{"match": {}, "mod": {"dstip": "10.0.0.0/8"}, "deliver": 1}]}]}`},
		{"bad owns", `{"participants": [{"id": "A", "as": 1, "owns": ["x"]}]}`},
		{"bad routerID", `{"routerID": "zz", "participants": [{"id": "A", "as": 1}]}`},
		{"bad vnh pool", `{"vnhPool": "zz", "participants": [{"id": "A", "as": 1}]}`},
		{"ipv6 vnh pool", `{"vnhPool": "2001:db8::/64", "participants": [{"id": "A", "as": 1}]}`},
		{"vnh pool shorter than /8", `{"vnhPool": "10.0.0.0/7", "participants": [{"id": "A", "as": 1}]}`},
		{"fwdTo undeclared participant", fwdToUndeclared},
		{"deliver undeclared port", deliverUndeclaredPort},
		{"deliverVia undeclared participant", deliverViaUndeclared},
		{"deliverVia portless participant", deliverViaPortless},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// Branch matches, rewrites and group prefixes are installed as OpenFlow
// 1.0's 32-bit nw_src/nw_dst, so Parse rejects an IPv6 address or prefix in
// any of them, and the error names the field.
func TestParseRejectsIPv6(t *testing.T) {
	const port = `"ports": [{"number": 1, "mac": "02:00:00:00:00:01", "routerIP": "10.0.0.1"}]`
	cases := []struct {
		branch string
		want   string
	}{
		{`"outbound": [{"match": {"dstip": "2001:db8::/32"}, "fwdTo": "A"}]`, "dstip"},
		{`"outbound": [{"match": {"srcip": "::ffff:10.0.0.0/104"}, "fwdTo": "A"}]`, "srcip"},
		{`"inbound": [{"match": {}, "mod": {"dstip": "2001:db8::1"}, "deliver": 1}]`, "mod dstip"},
		{`"inbound": [{"match": {}, "mod": {"srcip": "::1"}, "deliver": 1}]`, "mod srcip"},
	}
	for _, c := range cases {
		doc := fmt.Sprintf(`{"participants": [{"id": "A", "as": 1, %s, %s}]}`, port, c.branch)
		_, err := Parse([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), c.want+": ") {
			t.Errorf("Parse(%s) = %v, want an error naming %s", c.branch, err, c.want)
		}
	}
	group := `{"participants": [{"id": "A", "as": 1}, {"id": "B", "as": 2}],
	  "groups": [{"name": "g", "prefix": "ff0e::/16", "members": ["A", "B"]}]}`
	if _, err := Parse([]byte(group)); err == nil || !strings.Contains(err.Error(), "prefix: ") {
		t.Errorf("Parse(IPv6 group) = %v, want an error naming the prefix", err)
	}
}

// An unknown forward target is a Parse error that names the reference, so
// it never reaches core, which panics on it.
func TestApplyUnknownFwdTarget(t *testing.T) {
	_, err := Parse([]byte(fwdToUndeclared))
	if err == nil || !strings.Contains(err.Error(), `"NOPE"`) {
		t.Fatalf("Parse = %v, want an error naming \"NOPE\"", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/sdx.json"); err == nil {
		t.Error("missing file should error")
	}
}

func TestExprPolicies(t *testing.T) {
	in := `{
	  "participants": [
	    {"id": "A", "as": 65001,
	     "ports": [{"number": 1, "mac": "02:0a:00:00:00:01", "routerIP": "172.31.0.1"}],
	     "outboundExpr": "(match(dstport=80) >> fwd(B)) + (match(dstport=443) >> fwd(C))"},
	    {"id": "B", "as": 65002,
	     "ports": [
	       {"number": 2, "mac": "02:0b:00:00:00:01", "routerIP": "172.31.0.2"},
	       {"number": 3, "mac": "02:0b:00:00:00:02", "routerIP": "172.31.0.3"}],
	     "inboundExpr": "(match(srcip=0.0.0.0/1) >> fwd(B1)) + (match(srcip=128.0.0.0/1) >> fwd(B2))"},
	    {"id": "C", "as": 65003,
	     "ports": [{"number": 4, "mac": "02:0c:00:00:00:01", "routerIP": "172.31.0.4"}]}
	  ]
	}`
	f, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := f.Apply(ctrl); err != nil {
		t.Fatal(err)
	}
	a, _ := ctrl.Participant("A")
	if a.Outbound == nil {
		t.Fatal("A's expression policy not installed")
	}
	bPart, _ := ctrl.Participant("B")
	if bPart.Inbound == nil {
		t.Fatal("B's expression policy not installed")
	}
	if _, err := ctrl.Compile(); err != nil {
		t.Fatal(err)
	}
}

func TestExprPolicyErrors(t *testing.T) {
	base := `{"participants": [{"id": "A", "as": 1,
	  "ports": [{"number": 1, "mac": "02:00:00:00:00:01", "routerIP": "10.0.0.1"}],
	  %s}]}`
	// Both forms at once.
	both := `"outbound": [{"match": {"dstport": 80}, "fwdTo": "A"}],
	  "outboundExpr": "match(dstport=80) >> fwd(A)"`
	if _, err := Parse([]byte(fmt.Sprintf(base, both))); err == nil {
		t.Error("both branch and expression forms should be rejected")
	}
	// Bad expression surfaces at Apply.
	bad := `"outboundExpr": "match(dstport=80) >> fwd(NOPE)"`
	f, err := Parse([]byte(fmt.Sprintf(base, bad)))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := core.NewController(routeserver.New(nil), core.DefaultOptions())
	if err := f.Apply(ctrl); err == nil {
		t.Error("unknown fwd name in expression should fail Apply")
	}
}

// FuzzParse drives every document Parse accepts through the daemon's
// start-up sequence. Any step may return an error; none may panic.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{sample, fwdToUndeclared, deliverUndeclaredPort, deliverViaUndeclared, deliverViaPortless} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, err := Parse(b)
		if err != nil {
			return
		}
		cfg.Ownership()
		ctrl := core.NewController(routeserver.New(nil), cfg.ControllerOptions())
		_ = cfg.Apply(ctrl)
		_, _ = ctrl.Compile()
	})
}

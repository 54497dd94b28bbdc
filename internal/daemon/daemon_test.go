package daemon

import (
	"context"
	"strings"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

const fig3Config = `
@app /usr/bin/skype {
	name : skype
	version : 210
	vendor : skype.com
	type : voip
	requirements : \
		pass from any port http \
		with eq(@src[name], skype) \
		pass from any port https \
		with eq(@src[name], skype)
	req-sig : 21oirw3eda
}
`

func newHostWithSkype(t *testing.T) (*hostinfo.Host, *Daemon, flow.Five) {
	t.Helper()
	h := hostinfo.New("pc1", netaddr.MustParseIP("10.0.0.1"), netaddr.MustParseMAC("02:00:00:00:00:01"))
	alice := h.AddUser("alice", "users", "staff")
	p := h.Exec(alice, hostinfo.Executable{
		Path: "/usr/bin/skype", Name: "skype", Version: "210", Vendor: "skype.com", Type: "voip",
	})
	f, err := h.Connect(p.PID, flow.Five{
		DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := New(h)
	cf, err := ParseConfig("50-skype.conf", fig3Config)
	if err != nil {
		t.Fatal(err)
	}
	d.InstallConfig(cf, true)
	return h, d, f
}

func TestParseConfigFigure3(t *testing.T) {
	cf, err := ParseConfig("fig3", fig3Config)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Apps) != 1 {
		t.Fatalf("apps = %d", len(cf.Apps))
	}
	app := cf.Apps[0]
	if app.Path != "/usr/bin/skype" {
		t.Errorf("path = %q", app.Path)
	}
	if v, _ := app.Get("name"); v != "skype" {
		t.Errorf("name = %q", v)
	}
	if v, _ := app.Get("version"); v != "210" {
		t.Errorf("version = %q", v)
	}
	req, ok := app.Get("requirements")
	if !ok {
		t.Fatal("no requirements")
	}
	// Continuations joined into one logical value containing both rules.
	if !strings.Contains(req, "pass from any port http") ||
		!strings.Contains(req, "pass from any port https") {
		t.Errorf("requirements = %q", req)
	}
	if strings.Contains(req, "\\") || strings.Contains(req, "\n") {
		t.Errorf("continuation chars leaked: %q", req)
	}
	if v, _ := app.Get("req-sig"); v != "21oirw3eda" {
		t.Errorf("req-sig = %q", v)
	}
}

func TestParseConfigHostPairsAndComments(t *testing.T) {
	cf, err := ParseConfig("t", `
# a comment
site : bldg-4
@app /bin/x {
	name : x
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.HostPairs) != 1 || cf.HostPairs[0].Key != "site" || cf.HostPairs[0].Value != "bldg-4" {
		t.Errorf("host pairs = %v", cf.HostPairs)
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"@app {",                       // missing path
		"@app /bin/x",                  // missing brace
		"@app /bin/x {\nname : x\n",    // unterminated
		"}",                            // unmatched
		"@app /bin/x {\n@app /bin/y {", // nested
		"justaword",                    // no colon
	} {
		if _, err := ParseConfig("bad", bad); err == nil {
			t.Errorf("ParseConfig(%q) should fail", bad)
		}
	}
}

func TestHandleQuerySourceRole(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	resp := d.HandleQuery(wire.Query{Flow: f, Keys: []string{wire.KeyUserID, wire.KeyName}})
	for key, want := range map[string]string{
		wire.KeyUserID:  "alice",
		wire.KeyGroupID: "users staff",
		wire.KeyName:    "skype",
		wire.KeyAppName: "skype",
		wire.KeyVersion: "210",
		wire.KeyVendor:  "skype.com",
		wire.KeyType:    "voip",
		wire.KeyHost:    "pc1",
	} {
		if v, ok := resp.Latest(key); !ok || v != want {
			t.Errorf("%s = %q (ok=%v), want %q", key, v, ok, want)
		}
	}
	// Config-only keys are present.
	if req, ok := resp.Latest(wire.KeyRequirements); !ok || !strings.Contains(req, "pass from any port http") {
		t.Errorf("requirements = %q", req)
	}
	// exe-hash is the kernel-derived hash.
	wantHash := hostinfo.Executable{Path: "/usr/bin/skype", Version: "210", Vendor: "skype.com"}.Hash()
	if v, _ := resp.Latest(wire.KeyExeHash); v != wantHash {
		t.Errorf("exe-hash = %q, want %q", v, wantHash)
	}
}

func TestHandleQueryDestinationRole(t *testing.T) {
	h := hostinfo.New("srv", netaddr.MustParseIP("192.168.1.1"), netaddr.MustParseMAC("02:00:00:00:00:02"))
	smtpUser := h.AddSystemUser("smtp")
	p := h.Exec(smtpUser, hostinfo.Executable{Path: "/usr/sbin/smtpd", Name: "smtpd", Version: "2"})
	if err := h.Listen(p.PID, netaddr.ProtoTCP, 25); err != nil {
		t.Fatal(err)
	}
	d := New(h)
	f := flow.Five{
		SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: h.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 50000, DstPort: 25,
	}
	resp := d.HandleQuery(wire.Query{Flow: f})
	if v, _ := resp.Latest(wire.KeyUserID); v != "smtp" {
		t.Errorf("dst userID = %q, want smtp (Figure 2's smtp receiver check)", v)
	}
}

func TestHandleQueryUnknownFlow(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	g := f
	g.DstPort++ // no such connection
	resp := d.HandleQuery(wire.Query{Flow: g})
	if v, ok := resp.Latest(wire.KeyError); !ok || v != "NO-USER" {
		t.Errorf("error = %q (ok=%v), want NO-USER", v, ok)
	}
	if _, ok := resp.Latest(wire.KeyUserID); ok {
		t.Error("unknown flow must not leak a userID")
	}
}

func TestKernelSectionOverridesConfigLies(t *testing.T) {
	h := hostinfo.New("pc1", netaddr.MustParseIP("10.0.0.1"), netaddr.MustParseMAC("02:00:00:00:00:01"))
	mallory := h.AddUser("mallory", "users")
	p := h.Exec(mallory, hostinfo.Executable{Path: "/home/mallory/evil", Name: "evil", Version: "666"})
	f, _ := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 80})
	d := New(h)
	// Mallory writes a user config claiming the binary is skype owned by root.
	cf, err := ParseConfig("user", `
@app /home/mallory/evil {
	name : skype
	userID : root
	version : 210
}
`)
	if err != nil {
		t.Fatal(err)
	}
	d.InstallConfig(cf, false)
	resp := d.HandleQuery(wire.Query{Flow: f})
	// Latest wins, and the kernel-derived section is last: the lie loses.
	if v, _ := resp.Latest(wire.KeyUserID); v != "mallory" {
		t.Errorf("userID = %q; user config must not override kernel truth", v)
	}
	if v, _ := resp.Latest(wire.KeyName); v != "evil" {
		t.Errorf("name = %q; user config must not override kernel truth", v)
	}
	// The lie is still visible in the chain for auditing.
	if chain, _ := resp.Concat(wire.KeyName); !strings.Contains(chain, "skype") {
		t.Errorf("concat should expose the claimed name: %q", chain)
	}
}

func TestDynamicFlowPairs(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	d.ProvideFlowPairs(f, wire.KV{Key: "user-initiated", Value: "true"})
	resp := d.HandleQuery(wire.Query{Flow: f})
	if v, ok := resp.Latest("user-initiated"); !ok || v != "true" {
		t.Errorf("dynamic pair = %q (ok=%v)", v, ok)
	}
	d.ClearFlowPairs(f)
	resp2 := d.HandleQuery(wire.Query{Flow: f})
	if _, ok := resp2.Latest("user-initiated"); ok {
		t.Error("cleared dynamic pair still present")
	}
}

func TestDynamicPairsCannotOverrideKernel(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	d.ProvideFlowPairs(f, wire.KV{Key: wire.KeyUserID, Value: "root"})
	resp := d.HandleQuery(wire.Query{Flow: f})
	if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
		t.Errorf("userID = %q; application pairs must not override kernel section", v)
	}
}

func TestForgeHook(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	d.SetForge(func(q wire.Query, honest *wire.Response) *wire.Response {
		r := wire.NewResponse(q.Flow)
		r.Add(wire.KeyUserID, "root")
		r.Add(wire.KeyName, "sshd")
		return r
	})
	resp := d.HandleQuery(wire.Query{Flow: f})
	if v, _ := resp.Latest(wire.KeyUserID); v != "root" {
		t.Errorf("forged userID = %q", v)
	}
	d.SetForge(nil)
	resp2 := d.HandleQuery(wire.Query{Flow: f})
	if v, _ := resp2.Latest(wire.KeyUserID); v != "alice" {
		t.Error("removing forge hook did not restore honesty")
	}
}

func TestServerQueryOverTCP(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := Query(ctx, addr.String(), wire.Query{Flow: f, Keys: []string{wire.KeyUserID}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
		t.Errorf("TCP userID = %q", v)
	}
	if resp.Flow != f {
		t.Errorf("TCP response flow = %v", resp.Flow)
	}
}

func TestServerMultipleQueriesPerConnectionAndClients(t *testing.T) {
	_, d, f := newHostWithSkype(t)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 4)
	for c := 0; c < 4; c++ {
		go func() {
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				resp, err := Query(ctx, addr.String(), wire.Query{Flow: f})
				cancel()
				if err != nil {
					done <- err
					return
				}
				if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
					done <- context.DeadlineExceeded
					return
				}
			}
			done <- nil
		}()
	}
	for c := 0; c < 4; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	_, d, _ := newHostWithSkype(t)
	srv := NewServer(d)
	srv.ReadTimeout = 200 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A client speaking a wrong protocol gets disconnected, and the server
	// keeps serving honest clients.
	conn, err := netDial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered a garbage request")
	}
	conn.Close()
}

func TestQueryContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Query(ctx, "127.0.0.1:1", wire.Query{})
	if err == nil {
		t.Error("cancelled query should fail")
	}
}

func TestLoadConfigFSOrdering(t *testing.T) {
	fsys := testFS{
		"10-a.conf": "@app /bin/x {\n\tname : first\n}\n",
		"20-b.conf": "@app /bin/x {\n\tname : second\n}\n",
	}
	cf, err := LoadConfigFS(fsys, ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.Apps) != 2 || cf.Apps[0].Get1("name") != "first" || cf.Apps[1].Get1("name") != "second" {
		t.Fatalf("apps out of order: %+v", cf.Apps)
	}
	// Later install wins for the same path.
	h := hostinfo.New("pc", netaddr.MustParseIP("10.0.0.1"), 1)
	u := h.AddUser("u")
	p := h.Exec(u, hostinfo.Executable{Path: "/bin/x"})
	f, _ := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 80})
	d := New(h)
	d.InstallConfig(cf, true)
	resp := d.HandleQuery(wire.Query{Flow: f})
	// Kernel name is path basename "x"; config "second" is in an earlier
	// section. Check the config value via Concat ordering instead.
	chain, _ := resp.Concat(wire.KeyName)
	if !strings.HasPrefix(chain, "second") {
		t.Errorf("config chain = %q, want the 20-b.conf value first", chain)
	}
}

// Get1 is a test helper: Get that drops the ok.
func (a *AppConfig) Get1(key string) string {
	v, _ := a.Get(key)
	return v
}

func BenchmarkHandleQuery(b *testing.B) {
	h := hostinfo.New("pc1", netaddr.MustParseIP("10.0.0.1"), 1)
	alice := h.AddUser("alice", "users")
	p := h.Exec(alice, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	f, _ := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.0.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060})
	d := New(h)
	cf, _ := ParseConfig("c", fig3Config)
	d.InstallConfig(cf, true)
	q := wire.Query{Flow: f}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := d.HandleQuery(q); len(resp.Sections) == 0 {
			b.Fatal("empty response")
		}
	}
}

package query

import (
	"errors"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// TestEngineRecoveryAfterServerRestart: a daemon goes down, queries through
// pool+engine fail with ErrNoDaemon — the first dial refused, the rest from
// the pool's backoff window — and once the server restarts on the same
// address the engine serves the host again as soon as that window passes,
// with no update handler installed: nothing above the pool remembers the
// failure.
func TestEngineRecoveryAfterServerRestart(t *testing.T) {
	host, addr, srv := startDaemon(t, "pc", "10.0.0.77")
	srv.Close() // daemon down; the address stays reserved for the restart

	p := NewPool(PoolConfig{Resolver: StaticResolver{host: addr}})
	defer p.Close()
	e := NewEngine(Config{Lower: p})
	defer e.Close()

	q := wire.Query{Flow: testFlow(host, 3000), Keys: []string{wire.KeyHost}}
	for i := 0; i < 3; i++ {
		if _, _, err := e.Query(host, q); !errors.Is(err, core.ErrNoDaemon) {
			t.Fatalf("down query %d: err = %v, want ErrNoDaemon", i, err)
		}
	}
	if d, ff := p.Counters.Get("pool_dial_errors"), p.Counters.Get("pool_dial_backoff_fastfails"); d != 1 || ff != 2 {
		t.Fatalf("while down: %d dials failed, %d calls failed fast; want 1, 2", d, ff)
	}

	// Restart the daemon on the same address.
	hostIP := netaddr.MustParseIP("10.0.0.77")
	h := hostinfo.New("pc", hostIP, netaddr.MAC(1))
	d := daemon.New(h)
	d.InstallConfig(&daemon.ConfigFile{HostPairs: []wire.KV{{Key: wire.KeyHost, Value: "pc"}}}, true)
	srv2 := daemon.NewServer(d)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	// One failed dial opened one window; the first query past it redials
	// and is answered. 2 s is the longest window a Pipe ever opens.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err := e.Query(host, q)
		if err == nil {
			break
		}
		if !errors.Is(err, core.ErrNoDaemon) || time.Now().After(deadline) {
			t.Fatalf("restarted daemon not served within one backoff window: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := p.Counters.Get("pool_dial_errors"); d != 1 {
		t.Errorf("pool_dial_errors = %d, want 1 (the redial after the window succeeds)", d)
	}
}

package core

import (
	"testing"
	"time"

	"identxx/internal/pf"
)

// TestCookieLayout pins the cookie layout on what a controller actually
// installs: an uncached verdict's entries carry an odd cookie and a cached
// one's an even cookie, both under the installer tag of the controller's
// name; distinct names get distinct tags, and a second controller of one
// name — a restart — gets the same tag, which is what lets a survivor
// delete a departed replica's entries by name alone.
func TestCookieLayout(t *testing.T) {
	installed := func(name string, cacheTTL time.Duration) uint64 {
		t.Helper()
		dp := &fakeDatapath{id: 1}
		c := New(Config{
			Name:             name,
			Policy:           pf.MustCompile("rev", revPolicy),
			Transport:        skypeFacts(),
			Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
			InstallEntries:   true,
			ResponseCacheTTL: cacheTTL,
		})
		c.AddDatapath(dp)
		c.HandleEvent(sampleEvent(revFlow(45000), 1))
		dp.mu.Lock()
		defer dp.mu.Unlock()
		if len(dp.mods) != 1 || dp.mods[0].Delete {
			t.Fatalf("%s: mods = %+v, want one install", name, dp.mods)
		}
		return dp.mods[0].Cookie
	}
	names := []string{"A", "B", "r1", "r2", "identctl"}
	tags := make(map[uint64]string)
	for _, name := range names {
		tag := installerTag(name)
		if tag&^tagMask != 0 {
			t.Errorf("%s: tag %#x outside the tag bits", name, tag)
		}
		if other, ok := tags[tag]; ok {
			t.Errorf("names %s and %s share the tag %#x", other, name, tag)
		}
		tags[tag] = name
		flowCookie, classCookie := installed(name, 0), installed(name, time.Hour)
		if flowCookie&1 != 1 || classCookie&1 != 0 || classCookie&^tagMask == 0 {
			t.Errorf("%s: flow cookie %#x, class cookie %#x; want odd, and even and non-zero below the tag", name, flowCookie, classCookie)
		}
		for _, cookie := range []uint64{flowCookie, classCookie} {
			if cookie&tagMask != tag {
				t.Errorf("%s: cookie %#x does not carry the name's tag %#x", name, cookie, tag)
			}
		}
		if again := installed(name, time.Hour); again != classCookie {
			t.Errorf("%s: a second controller of the name installs under %#x, the first under %#x", name, again, classCookie)
		}
	}
}

//go:build race

package link

// raceEnabled reports that this binary was built with -race, which makes
// sync.Pool intentionally shed entries at random — allocation-count tests
// skip themselves under it.
const raceEnabled = true

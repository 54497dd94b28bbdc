//go:build !race

package link

// raceEnabled reports whether this binary was built with -race; see
// race_on_test.go.
const raceEnabled = false

package openflow

import "time"

// SetChannelTimeout replaces the channel deadline for the channels a test
// opens and returns what puts it back.
func SetChannelTimeout(d time.Duration) (restore func()) {
	old := channelTimeout
	channelTimeout = d
	return func() { channelTimeout = old }
}

package link

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sink is an io.Writer whose Writes can be held at a gate: while the gate is
// shut a Write announces itself on entered and waits.
type sink struct {
	mu      sync.Mutex
	writes  [][]byte
	gate    chan struct{} // nil = open
	entered chan struct{}
	err     error
}

func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	gate, err := s.gate, s.err
	s.mu.Unlock()
	if gate != nil {
		s.entered <- struct{}{}
		<-gate
	}
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.writes = append(s.writes, append([]byte(nil), p...))
	s.mu.Unlock()
	return len(p), nil
}

func (s *sink) all() (stream []byte, writes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return bytes.Join(s.writes, nil), len(s.writes)
}

// frame is sender(1) seq(4) len(2) payload, the payload filled with the
// sender's byte so a torn frame cannot pass for a whole one.
func appendFrame(b []byte, sender byte, seq uint32, n int) []byte {
	b = append(b, sender)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint16(b, uint16(n))
	return append(b, bytes.Repeat([]byte{sender}, n)...)
}

// checkStream parses frames and returns how many each sender got through,
// failing on a torn frame or one out of its sender's order.
func checkStream(t *testing.T, stream []byte) map[byte]uint32 {
	t.Helper()
	next := map[byte]uint32{}
	for len(stream) > 0 {
		if len(stream) < 7 {
			t.Fatalf("torn header: %d bytes left", len(stream))
		}
		sender, seq, n := stream[0], binary.BigEndian.Uint32(stream[1:5]), int(binary.BigEndian.Uint16(stream[5:7]))
		if len(stream) < 7+n {
			t.Fatalf("torn frame of sender %d", sender)
		}
		for _, c := range stream[7 : 7+n] {
			if c != sender {
				t.Fatalf("frame %d of sender %d holds another sender's bytes", seq, sender)
			}
		}
		if seq != next[sender] {
			t.Fatalf("sender %d: frame %d arrived where %d was due", sender, seq, next[sender])
		}
		next[sender]++
		stream = stream[7+n:]
	}
	return next
}

func send(w *Writer, mu *sync.Mutex, sender byte, seq uint32, n int) error {
	mu.Lock()
	defer mu.Unlock()
	if err := w.Reserve(); err != nil {
		return err
	}
	w.Buf = appendFrame(w.Buf, sender, seq, n)
	w.Flush()
	return nil
}

func stop(w *Writer, mu *sync.Mutex) {
	mu.Lock()
	w.Close(errors.New("test over"))
	mu.Unlock()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestWriterWholeFramesInSenderOrder(t *testing.T) {
	const senders, each = 8, 500
	var mu sync.Mutex
	s := &sink{}
	w := NewWriter(&mu, s, func(err error) { t.Errorf("fail(%v) on a healthy sink", err) })
	defer stop(w, &mu)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			for seq := uint32(0); seq < each; seq++ {
				if err := send(w, &mu, id, seq, int(id)*7+int(seq%13)); err != nil {
					t.Errorf("sender %d: %v", id, err)
					return
				}
			}
		}(byte(i))
	}
	wg.Wait()
	waitFor(t, "the last burst", func() bool {
		stream, _ := s.all()
		got := uint32(0)
		for _, n := range checkStream(t, stream) {
			got += n
		}
		return got == senders*each
	})
	if _, writes := s.all(); writes > senders*each {
		t.Errorf("%d writes for %d frames", writes, senders*each)
	}
}

// While one Write is in flight everything appended meanwhile goes out in the
// next one: a burst costs one Write however many frames it holds.
func TestWriterOneWritePerBurst(t *testing.T) {
	var mu sync.Mutex
	s := &sink{gate: make(chan struct{}), entered: make(chan struct{})}
	w := NewWriter(&mu, s, func(error) {})
	defer stop(w, &mu)
	send(w, &mu, 1, 0, 10)
	<-s.entered // the first frame's Write is in flight
	for seq := uint32(1); seq <= 100; seq++ {
		send(w, &mu, 1, seq, 10)
	}
	s.gate <- struct{}{}
	<-s.entered
	s.gate <- struct{}{}
	waitFor(t, "both writes", func() bool { _, n := s.all(); return n == 2 })
	stream, _ := s.all()
	if got := checkStream(t, stream)[1]; got != 101 {
		t.Fatalf("%d frames arrived, want 101", got)
	}
}

// A peer that stops reading bounds what is held: senders block once Bound
// bytes are pending, go on when the Write returns, and fail when the writer
// is closed under them.
func TestWriterBoundBlocksSenders(t *testing.T) {
	const senders, frame = 4, 1024 - 7
	var mu sync.Mutex
	s := &sink{gate: make(chan struct{}), entered: make(chan struct{})}
	w := NewWriter(&mu, s, func(error) {})
	send(w, &mu, 0, 0, frame)
	<-s.entered // stalled: one frame inside Write, nothing pending

	var sent atomic.Int64
	errs := make(chan error, senders)
	for i := 1; i <= senders; i++ {
		go func(id byte) {
			for seq := uint32(0); ; seq++ {
				if err := send(w, &mu, id, seq, frame); err != nil {
					errs <- err
					return
				}
				sent.Add(1)
			}
		}(byte(i))
	}
	// Frames are 1 KB, so exactly Bound/1 KB of them fit before Reserve blocks.
	const fit = Bound / 1024
	waitFor(t, "the bound", func() bool { return sent.Load() == fit })
	time.Sleep(50 * time.Millisecond)
	if n := sent.Load(); n != fit {
		t.Fatalf("%d frames appended past a stalled writer, want %d", n, fit)
	}
	mu.Lock()
	pending := len(w.Buf)
	mu.Unlock()
	if pending != Bound {
		t.Fatalf("%d bytes pending, want %d", pending, Bound)
	}

	// The stalled Write returns: the burst goes out and senders go on.
	s.gate <- struct{}{}
	<-s.entered
	waitFor(t, "senders to go on", func() bool { return sent.Load() > fit })

	// Closed while the next Write is stalled: everyone fails with the cause.
	cause := errors.New("peer gone")
	mu.Lock()
	w.Close(cause)
	mu.Unlock()
	for i := 0; i < senders; i++ {
		select {
		case err := <-errs:
			if err != cause {
				t.Fatalf("sender failed with %v, want %v", err, cause)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("sender still blocked after Close")
		}
	}
	close(s.gate)
}

func TestWriterFailedWriteClosesAndReports(t *testing.T) {
	var mu sync.Mutex
	boom := errors.New("boom")
	s := &sink{err: boom}
	failed := make(chan error, 2)
	w := NewWriter(&mu, s, func(err error) { failed <- err })
	send(w, &mu, 1, 0, 10)
	if err := <-failed; err != boom {
		t.Fatalf("fail(%v), want %v", err, boom)
	}
	if err := send(w, &mu, 1, 1, 10); err != boom {
		t.Fatalf("send after a failed write: %v, want %v", err, boom)
	}
	select {
	case err := <-failed:
		t.Fatalf("fail called twice (%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
}

// A buffer that one stall grew is not kept for the next burst.
func TestWriterDropsOvergrownBuffer(t *testing.T) {
	var mu sync.Mutex
	s := &sink{}
	w := NewWriter(&mu, s, func(error) {})
	defer stop(w, &mu)
	mu.Lock()
	w.Buf = append(w.Buf, make([]byte, 2*retain)...)
	w.Flush()
	mu.Unlock()
	waitFor(t, "the big write", func() bool { _, n := s.all(); return n == 1 })
	send(w, &mu, 1, 0, 10)
	waitFor(t, "the small write", func() bool { _, n := s.all(); return n == 2 })
	mu.Lock()
	defer mu.Unlock()
	if cap(w.Buf) > retain || cap(w.spare) > retain {
		t.Fatalf("kept %d and %d bytes of capacity, want at most %d each", cap(w.Buf), cap(w.spare), retain)
	}
}

func TestDeadlinedFailsAStalledWrite(t *testing.T) {
	a, b := net.Pipe() // unbuffered: a Write waits for the reader
	defer a.Close()
	defer b.Close()
	start := time.Now()
	_, err := Deadlined(a, 50*time.Millisecond).Write([]byte("x"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("write to a peer that never reads: %v, want a timeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timed out after %v", time.Since(start))
	}
	// The next Write gets a deadline of its own, not the expired one.
	go b.Read(make([]byte, 1))
	if _, err := Deadlined(a, time.Second).Write([]byte("y")); err != nil {
		t.Fatalf("write after an expired deadline: %v", err)
	}
}

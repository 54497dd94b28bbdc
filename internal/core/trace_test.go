package core

import (
	"slices"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// delayTransport answers like fakeTransport but stalls each query,
// making every decision "slow" by the recorder's threshold.
type delayTransport struct {
	delay time.Duration
	inner fakeTransport
}

func (d *delayTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	time.Sleep(d.delay)
	return d.inner.Query(host, q)
}

func (d *delayTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(d.Query(host, q))
}

// TestSlowDecisionCapturedAtRateZero: with sampling fully off
// (SampleEvery 0) the recorder must still retain any decision that
// crosses the slow threshold — the tail stays visible even when the
// operator traces nothing else.
func TestSlowDecisionCapturedAtRateZero(t *testing.T) {
	tr := &delayTransport{
		delay: 5 * time.Millisecond,
		inner: fakeTransport{responses: map[netaddr.IP]map[string]string{
			hostA: {"name": "skype"},
			hostB: {"name": "skype"},
		}},
	}
	rec := trace.New(trace.Config{SampleEvery: 0, SlowThreshold: time.Millisecond})
	c := New(Config{
		Name: "slowcap",
		Policy: pf.MustCompile("policy", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`),
		Transport: tr,
		Topology:  &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		Trace:     rec,
	})
	c.AddDatapath(&fakeDatapath{id: 1})

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))

	slow := rec.Slow()
	if len(slow) != 1 {
		t.Fatalf("Slow() returned %d traces, want 1", len(slow))
	}
	got := slow[0]
	if !got.Slow || got.Sampled {
		t.Errorf("trace slow=%t sampled=%t, want slow=true sampled=false", got.Slow, got.Sampled)
	}
	if got.Verdict != "pass" {
		t.Errorf("verdict = %q, want pass", got.Verdict)
	}
	if got.Elapsed < 5*time.Millisecond {
		t.Errorf("elapsed = %v, want >= the 5ms query delay", got.Elapsed)
	}
	var sawQuery, sawEval, sawInstall bool
	for _, e := range got.Events {
		switch e.Stage {
		case trace.StageQueryDone:
			sawQuery = true
		case trace.StageEval:
			sawEval = true
		case trace.StageInstall:
			sawInstall = true
		}
	}
	if !sawQuery || !sawEval || !sawInstall {
		t.Errorf("slow trace missing stages (query=%t eval=%t install=%t): %+v",
			sawQuery, sawEval, sawInstall, got.Events)
	}

	if got := rec.Counters.Get("trace_slow_captured"); got != 1 {
		t.Errorf("trace_slow_captured = %d, want 1", got)
	}
	if got := rec.Counters.Get("trace_sampled"); got != 0 {
		t.Errorf("trace_sampled = %d, want 0 at sample rate 0", got)
	}
}

// tracedFaceTransport has the traced-completion face itself and records the
// span pair as internal/query.Engine does, completing inline.
type tracedFaceTransport struct{ fakeTransport }

func (t *tracedFaceTransport) QueryAsyncTraced(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done func(*wire.Response, time.Duration, error)) {
	tb.Rec(trace.StageQueryEnqueue, ep, 0)
	resp, rtt, err := t.Query(host, q)
	if err != nil {
		ep |= trace.FlagErr
	}
	tb.Rec(trace.StageQueryDone, ep, int64(rtt))
	done(resp, rtt, err)
}

func (*tracedFaceTransport) Standing(netaddr.IP) Standing {
	return Standing{Authorized: true, Streaming: true}
}

// TestTransportShapesTraceAlike: whichever face New resolves the transport
// to — its own traced one, or QueryAsync through the self-tracing adapter —
// a decision's trace holds one enqueue/done pair per end, flagged with the
// end and the outcome.
func TestTransportShapesTraceAlike(t *testing.T) {
	responses := map[netaddr.IP]map[string]string{hostA: {"name": "skype"}} // hostB runs no daemon
	shapes := []struct {
		name string
		tr   QueryTransport
	}{
		{"traced face", &tracedFaceTransport{fakeTransport{responses: responses, rtt: time.Millisecond}}},
		{"3-argument async", &fakeTransport{responses: responses, rtt: time.Millisecond}},
	}
	type span struct {
		stage trace.Stage
		flags uint16
		arg   int64
	}
	want := []span{
		{trace.StageQueryEnqueue, trace.FlagSrc, 0},
		{trace.StageQueryDone, trace.FlagSrc, int64(time.Millisecond)},
		{trace.StageQueryEnqueue, trace.FlagDst, 0},
		{trace.StageQueryDone, trace.FlagDst | trace.FlagErr, int64(time.Millisecond)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rec := trace.New(trace.Config{SampleEvery: 1})
			c := New(Config{
				Name:      "shapes",
				Policy:    pf.MustCompile("policy", asyncPolicy),
				Transport: shape.tr,
				Topology:  &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
				Trace:     rec,
			})
			c.AddDatapath(&fakeDatapath{id: 1})
			c.HandleEvent(sampleEvent(flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 200}, 1))

			traces := rec.Traces()
			if len(traces) != 1 {
				t.Fatalf("retained traces = %d, want 1", len(traces))
			}
			var got []span
			for _, e := range traces[0].Events {
				if e.Stage == trace.StageQueryEnqueue || e.Stage == trace.StageQueryDone {
					got = append(got, span{e.Stage, e.Flags, e.Arg})
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("query spans = %v, want %v", got, want)
			}
		})
	}
}

// Package wire implements the ident++ query and response formats of §3.2 of
// the paper, the section semantics of §2/§3.4 (intercepting controllers
// append an empty-line-delimited section), and the @src/@dst dictionary view
// PF+=2 indexes (§3.3): plain lookup returns the latest value, `*`-lookup
// returns the concatenation across sections.
//
// A query payload is:
//
//	<PROTO> <SRC PORT> <DST PORT>
//	<key 0>
//	<key 1>
//	...
//
// and a response payload is:
//
//	<PROTO> <SRC PORT> <DST PORT>
//	<key 0>: <value 0>
//	...
//	<newline>
//	<key n>: <value n>
//	...
//
// The flow's IP addresses are not in the payload: the paper has the
// controller spoof the flow's destination IP as the query's source IP so the
// daemon recovers both addresses from the IP header (§3.2). The in-simulator
// transport does exactly that; for real TCP sockets (which cannot spoof)
// the Framed codec carries the two addresses in a fixed binary envelope.
package wire

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// Well-known keys (§2, §3.3 and the paper's figures). The list is open:
// "ident++ does not limit the types of key-value pairs possible".
const (
	KeyUserID       = "userID"
	KeyGroupID      = "groupID"
	KeyName         = "name"     // application name as set in daemon config
	KeyAppName      = "app-name" // alias used by verify() calls in Figures 5 and 7
	KeyExeHash      = "exe-hash"
	KeyVersion      = "version"
	KeyVendor       = "vendor"
	KeyType         = "type"
	KeyRequirements = "requirements"
	KeyReqSig       = "req-sig"
	KeyRuleMaker    = "rule-maker"
	KeyOSPatch      = "os-patch"
	KeyPID          = "pid"
	KeyHost         = "host"
	KeyError        = "error"
)

// MaxMessageSize bounds any single ident++ message. A daemon is reachable
// from the whole network; unbounded reads would be a trivial memory DoS.
const MaxMessageSize = 64 * 1024

// Query asks the ident++ daemon at one end of Flow for information. Keys
// are hints: "The list of keys in the query packet only provide a hint for
// what the controller needs. The response may contain additional unsolicited
// key-value pairs." (§3.2)
type Query struct {
	Flow flow.Five
	Keys []string

	// TraceID stitches the query to the controller decision that issued
	// it (internal/trace). 0 = untraced. On the wire it rides as a
	// `trace:<hex>` line after the key hints; a legacy decoder sees that
	// line as just another key hint — and since keys are only hints a
	// daemon is free to ignore (§3.2), old daemons interoperate untouched.
	TraceID uint64
}

// KV is one key-value pair in a response section. Keys may repeat within
// and across sections.
type KV struct {
	Key   string
	Value string
}

// Section is a run of key-value pairs from one source (user, application,
// local administrator, or an augmenting controller on the path). Sections
// are separated by empty lines on the wire; Source is local bookkeeping and
// never serialized.
type Section struct {
	Source string
	Pairs  []KV
}

// Get returns the last value for key within the section.
func (s *Section) Get(key string) (string, bool) {
	for i := len(s.Pairs) - 1; i >= 0; i-- {
		if s.Pairs[i].Key == key {
			return s.Pairs[i].Value, true
		}
	}
	return "", false
}

// Add appends a pair to the section.
func (s *Section) Add(key, value string) {
	s.Pairs = append(s.Pairs, KV{key, value})
}

// Response is an ident++ response: the flow it answers for and one or more
// sections of key-value pairs.
type Response struct {
	Flow     flow.Five
	Sections []Section
}

// NewResponse builds a response with one initial (possibly empty) section.
func NewResponse(f flow.Five) *Response {
	return &Response{Flow: f, Sections: []Section{{}}}
}

// Add appends a pair to the final section.
func (r *Response) Add(key, value string) {
	if len(r.Sections) == 0 {
		r.addSection("")
	}
	r.Sections[len(r.Sections)-1].Add(key, value)
}

// addSection appends an empty section, recycling a slot (and its Pairs
// backing array) left behind by Reset when one is available, so a pooled
// response rebuilds its sections without reallocating them.
func (r *Response) addSection(source string) *Section {
	if n := len(r.Sections); n < cap(r.Sections) {
		r.Sections = r.Sections[:n+1]
		s := &r.Sections[n]
		s.Source = source
		s.Pairs = s.Pairs[:0]
		return s
	}
	r.Sections = append(r.Sections, Section{Source: source})
	return &r.Sections[len(r.Sections)-1]
}

// Augment starts a new section, modelling an intercepting controller that
// "adds an empty line to delineate the information it has added from that
// supplied by upstream firewalls" (§2). It returns the new section for
// population.
func (r *Response) Augment(source string) *Section {
	return r.addSection(source)
}

// Reset clears the response for reuse while keeping the section and pair
// capacity it has grown, so a recycled response populates without
// reallocating. Pair values are zeroed first: a pooled response must not
// pin the strings of the flow it last described.
func (r *Response) Reset(f flow.Five) {
	full := r.Sections[:cap(r.Sections)]
	for i := range full {
		s := &full[i]
		s.Source = ""
		kept := s.Pairs[:cap(s.Pairs)]
		for j := range kept {
			kept[j] = KV{}
		}
		s.Pairs = s.Pairs[:0]
	}
	r.Sections = r.Sections[:0]
	r.Flow = f
}

// Latest returns the most recent value for key: sections are scanned from
// last to first. "indexing the dictionaries will give the latest value
// added to the response. The latest value is the most trusted (though not
// necessarily the most trustworthy)" (§3.3).
func (r *Response) Latest(key string) (string, bool) {
	for i := len(r.Sections) - 1; i >= 0; i-- {
		if v, ok := r.Sections[i].Get(key); ok {
			return v, true
		}
	}
	return "", false
}

// ConcatSeparator joins values in Concat. A comma cannot appear in a single
// endorsement token by convention, so equality checks over the joined chain
// are unambiguous.
const ConcatSeparator = ","

// Concat returns every value recorded for key in section order, joined with
// ConcatSeparator. This backs the `*@src[key]` accessor: "returns a
// concatenation of the values in all sections of the response packet" used
// to check endorsement chains (§3.3).
func (r *Response) Concat(key string) (string, bool) {
	var vals []string
	for _, s := range r.Sections {
		for _, p := range s.Pairs {
			if p.Key == key {
				vals = append(vals, p.Value)
			}
		}
	}
	if len(vals) == 0 {
		return "", false
	}
	return strings.Join(vals, ConcatSeparator), true
}

// Keys returns the distinct keys present anywhere in the response, in first-
// appearance order.
func (r *Response) Keys() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range r.Sections {
		for _, p := range s.Pairs {
			if !seen[p.Key] {
				seen[p.Key] = true
				out = append(out, p.Key)
			}
		}
	}
	return out
}

// Clone deep-copies the response so an intercepting controller can augment
// without aliasing the cached original.
func (r *Response) Clone() *Response {
	c := &Response{Flow: r.Flow, Sections: make([]Section, len(r.Sections))}
	for i, s := range r.Sections {
		c.Sections[i] = Section{Source: s.Source, Pairs: append([]KV(nil), s.Pairs...)}
	}
	return c
}

// sanitizeValue strips bytes that would corrupt the line-oriented format.
// Values are single logical lines; daemon config files join continuation
// lines before the value ever reaches the wire.
func sanitizeValue(v string) string {
	if strings.IndexByte(v, '\r') < 0 && strings.IndexByte(v, '\n') < 0 {
		return v
	}
	v = strings.ReplaceAll(v, "\r\n", " ")
	v = strings.ReplaceAll(v, "\n", " ")
	return strings.ReplaceAll(v, "\r", " ")
}

// traceLinePrefix marks the query line carrying the decision trace ID.
// It is deliberately shaped like a key hint so legacy decoders pass it
// through harmlessly (see Query.TraceID).
const traceLinePrefix = "trace:"

// EncodeQuery renders the §3.2 query payload.
func EncodeQuery(q Query) []byte { return appendQuery(nil, q) }

func appendQuery(b []byte, q Query) []byte {
	b = appendTupleLine(b, q.Flow)
	for _, k := range q.Keys {
		b = append(b, strings.TrimSpace(k)...)
		b = append(b, '\n')
	}
	if q.TraceID != 0 {
		// %016x by hand: the trace line is written once per traced query.
		b = append(b, traceLinePrefix...)
		for shift := 60; shift >= 0; shift -= 4 {
			b = append(b, "0123456789abcdef"[q.TraceID>>shift&0xf])
		}
		b = append(b, '\n')
	}
	return b
}

// appendTupleLine renders the "<PROTO> <SRC PORT> <DST PORT>" line every
// payload starts with.
func appendTupleLine(b []byte, f flow.Five) []byte {
	b = strconv.AppendUint(b, uint64(f.Proto), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(f.SrcPort), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(f.DstPort), 10)
	return append(b, '\n')
}

// DecodeQuery parses a query payload. The flow's IP addresses come from the
// transport (the IP header in the simulator, the framed envelope over TCP).
func DecodeQuery(payload []byte, srcIP, dstIP netaddr.IP) (Query, error) {
	// One copy of the payload backs every key; lines are cut from it in
	// place rather than split into a slice first.
	first, rest, more := strings.Cut(string(payload), "\n")
	if strings.TrimSpace(first) == "" {
		return Query{}, fmt.Errorf("wire: empty query")
	}
	f, err := parseTupleLine(first)
	if err != nil {
		return Query{}, err
	}
	f.SrcIP, f.DstIP = srcIP, dstIP
	q := Query{Flow: f}
	for more {
		var l string
		l, rest, more = strings.Cut(rest, "\n")
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		if q.TraceID == 0 {
			if id, ok := parseTraceLine(l); ok {
				q.TraceID = id
				continue
			}
		}
		if q.Keys == nil {
			// A key per remaining line at most: one array, no regrowth.
			q.Keys = make([]string, 0, strings.Count(rest, "\n")+2)
		}
		q.Keys = append(q.Keys, l)
	}
	return q, nil
}

// traceLineLen is the length of the one line shape parseTraceLine accepts.
const traceLineLen = len(traceLinePrefix) + 16

// parseTraceLine returns the trace ID a trimmed query line carries. Only the
// exact shape EncodeQuery emits (%016x, non-zero) is a trace line, and only
// the first one counts; anything else — shorter hex, a second trace line —
// degrades to a key hint rather than failing the query, so a legitimate hint
// that merely resembles a trace still reaches the daemon.
func parseTraceLine(l string) (uint64, bool) {
	hex, ok := strings.CutPrefix(l, traceLinePrefix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(hex, 16, 64)
	return id, err == nil && id != 0
}

// DecodeQueryHead is DecodeQuery for a responder that reads no key hints: it
// returns the query's flow and trace ID, and accepts and rejects exactly the
// payloads DecodeQuery does. It keeps nothing of payload and, for a payload
// whose tuple line is canonical, allocates nothing: the lines it converts to
// parse (the tuple line, a trace line) fit the compiler's stack buffer for
// conversions that do not escape.
func DecodeQueryHead(payload []byte, srcIP, dstIP netaddr.IP) (Query, error) {
	first, rest, more := bytes.Cut(payload, newline)
	if len(bytes.TrimSpace(first)) == 0 {
		return Query{}, fmt.Errorf("wire: empty query")
	}
	f, err := parseTupleLine(string(first))
	if err != nil {
		return Query{}, err
	}
	f.SrcIP, f.DstIP = srcIP, dstIP
	q := Query{Flow: f}
	for more {
		var l []byte
		l, rest, more = bytes.Cut(rest, newline)
		if l = bytes.TrimSpace(l); len(l) == traceLineLen {
			if id, ok := parseTraceLine(string(l)); ok {
				q.TraceID = id
				break
			}
		}
	}
	return q, nil
}

var newline = []byte{'\n'}

// EncodeResponse renders the §3.2 response payload with empty lines between
// sections. Leading/trailing empty sections are preserved structurally by
// emitting their separators, except that a single empty section encodes as a
// bare tuple line (a daemon with nothing to say).
func EncodeResponse(r *Response) []byte { return appendResponse(nil, r) }

func appendResponse(b []byte, r *Response) []byte {
	return AppendSections(appendTupleLine(b, r.Flow), r.Sections)
}

// AppendSections appends what a response payload holds after its tuple line:
// secs, rendered as EncodeResponse renders them. A responder whose sections
// are the same for many flows renders them once and frames them per flow with
// AppendResponseBody.
func AppendSections(b []byte, secs []Section) []byte {
	for i, s := range secs {
		if i > 0 {
			b = append(b, '\n')
		}
		for _, p := range s.Pairs {
			b = append(b, strings.TrimSpace(p.Key)...)
			b = append(b, ": "...)
			b = append(b, sanitizeValue(p.Value)...)
			b = append(b, '\n')
		}
	}
	return b
}

// DecodeResponse parses a response payload. IP addresses come from the
// transport, as with DecodeQuery.
func DecodeResponse(payload []byte, srcIP, dstIP netaddr.IP) (*Response, error) {
	if len(payload) > MaxMessageSize {
		return nil, fmt.Errorf("wire: response exceeds %d bytes", MaxMessageSize)
	}
	// One copy of the payload backs every key and value; lines are cut from
	// it in place rather than split into a slice first.
	first, rest, more := strings.Cut(string(payload), "\n")
	if strings.TrimSpace(first) == "" {
		return nil, fmt.Errorf("wire: empty response")
	}
	f, err := parseTupleLine(first)
	if err != nil {
		return nil, err
	}
	f.SrcIP, f.DstIP = srcIP, dstIP
	// The response, its first sections and its first pairs are one
	// allocation. One array backs the pairs of every section — the inline one
	// while it has room, then one sized for a pair per remaining line — each
	// section's share capped so that a later Add cannot run into the next
	// one's.
	a := &struct {
		r     Response
		secs  [2]Section
		pairs [8]KV
	}{}
	r := &a.r
	r.Flow, r.Sections = f, a.secs[:1]
	pairs := a.pairs[:0]
	start := 0     // pairs[start:] belong to the section being filled
	split := false // an empty line since the last pair: the next starts a section
	for more {
		var l string
		l, rest, more = strings.Cut(rest, "\n")
		colon := strings.IndexByte(l, ':')
		if colon < 0 {
			if strings.TrimSpace(l) == "" {
				// A run of empty lines is one separator, and trailing ones (a
				// final newline's artifacts) separate nothing.
				split = true
				continue
			}
			return nil, fmt.Errorf("wire: malformed pair %q", strings.TrimRight(l, "\r"))
		}
		key := strings.TrimSpace(l[:colon])
		// Canonicalize on the way in, exactly as EncodeResponse does on the
		// way out, so decode∘encode is stable: an embedded CR would
		// otherwise decode verbatim but re-encode as a space.
		val := sanitizeValue(strings.TrimSpace(l[colon+1:]))
		if key == "" {
			return nil, fmt.Errorf("wire: empty key in %q", strings.TrimRight(l, "\r"))
		}
		if split {
			start = closeSection(r, pairs, start)
			r.Sections = append(r.Sections, Section{})
			split = false
		}
		if len(pairs) == cap(pairs) {
			pairs = append(make([]KV, 0, len(pairs)+strings.Count(rest, "\n")+1), pairs...)
		}
		pairs = append(pairs, KV{key, val})
	}
	closeSection(r, pairs, start)
	return r, nil
}

// closeSection gives the last section of r the pairs from start on, capped,
// and returns where the next section's pairs start. A section without pairs
// keeps nil.
func closeSection(r *Response, pairs []KV, start int) int {
	if end := len(pairs); end > start {
		r.Sections[len(r.Sections)-1].Pairs = pairs[start:end:end]
		return end
	}
	return start
}

// parseTupleLine parses "<PROTO> <SRC PORT> <DST PORT>": three decimal
// fields separated, as strings.Fields separates them, by any Unicode white
// space, cut from the line in place. It keeps nothing of line — its errors
// quote a copy — so a caller may pass a string that aliases a reused buffer,
// or one converted from bytes without an allocation.
func parseTupleLine(line string) (flow.Five, error) {
	var f flow.Five
	var fields [4]string // a fourth is an error
	rest := line
	for i := range fields {
		fields[i], rest = nextField(rest)
	}
	if fields[2] == "" || fields[3] != "" {
		return f, fmt.Errorf("wire: malformed tuple line %q", strings.Clone(line))
	}
	proto, err := strconv.ParseUint(fields[0], 10, 8)
	if err != nil {
		return f, fmt.Errorf("wire: bad protocol in %q", strings.Clone(line))
	}
	sp, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return f, fmt.Errorf("wire: bad src port in %q", strings.Clone(line))
	}
	dp, err := strconv.ParseUint(fields[2], 10, 16)
	if err != nil {
		return f, fmt.Errorf("wire: bad dst port in %q", strings.Clone(line))
	}
	f.Proto = netaddr.Proto(proto)
	f.SrcPort = netaddr.Port(sp)
	f.DstPort = netaddr.Port(dp)
	return f, nil
}

// nextField cuts the first field from s, skipping the white space before it,
// and returns it with what follows it; "" when s holds none.
func nextField(s string) (field, rest string) {
	start := -1
	for i, r := range s {
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return s[start:i], s[i:]
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

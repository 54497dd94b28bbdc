package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The box this benchmark runs on changes speed under it. Code that misses
// its caches and code that switches between processes — which is most of what
// identctl, the daemons and the kernel between them do — runs 1.5 to 2 times
// slower for tenths of a second to seconds at a time while a neighbour of the
// guest contends for the core; each vCPU goes through these spells on its own
// schedule. Raw times and rates taken seconds apart therefore differ by a
// quarter and more with no change to the code (bench/README.md has the
// measurements).
//
// Three things make the figures repeat. Everything runs on one core at a
// time, so there is one speed to account for (cores.go). Before every slice
// of work a reference is timed on both cores the benchmark may use, and
// everything moves to the faster. And every slice's figure is divided by the
// reference's figure on either side of it — a rate by its rate, a latency
// by its round trip, CPU time by its CPU time — which cancels what the box
// was doing at that moment; the run reports the median of those ratios, scaled by the
// reference's figure on the undisturbed box (refSpeed) so that it still reads
// in microseconds and decisions per second.
//
// The reference is a null controller, which answers each request on a
// loopback socket with a canned reply and decides nothing. It shares nothing
// with the tree under test but the Go toolchain and the kernel: it speaks a
// wire of its own, below, and calls no package of identxx on either side. A
// change to a codec or to identctl's IO therefore moves a figure and never
// the thing it is divided by.

// roleEnv makes this binary (or its test binary) serve as the null
// controller.
const roleEnv = "IDENTXX_E2E_ROLE"

// The reference's wire: a fixed-size request, about as long as a packet-in,
// answered by a fixed-size reply, about as long as a flow-mod. The reply
// repeats the request's first echoKeyLen bytes (room for a sequence number
// and a 5-tuple), as a flow-mod repeats the buffer id and the tuple.
const (
	echoReqLen = 96
	echoRepLen = 80
	echoKeyLen = 17
)

// refSpeed is the null controller on the reference box, a 2-vCPU
// Firecracker guest on a 2.1 GHz Xeon, undisturbed: what a slice's ratio is
// scaled by.
var refSpeed = refSlice{echoPerSec: 160000, cpuPerEchoUs: 2.9, echoP50us: 14.5}

// refProbe is how long the reference runs at each of its two concurrencies
// for one reading.
const refProbe = 25 * time.Millisecond

// nullMain is the null controller: for every request, on any number of
// channels, the canned reply with the request's key copied in, in one write.
func nullMain() error {
	runtime.GOMAXPROCS(1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println("listening on", l.Addr())
	go func() { // exits when the benchmark closes the pipe or dies
		os.Stdin.Read(make([]byte, 1))
		os.Exit(0)
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 64<<10)
			var req [echoReqLen]byte
			var rep [echoRepLen]byte
			for {
				if _, err := io.ReadFull(br, req[:]); err != nil {
					return
				}
				copy(rep[:echoKeyLen], req[:echoKeyLen])
				if _, err := conn.Write(rep[:]); err != nil {
					return
				}
			}
		}()
	}
}

// reference is the benchmark's side of the null controller.
type reference struct {
	cmd   *exec.Cmd
	stdin io.Closer
	conns [nDatapaths]net.Conn
	rd    [nDatapaths]*bufio.Reader
}

// refSlice is one reading of the reference.
type refSlice struct {
	echoPerSec   float64 // satWindow requests outstanding on each of two channels
	cpuPerEchoUs float64 // the null controller's own CPU, then
	echoP50us    float64 // round trip with one request outstanding on one channel
}

// startReference starts the null controller and attaches two channels to
// it.
func startReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), roleEnv+"=null-controller")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil { // on this process's core: affinity is inherited
		return nil, err
	}
	ref := &reference{cmd: cmd, stdin: in}
	line, err := bufio.NewReader(out).ReadString('\n')
	_, addr, ok := strings.Cut(strings.TrimSpace(line), "listening on ")
	if err != nil || !ok {
		ref.close()
		return nil, fmt.Errorf("null controller printed no address: %q %v", line, err)
	}
	for d := range ref.conns {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			ref.close()
			return nil, err
		}
		ref.conns[d] = conn
		ref.rd[d] = bufio.NewReaderSize(conn, 64<<10)
	}
	return ref, nil
}

func (ref *reference) pid() int { return ref.cmd.Process.Pid }

func (ref *reference) close() {
	for _, c := range ref.conns {
		if c != nil {
			c.Close()
		}
	}
	ref.stdin.Close() // the null controller exits when its stdin closes
	ref.cmd.Wait()
}

// read times the reference at the two concurrencies the system under test is
// measured at: saturated, for the rate and the null controller's CPU per echo,
// and one request at a time, for the round trip.
func (ref *reference) read() (refSlice, error) {
	n, elapsed, cpu, _, err := ref.run(satWindow, nDatapaths)
	if err != nil {
		return refSlice{}, err
	}
	_, _, _, lat, err := ref.run(1, 1)
	slices.Sort(lat)
	return refSlice{
		echoPerSec:   ratio(float64(n), elapsed.Seconds()),
		cpuPerEchoUs: ratio(float64(cpu.Microseconds()), float64(n)),
		echoP50us:    percentile(lat, 0.5) / 1e3,
	}, err
}

// run keeps window requests outstanding on each of the first channels
// channels for refProbe. It returns how many echoes came back in how long,
// what CPU time they cost the null controller, and every round trip. Every
// reply is checked against the sequence number of the request it answers.
func (ref *reference) run(window, channels int) (n int64, elapsed, cpu time.Duration, lat []int64, err error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var echoes atomic.Int64
	var errs [nDatapaths]error
	var lats [nDatapaths][]int64
	cpu0 := processCPU(ref.pid())
	start := time.Now()
	for i := range ref.conns[:channels] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[i], errs[i] = ref.echo(i, window, &stop, &echoes)
		}()
	}
	time.Sleep(refProbe)
	n = echoes.Load()
	elapsed = time.Since(start)
	cpu = processCPU(ref.pid()) - cpu0
	stop.Store(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, nil, fmt.Errorf("null controller channel: %w", err)
		}
	}
	return n, elapsed, cpu, slices.Concat(lats[:]...), nil
}

// echo is one channel's closed loop: window requests out, and for each reply
// read the next request written, until stop; then the rest of the window is
// read back, so the channel is empty for the next reading.
func (ref *reference) echo(i, window int, stop *atomic.Bool, echoes *atomic.Int64) (lat []int64, err error) {
	conn, rd := ref.conns[i], ref.rd[i]
	sent := make([]time.Time, window) // ring: replies come back in order
	var req [echoReqLen]byte
	var rep [echoRepLen]byte
	burst := make([]byte, 0, window*echoReqLen)
	for k := 0; k < window; k++ {
		binary.BigEndian.PutUint32(req[:], uint32(k))
		burst = append(burst, req[:]...)
		sent[k] = time.Now()
	}
	if _, err := conn.Write(burst); err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		if _, err := io.ReadFull(rd, rep[:]); err != nil {
			return nil, err
		}
		if got := binary.BigEndian.Uint32(rep[:]); got != uint32(n) {
			return nil, fmt.Errorf("reply %d answers request %d", n, got)
		}
		now := time.Now()
		lat = append(lat, int64(now.Sub(sent[n%window])))
		echoes.Add(1)
		if stop.Load() {
			for k := 1; k < window; k++ {
				if _, err := io.ReadFull(rd, rep[:]); err != nil {
					return nil, err
				}
			}
			return lat, nil
		}
		sent[n%window] = now
		binary.BigEndian.PutUint32(req[:], uint32(n+window))
		if _, err := conn.Write(req[:]); err != nil {
			return nil, err
		}
	}
}

// settle reads the reference on the core everything runs on and on the other
// candidate, and moves this process, the null controller and the processes
// pids to the faster. here is the reading on the core the last slice ran on,
// chosen the one on the core the next slice will run on.
func (ref *reference) settle(c *cores, pids ...int) (here, chosen refSlice, err error) {
	if here, err = ref.read(); err != nil {
		return here, here, err
	}
	was, other := c.cur, c.other()
	if other == was {
		return here, here, nil
	}
	if err = c.moveTo(other, ref.pid()); err != nil {
		return here, here, err
	}
	there, err := ref.read()
	if err != nil {
		return here, here, err
	}
	// A core is left only for one clearly faster: moving costs the warmth of
	// its caches.
	if there.echoPerSec > 1.05*here.echoPerSec {
		return here, there, c.moveTo(other, append(pids, ref.pid())...)
	}
	return here, here, c.moveTo(was, append(pids, ref.pid())...)
}

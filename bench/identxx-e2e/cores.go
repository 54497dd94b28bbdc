package main

import (
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// Everything the benchmark runs — the generator with the daemons, identctl and
// the reference — shares one core at a time, so that there is one speed to
// account for and not two that move apart (bench/README.md has the
// measurements). Which core that is changes from slice to slice: the box's
// cores go through slow spells on their own schedules, and before every slice
// the reference is timed on each of the last two cores the process is allowed
// and everything is moved to the faster (see ref.go).

// cpuMask is a scheduler affinity mask: room for 8192 CPU ids.
type cpuMask [128]uint64

func oneCPU(cpu int) (m cpuMask) {
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

func setAffinity(tid int, m *cpuMask) syscall.Errno {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return e
}

// confine moves every thread of process pid to cpu. The thread list is read
// again until a pass finds every thread in place, since a thread not yet
// moved may have started another meanwhile; threads started later inherit
// the mask of the thread that starts them. It fails when a thread cannot be
// moved: figures from processes spread over several cores are a different
// arrangement, slower and noisier, and must not be reported as this one.
func confine(pid, cpu int) error {
	one := oneCPU(cpu)
	for moved := 1; moved > 0; {
		moved = 0
		tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
		if err != nil || len(tasks) == 0 {
			return fmt.Errorf("no threads under /proc/%d/task: %v", pid, err)
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(filepath.Base(t))
			if err != nil {
				continue
			}
			if got, err := affinity(tid); err != nil || got == one {
				continue // gone, or in place
			}
			moved++
			if e := setAffinity(tid, &one); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(thread %d of process %d, cpu %d): %w", tid, pid, cpu, e)
			}
			if got, err := affinity(tid); err == nil && got != one {
				return fmt.Errorf("thread %d of process %d is still allowed %d CPUs after sched_setaffinity to cpu %d", tid, pid, got.count(), cpu)
			}
		}
	}
	return nil
}

// cores is the set of cores the benchmark may run on and the one it runs on.
type cores struct {
	candidates []int // the last two CPUs the process is allowed
	cur        int
	self       int // this process
}

// newCores confines this process, and so every process it starts, to the
// last CPU it is allowed, which the kernel's housekeeping favours least.
func newCores() (*cores, error) {
	allowed, err := affinity(0)
	if err != nil {
		return nil, err
	}
	c := &cores{self: syscall.Getpid()}
	for i, w := range allowed {
		for ; w != 0; w &= w - 1 {
			c.candidates = append(c.candidates, i*64+bits.TrailingZeros64(w))
		}
	}
	if len(c.candidates) == 0 {
		return nil, errors.New("sched_getaffinity allows no CPU")
	}
	c.candidates = c.candidates[max(len(c.candidates)-2, 0):]
	return c, c.moveTo(c.candidates[len(c.candidates)-1])
}

// moveTo confines this process and the processes pids to cpu.
func (c *cores) moveTo(cpu int, pids ...int) error {
	for _, pid := range append([]int{c.self}, pids...) {
		if err := confine(pid, cpu); err != nil {
			return err
		}
	}
	c.cur = cpu
	return nil
}

// other is the candidate the benchmark is not running on, or the current
// core when it is the only one allowed.
func (c *cores) other() int {
	for _, cpu := range c.candidates {
		if cpu != c.cur {
			return cpu
		}
	}
	return c.cur
}
